"""Span tracing for the benchmark's traced runs, and the per-layer metrics.

The tracer wraps public functions of the isingdec modules from outside the
program: the wrapper replaces every module-level reference to the original
function, so calls made through `from .x import f` names are traced too.
Spans (name, start, end, parent) are kept in memory and handed back to the
caller when the process ends. A target the program no longer has is skipped
and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

# (span name, module, attribute); the span name's first part is the layer
TARGETS = (
    ("exact.batch_energies", "isingdec.exact", "batch_energies"),
    ("exact.batch_mpm_decode_curve", "isingdec.exact", "batch_mpm_decode_curve"),
    ("exact.batch_map_decode", "isingdec.exact", "batch_map_decode"),
    ("exact.magnetization_curve", "isingdec.exact", "magnetization_curve"),
    ("experiments.ber_surface", "isingdec.experiments", "ber_surface"),
    ("experiments.exact_sector_means", "isingdec.experiments", "exact_sector_means"),
    ("experiments.ber_curve", "isingdec.experiments", "ber_curve"),
    ("core.enumerate_cell_classes", "isingdec.core", "enumerate_cell_classes"),
    ("core.from_vectors", "isingdec.core", "Hamiltonian.from_vectors"),
    ("bte.magnetization_curve", "isingdec.bte", "bte_magnetization_curve"),
    ("bte.elimination_order", "isingdec.bte", "elimination_order"),
    # private, wrapped only to observe the temperature chunk of each pass
    ("bte.forward", "isingdec.bte", "_forward"),
    ("sa.sa_orientation_sweep", "isingdec.sa", "sa_orientation_sweep"),
    ("sa.inject_control_error", "isingdec.sa", "inject_control_error"),
    ("channel.sample_sector", "isingdec.channel", "sample_sector"),
    ("channel.sector_weights", "isingdec.channel", "sector_weights"),
    ("transitions.orientation_curve", "isingdec.transitions", "orientation_curve"),
    ("transitions.find_transitions", "isingdec.transitions", "find_transitions"),
    ("transitions.fit_logistic", "isingdec.transitions", "fit_logistic"),
    ("transitions.plow_model", "isingdec.transitions", "plow_model"),
)

# (metric name, unit); every traced run reports all of them
PER_LAYER = (
    ("exact.batch_energies_s", "s"),
    ("exact.batch_mpm_decode_curve_s", "s"),
    ("exact.batch_map_decode_s", "s"),
    ("exact.decodes", "count"),
    ("exact.decodes_per_s", "1/s"),
    ("exact.magnetization_curve_s", "s"),
    ("experiments.exact_sector_means_s", "s"),
    ("experiments.self_s", "s"),
    ("experiments.ber_curve_s", "s"),
    ("core.enumerate_cell_classes_s", "s"),
    ("core.from_vectors_s", "s"),
    ("bte.magnetization_curve_s", "s"),
    ("bte.calls", "count"),
    ("bte.temperatures", "count"),
    ("bte.s_per_temperature", "s"),
    ("bte.single_t_call_s", "s"),
    ("bte.elimination_order_s", "s"),
    ("bte.induced_width", "count"),
    ("bte.table_bytes", "bytes_computed"),
    ("sa.sa_orientation_sweep_s", "s"),
    ("sa.replica_updates", "count"),
    ("sa.replica_updates_per_s", "1/s"),
    ("sa.inject_control_error_s", "s"),
    ("channel.sample_sector_s", "s"),
    ("channel.sector_weights_s", "s"),
    ("transitions.self_s", "s"),
    ("transitions.find_transitions_s", "s"),
    ("transitions.fit_logistic_s", "s"),
    ("transitions.plow_model_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
)


def _table_entries(graph, order) -> int:
    """Entries of all bucket tables one elimination pass keeps, per temperature.

    Eliminating v leaves a table over v and its remaining neighbours, and
    those neighbours become a clique.
    """
    adj = {s: set() for s in graph.spins}
    for i, j in graph.edges:
        adj[i].add(j)
        adj[j].add(i)
    total = 0
    for v in order:
        nbrs = adj.pop(v)
        total += 1 << (len(nbrs) + 1)
        for a in nbrs:
            adj[a].discard(v)
            adj[a] |= nbrs - {a}
    return total


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, counters or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._entries: dict[tuple, int] = {}

    def span(self, name: str, fn, counters=None):
        """`fn` wrapped so every call records a span named `name`."""
        sig = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if counters:
                try:
                    rec[4] = counters(self, sig.bind(*args, **kwargs).arguments,
                                      result)
                except (TypeError, KeyError, AttributeError):
                    pass  # signature changed: the counter reads 0, the call stands
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every target; returns the names of targets not found."""
        missing = []
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            orig = getattr(owner, fn_name, None)
            if orig is None:
                missing.append(name)
                continue
            wrapped = self.span(name, orig, _COUNTERS.get(name))
            if owner_name:
                setattr(owner, fn_name, staticmethod(wrapped))
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "isingdec" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        return missing

    def forward_table_bytes(self, H, temps, order) -> int:
        key = (H.graph.spins, H.graph.edges, order.order)
        if key not in self._entries:
            self._entries[key] = _table_entries(H.graph, order.order)
        return 8 * len(temps) * self._entries[key]


_COUNTERS = {
    "exact.batch_mpm_decode_curve": lambda tr, a, r: {
        "decodes": int(a["energies"].shape[0]) * len(a["temps"])},
    "bte.magnetization_curve": lambda tr, a, r: {"temperatures": len(a["temps"])},
    "bte.elimination_order": lambda tr, a, r: {"induced_width": int(r.induced_width)},
    "bte.forward": lambda tr, a, r: {
        "table_bytes": tr.forward_table_bytes(a["H"], a["temps"], a["order"])},
    "sa.sa_orientation_sweep": lambda tr, a, r: {
        "replica_updates": int(a["schedule"].total_updates) * int(a["n_runs"])},
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced process, keyed as in PER_LAYER."""
    own = self_times(spans)
    total: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for (name, start, end, _, _), s in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s

    def counter(span_name, key):
        return [c[key] for name, _, _, _, c in spans if name == span_name and c]

    # a metric named after a wrapped function is the time spent in its calls
    spanned = {name for name, _, _ in TARGETS}
    m = {name: total.get(name[:-2], 0.0) for name, _ in PER_LAYER
         if name.endswith("_s") and name[:-2] in spanned}
    for layer in ("experiments", "transitions", "cli"):
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)

    m["exact.decodes"] = sum(counter("exact.batch_mpm_decode_curve", "decodes"))
    busy = total.get("exact.batch_mpm_decode_curve", 0.0)
    m["exact.decodes_per_s"] = m["exact.decodes"] / busy if busy else 0.0

    calls = [(end - start, c["temperatures"]) for name, start, end, _, c in spans
             if name == "bte.magnetization_curve" and c]
    grid = [(d, n) for d, n in calls if n > 1]
    single = [d for d, n in calls if n == 1]
    m["bte.calls"] = len(calls)
    m["bte.temperatures"] = sum(n for _, n in calls)
    grid_temps = sum(n for _, n in grid)
    m["bte.s_per_temperature"] = (
        sum(d for d, _ in grid) / grid_temps if grid_temps else 0.0)
    m["bte.single_t_call_s"] = statistics.fmean(single) if single else 0.0
    m["bte.induced_width"] = max(
        counter("bte.elimination_order", "induced_width"), default=0)
    m["bte.table_bytes"] = max(counter("bte.forward", "table_bytes"), default=0)

    m["sa.replica_updates"] = sum(counter("sa.sa_orientation_sweep", "replica_updates"))
    busy = total.get("sa.sa_orientation_sweep", 0.0)
    m["sa.replica_updates_per_s"] = m["sa.replica_updates"] / busy if busy else 0.0
    m["cli.output_bytes"] = output_bytes
    return m
