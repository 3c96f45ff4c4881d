"""Configuration-driven command-line front end.

Every command is a pure function of (config, seed) that returns its
outputs, plot-ready CSV and JSON texts by file name. Only `main` writes
them, plus a JSON manifest echoing the resolved configuration, and it makes
the output directory only then, after every check and all the work: a
refused run leaves nothing behind. Reruns with the same inputs are
byte-identical. Config files are flat key=value text grouped under
[section] headers. One schema gives each key its type and domain: an
unknown key, or a value outside its key's domain, is refused with its line
number when the file is read, by every command, `validate` included,
whether or not the command reads the key. Checks that need a second key or
the graph run in the commands that read the keys, and in `validate` where
they do not depend on the command; so does the engine's capacity check on
the instances' graph, before any curve or anneal.

Importing the module loads what the single-cell commands run (core,
channel, exact, experiments, transitions); the BTE engine, the annealer,
the thread pool and numpy.random load on first use, in the commands that
run them.

Exit codes: 0 success, 2 config error, 3 capacity error, 4 internal error.
One config error comes after the work: `plow-fit` with too few transition
points for a fit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import channel, exact, experiments, transitions
from .core import (
    CapacityError,
    FormatError,
    Hamiltonian,
    build_chimera,
    canonicalize_cell,
    cell_from_word,
    enumerate_cell_classes,
    parse_hamiltonian,
)

if TYPE_CHECKING:
    from . import sa

__all__ = ["main", "ConfigError", "load_config"]


class ConfigError(Exception):
    """Invalid run configuration; message carries file/line context."""


# ---------------------------------------------------------------------------
# config parsing


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


# A key's domain: (test, refusal). A value whose test is false is refused
# when the file is read.
_ANY = (lambda v: True, "")
_NONNEGATIVE = (lambda v: v >= 0, "{key} must be >= 0, got {value!r}")
_COUNT = (lambda v: v >= 1, "{key} must be >= 1, got {value!r}")
_SCALE = (lambda v: 0 < v < math.inf,  # false for NaN too
          "{key} must be positive and finite, got {value!r}")
_SIGMA = (lambda v: 0 <= v < math.inf,
          "{key} must be finite and >= 0, got {value!r}")
_PROBABILITIES = (lambda v: v and all(0 <= p <= 1 for p in v),
                  "{key} must list one or more values in [0, 1], got {value!r}")
_TEMPERATURES = (len, "{key} must list at least one temperature, got {value!r}")


def _one_of(*names):
    return (lambda v: v in names,
            "unknown {key} {value!r}: use " + " or ".join(names))


# (section, key) -> (value parser, domain); one schema shared by all
# commands. A key outside it, or a value outside its domain, is a config
# error in every command, validate included, whether or not it reads the key.
_SCHEMA = {
    ("run", "seed"): (int, _NONNEGATIVE),
    ("run", "out"): (str, _ANY),
    ("graph", "l"): (int, _COUNT),
    ("graph", "exclude"): (_parse_ints, _ANY),
    ("graph", "alpha"): (float, _SCALE),
    ("graph", "engine"): (str, _one_of("exact", "bte")),
    ("graph", "hamiltonian"): (str, _ANY),
    ("grid", "t_min"): (float, _SCALE),
    ("grid", "t_max"): (float, _SCALE),
    ("grid", "points"): (int, _COUNT),
    ("channel", "p"): (_parse_floats, _PROBABILITIES),
    # the exact channel average is the only mode; the key stays valid for
    # configs that name it
    ("channel", "mode"): (str, _one_of("exhaustive")),
    ("channel", "flips"): (int, _NONNEGATIVE),
    ("ensemble", "instances"): (int, _COUNT),
    ("ensemble", "classes"): (_parse_bool, _ANY),
    ("ensemble", "correlation"): (_parse_bool, _ANY),
    ("sa", "t_start"): (float, _SCALE),
    ("sa", "t_end"): (float, _SCALE),
    ("sa", "updates"): (int, _COUNT),
    ("sa", "runs"): (int, _COUNT),
    ("sa", "checkpoints"): (_parse_floats, _TEMPERATURES),
    ("control", "sigma_h"): (float, _SIGMA),
    ("control", "sigma_j"): (float, _SIGMA),
    ("control", "realizations"): (int, _NONNEGATIVE),
    ("plow", "n_run"): (int, _COUNT),
    ("plow", "sampler_temperature"): (float, _SCALE),
}


def load_config(path: Path) -> dict:
    """Parse a flat key=value config with [section] headers.

    Returns {"section.key": value}. Unknown keys, bad values, values outside
    their key's domain and duplicate keys raise ConfigError with the
    offending line number.
    """
    config: dict = {}
    section = ""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as err:
        raise ConfigError(f"{path}: {err}") from err
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key [{section}] {key}")
        parser, (in_domain, refusal) = _SCHEMA[section, key]
        full = f"{section}.{key}"
        if full in config:
            raise ConfigError(f"{path}:{lineno}: duplicate key {full}")
        try:
            config[full] = parser(value)
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for {full}: {err}")
        if not in_domain(config[full]):
            raise ConfigError(refusal.format(key=full, value=config[full])
                              + f" ({path}:{lineno})")
    return config


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"missing required key {key}")
    return config[key]


def _temperature_grid(config: dict, distinct: bool = True) -> np.ndarray:
    """The [grid] linspace; unless distinct is False, ConfigError if it
    repeats a temperature."""
    points = _require(config, "grid.points")
    t_max = config.get("grid.t_max", 7.0)
    t_min = config.get("grid.t_min", t_max / points)
    if t_max < t_min:
        raise ConfigError("invalid temperature grid: grid.t_max < grid.t_min")
    grid = np.linspace(t_min, t_max, points)
    if distinct and np.any(grid[1:] <= grid[:-1]):
        raise ConfigError("grid.t_min and grid.t_max leave no room for "
                          "grid.points distinct temperatures")
    return grid


def _channel_p(config: dict) -> tuple[np.ndarray, np.ndarray]:
    """channel.p values and their Nishimori temperatures."""
    p_vals = np.asarray(_require(config, "channel.p"), dtype=float)
    if np.any(p_vals <= 0) or np.any(p_vals >= 0.5):
        raise ConfigError("channel.p values must lie in (0, 0.5)")
    return p_vals, np.array([channel.nishimori_temperature(p) for p in p_vals])


def _ber_surface(config: dict, t_decode: np.ndarray,
                 t_nish: np.ndarray) -> experiments.BerSurface:
    """The exact BER surface of the configured codeword instance."""
    return experiments.ber_surface(_codeword_hamiltonian(config), t_decode, t_nish)


def _engine(config: dict, graph):
    """The configured engine, once it has checked that graph, the graph of
    the instances, is within its capacity: CapacityError, before any curve,
    if not."""
    if config.get("graph.engine") == "bte":
        from . import bte
        engine = bte.BteEngine()
    else:
        engine = exact.ExactEngine()
    engine.check_capacity(graph)
    return engine


def _graph(config: dict):
    L = config.get("graph.l", 1)
    excluded = frozenset(config.get("graph.exclude", ()))
    try:
        graph = build_chimera(L, excluded=excluded)
    except ValueError as err:
        raise ConfigError(f"[graph] {err}") from err
    if not graph.spins:
        raise ConfigError("[graph] exclude leaves no spin")
    return graph


def _control_spec(config: dict) -> sa.ControlErrorSpec | None:
    """The [control] Gaussian control error, or None when control.realizations
    is absent or 0; an unset sigma takes the ControlErrorSpec default."""
    if config.get("control.realizations", 0) == 0:
        return None
    from . import sa
    return sa.ControlErrorSpec(**{k: config[f"control.{k}"]
                                  for k in ("sigma_h", "sigma_j")
                                  if f"control.{k}" in config})


def _flips(config: dict, H: Hamiltonian) -> int | None:
    """channel.flips, None if unset; ConfigError above the N+M spins and
    couplers of H's graph."""
    flips = config.get("channel.flips")
    total = H.graph.n_spins + H.graph.n_edges
    if flips is not None and flips > total:
        raise ConfigError(f"channel.flips must lie in [0, {total}], got {flips}")
    return flips


def _anneal_plan(config: dict, H: Hamiltonian):
    """The [sa] schedule, its checkpoints and their temperatures on H."""
    from . import sa
    try:
        schedule = sa.AnnealSchedule(
            t_start=config.get("sa.t_start", 10.0),
            t_end=config.get("sa.t_end", 1.405),
            total_updates=config.get("sa.updates", 1_000_000))
    except ValueError as err:
        raise ConfigError(f"[sa] {err}") from err
    checkpoints = np.asarray(config.get(
        "sa.checkpoints", list(np.linspace(schedule.t_end, schedule.t_start, 8))))
    try:
        temps = sa.checkpoint_temperatures(H, schedule, checkpoints)
    except ValueError as err:
        raise ConfigError(f"sa.{err}") from err
    return schedule, checkpoints, temps


def _hamiltonian_file(path) -> Hamiltonian:
    """Parse the Hamiltonian file at path; a file that cannot be read or
    parsed is a config error that names it, like the config file itself."""
    try:
        return parse_hamiltonian(Path(path).read_text())
    except (OSError, FormatError) as err:
        raise ConfigError(f"{path}: {err}") from err


def _clean_hamiltonian(config: dict) -> Hamiltonian:
    """The channel's clean instance: the file, which must be nominal, or
    the uniform instance on the graph with alpha."""
    if "graph.hamiltonian" not in config:
        return Hamiltonian.uniform(_graph(config),
                                   alpha=config.get("graph.alpha", 1.0))
    path = config["graph.hamiltonian"]
    H = _hamiltonian_file(path)
    if not H.is_nominal():
        raise ConfigError(f"{path}: the channel needs a nominal instance, "
                          "h and J in {-1, +1}")
    return H


def _codeword_hamiltonian(config: dict) -> Hamiltonian:
    """The channel's clean instance, which the exact sector means of ber and
    surface need to be a codeword instance: a file holding any other
    instance is a config error."""
    H = _clean_hamiltonian(config)
    if not H.is_codeword():
        raise ConfigError(f"{config['graph.hamiltonian']}: exact sector means need a "
                          "codeword instance (h_i = +-1, J_ij = h_i h_j)")
    return H


# ---------------------------------------------------------------------------
# output helpers


def _out_dir(path: Path) -> Path:
    """The output directory; a path that names a file or lies under one is
    a config error, like an unreadable config file."""
    try:
        nearest = next(p for p in (path, *path.parents) if p.exists())
        if not nearest.is_dir():
            raise NotADirectoryError(f"{nearest} is not a directory")
    except OSError as err:
        raise ConfigError(f"{path}: {err}") from err
    return path


def _csv(header: list[str], rows) -> str:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def _json(value) -> str:
    return json.dumps(value, indent=2, default=str) + "\n"


# ---------------------------------------------------------------------------
# commands


def cmd_validate(config, seed):
    """Build what the commands build from the config, for the checks that
    need more than one key: the Hamiltonian (the file, or the graph and
    alpha), the flips bound on its graph and, when [grid] or [sa] is
    present, the temperature grid (repeats allowed, as `surface` merges
    them) or the anneal schedule and checkpoints; then the engine's
    capacity check on the instances' graph, a single cell for the class
    ensemble. With channel.p, which only ber and surface read, the
    Hamiltonian must be a codeword instance, as they need."""
    H = (_codeword_hamiltonian if "channel.p" in config else _clean_hamiltonian)(config)
    _flips(config, H)
    if any(key.startswith("grid.") for key in config):
        _temperature_grid(config, distinct=False)
    if any(key.startswith("sa.") for key in config):
        _anneal_plan(config, H)
    cell = config.get("ensemble.classes", False)
    _engine(config, build_chimera(1) if cell else H.graph)
    print("config ok")
    return {}


def cmd_canonicalize(config, seed):
    """Emit the canonical single-cell coupler classes, or canonicalize a file."""
    if "graph.hamiltonian" in config:
        path = config["graph.hamiltonian"]
        H = _hamiltonian_file(path)
        try:
            word = canonicalize_cell(H)
        except ValueError as err:  # not a nominal full cell
            raise ConfigError(f"{path}: {err}") from err
        return {"canonical.csv": _csv(["canonical_word", "n_negative_couplers"],
                                      [[word, bin(word).count("1")]])}
    count, histogram, canonical = enumerate_cell_classes()
    words, orbit_sizes = np.unique(canonical, return_counts=True)
    rows = [[int(w), int(o), bin(int(w)).count("1")]
            for w, o in zip(words, orbit_sizes)]
    return {"classes.csv": _csv(
        ["canonical_word", "orbit_size", "n_negative_couplers"], rows)}


def cmd_ber(config, seed):
    """BER ratio curve r_mpm(T_Nish)/r_map at matched decoding temperature."""
    p_vals, t_nish = _channel_p(config)
    surf = _ber_surface(config, np.sort(t_nish), t_nish)
    rows = []
    for k, (p, t) in enumerate(zip(p_vals, t_nish)):
        d = int(np.argmin(np.abs(surf.t_decode - t)))
        # std stays a column: the exact average has no sampling error
        rows.append([float(p), float(t), float(surf.r_map[k]),
                     float(surf.r_mpm[d, k]), float(surf.ratio[d, k]), 0.0])
    return {"ber.csv": _csv(["p", "t_nish", "r_map", "r_mpm", "ratio", "std"],
                            rows)}


def cmd_surface(config, seed):
    grid = _temperature_grid(config, distinct=False)  # merged below
    _, t_nish = _channel_p(config)
    # np.unique without return_counts imports numpy.ma on its first call
    t_decode = np.unique(np.concatenate([grid, t_nish]), return_counts=True)[0]
    surf = _ber_surface(config, t_decode, t_nish)
    rows = []
    for d, td in enumerate(surf.t_decode):
        for k, tn in enumerate(surf.t_nish):
            rows.append([float(td), float(tn), float(surf.r_mpm[d, k]),
                         float(surf.r_map[k]), float(surf.ratio[d, k])])
    return {"surface.csv": _csv(["t_decode", "t_nish", "r_mpm", "r_map", "ratio"],
                                rows)}


def _transition_instances(config, seed):
    """Yield (label, Hamiltonian) pairs per the ensemble configuration."""
    if config.get("ensemble.classes", False):
        _, _, canonical = enumerate_cell_classes()
        for word in np.unique(canonical, return_counts=True)[0]:  # as above
            yield f"class-{int(word)}", cell_from_word(int(word))
        return
    H_clean = _clean_hamiltonian(config)
    flips = _flips(config, H_clean)
    p = config.get("channel.p", [0.1])
    for k in range(config.get("ensemble.instances", 1)):
        rng = channel.stream(seed, 10, k)
        if flips is not None:
            H, _ = channel.sample_sector(H_clean, flips, rng)
        else:
            H, _ = channel.corrupt(H_clean, p[0], rng)
        yield f"instance-{k}", H


def cmd_transitions(config, seed):
    """Per-spin (or per-pair) sign-transition records over an ensemble."""
    grid = _temperature_grid(config)
    if len(grid) < 5:
        raise ConfigError("transition grid needs at least 5 points")
    correlation = config.get("ensemble.correlation", False)
    labels, Hs = zip(*_transition_instances(config, seed))
    graph = Hs[0].graph
    engine = _engine(config, graph)
    curves = transitions.orientation_curves(
        Hs, grid, engine, graph.edges if correlation else graph.spins)
    rows = []
    for label, curve in zip(labels, curves):
        for rec in transitions.find_transitions(curve):
            rows.append([
                label, str(rec.spin), rec.sigma_low,
                int(rec.excluded), len(rec.transition_temps),
                " ".join(repr(t) for t in rec.transition_temps),
            ])
    name = "correlation_transitions.csv" if correlation else "transitions.csv"
    return {name: _csv(["instance", "item", "sigma_low", "excluded",
                        "n_transitions", "transition_temps"], rows)}


def _plow_scatter(config, seed):
    """(t_trans, p_low) pairs per included spin across the ensemble."""
    grid = _temperature_grid(config)
    n_run = config.get("plow.n_run", 1000)
    t_samp = _require(config, "plow.sampler_temperature")
    spec = _control_spec(config)
    Hs = [H for _, H in _transition_instances(config, seed)]
    engine = _engine(config, Hs[0].graph)
    spins = Hs[0].graph.spins
    curves = transitions.orientation_curves(Hs, grid, engine, spins)
    # the Hamiltonians the sampler draws from at t_samp: each instance, or its
    # control-error realizations drawn from its own stream
    sampler_Hs = Hs
    if spec is not None:
        from . import sa
        sampler_Hs = []
        for k, H in enumerate(Hs):
            rng = channel.stream(seed, 20, k)
            sampler_Hs += [sa.inject_control_error(H, spec, rng)
                           for _ in range(config["control.realizations"])]
    at_samp = engine.moment_curves(sampler_Hs, np.array([t_samp]),
                                   [(s,) for s in spins])[:, 0]
    points = []
    for curve, mags in zip(curves, np.split(at_samp, len(Hs))):
        recs = transitions.find_transitions(curve)
        for i, rec in enumerate(recs):
            if rec.excluded or len(rec.transition_temps) != 1:
                continue
            p_agree = 0.5 * (1.0 + rec.sigma_low * mags[:, i])
            p_low = float(np.mean(transitions.plow_model(p_agree, n_run)))
            points.append((rec.transition_temps[0], p_low))
    return points


def cmd_plow_fit(config, seed):
    """P_low-vs-T_trans scatter plus a logistic transition fit."""
    points = _plow_scatter(config, seed)
    if len(points) < 3:
        raise ConfigError("too few transition points for a fit")
    t_trans = np.array([p[0] for p in points])
    p_low = np.array([p[1] for p in points])
    t0, width = transitions.fit_logistic(t_trans, p_low)
    return {
        "plow.csv": _csv(["t_trans", "p_low"],
                         [[float(a), float(b)] for a, b in points]),
        "fit.json": _json({"center": t0, "width": width,
                           "n_points": len(points)}),
    }


def cmd_sa_compare(config, seed):
    """Annealer orientations vs equilibrium at checkpoint temperatures."""
    from . import sa, workers
    H = next(_transition_instances(config, seed))[1]
    # control error keeps alpha, so temps are the sweep's temperatures
    schedule, checkpoints, temps = _anneal_plan(config, H)
    n_runs = config.get("sa.runs", 1000)
    spec = _control_spec(config)
    if spec is not None:
        H = sa.inject_control_error(H, spec, channel.stream(seed, 31))
    engine = _engine(config, H.graph)
    # the reference depends only on H and the checkpoints, so it runs beside
    # the anneal; the anneal itself stays whole, one generator feeds it
    ref, sweep = workers.run_calls([
        lambda: engine.magnetization_curve(H, temps),
        lambda: sa.sa_orientation_sweep(H, schedule, checkpoints, n_runs,
                                        channel.stream(seed, 30)),
    ], workers.usable_cpus())
    band = 4.0 * np.sqrt(np.maximum(1.0 - ref ** 2, 0.0) / n_runs)
    rows = []
    onset = None
    for t_idx, T in enumerate(sweep.temperatures):
        for s_idx, spin in enumerate(sweep.items):
            dev = float(sweep.values[t_idx, s_idx] - ref[t_idx, s_idx])
            within = abs(dev) <= band[t_idx, s_idx]
            if not within:
                onset = max(onset or 0.0, float(T))
            rows.append([float(T), spin, float(sweep.values[t_idx, s_idx]),
                         float(ref[t_idx, s_idx]), dev,
                         float(band[t_idx, s_idx]), int(within)])
    return {
        "deviation.csv": _csv(["temperature", "spin", "sa_mean", "reference",
                               "deviation", "band_4sigma", "within"], rows),
        "summary.json": _json({
            "all_within_band": onset is None,
            "deviation_onset_temperature": onset,
            "n_runs": n_runs,
            "total_updates": schedule.total_updates,
        }),
    }


_COMMANDS = {
    "ber": cmd_ber,
    "surface": cmd_surface,
    "transitions": cmd_transitions,
    "plow-fit": cmd_plow_fit,
    "sa-compare": cmd_sa_compare,
    "canonicalize": cmd_canonicalize,
    "validate": cmd_validate,
}


# Built at import, with the rest of the start-up: argparse translates its
# messages through gettext, which imports locale on first use.
_PARSER = argparse.ArgumentParser(
    prog="isingdec",
    description="Maximum-entropy vs maximum-likelihood Ising decoding runs")
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--config", required=True, type=Path)
_PARSER.add_argument("--seed", type=int, default=None)
_PARSER.add_argument("--out", type=Path, default=None)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.time()
    try:
        config = load_config(args.config)
        seed = args.seed if args.seed is not None else config.get("run.seed")
        if seed is None:
            raise ConfigError("seed is mandatory: pass --seed or set [run] seed")
        if seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        out_dir = _out_dir(args.out or Path(config.get("run.out", ".")))
        outputs = _COMMANDS[args.command](config, seed)
        if outputs:  # every check and all the work are done
            config_text = args.config.read_text()
            outputs["manifest.json"] = _json({
                "command": args.command,
                "seed": seed,
                "config": {k: config[k] for k in sorted(config)},
                "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
                "outputs": list(outputs),
                "elapsed_seconds": round(time.time() - started, 3),
            })
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
            except OSError as err:
                raise ConfigError(f"{out_dir}: {err}") from err
            for name, text in outputs.items():
                with open(out_dir / name, "w", newline="") as fh:
                    fh.write(text)
        return 0
    except (ConfigError, FormatError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except CapacityError as err:
        print(f"capacity error: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # internal failures must not masquerade as config
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
