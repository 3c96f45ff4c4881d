"""Exact Boltzmann inference on Chimera graphs via bucket-tree elimination.

Replaces exhaustive enumeration for instances too large to enumerate.

The forward pass eliminates the spins in order. Bucket v combines the field
and coupler factors whose earliest spin is v with its children's messages
into lam_v over scope (v, separator...), sends msg_v = sum over v of lam_v
to its parent (the separator's earliest spin) and keeps one table,
cond_v = lam_v / msg_v = P(v | separator). Each factor and each message is
scaled so that its largest entry at each temperature is 1; ln Z is the sum
of the logs of those scales (a root's message is its own scale).

The pass runs in linear arithmetic: a product, a pairwise sum and a division
per table entry. Every table it combines is a product of scaled factors and
messages, so its entries are at most 1, and a guard checks that none falls
below the smallest normal float, `np.finfo(float).tiny`; then every number
of the pass, messages included, is a normal float. Where one does, at any
temperature, the pass is abandoned. Each temperature's rows are computed
apart from the others', so a flagged temperature would trip the guard again:
the flagged ones go straight to log arithmetic (sums of log tables,
log-add-exp over v), and the others run linear again.

Only low temperatures trip the guard. A corrupted 4x4 table spans about
52/T nats against a float's 708, and where several messages meet, their
largest entries need not coincide, which adds up to 42/T: the linear pass
holds down to about T = 0.125 there (0.09 on 3x3). Both arithmetics leave
the same tables, cond_v as probabilities, which the other outputs read:
- marginals walk the buckets in reverse order. A bucket's belief
  P(v, separator) is cond_v times its parent's belief marginalized onto the
  separator; it gives <sigma_v> and <sigma_i sigma_j> for the edges whose
  earliest spin is v;
- sampling draws each spin from cond_v at its already-drawn separator.

Tables carry a leading temperature axis, so a whole grid chunk is processed
at once, and one axis per scope spin in elimination order. Broadcasts and
marginals see adjacent axes that play the same part as one run. A broadcast
whose innermost run is short loops over it in Python, so that numpy's inner
loop runs over the long run outside it; a marginal sums one run at a time
as a product with a vector of ones.

Memory. The elimination order alone fixes the shape and lifetime of every
table a pass writes: factors, combined and bucket tables (lam_v becomes
cond_v and then the belief in place), messages, sum-out scratch, and the
marginals sent down with their intermediates. Each order's plan
(`EliminationOrder.plan`) gives every table an offset such that tables
alive at the same time never share an entry. A call makes one buffer, the
arena, of the plan's entries per temperature times its largest chunk; every
pass of the call (each chunk, an abandoned linear attempt, the re-runs)
writes its tables as views of it, at offset times the pass's temperature
count, and a table the plan does not hold raises LookupError. The arena is
dropped when the call returns; its size, known before any table is written,
is the call's peak.

A batch of Hamiltonians runs whole calls side by side on threads, as many as
there are usable CPUs and as BUDGET holds the calls' arenas at once. A chunk
is never split across threads, so each curve is the one its call gives alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import CapacityError, ChimeraGraph, Hamiltonian, common_graph
from .workers import run_calls, usable_cpus

__all__ = [
    "EliminationOrder",
    "elimination_order",
    "bte_log_partition_curve",
    "bte_magnetization_curve",
    "bte_magnetization_curves",
    "bte_pair_correlation_curve",
    "bte_pair_correlation_curves",
    "bte_sample",
    "BteEngine",
]

# bytes of arena one call may hold (8 * n_T * plan entries): a 32-temperature
# chunk on L=4 (2.16 GiB) fits, L=5 gets one temperature per pass (1.65 GiB).
# Calls that run at once on threads share it.
BUDGET = 9 << 28
_SPIN_VALUES = np.array([-1.0, 1.0])  # table axis index 0 -> spin -1, 1 -> +1
_PAIR_VALUES = np.outer(_SPIN_VALUES, _SPIN_VALUES)
_TINY = np.finfo(float).tiny
# a broadcast loops in Python over an innermost run of at most this many
# entries: faster than one op at runs of 2 and 4, slower at 8 and 16
_SHORT = 4
# arena offsets and sizes are multiples of this many entries per
# temperature, so every table starts on a 64-byte boundary
_ALIGN = 8


@dataclass(frozen=True)
class EliminationOrder:
    """A complete variable order of a graph, the width it induces, the
    entries of all bucket tables one elimination pass keeps per temperature,
    and (made on first use) the memory plan of a pass."""

    order: tuple[int, ...]
    induced_width: int
    table_entries: int
    graph: ChimeraGraph = field(repr=False)

    @functools.cached_property
    def plan(self) -> _Plan:
        """The arena layout of one forward and backward pass in this order."""
        return _pack(*_lifetimes(self.graph, self.order))


def _elimination_cost(graph: ChimeraGraph,
                      order: tuple[int, ...]) -> tuple[int, int]:
    """(induced width, table entries per temperature) of eliminating in order."""
    adj = {s: set(nbrs) for s, nbrs in graph.neighbors().items()}
    width = entries = 0
    for v in order:
        nbrs = adj.pop(v)
        width = max(width, len(nbrs))
        entries += 1 << (len(nbrs) + 1)
        for a in nbrs:
            adj[a].discard(v)
            adj[a] |= nbrs - {a}
    return width, entries


@functools.lru_cache(maxsize=8)
def elimination_order(graph: ChimeraGraph) -> EliminationOrder:
    """Deterministic column-major order.

    Cells are processed column by column; within a column all side-0 spins go
    first, then all side-1 spins. Grouping a column's side-0 spins keeps the
    frontier to the side-1 cut plus one cell, so the induced width stays at
    4L on an unexcluded L x L Chimera with K=4 (well under the 4L+4 bound of
    the per-cell order). The order of a graph is made once per process (for
    the last few graphs), so its plan is too.
    """
    order: list[int] = []
    L, K = graph.L, graph.K
    active = set(graph.spins)
    for x in range(L):
        for u in (0, 1):
            for y in range(L):
                for k in range(K):
                    s = 2 * K * (y * L + x) + K * u + k
                    if s in active:
                        order.append(s)
    ot = tuple(order)
    width, entries = _elimination_cost(graph, ot)
    return EliminationOrder(order=ot, induced_width=width, table_entries=entries,
                            graph=graph)


# ---------------------------------------------------------------------------
# memory plan


@dataclass(frozen=True)
class _Plan:
    """Where every table of a pass lives in its arena.

    slots maps each table's key, in the order the pass first writes the
    tables, to (offset, entries, first, last): its place in entries per
    temperature, both multiples of _ALIGN, and the first and last step of
    the pass that use it. A pass over n temperatures finds the table at
    [offset * n, (offset + entries) * n) of the arena. Tables whose
    lifetimes overlap never share an entry. entries is the arena's size per
    temperature.
    """

    slots: dict[tuple, tuple[int, int, int, int]]
    entries: int


class _Walk:
    """The tables a pass writes, in the order it writes them: key ->
    [entries rounded up to _ALIGN, first step, last step]."""

    def __init__(self):
        self.tables: dict[tuple, list[int]] = {}
        self.step = 0

    def new(self, key: tuple, entries: int) -> tuple:
        self.tables[key] = [-(-entries // _ALIGN) * _ALIGN, self.step, self.step]
        return key

    def use(self, *keys: tuple) -> None:
        for key in keys:
            self.tables[key][2] = self.step


def _lifetimes(graph: ChimeraGraph,
               order: tuple[int, ...]) -> tuple[dict[tuple, list[int]], int]:
    """Every table of one forward and backward pass in `order`, keyed as the
    pass asks the arena for it, with its size and lifetime; and the last
    step of the forward pass.

    The walk repeats the scope bookkeeping of _forward, _combine and
    _moments without table values. A table written in place of another
    (a combined table, a belief) keeps its key; a marginal that drops no
    axis is the belief itself. Each bucket's group reads get one set of
    scratch tables, sized for the largest of its spin and edge groups.
    """
    pos = {v: t for t, v in enumerate(order)}
    walk = _Walk()
    pending: dict[int, list] = {v: [] for v in order}  # (scope, key)
    children: dict[int, list[int]] = {v: [] for v in order}
    factors: dict[int, list[tuple[int, ...]]] = {v: [(v,)] for v in order}
    for i, j in graph.edges:
        a, b = (i, j) if pos[i] < pos[j] else (j, i)
        factors[a].append((a, b))
    scopes: dict[int, tuple[int, ...]] = {}
    conds: dict[int, tuple] = {}
    for v in order:
        walk.step += 1
        items = [(s, walk.new(("factor", s), 1 << len(s))) for s in factors[v]]
        merged: dict[tuple[int, ...], tuple] = {}
        for s, key in items + pending.pop(v):
            if s in merged:
                walk.use(merged[s], key)
            else:
                merged[s] = key
        ordered = sorted(merged.items(), key=lambda it: len(it[0]))
        acc_scope, acc = ordered[0]
        for s, key in ordered[1:]:
            walk.step += 1
            scope = tuple(sorted(set(acc_scope) | set(s), key=pos.__getitem__))
            walk.use(acc, key)
            if scope == s:
                acc = key
            elif scope != acc_scope:
                acc = walk.new(("acc", scope), 1 << len(scope))
            acc_scope = scope
        walk.step += 1
        sep = 1 << (len(acc_scope) - 1)
        msg = walk.new(("msg", v), sep)
        walk.new(("scratch", v), sep)
        walk.use(acc)
        scopes[v], conds[v] = acc_scope, acc
        if len(acc_scope) > 1:
            pending[acc_scope[1]].append((acc_scope[1:], msg))
            children[acc_scope[1]].append(v)
    forward_end = walk.step
    down: dict[int, tuple] = {}
    for v in reversed(order):
        walk.step += 1
        walk.use(conds[v])
        if len(scopes[v]) > 1:
            walk.use(down.pop(v))
        for c in children[v]:
            down[c] = conds[v]
            for k, (pre, _, post) in enumerate(_sum_steps(scopes[v], scopes[c][1:])):
                walk.step += 1
                walk.use(down[c])
                down[c] = walk.new(("down", c, k), pre * post)
        reads = [[pre * post for pre, _, post in _sum_steps(scopes[v], g)]
                 for g in factors[v]]
        walk.step += 1
        walk.use(conds[v])
        for k in range(max(map(len, reads))):
            walk.new(("read", v, k), max(r[k] for r in reads if len(r) > k))
    return walk.tables, forward_end


def _pack(tables: dict[tuple, list[int]], forward_end: int) -> _Plan:
    """Offsets for the tables of _lifetimes.

    The tables alive when the forward pass ends (the cond tables) are
    stacked from offset 0 in the order the pass writes them, so that an
    abandoned pass touches only the bottom of the arena. The others go
    greedy by size (Pisarchyk and Lee, arXiv:2001.03288): largest first,
    each into the smallest gap that holds it above the cond tables and
    between the tables already placed whose lifetimes overlap its own, or
    else above them all.
    """
    n_steps = max(last for _, _, last in tables.values()) + 1
    floor = np.zeros(n_steps, dtype=np.int64)  # top of the live cond tables
    offsets: dict[tuple, int] = {}
    top = 0
    rest = []
    for key, (entries, first, last) in tables.items():
        if first <= forward_end <= last:
            offsets[key] = top
            top += entries
            np.maximum(floor[first:last + 1], top, out=floor[first:last + 1])
        else:
            rest.append(key)
    rest.sort(key=lambda key: -tables[key][0])
    live: list[list[tuple[int, int]]] = [[] for _ in range(n_steps)]
    for key in rest:
        entries, first, last = tables[key]
        low = int(floor[first:last + 1].max())
        best = gap = None
        for start, end in sorted(set().union(*live[first:last + 1])):
            if start - low >= entries and (gap is None or start - low < gap):
                best, gap = low, start - low
            low = max(low, end)
        offset = offsets[key] = low if best is None else best
        top = max(top, offset + entries)
        for step in range(first, last + 1):
            live[step].append((offset, offset + entries))
    return _Plan({key: (offsets[key], *tables[key]) for key in tables}, top)


class _Arena:
    """One buffer for all passes of one call over up to n_temps temperatures
    each, handing out the tables of `plan` as views."""

    def __init__(self, plan: _Plan, n_temps: int):
        self.plan = plan
        size = plan.entries * n_temps
        raw = np.empty(size + _ALIGN)
        start = -(raw.__array_interface__["data"][0] // 8) % _ALIGN
        self.buffer = raw[start:start + size]

    def table(self, key: tuple, shape: tuple[int, ...]) -> np.ndarray:
        """The planned table `key` of a pass over shape[0] temperatures, as a
        view of shape `shape` at its offset times shape[0]. Raises LookupError
        for a table the plan does not hold, or holds smaller."""
        n, entries = shape[0], math.prod(shape[1:])
        slot = self.plan.slots.get(key)
        if (slot is None or entries > slot[1]
                or (slot[0] + entries) * n > self.buffer.size):
            raise LookupError(f"table {key} of shape {shape} is outside the memory plan")
        return self.buffer[slot[0] * n:(slot[0] + entries) * n].reshape(shape)


def _temp_chunk(order: EliminationOrder) -> int:
    """Temperatures per elimination pass whose arena fits in BUDGET."""
    # every cond table is live when the forward pass ends, so the plan holds
    # at least table_entries: a graph whose tables alone exceed BUDGET is
    # refused before it is planned
    entries = order.table_entries
    if 8 * entries <= BUDGET:
        entries = order.plan.entries
    chunk = min(32, BUDGET // (8 * entries))
    if chunk < 1:
        raise CapacityError(f"induced width {order.induced_width}: one temperature "
                            f"needs at least {8 * entries} bytes of tables")
    return chunk


def _workers(order: EliminationOrder, n_temps: int, n_calls: int) -> int:
    """Threads for n_calls whole calls of n_temps temperatures: one per usable
    CPU and per call, no more than BUDGET holds of the calls' arenas (the
    plan times the largest chunk), and at least one. Raises CapacityError,
    before any table exists, if one temperature does not fit."""
    temps = max(1, min(n_temps, _temp_chunk(order)))
    arena = 8 * order.plan.entries * temps
    return max(1, min(usable_cpus(), n_calls, BUDGET // arena))


@dataclass
class _Bucket:
    """One eliminated spin. scope is (spin, separator...) in elimination
    order, so scope[1] is the parent; cond = P(spin | separator) has axes
    (temperature, *scope)."""

    scope: tuple[int, ...]
    cond: np.ndarray
    children: list[int]


class _Underflow(Exception):
    """A linear pass left the normal float range at the flagged temperatures."""

    def __init__(self, flags: np.ndarray):
        super().__init__(f"{int(flags.sum())} temperature(s) need log arithmetic")
        self.flags = flags


# _runs and _sum_steps are cached: every pass of a graph asks for the same
# few hundred scopes, and each answer costs more than the numpy call it shapes
@functools.lru_cache(maxsize=1 << 14)
def _runs(scope: tuple[int, ...], *parts: tuple[int, ...]) -> tuple:
    """Adjacent axes of scope merged into runs: (membership per part, size),
    where consecutive axes with the same membership in every part merge."""
    keys = zip(*([v in p for v in scope] for p in map(set, parts)))
    return tuple((key, 1 << len(list(axes))) for key, axes in itertools.groupby(keys))


def _broadcast(op: np.ufunc, a: np.ndarray, sa: tuple[int, ...], b: np.ndarray,
               sb: tuple[int, ...], scope: tuple[int, ...],
               out: np.ndarray) -> np.ndarray:
    """op(a, b) over `scope`, each broadcast from its own scope (all sorted
    by elimination position), into `out` (which may be a or b)."""
    n = a.shape[0]
    runs = _runs(scope, sa, sb)

    def view(t, k):
        return t.reshape((n,) + tuple(size if key[k] else 1 for key, size in runs))

    av, bv = view(a, 0), view(b, 1)
    ov = out.reshape((n,) + tuple(size for _, size in runs))
    (in_a, in_b), size = runs[-1]
    if len(runs) == 1 or size > _SHORT:
        op(av, bv, out=ov)
    else:  # one op per innermost index: the inner loop runs over the next run
        for i in range(size):
            op(av[..., i if in_a else 0], bv[..., i if in_b else 0], out=ov[..., i])
    return out


@functools.lru_cache(maxsize=1 << 14)
def _sum_steps(scope: tuple[int, ...],
               keep: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """The sums _marginal makes to keep only `keep` of a table over scope:
    one per run of adjacent dropped axes, innermost first, each over the
    middle axis of the table seen as (pre, size, post) per temperature."""
    runs = _runs(scope, keep)
    shape = [size for _, size in runs]
    steps = []
    for axis in range(len(runs) - 1, -1, -1):
        (kept,), size = runs[axis]
        if not kept:
            steps.append((math.prod(shape[:axis]), size, math.prod(shape[axis + 1:])))
            del shape[axis]
    return tuple(steps)


def _marginal(table: np.ndarray, scope: tuple[int, ...], keep: tuple[int, ...],
              arena: _Arena, key: tuple) -> np.ndarray:
    """Sum of `table` over the scope axes not in keep, one run of adjacent
    dropped axes at a time, each as a product with ones into the arena's
    table key + (step,); the table itself if nothing is dropped."""
    n = table.shape[0]
    t = table
    for k, (pre, size, post) in enumerate(_sum_steps(scope, keep)):
        out = arena.table(key + (k,), (n, pre * post))
        ones = np.ones(size)
        if post == 1:
            np.matmul(t.reshape(n * pre, size), ones, out=out.reshape(n * pre))
        else:
            np.matmul(ones, t.reshape(n * pre, size, post),
                      out=out.reshape(n * pre, post))
        t = out
    return t.reshape((n,) + (2,) * len(keep))


def _combine(items, pos, op: np.ufunc,
             arena: _Arena) -> tuple[tuple[int, ...], np.ndarray]:
    """op-product of (scope, table) items over their union scope, sorted by
    elimination position. The tables are the bucket's own and are reused.

    Tables with the same scope merge in place first; then the distinct
    scopes merge smallest first, so the small factors become one small table
    before the one broadcast that writes the bucket table.
    """
    merged: dict[tuple[int, ...], np.ndarray] = {}
    for s, table in items:
        if s in merged:
            op(merged[s], table, out=merged[s])
        else:
            merged[s] = table
    ordered = sorted(merged.items(), key=lambda it: it[1].size)
    acc_scope, acc = ordered[0]
    for s, table in ordered[1:]:
        scope = tuple(sorted(set(acc_scope) | set(s), key=pos.__getitem__))
        out = acc if scope == acc_scope else table if scope == s else arena.table(
            ("acc", scope), (acc.shape[0],) + (2,) * len(scope))
        acc = _broadcast(op, acc, acc_scope, table, s, scope, out)
        acc_scope = scope
    return acc_scope, acc


def _sum_out_linear(lam: np.ndarray, msg: np.ndarray,
                    scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear sum-out of axis 1 into msg (scratch is unused): lam becomes
    lam / msg; returns msg over the separator scaled to a largest entry of 1
    per temperature, and the log of that scale. Raises _Underflow for the
    temperatures with an entry of lam below the smallest normal float."""
    n = lam.shape[0]
    low = lam.reshape(n, -1).min(axis=1) < _TINY
    if low.any():
        raise _Underflow(low)
    np.add(lam[:, 0], lam[:, 1], out=msg)
    lam /= msg[:, None]
    top = msg.reshape(n, -1).max(axis=1)
    msg /= top.reshape((n,) + (1,) * (msg.ndim - 1))
    return msg, np.log(top)


def _sum_out_log(lam: np.ndarray, msg: np.ndarray,
                 scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_sum_out_linear on log tables: msg = ln(e^lam0 + e^lam1), taken as
    max + log1p(exp(-|lam0 - lam1|)) with the difference in scratch, and lam
    becomes exp(lam - msg), the same probabilities. msg stays in logs,
    shifted to a largest entry of 0 per temperature; returns it and the
    shift."""
    n = lam.shape[0]
    a0, a1 = lam[:, 0], lam[:, 1]
    np.maximum(a0, a1, out=msg)
    d = np.subtract(a0, a1, out=scratch)
    np.abs(d, out=d)
    np.negative(d, out=d)
    np.exp(d, out=d)
    np.log1p(d, out=d)
    msg += d
    lam -= msg[:, None]
    np.exp(lam, out=lam)
    top = msg.reshape(n, -1).max(axis=1)
    msg -= top.reshape((n,) + (1,) * (msg.ndim - 1))
    return msg, top


@dataclass(frozen=True)
class _Arithmetic:
    """How tables combine (op), how a spin is summed out (sum_out), and the
    ufunc, if any, that turns a log factor table into this arithmetic's in
    place (enter)."""

    op: np.ufunc
    sum_out: Callable[[np.ndarray, np.ndarray, np.ndarray],
                      tuple[np.ndarray, np.ndarray]]
    enter: np.ufunc | None


_LINEAR = _Arithmetic(np.multiply, _sum_out_linear, np.exp)
_LOG = _Arithmetic(np.add, _sum_out_log, None)


def _factors(H: Hamiltonian, pos: dict[int, int]):
    """Log field and coupler factors per bucket (the earliest spin of their
    scope), as (scope, energy table) with each table shifted to a largest
    entry of 0, to be divided by T; and the sum of the shifts."""
    at: dict[int, list] = {v: [] for v in pos}
    fields = H.alpha * H.h[:, None] * _SPIN_VALUES
    for s, base in zip(H.graph.spins, fields):
        at[s].append(((s,), base - base.max()))
    couplers = (H.alpha * H.J)[:, None, None] * _PAIR_VALUES
    for (i, j), base in zip(H.graph.edges, couplers):
        a, b = (i, j) if pos[i] < pos[j] else (j, i)
        at[a].append(((a, b), base - base.max()))
    shift = np.abs(H.alpha * H.h).sum() + np.abs(H.alpha * H.J).sum()
    return at, shift


def _forward(H: Hamiltonian, temps: np.ndarray, order: EliminationOrder,
             arith: _Arithmetic,
             arena: _Arena) -> tuple[dict[int, _Bucket], np.ndarray]:
    """Eliminate all variables in one arithmetic, every table in `arena`;
    returns the buckets and ln Z per T. The linear arithmetic raises
    _Underflow where its guard fires."""
    n = len(temps)
    pos = {v: t for t, v in enumerate(order.order)}
    pending: dict[int, list] = {v: [] for v in order.order}  # messages
    children: dict[int, list[int]] = {v: [] for v in order.order}
    factors, shift = _factors(H, pos)
    inv_t = 1.0 / temps
    lnz = shift * inv_t
    buckets: dict[int, _Bucket] = {}
    for v in order.order:
        items = []
        for s, base in factors[v]:
            table = arena.table(("factor", s), (n,) + base.shape)
            np.multiply(inv_t.reshape((n,) + (1,) * base.ndim), base, out=table)
            if arith.enter is not None:
                arith.enter(table, out=table)
            items.append((s, table))
        scope, cond = _combine(items + pending.pop(v), pos, arith.op, arena)
        sep = (n,) + (2,) * (len(scope) - 1)
        msg, log_scale = arith.sum_out(cond, arena.table(("msg", v), sep),
                                       arena.table(("scratch", v), sep))
        lnz += log_scale
        buckets[v] = _Bucket(scope, cond, children.pop(v))
        if len(scope) > 1:
            pending[scope[1]].append((scope[1:], msg))
            children[scope[1]].append(v)
    return buckets, lnz


_SIGNS = {1: _SPIN_VALUES, 2: _PAIR_VALUES.ravel()}


def _moments(H: Hamiltonian, temps: np.ndarray, order: EliminationOrder,
             arith: _Arithmetic, arena: _Arena,
             groups: list[tuple[int, ...]]) -> np.ndarray:
    """<product of sigma over g>(T) for each group g of one spin or of an
    edge's two spins: (n_temps, len(groups)).

    A group is read from the belief of the bucket of its earliest spin,
    whose scope holds the whole group. Each belief is built in place of the
    bucket's cond table.
    """
    pos = {v: t for t, v in enumerate(order.order)}
    at: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for k, g in enumerate(groups):
        at.setdefault(min(g, key=pos.__getitem__), []).append((k, g))
    buckets, _ = _forward(H, temps, order, arith, arena)
    out = np.empty((len(temps), len(groups)))
    down: dict[int, np.ndarray] = {}  # P(separator) per pending child
    for v in reversed(order.order):
        b = buckets.pop(v)
        belief = b.cond  # P(v | separator) * P(separator) = P(scope)
        if len(b.scope) > 1:
            belief *= down.pop(v)[:, None]
        for c in b.children:
            down[c] = _marginal(belief, b.scope, buckets[c].scope[1:], arena,
                                ("down", c))
        for k, g in at.get(v, ()):
            p = _marginal(belief, b.scope, g, arena, ("read", v))
            p = p.reshape(len(temps), -1)
            out[:, k] = (p @ _SIGNS[len(g)]) / p.sum(axis=1)
    return out


def _split(run, temps: np.ndarray, order: EliminationOrder, arena: _Arena):
    """run(temps, order, arith, arena) in linear arithmetic. If the guard
    flags some temperatures, they run in log arithmetic and the others
    linear again, and the rows are put back in grid order; if it flags all
    of them, the log run's result is returned as it is."""
    try:
        return run(temps, order, _LINEAR, arena)
    except _Underflow as e:
        low = e.flags
    # the re-runs write their tables over the abandoned pass's, in the arena
    flagged = run(temps[low], order, _LOG, arena)
    if low.all():
        return flagged
    rest = _split(run, temps[~low], order, arena)
    out = np.empty((len(temps),) + rest.shape[1:])
    out[~low] = rest
    out[low] = flagged
    return out


def _chunked(H: Hamiltonian, temps: np.ndarray, order: EliminationOrder | None,
             run, shape: tuple[int, ...]) -> np.ndarray:
    """_split(run, block, order, arena) per temperature chunk, as one
    (n_temps, *shape) array; every pass takes its tables from one arena
    sized for the largest chunk."""
    temps = np.asarray(temps, dtype=float)
    if not np.all(temps > 0):
        raise ValueError("all temperatures must be positive")
    order = order or elimination_order(H.graph)
    chunk = _temp_chunk(order)
    arena = _Arena(order.plan, min(len(temps), chunk))
    out = np.empty((len(temps),) + shape)
    for i in range(0, len(temps), chunk):
        out[i:i + chunk] = _split(run, temps[i:i + chunk], order, arena)
    return out


def bte_log_partition_curve(H: Hamiltonian, temps: np.ndarray,
                            order: EliminationOrder | None = None) -> np.ndarray:
    """ln Z(T) over a temperature grid, exact up to float rounding."""
    return _chunked(H, temps, order,
                    lambda block, o, arith, arena:
                    _forward(H, block, o, arith, arena)[1], ())


def bte_magnetization_curve(H: Hamiltonian, temps: np.ndarray,
                            order: EliminationOrder | None = None) -> np.ndarray:
    """Exact <sigma_i>(T): (n_temps, n_spins) aligned with graph.spins."""
    groups = [(s,) for s in H.graph.spins]
    return _chunked(H, temps, order,
                    lambda block, o, arith, arena: _moments(H, block, o, arith,
                                                            arena, groups),
                    (len(groups),))


def bte_pair_correlation_curve(H: Hamiltonian, temps: np.ndarray,
                               pairs: list[tuple[int, int]],
                               order: EliminationOrder | None = None) -> np.ndarray:
    """Exact <sigma_i sigma_j>(T) for graph edges: (n_temps, n_pairs)."""
    edges = set(H.graph.edges)
    for i, j in pairs:
        if (min(i, j), max(i, j)) not in edges:
            raise ValueError(f"pair {(i, j)} is not a graph edge")
    groups = [tuple(p) for p in pairs]
    return _chunked(H, temps, order,
                    lambda block, o, arith, arena: _moments(H, block, o, arith,
                                                            arena, groups),
                    (len(groups),))


def _batch(curve, Hs: list[Hamiltonian], temps: np.ndarray, *args) -> np.ndarray:
    """curve(H, temps, *args, order) for every H of one graph, stacked in
    input order; whole calls run on _workers threads."""
    temps = np.asarray(temps, dtype=float)
    order = elimination_order(common_graph(Hs))
    calls = [functools.partial(curve, H, temps, *args, order=order) for H in Hs]
    return np.stack(run_calls(calls, _workers(order, len(temps), len(Hs))))


def bte_magnetization_curves(Hs: list[Hamiltonian], temps: np.ndarray) -> np.ndarray:
    """bte_magnetization_curve of every H of one graph: (B, n_temps, n_spins)."""
    return _batch(bte_magnetization_curve, Hs, temps)


def bte_pair_correlation_curves(Hs: list[Hamiltonian], temps: np.ndarray,
                                pairs: list[tuple[int, int]]) -> np.ndarray:
    """bte_pair_correlation_curve of every H of one graph: (B, n_temps, n_pairs)."""
    return _batch(bte_pair_correlation_curve, Hs, temps, pairs)


def bte_sample(H: Hamiltonian, T: float, n: int, rng: np.random.Generator,
               order: EliminationOrder | None = None) -> np.ndarray:
    """n i.i.d. exact Boltzmann samples: (n, n_spins) of +-1, graph spin order.

    Forward elimination, then each spin in reverse order is drawn from its
    cond table at the already-drawn separator.
    """
    if not T > 0:
        raise ValueError("T must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    order = order or elimination_order(H.graph)
    _temp_chunk(order)
    buckets, _ = _split(functools.partial(_forward, H), np.array([float(T)]), order,
                        _Arena(order.plan, 1))
    bits: dict[int, np.ndarray] = {}
    for v in reversed(order.order):
        b = buckets[v]
        # P(v | separator) per sample, (2, n); (2,) at a root
        p = b.cond[0][(slice(None),) + tuple(bits[s] for s in b.scope[1:])]
        bits[v] = (rng.random(n) < p[1]).astype(np.int64)
    return 2 * np.stack([bits[s] for s in H.graph.spins], axis=1) - 1


class BteEngine:
    """Orientation-curve engine backed by bucket-tree elimination.

    The batch methods take Hamiltonians of one graph and return one curve
    per Hamiltonian, stacked in input order; magnetization_curve is their
    one-element case."""

    name = "bte"

    def supports(self, H: Hamiltonian) -> bool:
        """True when one temperature's elimination tables fit in BUDGET."""
        try:
            _temp_chunk(elimination_order(H.graph))
        except CapacityError:
            return False
        return True

    def magnetization_curves(self, Hs: list[Hamiltonian],
                             temps: np.ndarray) -> np.ndarray:
        return bte_magnetization_curves(Hs, temps)

    def pair_correlation_curves(self, Hs: list[Hamiltonian], temps: np.ndarray,
                                pairs: list[tuple[int, int]]) -> np.ndarray:
        return bte_pair_correlation_curves(Hs, temps, pairs)

    def magnetization_curve(self, H: Hamiltonian, temps: np.ndarray) -> np.ndarray:
        return self.magnetization_curves([H], temps)[0]
