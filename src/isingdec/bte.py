"""Exact Boltzmann inference on Chimera graphs via bucket-tree elimination.

Replaces exhaustive enumeration for instances too large to enumerate.

The forward pass eliminates the spins in order. Bucket v combines the field
and coupler factors whose earliest spin is v with its children's messages
into lam_v over scope (v, separator...), sends msg_v = sum over v of lam_v
to its parent (the separator's earliest spin) and keeps one table,
cond_v = lam_v / msg_v = P(v | separator). Each factor and each message is
scaled so that its largest entry at each temperature is 1; ln Z is the sum
of the logs of those scales (a root's message is its own scale). Factors and
messages are dropped as soon as their bucket is combined.

The pass runs in linear arithmetic: a product, a pairwise sum and a division
per table entry. Every table it combines is a product of scaled factors and
messages, so its entries are at most 1, and a guard checks that none falls
below the smallest normal float, `np.finfo(float).tiny`; then every number
of the pass, messages included, is a normal float. Where one does, at any
temperature, the pass is abandoned and its tables freed. Each temperature's
rows are computed apart from the others', so a flagged temperature would
trip the guard again: the flagged ones go straight to log arithmetic (sums
of log tables, log-add-exp over v), and the others run linear again.

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

A batch of Hamiltonians runs whole calls side by side on threads, as many as
there are usable CPUs and as BUDGET holds the calls' tables at once. A chunk
is never split across threads, so each curve is the one its call gives alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
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

# bytes of cond tables (8 * n_T * table_entries) one pass may hold: a
# 32-temperature chunk on L=4 (2.10 GiB) fits, L=5 gets one temperature per
# pass (1.66 GiB). Messages, beliefs and temporaries add at most a quarter.
# Passes that run at once on threads share it, the quarter included.
BUDGET = 9 << 28
_SPIN_VALUES = np.array([-1.0, 1.0])  # table axis index 0 -> spin -1, 1 -> +1
_PAIR_VALUES = np.outer(_SPIN_VALUES, _SPIN_VALUES)
_TINY = np.finfo(float).tiny
# a broadcast loops in Python over an innermost run of at most this many
# entries: faster than one op at runs of 2 and 4, slower at 8 and 16
_SHORT = 4


@dataclass(frozen=True)
class EliminationOrder:
    """A complete variable order, the width it induces on the graph, and the
    entries of all bucket tables one elimination pass keeps per temperature."""

    order: tuple[int, ...]
    induced_width: int
    table_entries: int


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


def elimination_order(graph: ChimeraGraph) -> EliminationOrder:
    """Deterministic column-major order.

    Cells are processed column by column; within a column all side-0 spins go
    first, then all side-1 spins. Grouping a column's side-0 spins keeps the
    frontier to the side-1 cut plus one cell, so the induced width stays at
    4L on an unexcluded L x L Chimera with K=4 (well under the 4L+4 bound of
    the per-cell order).
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
    return EliminationOrder(order=ot, induced_width=width, table_entries=entries)


def _temp_chunk(order: EliminationOrder) -> int:
    """Temperatures per elimination pass whose tables fit in BUDGET."""
    chunk = min(32, BUDGET // (8 * order.table_entries))
    if chunk < 1:
        raise CapacityError(f"induced width {order.induced_width}: one temperature "
                            f"needs {8 * order.table_entries} bytes of tables")
    return chunk


def _workers(order: EliminationOrder, n_temps: int, n_calls: int) -> int:
    """Threads for n_calls whole calls of n_temps temperatures: one per usable
    CPU and per call, no more than BUDGET holds at each call's peak (its
    largest chunk's tables plus a quarter), and at least one. Raises
    CapacityError, before any table exists, if one temperature does not fit."""
    entries = max(1, min(n_temps, _temp_chunk(order))) * order.table_entries
    return max(1, min(usable_cpus(), n_calls, int(BUDGET // (1.25 * 8 * entries))))


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


def _runs(scope: tuple[int, ...], *parts) -> list[list]:
    """Adjacent axes of scope merged into runs: [membership per part, size],
    where consecutive axes with the same membership in every part merge."""
    keys = zip(*([v in p for v in scope] for p in parts))
    return [[key, 1 << len(list(axes))] for key, axes in itertools.groupby(keys)]


def _broadcast(op: np.ufunc, a: np.ndarray, sa: tuple[int, ...], b: np.ndarray,
               sb: tuple[int, ...], scope: tuple[int, ...],
               out: np.ndarray | None = None) -> np.ndarray:
    """op(a, b) over `scope`, each broadcast from its own scope (all sorted
    by elimination position), into `out` (which may be a or b) or a new
    table."""
    n = a.shape[0]
    runs = _runs(scope, set(sa), set(sb))

    def view(t, k):
        return t.reshape((n,) + tuple(size if key[k] else 1 for key, size in runs))

    if out is None:
        out = np.empty((n,) + (2,) * len(scope))
    av, bv = view(a, 0), view(b, 1)
    ov = out.reshape((n,) + tuple(size for _, size in runs))
    (in_a, in_b), size = runs[-1]
    if len(runs) == 1 or size > _SHORT:
        op(av, bv, out=ov)
    else:  # one op per innermost index: the inner loop runs over the next run
        for i in range(size):
            op(av[..., i if in_a else 0], bv[..., i if in_b else 0], out=ov[..., i])
    return out


def _marginal(table: np.ndarray, scope: tuple[int, ...],
              keep: tuple[int, ...]) -> np.ndarray:
    """Sum of `table` over the scope axes not in keep, one run of adjacent
    dropped axes at a time, innermost first, each as a product with ones."""
    runs = _runs(scope, set(keep))
    shape = [table.shape[0]] + [size for _, size in runs]
    t = table
    for axis in range(len(runs), 0, -1):
        (kept,), size = runs[axis - 1]
        if kept:
            continue
        pre, post = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
        ones = np.ones(size)
        t = t.reshape(pre, size) @ ones if post == 1 else ones @ t.reshape(pre, size, post)
        del shape[axis]
    return t.reshape((table.shape[0],) + (2,) * len(keep))


def _combine(items, pos, op: np.ufunc) -> tuple[tuple[int, ...], np.ndarray]:
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
        out = acc if scope == acc_scope else table if scope == s else None
        acc = _broadcast(op, acc, acc_scope, table, s, scope, out)
        acc_scope = scope
    return acc_scope, acc


def _sum_out_linear(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear sum-out of axis 1: lam becomes lam / msg; returns msg over the
    separator scaled to a largest entry of 1 per temperature, and the log of
    that scale. Raises _Underflow for the temperatures with an entry of lam
    below the smallest normal float."""
    n = lam.shape[0]
    low = lam.reshape(n, -1).min(axis=1) < _TINY
    if low.any():
        raise _Underflow(low)
    msg = lam[:, 0] + lam[:, 1]
    lam /= msg[:, None]
    top = msg.reshape(n, -1).max(axis=1)
    msg /= top.reshape((n,) + (1,) * (msg.ndim - 1))
    return msg, np.log(top)


def _sum_out_log(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_sum_out_linear on log tables: msg = ln(e^lam0 + e^lam1), taken as
    max + log1p(exp(-|lam0 - lam1|)), and lam becomes exp(lam - msg), the
    same probabilities. msg stays in logs, shifted to a largest entry of 0
    per temperature; returns it and the shift."""
    n = lam.shape[0]
    a0, a1 = lam[:, 0], lam[:, 1]
    msg = np.maximum(a0, a1)
    d = a0 - a1  # the one temporary, transformed in place
    np.abs(d, out=d)
    np.negative(d, out=d)
    np.exp(d, out=d)
    np.log1p(d, out=d)
    msg += d
    del d
    lam -= msg[:, None]
    np.exp(lam, out=lam)
    top = msg.reshape(n, -1).max(axis=1)
    msg -= top.reshape((n,) + (1,) * (msg.ndim - 1))
    return msg, top


@dataclass(frozen=True)
class _Arithmetic:
    """How tables combine (op), how a spin is summed out (sum_out), and how a
    log factor table enters the pass (enter)."""

    op: np.ufunc
    sum_out: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    enter: Callable[[np.ndarray], np.ndarray]


_LINEAR = _Arithmetic(np.multiply, _sum_out_linear, np.exp)
_LOG = _Arithmetic(np.add, _sum_out_log, np.asarray)


def _factors(H: Hamiltonian, temps: np.ndarray, pos: dict[int, int]):
    """Log field and coupler factors with a leading temperature axis, each
    shifted to a largest entry of 0; returns them and the shifts' sum per T."""
    inv_t = 1.0 / temps
    factors = []
    fields = H.alpha * H.h[:, None] * _SPIN_VALUES
    for s, base in zip(H.graph.spins, fields):
        factors.append(((s,), inv_t[:, None] * (base - base.max())[None, :]))
    couplers = (H.alpha * H.J)[:, None, None] * _PAIR_VALUES
    for (i, j), base in zip(H.graph.edges, couplers):
        a, b = (i, j) if pos[i] < pos[j] else (j, i)
        factors.append(((a, b), inv_t[:, None, None] * (base - base.max())[None, :, :]))
    shift = np.abs(H.alpha * H.h).sum() + np.abs(H.alpha * H.J).sum()
    return factors, shift * inv_t


def _forward(H: Hamiltonian, temps: np.ndarray, order: EliminationOrder,
             arith: _Arithmetic) -> tuple[dict[int, _Bucket], np.ndarray]:
    """Eliminate all variables in one arithmetic; returns the buckets and
    ln Z per T. The linear arithmetic raises _Underflow where its guard
    fires."""
    if len(temps) > _temp_chunk(order):
        raise CapacityError(f"{len(temps)} temperatures exceed one pass's budget")
    pos = {v: t for t, v in enumerate(order.order)}
    pending: dict[int, list] = {v: [] for v in order.order}  # factors, messages
    children: dict[int, list[int]] = {v: [] for v in order.order}
    factors, lnz = _factors(H, temps, pos)
    for scope, table in factors:
        pending[scope[0]].append((scope, arith.enter(table)))
    buckets: dict[int, _Bucket] = {}
    for v in order.order:
        scope, cond = _combine(pending.pop(v), pos, arith.op)
        msg, log_scale = arith.sum_out(cond)
        lnz += log_scale
        buckets[v] = _Bucket(scope, cond, children.pop(v))
        if len(scope) > 1:
            pending[scope[1]].append((scope[1:], msg))
            children[scope[1]].append(v)
    return buckets, lnz


_SIGNS = {1: _SPIN_VALUES, 2: _PAIR_VALUES.ravel()}


def _moments(H: Hamiltonian, temps: np.ndarray, order: EliminationOrder,
             arith: _Arithmetic, groups: list[tuple[int, ...]]) -> np.ndarray:
    """<product of sigma over g>(T) for each group g of one spin or of an
    edge's two spins: (n_temps, len(groups)).

    A group is read from the belief of the bucket of its earliest spin,
    whose scope holds the whole group. Each belief is built in place of the
    bucket's cond table and freed once read.
    """
    pos = {v: t for t, v in enumerate(order.order)}
    at: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for k, g in enumerate(groups):
        at.setdefault(min(g, key=pos.__getitem__), []).append((k, g))
    buckets, _ = _forward(H, temps, order, arith)
    out = np.empty((len(temps), len(groups)))
    down: dict[int, np.ndarray] = {}  # P(separator) per pending child
    for v in reversed(order.order):
        b = buckets.pop(v)
        belief = b.cond  # P(v | separator) * P(separator) = P(scope)
        if len(b.scope) > 1:
            belief *= down.pop(v)[:, None]
        for c in b.children:
            down[c] = _marginal(belief, b.scope, buckets[c].scope[1:])
        for k, g in at.get(v, ()):
            p = _marginal(belief, b.scope, g).reshape(len(temps), -1)
            out[:, k] = (p @ _SIGNS[len(g)]) / p.sum(axis=1)
    return out


def _split(run, temps: np.ndarray, order: EliminationOrder):
    """run(temps, order, arith) in linear arithmetic. If the guard flags some
    temperatures, they run in log arithmetic and the others linear again,
    and the rows are put back in grid order; if it flags all of them, the
    log run's result is returned as it is."""
    try:
        return run(temps, order, _LINEAR)
    except _Underflow as e:
        low = e.flags
    # outside the handler, so the abandoned pass's tables are already freed
    flagged = run(temps[low], order, _LOG)
    if low.all():
        return flagged
    rest = _split(run, temps[~low], order)
    out = np.empty((len(temps),) + rest.shape[1:])
    out[~low] = rest
    out[low] = flagged
    return out


def _chunked(H: Hamiltonian, temps: np.ndarray,
             order: EliminationOrder | None, run) -> np.ndarray:
    """_split(run, block, order) per temperature chunk, concatenated along
    axis 0."""
    temps = np.asarray(temps, dtype=float)
    if np.any(temps <= 0):
        raise ValueError("all temperatures must be positive")
    order = order or elimination_order(H.graph)
    chunk = _temp_chunk(order)
    return np.concatenate([_split(run, temps[i:i + chunk], order)
                           for i in range(0, len(temps), chunk)])


def bte_log_partition_curve(H: Hamiltonian, temps: np.ndarray,
                            order: EliminationOrder | None = None) -> np.ndarray:
    """ln Z(T) over a temperature grid, exact up to float rounding."""
    return _chunked(H, temps, order,
                    lambda block, o, arith: _forward(H, block, o, arith)[1])


def bte_magnetization_curve(H: Hamiltonian, temps: np.ndarray,
                            order: EliminationOrder | None = None) -> np.ndarray:
    """Exact <sigma_i>(T): (n_temps, n_spins) aligned with graph.spins."""
    groups = [(s,) for s in H.graph.spins]
    return _chunked(H, temps, order,
                    lambda block, o, arith: _moments(H, block, o, arith, groups))


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
                    lambda block, o, arith: _moments(H, block, o, arith, groups))


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
    if T <= 0:
        raise ValueError("T must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    order = order or elimination_order(H.graph)
    buckets, _ = _split(functools.partial(_forward, H), np.array([float(T)]), order)
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
