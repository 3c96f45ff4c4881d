"""Exact Boltzmann inference on Chimera graphs via bucket-tree elimination.

Replaces exhaustive enumeration for instances too large to enumerate.

The forward pass eliminates the spins in order. Bucket v combines the field
and coupler factors whose earliest spin is v with its children's messages
into lam_v over scope (v, separator...), sends msg_v = ln sum_v exp(lam_v)
to its parent (the separator's earliest spin) and keeps one table, the
log-conditional cond_v = lam_v - msg_v = ln P(v | separator). The factors
and messages are dropped as soon as the bucket is combined. Buckets with an
empty separator are roots, and ln Z is the sum of their messages.

The other outputs read only the cond tables:
- marginals walk the buckets in reverse order. A bucket's belief
  ln P(v, separator) is cond_v plus its parent's belief marginalized onto
  the separator; it gives <sigma_v> and <sigma_i sigma_j> for the edges
  whose earliest spin is v;
- sampling draws each spin from cond_v at its already-drawn separator.

Tables live in the log domain, so the near-zero temperatures of the
orientation grid do not underflow, and carry a leading temperature axis, so
a whole grid chunk is processed at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CapacityError, ChimeraGraph, Hamiltonian

__all__ = [
    "EliminationOrder",
    "elimination_order",
    "bte_log_partition_curve",
    "bte_magnetization_curve",
    "bte_pair_correlation_curve",
    "bte_sample",
    "BteEngine",
]

# bytes of cond tables (8 * n_T * table_entries) one pass may hold: a
# 32-temperature chunk on L=4 (2.10 GiB) fits, L=5 gets one temperature per
# pass (1.66 GiB). Messages, beliefs and temporaries add at most a quarter.
BUDGET = 9 << 28
_SPIN_VALUES = np.array([-1.0, 1.0])  # table axis index 0 -> spin -1, 1 -> +1
_PAIR_VALUES = np.outer(_SPIN_VALUES, _SPIN_VALUES)


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


@dataclass
class _Bucket:
    """One eliminated spin. scope is (spin, separator...) in elimination
    order, so scope[1] is the parent; cond = ln P(spin | separator) has axes
    (temperature, *scope)."""

    scope: tuple[int, ...]
    cond: np.ndarray
    children: list[int]


def _sum_out(table: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp over one binary axis: max + log1p(exp(-|diff|))."""
    a0, a1 = np.moveaxis(table, axis, 0)
    out = np.maximum(a0, a1)
    d = a0 - a1  # the one temporary, transformed in place
    np.abs(d, out=d)
    np.negative(d, out=d)
    np.exp(d, out=d)
    np.log1p(d, out=d)
    out += d
    return out


def logsumexp(a: np.ndarray, axis) -> np.ndarray:
    """Stable log-sum-exp over binary table axes."""
    axes = (axis,) if isinstance(axis, int) else axis
    for ax in sorted(axes, reverse=True):
        a = _sum_out(a, ax)
    return a


def _expand(table: np.ndarray, scope: tuple[int, ...],
            target: tuple[int, ...]) -> np.ndarray:
    """Broadcast view of `table` onto `target` scope (both position-sorted)."""
    have = set(scope)
    shape = (table.shape[0],) + tuple(2 if v in have else 1 for v in target)
    return table.reshape(shape)


def _combine(items, pos, n_temps: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Log-domain product of (scope, table) items; small tables merge first.

    Returns the union scope (sorted by elimination position) and a fresh table
    of full shape over it.
    """
    scope = tuple(sorted({v for s, _ in items for v in s}, key=pos.__getitem__))
    ordered = sorted(items, key=lambda it: it[1].size)
    acc_scope, acc = ordered[0]
    acc_vars = set(acc_scope)
    copied = False
    for s, table in ordered[1:]:
        if set(s) <= acc_vars:
            if not copied:
                acc = acc.copy()
                copied = True
            acc += _expand(table, s, acc_scope)
        else:
            acc_vars |= set(s)
            new_scope = tuple(v for v in scope if v in acc_vars)
            acc = _expand(acc, acc_scope, new_scope) + _expand(table, s, new_scope)
            acc_scope = new_scope
            copied = True
    if acc_scope != scope:  # single item or degenerate shapes
        acc = np.broadcast_to(_expand(acc, acc_scope, scope),
                              (n_temps,) + (2,) * len(scope)).copy()
    elif not copied:
        acc = acc.copy()
    return scope, acc


def _factors(H: Hamiltonian, temps: np.ndarray, pos: dict[int, int]):
    """Log-domain field and coupler factors with a leading temperature axis."""
    inv_t = 1.0 / temps
    factors = []
    fields = H.alpha * H.h[:, None] * _SPIN_VALUES
    for s, base in zip(H.graph.spins, fields):
        factors.append(((s,), inv_t[:, None] * base[None, :]))
    couplers = (H.alpha * H.J)[:, None, None] * _PAIR_VALUES
    for (i, j), base in zip(H.graph.edges, couplers):
        a, b = (i, j) if pos[i] < pos[j] else (j, i)
        factors.append(((a, b), inv_t[:, None, None] * base[None, :, :]))
    return factors


def _forward(H: Hamiltonian, temps: np.ndarray,
             order: EliminationOrder) -> tuple[dict[int, _Bucket], np.ndarray]:
    """Eliminate all variables; returns the buckets and ln Z per T."""
    if len(temps) > _temp_chunk(order):
        raise CapacityError(f"{len(temps)} temperatures exceed one pass's budget")
    pos = {v: t for t, v in enumerate(order.order)}
    n_temps = len(temps)
    pending: dict[int, list] = {v: [] for v in order.order}  # factors, messages
    children: dict[int, list[int]] = {v: [] for v in order.order}
    for scope, table in _factors(H, temps, pos):
        pending[scope[0]].append((scope, table))
    buckets: dict[int, _Bucket] = {}
    lnz = np.zeros(n_temps)
    for v in order.order:
        scope, cond = _combine(pending.pop(v), pos, n_temps)
        msg = logsumexp(cond, axis=1)
        cond -= msg[:, None]
        buckets[v] = _Bucket(scope, cond, children.pop(v))
        if len(scope) > 1:
            pending[scope[1]].append((scope[1:], msg))
            children[scope[1]].append(v)
        else:
            lnz += msg
    return buckets, lnz


_SIGNS = {1: _SPIN_VALUES, 2: _PAIR_VALUES.ravel()}


def _moments(H: Hamiltonian, temps: np.ndarray, order: EliminationOrder,
             groups: list[tuple[int, ...]]) -> np.ndarray:
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
    buckets, _ = _forward(H, temps, order)
    out = np.empty((len(temps), len(groups)))
    down: dict[int, np.ndarray] = {}  # ln P(separator) per pending child
    for v in reversed(order.order):
        b = buckets.pop(v)
        belief = b.cond  # ln P(v | separator) + ln P(separator) = ln P(scope)
        if len(b.scope) > 1:
            belief += down.pop(v)[:, None]
        for c in b.children:
            sep = buckets[c].scope[1:]
            drop = tuple(1 + a for a, s in enumerate(b.scope) if s not in sep)
            down[c] = logsumexp(belief, drop) if drop else belief.copy()
        if v not in at:
            continue
        # normalized, so no shift: its largest entry is >= 2^-len(scope)
        np.exp(belief, out=belief)
        for k, g in at[v]:
            rest = tuple(1 + a for a, s in enumerate(b.scope) if s not in g)
            p = belief.sum(axis=rest).reshape(len(temps), -1)
            out[:, k] = (p @ _SIGNS[len(g)]) / p.sum(axis=1)
    return out


def _chunked(H: Hamiltonian, temps: np.ndarray,
             order: EliminationOrder | None, run) -> np.ndarray:
    """run(block, order) per temperature chunk, concatenated along axis 0."""
    temps = np.asarray(temps, dtype=float)
    if np.any(temps <= 0):
        raise ValueError("all temperatures must be positive")
    order = order or elimination_order(H.graph)
    chunk = _temp_chunk(order)
    return np.concatenate([run(temps[i:i + chunk], order)
                           for i in range(0, len(temps), chunk)])


def bte_log_partition_curve(H: Hamiltonian, temps: np.ndarray,
                            order: EliminationOrder | None = None) -> np.ndarray:
    """ln Z(T) over a temperature grid, exact up to float rounding."""
    return _chunked(H, temps, order,
                    lambda block, o: _forward(H, block, o)[1])


def bte_magnetization_curve(H: Hamiltonian, temps: np.ndarray,
                            order: EliminationOrder | None = None) -> np.ndarray:
    """Exact <sigma_i>(T): (n_temps, n_spins) aligned with graph.spins."""
    groups = [(s,) for s in H.graph.spins]
    return _chunked(H, temps, order,
                    lambda block, o: _moments(H, block, o, groups))


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
                    lambda block, o: _moments(H, block, o, groups))


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
    buckets, _ = _forward(H, np.array([float(T)]), order)
    bits: dict[int, np.ndarray] = {}
    for v in reversed(order.order):
        b = buckets[v]
        # ln P(v | separator) per sample, (2, n); (2,) at a root
        logp = b.cond[0][(slice(None),) + tuple(bits[s] for s in b.scope[1:])]
        bits[v] = (rng.random(n) < np.exp(logp[1])).astype(np.int64)
    return 2 * np.stack([bits[s] for s in H.graph.spins], axis=1) - 1


class BteEngine:
    """Orientation-curve engine backed by bucket-tree elimination."""

    name = "bte"

    def supports(self, H: Hamiltonian) -> bool:
        """True when one temperature's elimination tables fit in BUDGET."""
        try:
            _temp_chunk(elimination_order(H.graph))
        except CapacityError:
            return False
        return True

    def magnetization_curve(self, H: Hamiltonian, temps: np.ndarray) -> np.ndarray:
        return bte_magnetization_curve(H, temps)

    def pair_correlation_curve(self, H: Hamiltonian, temps: np.ndarray,
                               pairs: list[tuple[int, int]]) -> np.ndarray:
        return bte_pair_correlation_curve(H, temps, pairs)
