"""Exact Boltzmann inference on Chimera graphs via bucket-tree elimination.

Replaces exhaustive enumeration for instances too large to enumerate: the
forward (elimination) pass yields ln Z, a downward pass yields exact
single-spin and edge-pair marginals, and backward sampling draws i.i.d.
configurations from the Boltzmann distribution at temperature T.

All message tables live in the log domain with per-table max subtraction, so
the near-zero temperatures of the orientation grid do not underflow. Tables
carry a leading temperature axis so a whole grid chunk is processed at once.
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

# bytes of bucket tables one elimination pass may hold: a 32-temperature
# chunk on L=4 (2.10 GiB) fits, L=5 gets one temperature per pass (1.66 GiB)
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
    var: int
    # each item: (source, scope, table); source is "F" for an original factor
    # or the child bucket's variable for an upward message
    items: list[tuple[object, tuple[int, ...], np.ndarray]]
    lam_scope: tuple[int, ...] = ()
    lam: np.ndarray | None = None
    out_scope: tuple[int, ...] = ()
    parent: int | None = None


def _sum_out(table: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp over one binary axis: max + log1p(exp(-|diff|))."""
    idx: list = [slice(None)] * table.ndim
    idx[axis] = 0
    a0 = table[tuple(idx)]
    idx[axis] = 1
    a1 = table[tuple(idx)]
    out = np.maximum(a0, a1)
    out += np.log1p(np.exp(-np.abs(a0 - a1)))
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
    """Log-domain product of factors; small tables merge before large ones.

    Returns the union scope (sorted by elimination position) and a table of
    full shape over it.
    """
    scope = tuple(sorted({v for _, s, _ in items for v in s}, key=pos.__getitem__))
    ordered = sorted(items, key=lambda it: it[2].size)
    acc_scope, acc = ordered[0][1], ordered[0][2]
    acc_vars = set(acc_scope)
    copied = False
    for _, s, table in ordered[1:]:
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


def _marginalize_onto(table: np.ndarray, scope: tuple[int, ...],
                      keep: tuple[int, ...]) -> np.ndarray:
    drop = tuple(1 + a for a, v in enumerate(scope) if v not in keep)
    if not drop:
        return table
    return logsumexp(table, axis=drop)


def _factors(H: Hamiltonian, temps: np.ndarray, pos: dict[int, int]):
    """Log-domain field and coupler factors with a leading temperature axis."""
    inv_t = 1.0 / temps
    factors = []
    fields = H.alpha * H.h[:, None] * _SPIN_VALUES
    for s, base in zip(H.graph.spins, fields):
        factors.append(("F", (s,), inv_t[:, None] * base[None, :]))
    couplers = (H.alpha * H.J)[:, None, None] * _PAIR_VALUES
    for (i, j), base in zip(H.graph.edges, couplers):
        a, b = (i, j) if pos[i] < pos[j] else (j, i)
        factors.append(("F", (a, b), inv_t[:, None, None] * base[None, :, :]))
    return factors


def _forward(H: Hamiltonian, temps: np.ndarray,
             order: EliminationOrder) -> tuple[dict[int, _Bucket], np.ndarray]:
    """Eliminate all variables; returns calibrated buckets and ln Z per T."""
    if len(temps) > _temp_chunk(order):
        raise CapacityError(f"{len(temps)} temperatures exceed one pass's budget")
    pos = {v: t for t, v in enumerate(order.order)}
    n_temps = len(temps)
    buckets = {v: _Bucket(var=v, items=[]) for v in order.order}
    for src, scope, table in _factors(H, temps, pos):
        buckets[scope[0]].items.append((src, scope, table))
    lnz = np.zeros(n_temps)
    for v in order.order:
        b = buckets[v]
        b.lam_scope, b.lam = _combine(b.items, pos, n_temps)
        assert b.lam_scope[0] == v
        msg = logsumexp(b.lam, axis=1)
        b.out_scope = b.lam_scope[1:]
        if b.out_scope:
            b.parent = b.out_scope[0]
            buckets[b.parent].items.append((v, b.out_scope, msg))
        else:
            b.parent = None
            lnz += msg
    return buckets, lnz


def _spin_means(belief: np.ndarray, scope: tuple[int, ...], var: int) -> np.ndarray:
    """<sigma_var> per temperature from a log-domain belief over `scope`."""
    axis = 1 + scope.index(var)
    moved = np.moveaxis(belief, axis, 1).reshape(belief.shape[0], 2, -1)
    m = moved.max(axis=(1, 2), keepdims=True)
    w = np.exp(moved - m).sum(axis=2)
    return (w @ _SPIN_VALUES) / w.sum(axis=1)


def _pair_means(belief: np.ndarray, scope: tuple[int, ...],
                i: int, j: int) -> np.ndarray:
    ai, aj = 1 + scope.index(i), 1 + scope.index(j)
    moved = np.moveaxis(belief, (ai, aj), (1, 2)).reshape(belief.shape[0], 2, 2, -1)
    m = moved.max(axis=(1, 2, 3), keepdims=True)
    w = np.exp(moved - m).sum(axis=3)
    return (w * _PAIR_VALUES).sum(axis=(1, 2)) / w.sum(axis=(1, 2))


def _backward(H: Hamiltonian, temps: np.ndarray, order: EliminationOrder,
              pairs: list[tuple[int, int]] | None):
    """Two-pass marginals: (magnetizations (nT, n), pair correlations)."""
    buckets, _ = _forward(H, temps, order)
    pos = {v: t for t, v in enumerate(order.order)}
    n_temps = len(temps)

    pair_bucket: dict[tuple[int, int], int] = {}
    if pairs:
        edges = set(H.graph.edges)
        for i, j in pairs:
            if (min(i, j), max(i, j)) not in edges:
                raise ValueError(f"pair {(i, j)} is not a graph edge")
            pair_bucket[(i, j)] = min((i, j), key=pos.__getitem__)

    down: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}
    mags = np.empty((n_temps, H.graph.n_spins))
    pair_out = {p: None for p in pairs} if pairs else {}
    spin_pos = H.graph.positions(order.order)
    for v, t in zip(reversed(order.order), spin_pos[::-1]):
        b = buckets[v]
        items = list(b.items)
        if v in down:
            items.append(("D", down[v][0], down[v][1]))
        scope, belief = _combine(items, pos, n_temps)
        mags[:, t] = _spin_means(belief, scope, v)
        if pairs:
            for (i, j), bv in pair_bucket.items():
                if bv == v:
                    pair_out[(i, j)] = _pair_means(belief, scope, i, j)
        for src, msg_scope, msg in b.items:
            if src == "F":
                continue
            # dividing the child's upward message out of the belief leaves
            # the product of everything on the parent side of that edge
            child = src
            rest = belief - _expand(msg, msg_scope, scope)
            sep = buckets[child].out_scope
            down[child] = (sep, _marginalize_onto(rest, scope, sep))
        down.pop(v, None)  # free as we go
        buckets[v].items = []
    if pairs:
        corr = np.stack([pair_out[p] for p in pairs], axis=1)
    else:
        corr = None
    return mags, corr


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
    return _chunked(H, temps, order,
                    lambda block, o: _backward(H, block, o, None)[0])


def bte_pair_correlation_curve(H: Hamiltonian, temps: np.ndarray,
                               pairs: list[tuple[int, int]],
                               order: EliminationOrder | None = None) -> np.ndarray:
    """Exact <sigma_i sigma_j>(T) for graph edges: (n_temps, n_pairs)."""
    return _chunked(H, temps, order,
                    lambda block, o: _backward(H, block, o, pairs)[1])


def bte_sample(H: Hamiltonian, T: float, n: int, rng: np.random.Generator,
               order: EliminationOrder | None = None) -> np.ndarray:
    """n i.i.d. exact Boltzmann samples: (n, n_spins) of +-1, graph spin order.

    Forward elimination followed by backward sampling: each variable is drawn
    from its bucket function conditioned on the already-drawn separator.
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
        others = b.lam_scope[1:]
        table = b.lam[0]  # axes: (v, others...)
        if others:
            logp = table[(slice(None),) + tuple(bits[o] for o in others)]  # (2, n)
        else:
            logp = np.broadcast_to(table[:, None], (2, n))
        mx = logp.max(axis=0)
        w = np.exp(logp - mx)
        p_up = w[1] / (w[0] + w[1])
        bits[v] = (rng.random(n) < p_up).astype(np.int64)
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
