"""Metropolis simulated annealing with optional control-error injection.

The annealer models a physical sampler whose field and coupler values carry
Gaussian setting errors. Temperature is interpolated linearly in the update
index (one update = one single-spin Metropolis attempt) between the schedule
endpoints, expressed in units of alpha (the nominal |J|); spins are visited
in fixed sequential order.

The kernel updates each run of consecutive, mutually non-adjacent spins
(one cell side, or side 1 of a cell and side 0 of the next) as one numpy
step. No member of such a block reads another member's spin, so its updates
commute, and each block draws its uniforms in sweep order: the chain is the
sequential single-spin chain, bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import Hamiltonian
from .transitions import OrientationCurve

__all__ = [
    "AnnealSchedule",
    "ControlErrorSpec",
    "inject_control_error",
    "anneal",
    "checkpoint_temperatures",
    "sa_orientation_sweep",
]


@dataclass(frozen=True)
class AnnealSchedule:
    """Linear-in-update-index temperature ramp, in units of alpha."""

    t_start: float = 10.0
    t_end: float = 0.1
    total_updates: int = 1_000_000

    def __post_init__(self) -> None:
        if not (0 < self.t_end and 0 < self.t_start < float("inf")):
            raise ValueError("schedule temperatures must be positive and finite")
        if self.t_end > self.t_start:
            raise ValueError("t_end must not exceed t_start")
        if self.total_updates < 1:
            raise ValueError("total_updates must be >= 1")

    def temperature(self, update: int | np.ndarray) -> float | np.ndarray:
        """Scheduled temperature (in units of alpha) at a 0-based update
        index, or elementwise at an integer array of them."""
        frac = update / max(self.total_updates - 1, 1)
        return self.t_start + (self.t_end - self.t_start) * frac


@dataclass(frozen=True)
class ControlErrorSpec:
    """Additive i.i.d. Gaussian errors on field and coupler settings."""

    sigma_h: float = 0.05
    sigma_j: float = 0.03


def inject_control_error(H: Hamiltonian, spec: ControlErrorSpec,
                         rng: np.random.Generator) -> Hamiltonian:
    """One realization of H with perturbed field and coupler values."""
    h = H.h + spec.sigma_h * rng.standard_normal(H.graph.n_spins)
    j = H.J + spec.sigma_j * rng.standard_normal(H.graph.n_edges)
    return Hamiltonian.from_vectors(H.graph, h, j, H.alpha)


def _local_field_tables(H: Hamiltonian):
    """Padded neighbor index and coupling tables for vectorized local fields.

    Row i lists spin i's neighbours in edge order, so the local-field dot
    products sum their terms in that order.
    """
    n, m = H.graph.n_spins, H.graph.n_edges
    ij = H.graph.edge_positions
    owner = np.concatenate([ij[:, 0], ij[:, 1]])
    other = np.concatenate([ij[:, 1], ij[:, 0]])
    edge = np.concatenate([np.arange(m), np.arange(m)])
    order = np.lexsort((edge, owner))   # by spin, then by edge index
    counts = np.bincount(owner, minlength=n)
    slot = np.arange(2 * m) - np.repeat(np.cumsum(counts) - counts, counts)
    idx = np.zeros((n, counts.max(initial=0)), dtype=np.intp)
    val = np.zeros(idx.shape)
    idx[owner[order], slot] = other[order]
    val[owner[order], slot] = H.J[edge[order]]
    return H.h, idx, val


def _blocks(graph) -> np.ndarray:
    """Bounds of the update blocks: block b holds the sweep positions
    bounds[b]..bounds[b+1]-1, a maximal run of consecutive positions no two
    of which share an edge (greedy from position 0)."""
    below = np.full(graph.n_spins, -1)   # each spin's last neighbour before it
    ij = graph.edge_positions             # i < j in every edge
    np.maximum.at(below, ij[:, 1], ij[:, 0])
    starts = [0]
    for i in range(1, graph.n_spins):
        if below[i] >= starts[-1]:
            starts.append(i)
    return np.array(starts + [graph.n_spins])


def _order_free(H: Hamiltonian) -> bool:
    """True when every local field sums integers whose absolute values add
    up to less than 2^53: every partial sum is then exact, and any summation
    order gives the same float."""
    elements = np.concatenate([H.h, H.J])
    return bool(np.array_equal(elements, np.rint(elements))
                and np.abs(elements).sum() < 2.0 ** 53)


def _neighbour_sums(nb: np.ndarray, val: np.ndarray, any_order: bool):
    """Coupler-weighted neighbour sums of one block, shape (k, runs): the
    sum over slots of val * nb, for neighbour spins nb of shape
    (k, slots, runs) and couplers val of shape (k, slots).

    The sequential chain sums each run's slots with one BLAS matrix-vector
    product over a run-major (runs, slots) matrix. The product over the
    slot-major gather is cheaper, but BLAS then adds the terms in another
    order, which can change the last bit of a non-integer sum. So it is used
    only when `any_order` holds (every order gives the same sum); otherwise
    the gather is copied run-major and summed by the sequential chain's call.
    """
    if any_order:
        return np.matmul(val[:, None, :], nb)[:, 0]
    return np.matmul(nb.transpose(0, 2, 1).copy(), val[:, :, None])[..., 0]


def _run_batch(H: Hamiltonian, schedule: AnnealSchedule, n_runs: int,
               rng: np.random.Generator,
               checkpoints: np.ndarray | None = None):
    """Anneal n_runs replicas under a shared update sequence.

    All replicas visit the same spin at each update (sequential order) and
    share the temperature schedule; randomness (initial state, acceptance)
    is independent per replica. Returns (final states, snapshot stack) where
    snapshots are taken at the first update whose scheduled temperature is
    <= each checkpoint; the stack is empty without checkpoints.

    The state is spin-major, (n_spins, n_runs), and each step updates a
    block of `_blocks` at once; a step is cut short where a snapshot is due
    and at the last update.
    """
    h, idx, val = _local_field_tables(H)
    n = H.graph.n_spins
    alpha = H.alpha
    state = np.ascontiguousarray(
        (rng.integers(0, 2, size=(n_runs, n)) * 2 - 1).T, dtype=float)
    bounds = _blocks(H.graph)
    block_end = np.repeat(bounds[1:], np.diff(bounds)).tolist()
    any_order = _order_free(H)

    total = schedule.total_updates
    # first update at or below each checkpoint; snapshots are taken in list
    # order, before the update
    due = [bisect_left(range(total), True,
                       key=lambda u: schedule.temperature(u) <= cp)
           for cp in (() if checkpoints is None else checkpoints)]
    snaps = np.empty((len(due), n_runs, n), dtype=np.int8)
    taken = u = 0
    while True:
        while taken < len(due) and due[taken] <= u:
            snaps[taken] = state.T
            taken += 1
        if u == total:
            break
        i = u % n
        stop = due[taken] if taken < len(due) else total
        k = min(block_end[i] - i, stop - u)
        block = slice(i, i + k)
        s = state[block]
        local = h[block, None] + _neighbour_sums(state[idx[block]], val[block],
                                                 any_order)
        d_energy = 2.0 * alpha * s * local
        beta = 1.0 / (alpha * schedule.temperature(np.arange(u, u + k)))
        p_accept = np.exp(-np.maximum(d_energy, 0.0) * beta[:, None])
        flip = rng.random((k, n_runs)) < p_accept
        state[block] = np.where(flip, -s, s)
        u += k
    return np.ascontiguousarray(state.T, dtype=np.int8), snaps


def anneal(H: Hamiltonian, schedule: AnnealSchedule,
           rng: np.random.Generator) -> np.ndarray:
    """Single annealing run; returns the final spin state aligned with graph.spins."""
    state, _ = _run_batch(H, schedule, 1, rng)
    return state[0]


def _ascending_checkpoints(schedule: AnnealSchedule,
                           checkpoints: np.ndarray) -> np.ndarray:
    """checkpoints sorted ascending; ValueError for one outside the schedule
    range or one listed twice."""
    cps = np.sort(np.asarray(checkpoints, dtype=float))
    if not np.all((cps >= schedule.t_end) & (cps <= schedule.t_start)):
        raise ValueError("checkpoints must lie within the schedule range")
    if np.any(cps[1:] == cps[:-1]):
        raise ValueError("checkpoints must not repeat a temperature")
    return cps


def checkpoint_temperatures(H: Hamiltonian, schedule: AnnealSchedule,
                            checkpoints: np.ndarray) -> np.ndarray:
    """The ascending grid of physical temperatures alpha * checkpoint on
    which sa_orientation_sweep reports, known before the anneal runs.

    Raises ValueError for a checkpoint outside the schedule range or one
    listed twice.
    """
    return H.alpha * _ascending_checkpoints(schedule, checkpoints)


def sa_orientation_sweep(H: Hamiltonian, schedule: AnnealSchedule,
                         checkpoints: np.ndarray, n_runs: int,
                         rng: np.random.Generator) -> OrientationCurve:
    """Per-spin orientations across n_runs anneals at checkpoint temperatures.

    Checkpoints (in units of alpha, like the schedule) are visited as the
    ramp cools through them; the returned curve is on the grid of
    checkpoint_temperatures.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    cps = _ascending_checkpoints(schedule, checkpoints)
    # descending: the order the ramp reaches them
    _, snaps = _run_batch(H, schedule, n_runs, rng, checkpoints=cps[::-1])
    means = snaps.mean(axis=1)  # (n_cp, n_spins), sweep order
    return OrientationCurve(
        temperatures=H.alpha * cps,
        values=means[::-1],
        items=tuple(H.graph.spins),
    )
