"""Metropolis simulated annealing with optional control-error injection.

The annealer models a physical sampler whose field and coupler values carry
Gaussian setting errors. Temperature is interpolated linearly in the update
index (one update = one single-spin Metropolis attempt) between the schedule
endpoints, expressed in units of alpha (the nominal |J|); spins are visited
in fixed sequential order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Hamiltonian
from .transitions import OrientationCurve

__all__ = [
    "AnnealSchedule",
    "ControlErrorSpec",
    "inject_control_error",
    "anneal",
    "sa_orientation_sweep",
]


@dataclass(frozen=True)
class AnnealSchedule:
    """Linear-in-update-index temperature ramp, in units of alpha."""

    t_start: float = 10.0
    t_end: float = 0.1
    total_updates: int = 1_000_000

    def __post_init__(self) -> None:
        if self.t_start <= 0 or self.t_end <= 0:
            raise ValueError("schedule temperatures must be positive")
        if self.t_end > self.t_start:
            raise ValueError("t_end must not exceed t_start")
        if self.total_updates < 1:
            raise ValueError("total_updates must be >= 1")

    def temperature(self, update: int) -> float:
        """Scheduled temperature (in units of alpha) at a 0-based update index."""
        if self.total_updates == 1:
            return self.t_start
        frac = update / (self.total_updates - 1)
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


def _run_batch(H: Hamiltonian, schedule: AnnealSchedule, n_runs: int,
               rng: np.random.Generator,
               checkpoints: np.ndarray | None = None):
    """Anneal n_runs replicas under a shared update sequence.

    All replicas visit the same spin at each update (sequential order) and
    share the temperature schedule; randomness (initial state, acceptance)
    is independent per replica. Returns (final states, snapshot stack) where
    snapshots are taken at the first update whose scheduled temperature is
    <= each checkpoint.
    """
    h, idx, val = _local_field_tables(H)
    n = H.graph.n_spins
    alpha = H.alpha
    state = rng.integers(0, 2, size=(n_runs, n)) * 2 - 1
    snaps = None
    next_cp = 0
    if checkpoints is not None:
        snaps = np.empty((len(checkpoints), n_runs, n), dtype=np.int8)

    total = schedule.total_updates
    span = schedule.t_end - schedule.t_start
    denom = max(total - 1, 1)
    for u in range(total):
        t_sched = schedule.t_start + span * (u / denom)
        if snaps is not None:
            while next_cp < len(checkpoints) and t_sched <= checkpoints[next_cp]:
                snaps[next_cp] = state
                next_cp += 1
        i = u % n
        local = h[i] + state[:, idx[i]] @ val[i]
        d_energy = 2.0 * alpha * state[:, i] * local
        beta = 1.0 / (alpha * t_sched)
        p_accept = np.exp(-np.maximum(d_energy, 0.0) * beta)
        flip = rng.random(n_runs) < p_accept
        state[flip, i] = -state[flip, i]
    if snaps is not None:
        while next_cp < len(checkpoints):   # checkpoints at/below t_end
            snaps[next_cp] = state
            next_cp += 1
    return state, snaps


def anneal(H: Hamiltonian, schedule: AnnealSchedule,
           rng: np.random.Generator) -> np.ndarray:
    """Single annealing run; returns the final spin state aligned with graph.spins."""
    state, _ = _run_batch(H, schedule, 1, rng)
    return state[0].astype(np.int8)


def sa_orientation_sweep(H: Hamiltonian, schedule: AnnealSchedule,
                         checkpoints: np.ndarray, n_runs: int,
                         rng: np.random.Generator) -> OrientationCurve:
    """Per-spin orientations across n_runs anneals at checkpoint temperatures.

    Checkpoints (in units of alpha, like the schedule) are visited as the
    ramp cools through them; the returned curve is on the ascending grid of
    physical temperatures alpha * checkpoint.
    """
    cps = np.asarray(checkpoints, dtype=float)
    if np.any(cps > schedule.t_start) or np.any(cps < schedule.t_end):
        raise ValueError("checkpoints must lie within the schedule range")
    order = np.argsort(-cps)  # descending: the order the ramp reaches them
    _, snaps = _run_batch(H, schedule, n_runs, rng, checkpoints=cps[order])
    means = snaps.mean(axis=1)  # (n_cp, n_spins), sweep order
    return OrientationCurve(
        temperatures=H.alpha * cps[order][::-1],
        values=means[::-1],
        items=tuple(H.graph.spins),
        engine="sa",
    )
