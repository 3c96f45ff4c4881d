"""Exhaustive-enumeration thermodynamics for small instances.

Configurations are encoded as n-bit integers with bit t = (s_t + 1)/2, where
t indexes the active spins of the graph in ascending order. Every thermal
average goes through `thermal_average`, which subtracts the ground energy
first, so no temperature in [1e-3, 1e7] overflows or underflows.

Every curve is a moment curve (`moment_curves`) of groups of one spin or two.
Curves over many Hamiltonians of one graph are one stacked computation.
Every product in it is a stacked vector-matrix product, one per instance,
which BLAS sums in the same order as the instance's product alone: a
Hamiltonian's curve does not depend on the rest of its batch, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import CapacityError, ChimeraGraph, Hamiltonian, common_graph

__all__ = [
    "Spectrum",
    "enumerate_spectrum",
    "moment_curves",
    "thermal_average",
    "ExactEngine",
    "config_matrix",
    "batch_energies",
    "batch_map_decode",
    "batch_mpm_decode_curve",
]

MAX_SPINS = 25
_BLOCK_ENTRIES = 1 << 22  # energies a stacked average holds at once (32 MiB)
GROUND_TIE_RTOL = 1e-9
_ZERO_TOL = 1e-12  # |<sigma>| below this decodes to 0 (exact symmetry + float noise)


@dataclass(frozen=True)
class Spectrum:
    """Energies of all 2^n configurations plus the degenerate ground set."""

    energies: np.ndarray
    ground_energy: float
    ground_set: np.ndarray  # configuration codes of all ground states


@lru_cache(maxsize=32)
def _cached_config_matrix(n: int) -> np.ndarray:
    codes = np.arange(1 << n, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(n)[None, :]) & 1
    return (2 * bits - 1).astype(np.float64)


def _check_spins(n: int) -> None:
    """CapacityError if n spins exceed the exhaustive cap."""
    if n > MAX_SPINS:
        raise CapacityError(f"{n} spins exceeds the exhaustive cap {MAX_SPINS}")


def config_matrix(n: int) -> np.ndarray:
    """(2^n, n) matrix of spin values; row k is configuration code k."""
    _check_spins(n)
    return _cached_config_matrix(n)


def _group_products(graph: ChimeraGraph, groups: list[tuple[int, ...]]) -> np.ndarray:
    """(2^n, k) values of each group's product of spins in every
    configuration, for groups of one active spin label or two. BLAS rounds a
    stacked average by this matrix's layout: all spins in order are
    config_matrix itself, row-major; any other groups' products are
    column-major, as a fancy index leaves them."""
    if any(len(g) not in (1, 2) for g in groups):
        raise ValueError("a group is one spin label or two")
    S = config_matrix(graph.n_spins)
    if list(groups) == [(s,) for s in graph.spins]:
        return S
    pos = graph.positions([(g[0], g[-1]) for g in groups]).reshape(-1, 2)
    out = S[:, pos[:, 0]]
    pairs = [k for k, g in enumerate(groups) if len(g) == 2]
    out[:, pairs] *= S[:, pos[pairs, 1]]
    return out


def batch_energies(graph: ChimeraGraph, h_mat: np.ndarray, j_mat: np.ndarray,
                   alpha: float = 1.0) -> np.ndarray:
    """Energies of every configuration for a batch of instances on one graph.

    h_mat: (B, n) fields, j_mat: (B, m) couplers in canonical edge order,
    alpha a scale or a (B, 1) column of them. Returns (B, 2^n); each row is
    the same floats as its instance's energies computed alone.
    """
    S = config_matrix(graph.n_spins)
    ij = graph.edge_positions
    P = S[:, ij[:, 0]] * S[:, ij[:, 1]]
    return alpha * (-_rowwise(h_mat, S.T) - _rowwise(j_mat, P.T))


def _rowwise(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows @ matrix as one vector-matrix product per row: a matrix-matrix
    product would sum in another order, off by up to 7.7e-15."""
    return np.matmul(rows[..., None, :], matrix)[..., 0, :]


def enumerate_spectrum(H: Hamiltonian) -> Spectrum:
    """Exact energies of all 2^n configurations of H."""
    energies = batch_energies(H.graph, H.h[None, :], H.J[None, :], H.alpha)[0]
    ground = float(energies.min())
    tol = GROUND_TIE_RTOL * H.alpha
    ground_set = np.flatnonzero(energies <= ground + tol)
    return Spectrum(energies=energies, ground_energy=ground, ground_set=ground_set)


def thermal_average(energies: np.ndarray, temps: np.ndarray,
                    observable: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Boltzmann averages of observable columns over a temperature grid.

    energies: (..., 2^n) configuration energies; observable: (2^n, k) values
    per configuration. Returns (..., n_temps, k), written into `out` if
    given. The ground energy is subtracted first and the weights are built
    one temperature at a time.
    """
    temps = np.asarray(temps, dtype=float)
    if not np.all(temps > 0):
        raise ValueError("all temperatures must be positive")
    neg_shifted = energies.min(axis=-1, keepdims=True) - energies
    if out is None:
        out = np.empty(energies.shape[:-1] + (len(temps), observable.shape[1]))
    w = np.empty_like(neg_shifted)
    for t, T in enumerate(temps):
        np.exp(np.divide(neg_shifted, T, out=w), out=w)
        out[..., t, :] = _rowwise(w, observable) / w.sum(axis=-1, keepdims=True)
    return out


def _stacked_average(graph: ChimeraGraph, Hs: list[Hamiltonian],
                     temps: np.ndarray, observable: np.ndarray) -> np.ndarray:
    """thermal_average of observable (2^n, k) for every H on graph:
    (B, n_temps, k), in blocks of at most _BLOCK_ENTRIES energies, so a
    25-spin graph takes one Hamiltonian at a time."""
    h = np.array([H.h for H in Hs])
    j = np.array([H.J for H in Hs])
    alpha = np.array([[H.alpha] for H in Hs])
    block = max(1, _BLOCK_ENTRIES >> graph.n_spins)
    out = np.empty((len(Hs), len(temps), observable.shape[1]))
    for b in range(0, len(Hs), block):
        rows = slice(b, b + block)
        energies = batch_energies(graph, h[rows], j[rows], alpha[rows])
        thermal_average(energies, temps, observable, out=out[rows])
    return out


def moment_curves(Hs: list[Hamiltonian], temps: np.ndarray,
                  groups: list[tuple[int, ...]]) -> np.ndarray:
    """(B, n_temps, len(groups)) array of <product of sigma_i over i in g>(T)
    for each group g of one active spin label or two, for Hamiltonians of one
    graph, in input order. ValueError for any other group."""
    graph = common_graph(Hs)
    return _stacked_average(graph, Hs, temps, _group_products(graph, groups))


def _sign_with_zero(m: np.ndarray, tol: float = _ZERO_TOL) -> np.ndarray:
    out = np.sign(m)
    out[(m > -tol) & (m < tol)] = 0.0  # no |m| temporary: it is out's size
    return out


def batch_map_decode(energies: np.ndarray, n_spins: int, alpha: float = 1.0) -> np.ndarray:
    """MAP decode for a batch: energies (B, 2^n) -> signs (B, n)."""
    S = config_matrix(n_spins)
    ground = energies.min(axis=1, keepdims=True)
    degenerate = energies <= ground + GROUND_TIE_RTOL * alpha
    sums = degenerate.astype(np.float64) @ S
    return np.sign(sums)


def batch_mpm_decode_curve(energies: np.ndarray, n_spins: int,
                           temps: np.ndarray) -> np.ndarray:
    """MPM decode for a batch over a temperature grid.

    energies: (B, 2^n). Returns signs (B, n_temps, n_spins).
    """
    return _sign_with_zero(thermal_average(energies, temps, config_matrix(n_spins)))


class ExactEngine:
    """Thermal moments by exhaustive enumeration: moment_curves stacks one
    curve per Hamiltonian of one graph in input order, and
    magnetization_curve is its one-element, all-spins case."""

    def check_capacity(self, graph: ChimeraGraph) -> None:
        """CapacityError if graph has more spins than enumeration takes."""
        _check_spins(graph.n_spins)

    def moment_curves(self, Hs: list[Hamiltonian], temps: np.ndarray,
                      groups: list[tuple[int, ...]]) -> np.ndarray:
        return moment_curves(Hs, temps, groups)

    def magnetization_curve(self, H: Hamiltonian, temps: np.ndarray) -> np.ndarray:
        return self.moment_curves([H], temps, [(s,) for s in H.graph.spins])[0]
