"""Exhaustive-enumeration thermodynamics for small instances.

Configurations are encoded as n-bit integers with bit t = (s_t + 1)/2, where
t indexes the active spins of the graph in ascending order. Every thermal
average goes through `thermal_average`, which subtracts the ground energy
first, so no temperature in [1e-3, 1e7] overflows or underflows.

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
    "magnetization",
    "magnetization_curve",
    "magnetization_curves",
    "pair_correlation_curve",
    "pair_correlation_curves",
    "thermal_average",
    "mpm_decode",
    "map_decode",
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


def config_matrix(n: int) -> np.ndarray:
    """(2^n, n) matrix of spin values; row k is configuration code k."""
    if n > MAX_SPINS:
        raise CapacityError(f"{n} spins exceeds the exhaustive cap {MAX_SPINS}")
    return _cached_config_matrix(n)


def _pair_products(graph: ChimeraGraph, positions: np.ndarray) -> np.ndarray:
    """(2^n, k) values of s_i s_j in every configuration, for (k, 2) spin
    positions such as `graph.edge_positions`."""
    S = config_matrix(graph.n_spins)
    return S[:, positions[:, 0]] * S[:, positions[:, 1]]


def batch_energies(graph: ChimeraGraph, h_mat: np.ndarray, j_mat: np.ndarray,
                   alpha: float = 1.0) -> np.ndarray:
    """Energies of every configuration for a batch of instances on one graph.

    h_mat: (B, n) fields, j_mat: (B, m) couplers in canonical edge order,
    alpha a scale or a (B, 1) column of them. Returns (B, 2^n); each row is
    the same floats as its instance's energies computed alone.
    """
    S = config_matrix(graph.n_spins)
    P = _pair_products(graph, graph.edge_positions)
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


def magnetization(H: Hamiltonian, T: float) -> np.ndarray:
    """Per-spin thermal averages <sigma_i> at temperature T."""
    return magnetization_curve(H, np.array([T], dtype=float))[0]


def magnetization_curves(Hs: list[Hamiltonian], temps: np.ndarray) -> np.ndarray:
    """(B, n_temps, n_spins) array of <sigma_i>(T) for Hamiltonians of one
    graph, in input order."""
    graph = common_graph(Hs)
    return _stacked_average(graph, Hs, temps, config_matrix(graph.n_spins))


def magnetization_curve(H: Hamiltonian, temps: np.ndarray) -> np.ndarray:
    """(n_temps, n_spins) array of <sigma_i>(T) over a temperature grid."""
    return magnetization_curves([H], temps)[0]


def pair_correlation_curves(Hs: list[Hamiltonian], temps: np.ndarray,
                            pairs: list[tuple[int, int]]) -> np.ndarray:
    """(B, n_temps, n_pairs) array of <sigma_i sigma_j>(T) for arbitrary
    pairs, for Hamiltonians of one graph, in input order."""
    graph = common_graph(Hs)
    idx = graph.positions(pairs).reshape(-1, 2)
    return _stacked_average(graph, Hs, temps, _pair_products(graph, idx))


def pair_correlation_curve(H: Hamiltonian, temps: np.ndarray,
                           pairs: list[tuple[int, int]]) -> np.ndarray:
    """(n_temps, n_pairs) array of <sigma_i sigma_j>(T) for arbitrary pairs."""
    return pair_correlation_curves([H], temps, pairs)[0]


def _sign_with_zero(m: np.ndarray, tol: float = _ZERO_TOL) -> np.ndarray:
    out = np.sign(m)
    out[(m > -tol) & (m < tol)] = 0.0  # no |m| temporary: it is out's size
    return out


def mpm_decode(H: Hamiltonian, T: float) -> np.ndarray:
    """Marginal posterior maximisation: sgn(<sigma_i>) at T, 0 if undecided.

    Entries align with H.graph.spins.
    """
    return _sign_with_zero(magnetization(H, T))


def map_decode(H: Hamiltonian) -> np.ndarray:
    """Maximum-likelihood decode: per-spin sign summed over all ground states.

    Exact integer arithmetic, so degenerate ties yield exactly 0.
    """
    energies = enumerate_spectrum(H).energies[None, :]
    return batch_map_decode(energies, H.graph.n_spins, H.alpha)[0]


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
    """Orientation-curve engine backed by exhaustive enumeration.

    The batch methods take Hamiltonians of one graph and return one curve
    per Hamiltonian, stacked in input order; magnetization_curve is their
    one-element case."""

    def magnetization_curves(self, Hs: list[Hamiltonian],
                             temps: np.ndarray) -> np.ndarray:
        return magnetization_curves(Hs, temps)

    def pair_correlation_curves(self, Hs: list[Hamiltonian], temps: np.ndarray,
                                pairs: list[tuple[int, int]]) -> np.ndarray:
        return pair_correlation_curves(Hs, temps, pairs)

    def magnetization_curve(self, H: Hamiltonian, temps: np.ndarray) -> np.ndarray:
        return self.magnetization_curves([H], temps)[0]
