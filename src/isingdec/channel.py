"""Binary symmetric channel corruption and corruption-sector weights.

The transmitted codeword is the set of N fields and M couplers of a nominal
Hamiltonian; the channel independently negates each element's sign with
crossover probability p. Which elements it negated is one bool `flipped`
vector of length N+M: fields first in spin order, then couplers in edge
order. Decoding at the Nishimori temperature
T = 2 / ln((1-p)/p) minimizes the bit error rate.

Sector weights take their binomial coefficients from `math.comb` (exact
integers) and their p terms from numpy's `log` and `log1p`; the random
streams are numpy `Generator`s over `Philox`.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .core import Hamiltonian

__all__ = [
    "nishimori_temperature",
    "crossover_probability",
    "corrupt",
    "sample_sector",
    "apply_mask",
    "sector_weights",
    "stream",
]


def stream(master_seed: int, *path: int) -> Generator:
    """Independent, reproducible Philox stream for (master seed, path...).

    Parallel workers derive disjoint streams from the same master seed by
    passing distinct paths, e.g. (sector, replicate).
    """
    ss = SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))
    return Generator(Philox(ss))


def nishimori_temperature(p: float) -> float:
    """T_Nish = 2 / ln((1-p)/p) for the binary symmetric channel."""
    if not 0.0 < p < 0.5:
        raise ValueError(f"p={p} outside (0, 0.5); T_Nish limits are 0 and infinity")
    return 2.0 / math.log((1.0 - p) / p)


def crossover_probability(t_nish: float) -> float:
    """Inverse of nishimori_temperature: p = 1 / (1 + exp(2/T))."""
    if t_nish <= 0.0:
        raise ValueError("T_Nish must be positive")
    return 1.0 / (1.0 + math.exp(2.0 / t_nish))


def apply_mask(H: Hamiltonian, flipped: np.ndarray) -> Hamiltonian:
    """Negate the fields and couplers of H marked in the (N+M,) bool vector."""
    n = H.graph.n_spins
    flipped = np.asarray(flipped, dtype=bool)
    if flipped.shape != (n + H.graph.n_edges,):
        raise ValueError("flipped must hold one flag per field and coupler")
    return Hamiltonian(H.graph, np.where(flipped[:n], -H.h, H.h),
                       np.where(flipped[n:], -H.J, H.J), H.alpha)


def corrupt(H_clean: Hamiltonian, p: float,
            rng: Generator) -> tuple[Hamiltonian, np.ndarray]:
    """Flip each field and coupler sign independently with probability p.

    Returns the corrupted instance and its (N+M,) bool `flipped` vector.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not H_clean.is_nominal():
        raise ValueError("corrupt requires a nominal (+-1) Hamiltonian")
    flipped = rng.random(H_clean.graph.n_spins + H_clean.graph.n_edges) < p
    return apply_mask(H_clean, flipped), flipped


def sample_sector(H_clean: Hamiltonian, s: int,
                  rng: Generator) -> tuple[Hamiltonian, np.ndarray]:
    """Flip exactly s elements, uniform over all (N+M choose s) subsets.

    Returns the corrupted instance and its (N+M,) bool `flipped` vector.
    """
    if not H_clean.is_nominal():
        raise ValueError("sample_sector requires a nominal (+-1) Hamiltonian")
    total = H_clean.graph.n_spins + H_clean.graph.n_edges
    if not 0 <= s <= total:
        raise ValueError(f"sector {s} outside [0, {total}]")
    flipped = np.zeros(total, dtype=bool)
    flipped[rng.choice(total, size=s, replace=False)] = True
    return apply_mask(H_clean, flipped), flipped


def sector_weights(p, n_elements: int) -> np.ndarray:
    """P(exactly s of n elements corrupted) = C(n, s) p^s (1-p)^(n-s), s = 0..n.

    Evaluated in the log domain: ln C(n, s) from the exact integer, then
    s ln p + (n-s) ln(1-p) with 0 ln 0 = 0, so the weights are finite for any
    n and exact at p = 0 and p = 1. An array of p gives one row per p.
    """
    p = np.asarray(p, dtype=float)[..., None]
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError("p must lie in [0, 1]")
    s = np.arange(n_elements + 1)
    log_comb = np.array([math.log(math.comb(n_elements, k))
                         for k in range(n_elements + 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.where(s > 0, s * np.log(p), 0.0)
        log_q = np.where(s < n_elements, (n_elements - s) * np.log1p(-p), 0.0)
    return np.exp(log_comb + log_p + log_q)
