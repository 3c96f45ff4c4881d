"""Binary symmetric channel corruption and corruption-sector weights.

The transmitted codeword is the set of N fields and M couplers of a nominal
Hamiltonian; the channel independently negates each element's sign with
crossover probability p. Decoding at the Nishimori temperature
T = 2 / ln((1-p)/p) minimizes the bit error rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from .core import Hamiltonian

__all__ = [
    "CorruptionMask",
    "nishimori_temperature",
    "crossover_probability",
    "corrupt",
    "sample_sector",
    "apply_mask",
    "sector_weights",
    "stream",
]


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent, reproducible Philox stream for (master seed, path...).

    Parallel workers derive disjoint streams from the same master seed by
    passing distinct paths, e.g. (sector, replicate).
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class CorruptionMask:
    """Which fields and couplers the channel flipped; N_corr is the total."""

    flipped_fields: frozenset[int]
    flipped_couplers: frozenset[tuple[int, int]]

    @property
    def n_corr(self) -> int:
        return len(self.flipped_fields) + len(self.flipped_couplers)


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


def apply_mask(H: Hamiltonian, mask: CorruptionMask) -> Hamiltonian:
    """Negate the masked fields and couplers of H."""
    h = {i: -v if i in mask.flipped_fields else v for i, v in H.h.items()}
    J = {e: -v if e in mask.flipped_couplers else v for e, v in H.J.items()}
    return Hamiltonian(H.graph, h, J, H.alpha)


def corrupt(H_clean: Hamiltonian, p: float,
            rng: np.random.Generator) -> tuple[Hamiltonian, CorruptionMask]:
    """Flip each field and coupler sign independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not H_clean.is_nominal():
        raise ValueError("corrupt requires a nominal (+-1) Hamiltonian")
    spins = H_clean.graph.spins
    edges = H_clean.graph.edges
    draws = rng.random(len(spins) + len(edges)) < p
    mask = CorruptionMask(
        flipped_fields=frozenset(s for t, s in enumerate(spins) if draws[t]),
        flipped_couplers=frozenset(
            e for t, e in enumerate(edges) if draws[len(spins) + t]
        ),
    )
    return apply_mask(H_clean, mask), mask


def sample_sector(H_clean: Hamiltonian, s: int,
                  rng: np.random.Generator) -> tuple[Hamiltonian, CorruptionMask]:
    """Flip exactly s elements, uniform over all (N+M choose s) subsets."""
    if not H_clean.is_nominal():
        raise ValueError("sample_sector requires a nominal (+-1) Hamiltonian")
    spins = H_clean.graph.spins
    edges = H_clean.graph.edges
    total = len(spins) + len(edges)
    if not 0 <= s <= total:
        raise ValueError(f"sector {s} outside [0, {total}]")
    chosen = rng.choice(total, size=s, replace=False)
    mask = mask_from_flat(H_clean, chosen)
    return apply_mask(H_clean, mask), mask


def mask_from_flat(H: Hamiltonian, flat_indices) -> CorruptionMask:
    """Mask from flat element indices: fields first (graph order), then edges."""
    spins = H.graph.spins
    edges = H.graph.edges
    fields = frozenset(spins[i] for i in flat_indices if i < len(spins))
    couplers = frozenset(edges[i - len(spins)] for i in flat_indices if i >= len(spins))
    return CorruptionMask(fields, couplers)


def sector_weights(p, n_elements: int) -> np.ndarray:
    """P(exactly s of n elements corrupted) = C(n, s) p^s (1-p)^(n-s), s = 0..n.

    Evaluated in the log domain: finite for any n, exact at p = 0 and p = 1.
    An array of p gives one row of weights per p.
    """
    p = np.asarray(p, dtype=float)[..., None]
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError("p must lie in [0, 1]")
    s = np.arange(n_elements + 1)
    log_comb = gammaln(n_elements + 1) - gammaln(s + 1) - gammaln(n_elements - s + 1)
    return np.exp(log_comb + xlogy(s, p) + xlog1py(n_elements - s, -p))
