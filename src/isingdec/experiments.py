"""Bit-error-rate experiment harness.

The key identity: with corrupted Hamiltonians grouped by the number s of
flipped elements (the "sector"), the total bit error rate is a polynomial in
the channel crossover probability,

    r_tot(p) = sum_s C(N+M, s) p^s (1-p)^(N+M-s) * rbar_s,

where rbar_s is the mean decode error over sector-s Hamiltonians. Every
sector mean is exact: it averages over every corruption pattern of one cell.
Decoding is scored against the all-+1 truth word; a codeword instance
(h_i = sigma_i, J_ij = sigma_i sigma_j) is a gauge transform of the all-+1
instance and has the same bit error rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel, exact
from .core import Hamiltonian, cell_orbits

__all__ = [
    "exact_sector_means",
    "ber_curve",
    "BerSurface",
    "ber_surface",
]


def exact_sector_means(H_clean: Hamiltonian, t_decode: np.ndarray):
    """Exact sector means over every corruption pattern of a nominal cell.

    Every corrupted (h, J) pattern gauge-transforms to h = +1 with some
    coupler sign word, and decode signs transform covariantly, so the full
    2^(N+M) channel average reduces to gauge-fixed coupler words plus
    bookkeeping of how many patterns of each sector a word's gauge orbit
    contains. A cell automorphism applied to both the gauge and the word
    keeps the sector and permutes the decoded signs with the spins, so one
    decode per orbit of the cell group, weighted by the orbit size, stands
    for every word of the orbit. Every accumulated term is an integer, so the
    grouping does not change a bit of the result. Single-cell graphs only
    (with or without excluded spins).

    H_clean must be a codeword instance, h_i = sigma_i and J_ij = sigma_i
    sigma_j: it is the all-+1 instance gauge-transformed by sigma, so its
    sector means are those of the all-+1 instance on its graph; any other
    instance raises ValueError.

    Returns (map_means (S+1,), mpm_means (S+1, n_t_decode)) with S = N+M.
    """
    graph = H_clean.graph
    if not H_clean.is_codeword():
        raise ValueError("exact sector means need a codeword instance "
                         "(h_i = +-1, J_ij = h_i h_j)")
    if graph.L != 1:
        raise exact.CapacityError(
            f"exact sector means need a single cell, not L={graph.L}")
    n = len(graph.spins)
    m = len(graph.edges)
    t_decode = np.asarray(t_decode, dtype=float)

    # one representative word per orbit, edge 0 the most significant bit
    words, orbit_size = np.unique(cell_orbits(graph), return_counts=True)
    bits = (words[:, None] >> np.arange(m - 1, -1, -1)) & 1
    energies = exact.batch_energies(graph, np.ones((len(words), n)),
                                    (1 - 2 * bits).astype(np.float64),
                                    H_clean.alpha)
    mpm_signs = exact.batch_mpm_decode_curve(energies, n, t_decode)
    map_signs = exact.batch_map_decode(energies, n, H_clean.alpha)

    # gauge variables: one +-1 vector per spin assignment
    tau = exact.config_matrix(n)                      # (2^n, n)
    ij = graph.edge_positions
    edge_parity = ((1 - tau[:, ij[:, 0]] * tau[:, ij[:, 1]]) // 2).astype(np.int64)
    neg_h = ((1 - tau).sum(axis=1) // 2).astype(np.int64)     # (2^n,)
    n_el = n + m
    n_sectors = n_el + 1
    # sector of pattern (tau, word): flipped fields plus flipped couplers of
    # the gauge-transformed word
    s_tot = (neg_h + edge_parity.sum(axis=1))[None, :] \
        + bits.sum(axis=1)[:, None] - 2 * (bits @ edge_parity.T)   # (W, 2^n)
    flat = (np.arange(len(words))[:, None] * n_sectors + s_tot).ravel()
    tau_sum = np.empty((len(words), n, n_sectors))
    for i in range(n):
        weights = np.broadcast_to(tau[:, i], s_tot.shape).ravel()
        tau_sum[:, i, :] = np.bincount(
            flat, weights=weights, minlength=len(words) * n_sectors,
        ).reshape(len(words), n_sectors)
    tau_sum *= orbit_size[:, None, None]
    mpm_acc = np.einsum("wti,wis->ts", mpm_signs, tau_sum)
    map_acc = np.einsum("wi,wis->s", map_signs, tau_sum)

    counts = np.array([math.comb(n_el, s) for s in range(n_sectors)])
    mpm_means = 0.5 - mpm_acc.T / (2.0 * n * counts[:, None])
    map_means = 0.5 - map_acc / (2.0 * n * counts)
    return map_means, mpm_means


def ber_curve(means: np.ndarray, p_grid: np.ndarray) -> np.ndarray:
    """Evaluate the sector polynomial r_tot(p) on a p grid.

    means: sector means (S+1,) or (S+1, n_temps). Returns (n_p,) or
    (n_p, n_temps).
    """
    return channel.sector_weights(p_grid, len(means) - 1) @ means


@dataclass(frozen=True)
class BerSurface:
    """MPM vs MAP bit error rates over decode and Nishimori temperature grids."""

    t_decode: np.ndarray
    t_nish: np.ndarray
    r_mpm: np.ndarray      # (n_t_decode, n_t_nish)
    r_map: np.ndarray      # (n_t_nish,)
    ratio: np.ndarray      # r_mpm / r_map
    map_means: np.ndarray  # (S+1,) MAP sector means
    mpm_means: np.ndarray  # (S+1, n_t_decode) MPM sector means


def ber_surface(H_clean: Hamiltonian, t_decode: np.ndarray,
                t_nish: np.ndarray) -> BerSurface:
    """BER surface of one cell over decode and Nishimori temperatures.

    The sector means are computed once, exactly (`exact_sector_means`);
    every (T_decode, T_Nish) entry is then polynomial evaluation at
    p(T_Nish).
    """
    t_decode = np.asarray(t_decode, dtype=float)
    t_nish = np.asarray(t_nish, dtype=float)
    map_means, mpm_means = exact_sector_means(H_clean, t_decode)
    p_vals = np.array([channel.crossover_probability(t) for t in t_nish])
    r_mpm = ber_curve(mpm_means, p_vals).T      # (n_t_decode, n_t_nish)
    r_map = ber_curve(map_means, p_vals)
    return BerSurface(
        t_decode=t_decode, t_nish=t_nish, r_mpm=r_mpm, r_map=r_map,
        ratio=r_mpm / r_map, map_means=map_means, mpm_means=mpm_means,
    )
