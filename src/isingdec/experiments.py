"""Bit-error-rate experiment harness.

The key identity: with corrupted Hamiltonians grouped by the number s of
flipped elements (the "sector"), the total bit error rate is a polynomial in
the channel crossover probability,

    r_tot(p) = sum_s C(N+M, s) p^s (1-p)^(N+M-s) * rbar_s,

where rbar_s is the mean decode error over sector-s Hamiltonians. Sectors
small enough are enumerated exhaustively; the rest are Monte-Carlo sampled.
All decoding is against the all-+1 truth word (general truth words reduce to
it by a gauge transform).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import channel, exact
from .core import ChimeraGraph, Hamiltonian, cell_orbits

__all__ = [
    "MapDecoder",
    "MpmDecoder",
    "SectorRates",
    "sector_rates",
    "ber_curve",
    "BerSurface",
    "ber_surface",
    "NishimoriReport",
    "nishimori_check",
    "bootstrap_std",
]


def _batch_energies(graph: ChimeraGraph, elements: np.ndarray, alpha: float):
    """Configuration energies (B, 2^n) of flat (B, N+M) element vectors."""
    n = len(graph.spins)
    return exact.batch_energies(graph, elements[:, :n], elements[:, n:], alpha)


class MapDecoder:
    """Zero-temperature (ground-state-consensus) decoder for a fixed graph.

    Called on (B, N+M) element matrices (fields first, then couplers in edge
    order); returns signs (B, n_spins).
    """

    def __init__(self, graph: ChimeraGraph, alpha: float = 1.0):
        self.graph = graph
        self.alpha = alpha

    def __call__(self, elements: np.ndarray) -> np.ndarray:
        energies = _batch_energies(self.graph, elements, self.alpha)
        return exact.batch_map_decode(energies, len(self.graph.spins), self.alpha)


class MpmDecoder:
    """Finite-temperature sign-of-magnetization decoder over a T grid.

    Called on (B, N+M) element matrices; returns signs (B, n_temps, n_spins).
    """

    def __init__(self, graph: ChimeraGraph, temperatures: np.ndarray,
                 alpha: float = 1.0):
        self.graph = graph
        self.alpha = alpha
        self.temperatures = np.asarray(temperatures, dtype=float)

    def __call__(self, elements: np.ndarray) -> np.ndarray:
        energies = _batch_energies(self.graph, elements, self.alpha)
        return exact.batch_mpm_decode_curve(
            energies, len(self.graph.spins), self.temperatures)


@dataclass(frozen=True)
class SectorRates:
    """Per-sector decode error rates of one clean instance.

    sample_rates[s] holds the per-Hamiltonian error rates in sector s, shape
    (B_s,) for a single-decode decoder or (B_s, n_temps) for a grid decoder;
    means stacks the sector averages. exhaustive[s] marks fully enumerated
    sectors.
    """

    n_elements: int
    counts: np.ndarray
    means: np.ndarray
    sample_rates: tuple
    exhaustive: np.ndarray
    temperatures: np.ndarray | None = None


def _sector_masks(n_elements: int, s: int, samples_per_sector: int,
                  rng: np.random.Generator):
    """Boolean flip masks (B, n_elements) for sector s; exhaustive if cheap."""
    total = math.comb(n_elements, s)
    if total <= samples_per_sector:
        masks = np.zeros((total, n_elements), dtype=bool)
        for b, pos in enumerate(itertools.combinations(range(n_elements), s)):
            masks[b, list(pos)] = True
        return masks, True
    masks = np.zeros((samples_per_sector, n_elements), dtype=bool)
    for b in range(samples_per_sector):
        masks[b, rng.choice(n_elements, size=s, replace=False)] = True
    return masks, False


def sector_rates(H_clean: Hamiltonian, decoder, samples_per_sector: int,
                 rng: np.random.Generator) -> SectorRates:
    """Mean decode error per corruption sector of a clean instance.

    The decoder is called once per sector on the (B, N+M) element-value
    matrix of that sector's corrupted instances.
    """
    if samples_per_sector < 1:
        raise ValueError("samples_per_sector must be >= 1")
    clean = np.concatenate([H_clean.h, H_clean.J])
    n_el = len(clean)
    counts, means, samples, exhaustive = [], [], [], []
    for s in range(n_el + 1):
        masks, full = _sector_masks(n_el, s, samples_per_sector, rng)
        elements = clean * np.where(masks, -1.0, 1.0)
        # mean per-spin error vs the all-+1 truth; an undecided spin counts 1/2
        r = ((1.0 - decoder(elements)) / 2.0).mean(axis=-1)
        counts.append(len(masks))
        means.append(r.mean(axis=0))
        samples.append(r)
        exhaustive.append(full)
    return SectorRates(
        n_elements=n_el, counts=np.array(counts), means=np.array(means),
        sample_rates=tuple(samples), exhaustive=np.array(exhaustive),
        temperatures=getattr(decoder, "temperatures", None),
    )


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

    Returns (map_means (S+1,), mpm_means (S+1, n_t_decode)) with S = N+M.
    """
    graph = H_clean.graph
    if np.any(H_clean.h != 1.0) or np.any(H_clean.J != 1.0):
        raise ValueError(
            "exact sector means require the all-+1 nominal instance")
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
    edge_parity = (
        (1 - exact._pair_products(graph, graph.edge_positions)) // 2).astype(np.int64)
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


def ber_curve(rates: SectorRates, p_grid: np.ndarray) -> np.ndarray:
    """Evaluate the sector polynomial r_tot(p) on a p grid.

    Returns (n_p,) for single-decode rates or (n_p, n_temps) for grid rates.
    """
    return channel.sector_weights(p_grid, rates.n_elements) @ rates.means


@dataclass(frozen=True)
class BerSurface:
    """MPM vs MAP bit error rates over decode and Nishimori temperature grids."""

    t_decode: np.ndarray
    t_nish: np.ndarray
    r_mpm: np.ndarray   # (n_t_decode, n_t_nish)
    r_map: np.ndarray   # (n_t_nish,)
    ratio: np.ndarray   # r_mpm / r_map
    mpm_rates: SectorRates
    map_rates: SectorRates


def ber_surface(H_clean: Hamiltonian, t_decode: np.ndarray,
                t_nish: np.ndarray, samples_per_sector: int | None = None,
                rng: np.random.Generator | None = None,
                mode: str = "exhaustive") -> BerSurface:
    """BER surface of one instance over decode and Nishimori temperatures.

    mode="exhaustive" reduces the full corruption average of a single cell to
    one decode per cell-symmetry orbit of gauge-fixed coupler words (exact to
    rounding); mode="sampled" Monte-Carlo samples each sector with
    samples_per_sector draws. Sector rates are computed once per decoder;
    every (T_decode, T_Nish) entry is then polynomial evaluation at p(T_Nish).
    """
    t_decode = np.asarray(t_decode, dtype=float)
    t_nish = np.asarray(t_nish, dtype=float)
    if mode == "exhaustive":
        map_means, mpm_means = exact_sector_means(H_clean, t_decode)
        n_el = len(H_clean.graph.spins) + len(H_clean.graph.edges)
        counts = np.array([math.comb(n_el, s) for s in range(n_el + 1)])
        full = np.ones(n_el + 1, dtype=bool)
        mpm = SectorRates(n_el, counts, mpm_means, (), full, t_decode)
        map_ = SectorRates(n_el, counts, map_means, (), full)
    elif mode == "sampled":
        if samples_per_sector is None or rng is None:
            raise ValueError("sampled mode needs samples_per_sector and rng")
        mpm = sector_rates(
            H_clean, MpmDecoder(H_clean.graph, t_decode, H_clean.alpha),
            samples_per_sector, rng)
        map_ = sector_rates(
            H_clean, MapDecoder(H_clean.graph, H_clean.alpha),
            samples_per_sector, rng)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    p_vals = np.array([channel.crossover_probability(t) for t in t_nish])
    r_mpm = ber_curve(mpm, p_vals).T            # (n_t_decode, n_t_nish)
    r_map = ber_curve(map_, p_vals)
    return BerSurface(
        t_decode=t_decode, t_nish=t_nish, r_mpm=r_mpm, r_map=r_map,
        ratio=r_mpm / r_map, mpm_rates=mpm, map_rates=map_,
    )


@dataclass(frozen=True)
class NishimoriReport:
    violations: tuple
    max_excess: float

    @property
    def ok(self) -> bool:
        return not self.violations


def nishimori_check(surface: BerSurface, tol: float = 1e-12) -> NishimoriReport:
    """Verify BER is minimized on the diagonal T_decode = T_Nish.

    For each T_Nish on the grid, require BER at T_decode = T_Nish to be
    within tol of the column minimum. The diagonal must lie on the decode
    grid.
    """
    violations = []
    max_excess = 0.0
    for k, t in enumerate(surface.t_nish):
        idx = int(np.argmin(np.abs(surface.t_decode - t)))
        if not np.isclose(surface.t_decode[idx], t, rtol=1e-9, atol=1e-12):
            raise ValueError(
                f"T_Nish={t} not on the decode grid; diagonal missing")
        col = surface.r_mpm[:, k]
        excess = float(surface.r_mpm[idx, k] - col.min())
        max_excess = max(max_excess, excess)
        if excess > tol:
            bad = np.flatnonzero(surface.r_mpm[idx, k] > col + tol)
            violations.append((float(t), tuple(surface.t_decode[bad])))
    return NishimoriReport(violations=tuple(violations), max_excess=max_excess)


def bootstrap_std(rates: SectorRates, p_grid: np.ndarray, n_boot: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Bootstrap standard deviation of r_tot(p).

    Resamples Hamiltonians within each sector with replacement n_boot times
    and recomputes the sector polynomial. Requires the retained per-sector
    sample lists.
    """
    if n_boot < 2:
        raise ValueError("n_boot must be >= 2")
    if any(len(s) == 0 for s in rates.sample_rates):
        raise ValueError("empty sector sample list")
    p_grid = np.asarray(p_grid, dtype=float)
    weights = channel.sector_weights(p_grid, rates.n_elements)
    boots = np.empty((n_boot,) + ((len(p_grid),) if rates.means.ndim == 1
                                  else (len(p_grid),) + rates.means.shape[1:]))
    for b in range(n_boot):
        means = np.array([
            s[rng.integers(0, len(s), size=len(s))].mean(axis=0)
            for s in rates.sample_rates
        ])
        boots[b] = weights @ means
    return boots.std(axis=0)
