"""Spin-sign and correlation-sign transition analysis.

A spin-sign transition is a temperature where sgn<sigma_i>(T) changes. On a
sampled orientation curve, transitions are located by smoothing with a
centered running average (default window 5), then linearly interpolating the
zero crossings between consecutive smoothed points. Spins whose orientation
at the lowest grid temperature is (numerically) zero are excluded: sampling
noise around zero produces spurious crossings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit
from scipy.special import erfc, ndtr

from .core import Hamiltonian

__all__ = [
    "OrientationCurve",
    "TransitionRecord",
    "orientation_curve",
    "correlation_curve",
    "smooth_curve",
    "find_transitions",
    "plow_model",
    "PErrReport",
    "p_err",
    "fit_effective_temperature",
    "fit_logistic",
    "significance_band",
    "default_temperature_grid",
]

DEFAULT_EXCLUSION_EPS = 0.01


def default_temperature_grid(n_points: int = 200, t_max: float = 7.0) -> np.ndarray:
    """Uniform grid of n_points temperatures on (0, t_max]."""
    return t_max * np.arange(1, n_points + 1) / n_points


@dataclass(frozen=True)
class OrientationCurve:
    """Per-item thermal averages over an ascending temperature grid.

    `values[t, k]` is <sigma_i>(temperatures[t]) for spin items[k], or
    <sigma_i sigma_j> when items are pairs. `engine` tags the producer.
    """

    temperatures: np.ndarray
    values: np.ndarray
    items: tuple
    engine: str

    def __post_init__(self) -> None:
        if np.any(np.diff(self.temperatures) <= 0):
            raise ValueError("temperature grid must be strictly ascending")
        if self.values.shape != (len(self.temperatures), len(self.items)):
            raise ValueError("values shape must be (n_temps, n_items)")


@dataclass(frozen=True)
class TransitionRecord:
    """Transitions of one spin (or pair): low-T sign and crossing temps."""

    spin: object
    sigma_low: int
    transition_temps: tuple[float, ...]
    excluded: bool = False


def orientation_curve(H: Hamiltonian, grid: np.ndarray, engine) -> OrientationCurve:
    """Per-spin <sigma_i>(T) over the grid, computed by the given engine."""
    grid = np.asarray(grid, dtype=float)
    values = engine.magnetization_curve(H, grid)
    return OrientationCurve(
        temperatures=grid, values=values, items=tuple(H.graph.spins),
        engine=engine.name,
    )


def correlation_curve(H: Hamiltonian, grid: np.ndarray, engine,
                      pairs: list[tuple[int, int]]) -> OrientationCurve:
    """<sigma_i sigma_j>(T) for the given pairs; records reuse find_transitions."""
    grid = np.asarray(grid, dtype=float)
    values = engine.pair_correlation_curve(H, grid, pairs)
    return OrientationCurve(
        temperatures=grid, values=values, items=tuple(pairs), engine=engine.name,
    )


def smooth_curve(values: np.ndarray, window: int) -> np.ndarray:
    """Centered running average of odd width, shrinking at the boundaries."""
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be a positive odd integer")
    if window == 1:
        return values
    n = values.shape[0]
    half = window // 2
    csum = np.zeros((n + 1,) + values.shape[1:])
    np.cumsum(values, axis=0, out=csum[1:])
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    out = (csum[hi] - csum[lo]) / (hi - lo).reshape((-1,) + (1,) * (values.ndim - 1))
    return out


def find_transitions(curve: OrientationCurve, smoothing_window: int = 5,
                     exclusion_eps: float = DEFAULT_EXCLUSION_EPS,
                     ) -> list[TransitionRecord]:
    """Extract sign transitions per item from an orientation curve.

    Smooths with the running average, locates sign changes between
    consecutive smoothed points, and places each transition by linear
    interpolation of the zero crossing. sigma_low is the sign at the lowest
    grid temperature; items with |orientation| < exclusion_eps there are
    marked excluded and carry no transitions.
    """
    if len(curve.temperatures) < smoothing_window:
        raise ValueError("grid shorter than the smoothing window")
    temps = curve.temperatures
    smoothed = smooth_curve(curve.values, smoothing_window)
    records = []
    for k, item in enumerate(curve.items):
        v = smoothed[:, k]
        low = curve.values[0, k]
        if abs(low) < exclusion_eps:
            records.append(TransitionRecord(item, 0, (), excluded=True))
            continue
        crossings = []
        for j in np.flatnonzero(v[:-1] * v[1:] < 0):
            t = temps[j] + (temps[j + 1] - temps[j]) * v[j] / (v[j] - v[j + 1])
            crossings.append(float(t))
        records.append(
            TransitionRecord(item, int(np.sign(low)), tuple(crossings))
        )
    return records


def plow_model(p_agree, n_run: int, variant: str = "paper"):
    """Probability that an n_run-shot majority vote lands on the low-T sign.

    p_agree is the per-shot probability of agreeing with sigma_low, i.e.
    (1 + sigma_low * <sigma_i>) / 2 for a Boltzmann sampler. Two readings:

    - "paper": erfc(2 (1/2 - p_agree) sqrt(n_run)) / 2, the printed formula
      with the Boltzmann expectation read as a per-shot probability;
    - "clt": the central-limit majority probability
      Phi((p_agree - 1/2) sqrt(n_run) / sqrt(p_agree (1 - p_agree))).

    Both map 1/2 -> 1/2, increase in p_agree, and saturate to {0, 1} as
    n_run grows.
    """
    p = np.asarray(p_agree, dtype=float)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("p_agree must lie in [0, 1]")
    if n_run < 1:
        raise ValueError("n_run must be >= 1")
    if variant == "paper":
        out = 0.5 * erfc(2.0 * (0.5 - p) * np.sqrt(n_run))
    elif variant == "clt":
        var = p * (1.0 - p)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (p - 0.5) * np.sqrt(n_run) / np.sqrt(var)
        out = np.where(var == 0.0, (p > 0.5).astype(float), ndtr(z))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return float(out) if np.isscalar(p_agree) else out


@dataclass(frozen=True)
class PErrReport:
    """Sampler-quality metrics comparing experimental decodes to a reference."""

    temperatures: np.ndarray
    p_err: np.ndarray             # ensemble mean over Hamiltonians, per T
    per_hamiltonian: np.ndarray   # (n_H, n_T)
    min_per_hamiltonian: np.ndarray
    argmin_temperature: np.ndarray


def p_err(temperatures: np.ndarray,
          reference_curves: list[np.ndarray],
          experiment_signs: list[np.ndarray],
          include_masks: list[np.ndarray]) -> PErrReport:
    """Per-Hamiltonian and ensemble decode-error rates against a reference.

    reference_curves[h] holds the reference decode signs, shape
    (n_temps, n_spins); experiment_signs[h] the experimental decode per spin.
    Only spins with include_masks[h] True (those with at least one spin-sign
    transition) enter the averages. Ties in min_T break toward lower T.
    """
    temperatures = np.asarray(temperatures, dtype=float)
    per_h = []
    for ref, expt, inc in zip(reference_curves, experiment_signs, include_masks):
        inc = np.asarray(inc, dtype=bool)
        if not inc.any():
            raise ValueError("empty inclusion set for a Hamiltonian")
        diff = np.abs(ref[:, inc] - np.asarray(expt, dtype=float)[inc]) / 2.0
        per_h.append(diff.mean(axis=1))
    per_h = np.array(per_h)
    return PErrReport(
        temperatures=temperatures,
        p_err=per_h.mean(axis=0),
        per_hamiltonian=per_h,
        min_per_hamiltonian=per_h.min(axis=1),
        argmin_temperature=temperatures[per_h.argmin(axis=1)],
    )


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def fit_effective_temperature(observations, n_run: int, engine,
                              bracket: tuple[float, float] = (0.02, 7.0),
                              tol: float = 1e-4) -> float:
    """Least-squares sampler temperature from observed P_low values.

    observations: list of (H, spin_index, sigma_low, observed_p_low). For a
    candidate temperature T the predicted P_low of each spin is
    plow_model((1 + sigma_low * <sigma_i>(T)) / 2, n_run, "paper"); the fit
    minimizes the summed squared deviation by golden-section search on
    `bracket`, which is deterministic for a fixed bracket.
    """
    if len(observations) < 2:
        raise ValueError("need at least 2 observations")
    obs_p = np.array([o[3] for o in observations], dtype=float)
    if np.allclose(obs_p, obs_p[0]):
        raise ValueError("degenerate input: all observed P_low identical")

    h_index: dict[Hamiltonian, int] = {}  # instances hash by identity
    for H, _, _, _ in observations:
        h_index.setdefault(H, len(h_index))
    hams = list(h_index)
    spin_pos = [int(H.graph.positions(spin)) for H, spin, _, _ in observations]

    def loss(T: float) -> float:
        mags = [engine.magnetization_curve(H, np.array([T]))[0] for H in hams]
        total = 0.0
        for (H, _, sigma_low, p_obs), t in zip(observations, spin_pos):
            m = mags[h_index[H]][t]
            p_agree = 0.5 * (1.0 + sigma_low * m)
            total += (plow_model(p_agree, n_run) - p_obs) ** 2
        return total

    a, b = bracket
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = loss(c), loss(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = loss(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = loss(d)
    return 0.5 * (a + b)


def fit_logistic(t_trans: np.ndarray, p_low: np.ndarray) -> tuple[float, float]:
    """Fit P_low(T_trans) = 1 / (1 + exp(-(T - t0) / w)); returns (t0, w).

    Deterministic initial guess: t0 at the point closest to P_low = 0.5,
    w a quarter of the data span.
    """
    t = np.asarray(t_trans, dtype=float)
    p = np.asarray(p_low, dtype=float)

    def model(x, t0, w):
        return 1.0 / (1.0 + np.exp(-(x - t0) / w))

    t0_guess = float(t[np.argmin(np.abs(p - 0.5))])
    w_guess = max(0.25 * (t.max() - t.min()), 1e-3)
    popt, _ = curve_fit(
        model, t, p, p0=(t0_guess, w_guess),
        bounds=((t.min() - 5.0, 1e-4), (t.max() + 5.0, 50.0)),
        maxfev=20000,
    )
    return float(popt[0]), float(popt[1])


def significance_band(n_sets: int, level: float = 0.95) -> float:
    """Two-sided exact binomial band: smallest d with P(|k/n - 1/2| >= d) <= 1-level.

    A spin's observed P_low over n_sets set-level trials is significant when
    it lies at least d away from 1/2.
    """
    alpha = 1.0 - level
    counts = [math.comb(n_sets, k) for k in range(n_sets // 2 + 1)]
    lower = list(itertools.accumulate(counts))  # outcomes with <= k successes
    for k in range(n_sets // 2, -1, -1):
        # two-sided tail of counts <= k or >= n-k under p = 1/2, in exact integers
        tail = 2 * lower[k] - (counts[k] if k * 2 == n_sets else 0)
        if tail / 2 ** n_sets <= alpha:
            return 0.5 - k / n_sets
    return 0.5 + 1.0 / n_sets  # nothing is significant at this level
