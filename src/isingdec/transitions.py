"""Spin-sign and correlation-sign transition analysis.

A spin-sign transition is a temperature where sgn<sigma_i>(T) changes. On a
sampled orientation curve, transitions are located by smoothing with a
centered running average (default window 5), then linearly interpolating the
zero crossings between consecutive smoothed points. Spins whose orientation
at the lowest grid temperature is (numerically) zero are excluded: sampling
noise around zero produces spurious crossings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit
from scipy.special import erfc

from .core import Hamiltonian

__all__ = [
    "OrientationCurve",
    "TransitionRecord",
    "orientation_curve",
    "correlation_curve",
    "smooth_curve",
    "find_transitions",
    "plow_model",
    "fit_logistic",
    "default_temperature_grid",
]

# |orientation| at the lowest grid temperature below which an item is excluded
EXCLUSION_EPS = 0.01


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


def find_transitions(curve: OrientationCurve,
                     smoothing_window: int = 5) -> list[TransitionRecord]:
    """Extract sign transitions per item from an orientation curve.

    Smooths with the running average, locates sign changes between
    consecutive smoothed points, and places each transition by linear
    interpolation of the zero crossing. sigma_low is the sign at the lowest
    grid temperature; items with |orientation| < EXCLUSION_EPS there are
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
        if abs(low) < EXCLUSION_EPS:
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


def plow_model(p_agree, n_run: int):
    """Probability that an n_run-shot majority vote lands on the low-T sign.

    p_agree is the per-shot probability of agreeing with sigma_low, i.e.
    (1 + sigma_low * <sigma_i>) / 2 for a Boltzmann sampler. The model is the
    paper's printed formula, erfc(2 (1/2 - p_agree) sqrt(n_run)) / 2, with
    the Boltzmann expectation read as a per-shot probability. It maps
    1/2 -> 1/2, increases in p_agree, and saturates to {0, 1} as n_run grows.
    """
    p = np.asarray(p_agree, dtype=float)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("p_agree must lie in [0, 1]")
    if n_run < 1:
        raise ValueError("n_run must be >= 1")
    out = 0.5 * erfc(2.0 * (0.5 - p) * np.sqrt(n_run))
    return float(out) if np.isscalar(p_agree) else out


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
