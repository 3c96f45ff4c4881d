"""Spin-sign and correlation-sign transition analysis.

A spin-sign transition is a temperature where sgn<sigma_i>(T) changes. On an
orientation curve over a temperature grid, transitions are located by
smoothing with a centered running average (default window 5), then linearly
interpolating the zero crossings between consecutive smoothed points. Spins
whose orientation at the lowest grid temperature is (numerically) zero are
excluded: sampling noise around zero produces spurious crossings.

The P_low model takes erfc from `math`; the logistic fit is a small
Levenberg-Marquardt solver in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Hamiltonian

__all__ = [
    "OrientationCurve",
    "TransitionRecord",
    "orientation_curves",
    "smooth_curve",
    "find_transitions",
    "plow_model",
    "fit_logistic",
]

# |orientation| at the lowest grid temperature below which an item is excluded
EXCLUSION_EPS = 0.01

_erfc = np.frompyfunc(math.erfc, 1, 1)

# fit_logistic stops when a step moves (t0, 1/w) by less than this fraction
# of its norm, or after this many steps
_LM_XTOL = 1e-12
_LM_MAX_ITER = 1000


@dataclass(frozen=True)
class OrientationCurve:
    """Per-item thermal averages over an ascending temperature grid.

    `values[t, k]` is <sigma_i>(temperatures[t]) for spin items[k], or
    <sigma_i sigma_j> when items are pairs.
    """

    temperatures: np.ndarray
    values: np.ndarray
    items: tuple

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


def orientation_curves(Hs: list[Hamiltonian], grid: np.ndarray, engine,
                       items) -> list[OrientationCurve]:
    """<sigma_i>(T) for each spin item i, or <sigma_i sigma_j>(T) for each
    pair item (i, j), over the grid for Hamiltonians of one graph, from one
    moment_curves call of the given engine, in input order."""
    grid = np.asarray(grid, dtype=float)
    items = tuple(items)
    groups = [item if isinstance(item, tuple) else (item,) for item in items]
    return [OrientationCurve(temperatures=grid, values=v, items=items)
            for v in engine.moment_curves(Hs, grid, groups)]


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
    out = 0.5 * np.asarray(_erfc(2.0 * (0.5 - p) * np.sqrt(n_run)), dtype=float)
    return float(out) if np.isscalar(p_agree) else out


def fit_logistic(t_trans: np.ndarray, p_low: np.ndarray) -> tuple[float, float]:
    """Fit P_low(T_trans) = 1 / (1 + exp(-(T - t0) / w)); returns (t0, w).

    Least squares over the box t0 in [min T - 5, max T + 5], w in [1e-4, 50].
    Deterministic initial guess: t0 at the point closest to P_low = 0.5, w a
    quarter of the data span.

    Levenberg-Marquardt (Nielsen's damping update; Madsen, Nielsen and
    Tingleff, "Methods for non-linear least squares problems", 2004) on the
    coefficients of the linear predictor z = a + b (T - t0), re-centred on the
    current t0 at every step, so that a step ends at t0 - a/b and w = 1/b.
    Steps along the valley where one point stays fitted are then straight
    lines, which keeps near-step fits to tens of iterations. The end point is
    clipped to the box; a parameter on the box edge is held there while the
    gradient pushes it outward.
    """
    t = np.asarray(t_trans, dtype=float)
    p = np.asarray(p_low, dtype=float)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
        raise ValueError("fit_logistic needs finite data")
    lo = np.array([t.min() - 5.0, 1.0 / 50.0])  # (t0, b = 1/w)
    hi = np.array([t.max() + 5.0, 1.0 / 1e-4])
    t0_guess = float(t[np.argmin(np.abs(p - 0.5))])
    w_guess = max(0.25 * (t.max() - t.min()), 1e-3)
    x = np.clip([t0_guess, 1.0 / w_guess], lo, hi)

    def residual(x):
        with np.errstate(over="ignore"):
            f = 1.0 / (1.0 + np.exp(-(t - x[0]) * x[1]))
        return f, f - p

    f, r = residual(x)
    cost = r @ r
    mu, nu = 1e-3, 2.0
    for _ in range(_LM_MAX_ITER):
        slope = f * (1.0 - f)
        jac = np.column_stack([slope, slope * (t - x[0])])  # d f / d(a, b)
        grad = jac.T @ r
        hess = jac.T @ jac
        uphill = np.array([-grad[0], grad[1]])  # signs of d cost / d(t0, b)
        free = ~(((x <= lo) & (uphill > 0)) | ((x >= hi) & (uphill < 0)))
        if not np.any(grad[free]):
            break
        scale = np.maximum(np.diag(hess), np.finfo(float).tiny)
        step = np.zeros(2)
        try:
            step[free] = np.linalg.solve(
                hess[np.ix_(free, free)] + mu * np.diag(scale[free]), -grad[free])
        except np.linalg.LinAlgError:
            # mu has shrunk below the rounding of a rank-deficient normal
            # matrix (a near-step scatter): damp more, as for a rejected step
            mu *= nu
            nu *= 2.0
            continue
        predicted = -(2.0 * grad @ step + step @ hess @ step)
        b_new = min(max(x[1] + step[1], lo[1]), hi[1])
        x_new = np.array([min(max(x[0] - step[0] / b_new, lo[0]), hi[0]), b_new])
        if np.linalg.norm(x_new - x) <= _LM_XTOL * (np.linalg.norm(x) + _LM_XTOL):
            break
        f_new, r_new = residual(x_new)
        cost_new = r_new @ r_new
        if cost_new < cost:
            rho = (cost - cost_new) / predicted if predicted > 0 else 0.0
            x, f, r, cost = x_new, f_new, r_new, cost_new
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
    return float(x[0]), float(1.0 / x[1])
