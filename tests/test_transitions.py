import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import curve_fit
from scipy.special import erfc, ndtr

from isingdec import bte, core, exact, transitions as tr
from oracles import default_temperature_grid


def make_curve(temps, values, items=None):
    values = np.asarray(values, dtype=float)
    items = tuple(range(values.shape[1])) if items is None else tuple(items)
    return tr.OrientationCurve(
        temperatures=np.asarray(temps, dtype=float),
        values=values, items=items)


class TestSmoothing:
    def test_window_one_is_identity(self):
        v = np.random.default_rng(0).normal(size=(11, 3))
        assert np.array_equal(tr.smooth_curve(v, 1), v)

    def test_interior_matches_convolution(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=30)
        smoothed = tr.smooth_curve(v[:, None], 5)[:, 0]
        oracle = np.convolve(v, np.ones(5) / 5, mode="valid")
        assert np.allclose(smoothed[2:-2], oracle, atol=1e-12)

    def test_boundary_shrinks(self):
        v = np.arange(10.0)[:, None]
        s = tr.smooth_curve(v, 5)[:, 0]
        assert s[0] == pytest.approx(np.mean(v[:3]))
        assert s[-1] == pytest.approx(np.mean(v[-3:]))

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            tr.smooth_curve(np.zeros((5, 1)), 4)


class TestFindTransitions:
    def test_linear_crossing_position(self):
        temps = np.linspace(0.0, 10.0, 101)
        # straight line crossing zero at T = 3.74: interpolation is exact
        values = (temps - 3.74)[:, None]
        recs = tr.find_transitions(make_curve(temps, values),
                                   smoothing_window=1)
        assert len(recs) == 1
        assert recs[0].sigma_low == -1
        assert recs[0].transition_temps == pytest.approx((3.74,), abs=1e-12)
        assert not recs[0].excluded

    def test_multiple_crossings(self):
        temps = np.linspace(0.1, 4 * np.pi, 400)
        values = np.sin(temps)[:, None]
        recs = tr.find_transitions(make_curve(temps, values),
                                   smoothing_window=1)
        assert len(recs[0].transition_temps) == 3
        assert recs[0].transition_temps == pytest.approx(
            (np.pi, 2 * np.pi, 3 * np.pi), abs=1e-3)

    def test_exclusion(self):
        temps = np.linspace(0.1, 2.0, 20)
        values = np.full((20, 1), 0.001)
        recs = tr.find_transitions(make_curve(temps, values))
        assert recs[0].excluded
        assert recs[0].transition_temps == ()
        assert recs[0].sigma_low == 0

    def test_smoothing_removes_noise_crossings(self):
        temps = np.linspace(0.1, 5.0, 50)
        values = np.ones((50, 1))
        values[20, 0] = -0.5  # single-point glitch
        raw = tr.find_transitions(make_curve(temps, values),
                                  smoothing_window=1)
        smooth = tr.find_transitions(make_curve(temps, values),
                                     smoothing_window=5)
        assert len(raw[0].transition_temps) == 2
        assert len(smooth[0].transition_temps) == 0

    def test_short_grid_rejected(self):
        temps = np.linspace(0.1, 1.0, 3)
        with pytest.raises(ValueError):
            tr.find_transitions(make_curve(temps, np.ones((3, 1))))

    def test_orientation_curve_engine_wiring(self):
        temps = np.linspace(0.5, 3.0, 10)
        H = core.Hamiltonian.uniform(core.build_chimera(1))
        curve, = tr.orientation_curves([H], temps, bte.BteEngine(), H.graph.spins)
        oracle = exact.ExactEngine().magnetization_curve(H, temps)
        assert np.allclose(curve.values, oracle, atol=1e-10)
        assert curve.items == H.graph.spins


class TestPlowModel:
    def test_half_agreement_is_half(self):
        assert tr.plow_model(0.5, 1000) == pytest.approx(0.5, abs=1e-12)

    def test_certain_agreement(self):
        assert tr.plow_model(1.0, 1000) == pytest.approx(1.0, abs=1e-9)
        assert tr.plow_model(0.0, 1000) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_agreement(self):
        ps = np.linspace(0.05, 0.95, 30)
        vals = tr.plow_model(ps, 200)
        # non-decreasing everywhere, strictly rising away from saturation
        assert np.all(np.diff(vals) >= 0)
        mid = tr.plow_model(np.linspace(0.45, 0.55, 11), 200)
        assert np.all(np.diff(mid) > 0)

    def test_sharpens_with_more_runs(self):
        lo = tr.plow_model(0.52, 100)
        hi = tr.plow_model(0.52, 10000)
        assert 0.5 < lo < hi < 1.0

    def test_variants_agree_in_bulk(self):
        # the printed formula against the central-limit majority probability
        ps = np.linspace(0.4, 0.6, 21)
        a = tr.plow_model(ps, 1000)
        b = ndtr((ps - 0.5) * np.sqrt(1000) / np.sqrt(ps * (1 - ps)))
        assert np.max(np.abs(a - b)) < 0.1

    @pytest.mark.parametrize("n_run", [1, 7, 1000, 10**6])
    def test_matches_scipy_erfc(self, n_run):
        ps = np.concatenate([np.linspace(0.0, 1.0, 2001),
                             np.random.default_rng(5).uniform(0.0, 1.0, 500)])
        oracle = 0.5 * erfc(2.0 * (0.5 - ps) * np.sqrt(n_run))
        assert np.max(np.abs(tr.plow_model(ps, n_run) - oracle)) <= 1e-15
        assert isinstance(tr.plow_model(0.3, n_run), float)


class TestLogisticFit:
    def test_recovers_parameters(self):
        rng = np.random.default_rng(3)
        t = np.sort(rng.uniform(0.0, 6.0, 200))
        t0, w = 2.5, 0.4
        p = 1.0 / (1.0 + np.exp(-(t - t0) / w))
        f0, fw = tr.fit_logistic(t, p)
        assert f0 == pytest.approx(t0, abs=1e-6)
        assert fw == pytest.approx(w, abs=1e-6)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(4)
        t = np.sort(rng.uniform(0.0, 6.0, 400))
        p = 1.0 / (1.0 + np.exp(-(t - 2.0) / 0.6))
        p = np.clip(p + rng.normal(0, 0.03, t.size), 0, 1)
        f0, fw = tr.fit_logistic(t, p)
        assert f0 == pytest.approx(2.0, abs=0.1)
        assert fw == pytest.approx(0.6, abs=0.1)


# (t_trans, p_low) scatters: "near_step" is the plow.csv of `isingdec plow-fit`
# on the control-error-plow benchmark config at seed 916 (a fitted width of
# 0.0068); the two criterion11_* sets are the clean and control-error scatters
# built by tests/test_acceptance.py::test_criterion_11_control_error_broadening
SCATTERS = {name: np.array(points) for name, points in json.loads(
    (Path(__file__).parent / "data" / "logistic_scatters.json").read_text()).items()}


# the scatter of `isingdec plow-fit` on the control-error-plow benchmark config
# at seed 2404 (cli._plow_scatter): 20 points with P_low >= 0.99993 and one at
# (2.0765, 0.0024). The Levenberg-Marquardt damping shrinks until the damped
# normal matrix is singular in floating point, 53 steps in.
SINGULAR_STEP = np.array([
    [3.579408866651894, 1.0], [4.051214817501377, 1.0], [4.062886893165927, 1.0],
    [2.076497634233753, 0.0024014699277668163], [4.546314060294087, 1.0],
    [4.05812694874802, 1.0], [3.7357506182303695, 1.0],
    [2.688111252080902, 0.9999343721945702], [3.926348432851093, 0.9999997394229123],
    [3.5522277867973164, 1.0], [3.1678707650282627, 1.0], [4.821338005932721, 1.0],
    [4.82165342282234, 1.0], [2.2398057641657814, 0.9999999999999999],
    [3.857269469311574, 1.0], [4.191604422034441, 1.0], [3.289922515132772, 1.0],
    [4.6554567400683915, 1.0], [4.057094428223144, 1.0], [3.6997185866099924, 1.0],
    [4.754027153863669, 1.0]])


def logistic(x, t0, w):
    return 1.0 / (1.0 + np.exp(-(x - t0) / w))


def scipy_fit(t, p, **tolerances):
    """The reference: curve_fit from the same initial guess, over the same box."""
    t0_guess = float(t[np.argmin(np.abs(p - 0.5))])
    w_guess = max(0.25 * (t.max() - t.min()), 1e-3)
    popt, _ = curve_fit(logistic, t, p, p0=(t0_guess, w_guess),
                        bounds=((t.min() - 5.0, 1e-4), (t.max() + 5.0, 50.0)),
                        maxfev=20000, **tolerances)
    return popt


def sum_of_squares(t, p, t0, w):
    with np.errstate(over="ignore"):
        r = logistic(t, t0, w) - p
    return float(r @ r)


def battery():
    """(name, t, p, well_conditioned) for the fit comparison."""
    rng = np.random.default_rng(3)
    t = np.sort(rng.uniform(0.0, 6.0, 200))
    yield "clean", t, logistic(t, 2.5, 0.4), True
    rng = np.random.default_rng(4)
    t = np.sort(rng.uniform(0.0, 6.0, 400))
    yield "noisy", t, np.clip(logistic(t, 2.0, 0.6) + rng.normal(0, 0.03, t.size), 0, 1), True
    yield "near-step", *SCATTERS["near_step"].T, False
    yield "singular-step", *SINGULAR_STEP.T, False
    clean, err = SCATTERS["criterion11_clean"], SCATTERS["criterion11_control_error"]
    yield "criterion11-clean", *clean.T, True
    yield "criterion11-control-error", *err.T, True
    rng = np.random.default_rng(0)  # criterion 11's paired bootstrap, first 50
    for b in range(50):
        idx = rng.integers(0, len(clean), len(clean))
        yield f"bootstrap{b}-clean", *clean[idx].T, True
        yield f"bootstrap{b}-control-error", *err[idx].T, True


class TestLogisticFitAgainstCurveFit:
    @pytest.mark.parametrize("case", list(battery()), ids=lambda c: c[0])
    def test_no_worse_than_curve_fit(self, case):
        _, t, p, well_conditioned = case
        t0, w = tr.fit_logistic(t, p)
        ref = scipy_fit(t, p)
        assert sum_of_squares(t, p, t0, w) <= \
            sum_of_squares(t, p, *ref) * (1 + 1e-9) + 1e-15
        if well_conditioned:
            # default curve_fit stops at ftol = 1e-8, up to 3e-6 short of the
            # optimum on these scatters; run to its floor, it is the oracle
            tight = scipy_fit(t, p, ftol=1e-15, xtol=1e-15, gtol=1e-15)
            assert t0 == pytest.approx(tight[0], abs=1e-6)
            assert w == pytest.approx(tight[1], abs=1e-6)

    @pytest.mark.parametrize("p, edge", [
        (0.5 + 0.001 * (np.linspace(0.0, 1.0, 11) - 0.3), (None, 50.0)),  # w = 250
        (0.9 + 0.001 * (np.linspace(0.0, 1.0, 11) - 0.5), (-5.0, None)),  # t0 below
    ], ids=["widest", "t0-below-data"])
    def test_optimum_on_the_box_edge(self, p, edge):
        t = np.linspace(0.0, 1.0, 11)
        fit = tr.fit_logistic(t, p)
        for value, bound in zip(fit, edge):
            if bound is not None:
                assert value == pytest.approx(bound, abs=1e-12)
        assert sum_of_squares(t, p, *fit) <= \
            sum_of_squares(t, p, *scipy_fit(t, p)) * (1 + 1e-9) + 1e-15

    def test_rejects_non_finite_data(self):
        with pytest.raises(ValueError):
            tr.fit_logistic(np.array([0.0, 1.0, np.nan]), np.array([0.0, 0.5, 1.0]))


class TestGrid:
    def test_default_grid(self):
        g = default_temperature_grid()
        assert len(g) == 200
        assert g[-1] == pytest.approx(7.0)
        assert np.all(g > 0)
        assert np.all(np.diff(g) > 0)
