"""Acceptance gate: end-to-end checks of the decoding pipeline.

Each criterion prints a single PASS/FAIL line (bypassing pytest capture) and
then asserts, so the live test log doubles as an acceptance report. Pinned
tolerances sit next to each assertion.
"""

import time

import numpy as np
import pytest

from isingdec import bte, channel, core, exact, experiments as ex, sa
from isingdec import transitions as tr
from oracles import (default_temperature_grid, direct_rtot, map_decode,
                     map_decoder, mpm_decode, nishimori_check,
                     unit_cell_automorphisms)


def report(capfd, number, ok, detail):
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capfd.disabled():
        print(line, flush=True)


def random_cell(seed):
    rng = np.random.default_rng(seed)
    g = core.build_chimera(1)
    h = [float(rng.choice([-1, 1])) for _ in g.spins]
    J = [float(rng.choice([-1, 1])) for _ in g.edges]
    return core.Hamiltonian(graph=g, h=h, J=J, alpha=1.0)


# ---------------------------------------------------------------------------
# shared expensive fixtures


@pytest.fixture(scope="session")
def class_transition_records():
    """Spin-sign transitions of all 192 canonical single-cell classes,
    on the exact engine with no smoothing (window = 1)."""
    _, _, canonical = core.enumerate_cell_classes()
    grid = default_temperature_grid(200, 7.0)
    words = [int(word) for word in np.unique(canonical)]
    Hs = [core.cell_from_word(w) for w in words]
    curves = tr.orientation_curves(Hs, grid, exact.ExactEngine(), Hs[0].graph.spins)
    return [(w, tr.find_transitions(curve, smoothing_window=1))
            for w, curve in zip(words, curves)]


@pytest.fixture(scope="session")
def cell_surface():
    """Exact single-cell BER surface: decode grid of 200 points containing
    the 20-value Nishimori diagonal, every corruption pattern enumerated
    via gauge-orbit reduction."""
    H = core.Hamiltonian.uniform(core.build_chimera(1))
    p_vals = np.linspace(0.02, 0.45, 20)
    t_nish = np.array([channel.nishimori_temperature(p) for p in p_vals])
    base = np.linspace(0.05, 7.0, 180)
    t_decode = np.unique(np.concatenate([base, t_nish]))
    surface = ex.ber_surface(H, t_decode, t_nish)
    return p_vals, surface


def test_criterion_01_topology(capfd):
    t0 = time.time()
    e1 = len(core.build_chimera(1).edges)
    e4 = len(core.build_chimera(4).edges)
    elapsed = time.time() - t0
    ok = e1 == 16 and e4 == 352 and elapsed < 1.0
    report(capfd, 1, ok,
           f"edges L=1: {e1} (want 16), L=4: {e4} (want 352), {elapsed:.3f}s")
    assert e1 == 16
    assert e4 == 352
    assert elapsed < 1.0


def test_criterion_02_canonical_classes(capfd):
    t0 = time.time()
    n_classes, hist, canonical = core.enumerate_cell_classes()
    elapsed = time.time() - t0
    group_order = len(unit_cell_automorphisms())
    ok = n_classes == 192 and elapsed < 60.0
    report(capfd, 2, ok, f"{n_classes} classes (want 192), {elapsed:.1f}s")
    # audit trail on mismatch: group order and orbit-size histogram
    assert n_classes == 192, (
        f"class count {n_classes} != 192; group order {group_order}; "
        f"orbit-size histogram {sorted(hist.items())}")
    assert group_order == 1152
    assert len(canonical) == 2 ** 16
    assert elapsed < 60.0


def test_criterion_03_bte_vs_exhaustive(capfd):
    t0 = time.time()
    temps = np.linspace(0.35, 7.0, 20)
    worst = 0.0
    for seed in range(200):
        H = random_cell(seed)
        dev = np.abs(bte.BteEngine().magnetization_curve(H, temps)
                     - exact.ExactEngine().magnetization_curve(H, temps))
        worst = max(worst, float(dev.max()))
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 60.0
    report(capfd, 3, ok,
           f"max |BTE - exhaustive| = {worst:.3e} over 200 cells x 20 T "
           f"(tol 1e-9), {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 60.0


def test_criterion_04_sector_grouping_identity(capfd):
    H = core.Hamiltonian.uniform(core.truncated_cell())
    p_grid = np.linspace(0.01, 0.49, 50)
    direct = direct_rtot(H, map_decoder(H.graph), p_grid)
    map_means, _ = ex.exact_sector_means(H, np.array([1.0]))
    grouped = ex.ber_curve(map_means, p_grid)
    worst = float(np.max(np.abs(direct - grouped)))
    ok = worst < 1e-12
    report(capfd, 4, ok,
           f"max |direct - sector polynomial| = {worst:.3e} at 50 p values "
           "(tol 1e-12)")
    assert worst < 1e-12


def test_criterion_05_nishimori_optimality(capfd, cell_surface):
    _, surface = cell_surface
    rep = nishimori_check(surface, tol=1e-12)
    ok = rep.ok
    report(capfd, 5, ok,
           f"{len(rep.violations)} diagonal violations over 20 T_Nish, "
           f"max excess {rep.max_excess:.3e} (tol 1e-12)")
    assert rep.ok, f"violations at T_Nish = {rep.violations}"


def test_criterion_06_map_usefulness_threshold(capfd, cell_surface):
    from scipy.optimize import brentq

    _, surface = cell_surface

    def excess(p):
        return float(ex.ber_curve(surface.map_means, p)) - p

    crossing = brentq(excess, 0.05, 0.49, xtol=1e-10)
    ok = abs(crossing - 0.327) <= 0.005
    report(capfd, 6, ok,
           f"exact MAP r_tot(p) = p crossing at p = {crossing:.5f} "
           "(want 0.327 +- 0.005)")
    assert ok, (
        f"exact exhaustive enumeration places the crossing at {crossing:.5f}, "
        "outside 0.327 +- 0.005; see 'Criterion 6 convention analysis' in "
        "CHANGES.md for why no tie convention moves it into the window")


def test_criterion_07_transition_plateau(capfd, class_transition_records):
    all_temps = [t for _, recs in class_transition_records

                 for r in recs for t in r.transition_temps]
    t_min_classes = min(all_temps) if all_temps else float("inf")
    # existence side: a transition below T = 1 in the 4x4 / 200-flip ensemble
    eng = bte.BteEngine()
    grid = np.linspace(0.1, 1.2, 12)
    H_clean = core.Hamiltonian.uniform(core.build_chimera(4))
    found = None
    for k in range(145):
        H, _ = channel.sample_sector(H_clean, 200, channel.stream(7, 10, k))
        curve, = tr.orientation_curves([H], grid, eng, H.graph.spins)
        recs = tr.find_transitions(curve, smoothing_window=1)
        low = [t for r in recs for t in r.transition_temps if t < 1.0]
        if low:
            found = (k, min(low))
            break
    ok = t_min_classes >= 0.9 and found is not None
    report(capfd, 7, ok,
           f"min class transition T = {t_min_classes:.4f} (want >= 0.9); "
           f"4x4 ensemble transition below 1: {found}")
    assert t_min_classes >= 0.9
    assert found is not None


def test_criterion_08_single_transition(capfd, class_transition_records):
    worst = 0
    offenders = []
    for word, recs in class_transition_records:
        for r in recs:
            if len(r.transition_temps) > worst:
                worst = len(r.transition_temps)
            if len(r.transition_temps) > 1:
                offenders.append((word, r.spin))
    ok = not offenders
    report(capfd, 8, ok,
           f"max transitions per spin over 192 classes = {worst} (want <= 1)")
    assert not offenders, f"multi-transition spins: {offenders[:5]}"


def test_criterion_09_improvement_bound(capfd, cell_surface):
    _, surface = cell_surface
    diag = np.array([
        surface.ratio[int(np.argmin(np.abs(surface.t_decode - t))), k]
        for k, t in enumerate(surface.t_nish)
    ])
    r_min = float(diag.min())
    beats = bool(np.any(diag <= 1.0))
    ok = r_min >= 0.87 and beats
    report(capfd, 9, ok,
           f"diagonal MPM/MAP ratio min = {r_min:.4f} (want >= 0.87) and "
           f"<= 1 somewhere: {beats}")
    assert r_min >= 0.87
    assert beats


def test_criterion_10_sa_equilibration(capfd):
    H, _ = channel.sample_sector(
        core.Hamiltonian.uniform(core.build_chimera(4)), 200,
        channel.stream(44, 0))
    cps = np.array([1.405, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0])
    ref = bte.BteEngine().magnetization_curve(H, H.alpha * cps)
    n_runs = 1000
    band = 4.0 * np.sqrt((1.0 - ref ** 2) / n_runs)

    def deviations(updates):
        sch = sa.AnnealSchedule(t_start=10.0, t_end=1.405,
                                total_updates=updates)
        curve = sa.sa_orientation_sweep(H, sch, cps, n_runs,
                                        channel.stream(44, 1))
        return np.abs(curve.values - ref) > band

    over_slow = deviations(1_000_000)
    over_fast = deviations(10_000)
    n_slow = int(over_slow.sum())
    fast_low = int(over_fast[cps <= 3.5].sum())
    ok = n_slow == 0 and fast_low >= 1
    report(capfd, 10, ok,
           f"1e6 updates: {n_slow} of {over_slow.size} spin-checkpoints "
           f"beyond 4 sigma (want 0); 1e4 updates: {fast_low} beyond the "
           "band at T <= 3.5 (want >= 1)")
    assert n_slow == 0
    assert fast_low >= 1


def test_criterion_11_control_error_broadening(capfd):
    H_clean = core.Hamiltonian.uniform(core.build_chimera(4))
    eng = bte.BteEngine()
    grid = np.linspace(0.05, 5.0, 50)
    t_sampler, n_run, n_real = 1.5, 1000, 20
    spec = sa.ControlErrorSpec(sigma_h=0.05, sigma_j=0.03)
    Hs = [channel.sample_sector(H_clean, 200, channel.stream(77, 0, k))[0]
          for k in range(20)]
    # each instance and its control-error realizations at the sampler
    # temperature, drawn from the instance's own stream
    sampled = []
    for k, H in enumerate(Hs):
        err_rng = channel.stream(77, 1, k)
        sampled += [H] + [sa.inject_control_error(H, spec, err_rng)
                          for _ in range(n_real)]
    spins = Hs[0].graph.spins
    curves = tr.orientation_curves(Hs, grid, eng, spins)
    at_sampler = eng.moment_curves(sampled, np.array([t_sampler]),
                                   [(s,) for s in spins])[:, 0]
    pts_clean, pts_err = [], []
    for curve, m in zip(curves, np.split(at_sampler, len(Hs))):
        recs = tr.find_transitions(curve)
        m_clean, m_err = m[0], m[1:]
        for i, rec in enumerate(recs):
            if rec.excluded or len(rec.transition_temps) != 1:
                continue
            t_tr = rec.transition_temps[0]
            p_clean = float(tr.plow_model(
                0.5 * (1 + rec.sigma_low * m_clean[i]), n_run))
            p_err = float(np.mean(tr.plow_model(
                0.5 * (1 + rec.sigma_low * m_err[:, i]), n_run)))
            pts_clean.append((t_tr, p_clean))
            pts_err.append((t_tr, p_err))
    tc = np.array(pts_clean)
    te = np.array(pts_err)
    _, w_clean = tr.fit_logistic(tc[:, 0], tc[:, 1])
    _, w_err = tr.fit_logistic(te[:, 0], te[:, 1])
    # paired bootstrap over transition points: both fits see the same
    # resample so shared scatter cancels; require the 5th percentile of the
    # width difference to stay positive (one-sided 95%)
    rng = np.random.default_rng(0)
    n = len(tc)
    diffs = np.empty(500)
    for b in range(500):
        idx = rng.integers(0, n, n)
        _, w1 = tr.fit_logistic(tc[idx, 0], tc[idx, 1])
        _, w2 = tr.fit_logistic(te[idx, 0], te[idx, 1])
        diffs[b] = w2 - w1
    pct5 = float(np.percentile(diffs, 5))
    ok = w_err > w_clean and pct5 > 0.0
    report(capfd, 11, ok,
           f"fitted width {w_clean:.4f} clean vs {w_err:.4f} with control "
           f"error over {n} transition points; bootstrap 5th pct of "
           f"difference {pct5:+.4f} (want > 0)")
    assert w_err > w_clean
    assert pct5 > 0.0


def test_criterion_12_substituted_invariants(capfd):
    """Hardware traces (annealer BER curves, frozen machine parameters,
    absolute success percentages) are out of desk scale; the substitute is
    the cross-module invariant bundle checked here plus criteria 3-11."""
    # gauge covariance of both decoders
    H = random_cell(1000)
    flip = {0, 3, 5}
    signs = np.array([-1.0 if s in flip else 1.0 for s in H.graph.spins])
    Hg = core.gauge_transform(H, flip)
    ok_gauge = (
        np.array_equal(map_decode(Hg), signs * map_decode(H))
        and np.array_equal(mpm_decode(Hg, 1.3),
                           signs * mpm_decode(H, 1.3)))
    # channel weight normalization
    w = channel.sector_weights(0.23, 24)
    ok_weights = abs(w.sum() - 1.0) < 1e-12 and np.all(w >= 0)
    # determinism under a fixed seed, through every stochastic component
    H4, _ = channel.sample_sector(
        core.Hamiltonian.uniform(core.build_chimera(1)), 6,
        channel.stream(0, 0))
    sch = sa.AnnealSchedule(total_updates=2000)
    ok_seed = (
        np.array_equal(sa.anneal(H4, sch, channel.stream(1, 0)),
                       sa.anneal(H4, sch, channel.stream(1, 0)))
        and np.array_equal(
            bte.bte_sample(H4, 1.0, 20, np.random.default_rng(2)),
            bte.bte_sample(H4, 1.0, 20, np.random.default_rng(2))))
    # Boltzmann consistency: BTE fair samples against exact magnetization
    m = exact.ExactEngine().magnetization_curve(H4, [2.0])[0]
    samp = bte.bte_sample(H4, 2.0, 40000, np.random.default_rng(3))
    ok_balance = np.all(
        np.abs(samp.mean(axis=0) - m)
        < 4 * np.sqrt((1 - m ** 2) / 40000) + 1e-3)
    ok = ok_gauge and ok_weights and ok_seed and ok_balance
    report(capfd, 12, ok,
           "hardware traces substituted by property bundle: gauge "
           f"covariance {ok_gauge}, weight normalization {ok_weights}, "
           f"seeded determinism {ok_seed}, Boltzmann sampling {ok_balance}")
    assert ok_gauge
    assert ok_weights
    assert ok_seed
    assert ok_balance
