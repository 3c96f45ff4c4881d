import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingdec import channel, core, exact, sa
from oracles import per_update_run_batch


def random_cell(seed):
    rng = np.random.default_rng(seed)
    g = core.build_chimera(1)
    h = [float(rng.choice([-1, 1])) for _ in g.spins]
    J = [float(rng.choice([-1, 1])) for _ in g.edges]
    return core.Hamiltonian(graph=g, h=h, J=J, alpha=1.0)


class TestSchedule:
    def test_endpoints(self):
        sch = sa.AnnealSchedule(t_start=10.0, t_end=0.1, total_updates=1000)
        assert sch.temperature(0) == 10.0
        assert sch.temperature(999) == pytest.approx(0.1)

    def test_linear_midpoint(self):
        sch = sa.AnnealSchedule(t_start=8.0, t_end=2.0, total_updates=7)
        assert sch.temperature(3) == pytest.approx(5.0)

    @pytest.mark.parametrize("t_start, t_end, total", [
        (10.0, 0.1, 1_000_000), (10.0, 1.405, 40_000), (6.0, 0.5, 3001),
        (8.0, 2.0, 7), (3.0, 3.0, 5), (6.0, 0.5, 1)])
    def test_array_form_matches_scalar(self, t_start, t_end, total):
        sch = sa.AnnealSchedule(t_start=t_start, t_end=t_end,
                                total_updates=total)
        rng = np.random.default_rng(total)
        u = np.concatenate([[0, total - 1], rng.integers(0, total, 50)])
        scalar = [sch.temperature(int(v)) for v in u]
        ramp = [t_start + (t_end - t_start) * (int(v) / max(total - 1, 1))
                for v in u]
        assert np.array_equal(sch.temperature(u), scalar)
        assert scalar == ramp

    def test_validation(self):
        with pytest.raises(ValueError):
            sa.AnnealSchedule(t_start=1.0, t_end=2.0)
        with pytest.raises(ValueError):
            sa.AnnealSchedule(t_start=0.0, t_end=0.0)
        with pytest.raises(ValueError):
            sa.AnnealSchedule(total_updates=0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                sa.AnnealSchedule(t_start=bad, t_end=0.5)


class TestControlError:
    def test_statistics(self):
        H = core.Hamiltonian.uniform(core.build_chimera(4))
        spec = sa.ControlErrorSpec(sigma_h=0.05, sigma_j=0.03)
        rng = np.random.default_rng(0)
        dh, dj = [], []
        for _ in range(40):
            Hp = sa.inject_control_error(H, spec, rng)
            dh.append(Hp.h - H.h)
            dj.append(Hp.J - H.J)
        dh = np.concatenate(dh)
        dj = np.concatenate(dj)
        assert abs(dh.mean()) < 4 * 0.05 / np.sqrt(dh.size)
        assert abs(dj.mean()) < 4 * 0.03 / np.sqrt(dj.size)
        assert dh.std() == pytest.approx(0.05, rel=0.05)
        assert dj.std() == pytest.approx(0.03, rel=0.05)

    def test_deterministic(self):
        H = random_cell(1)
        spec = sa.ControlErrorSpec()
        a = sa.inject_control_error(H, spec, np.random.default_rng(7))
        b = sa.inject_control_error(H, spec, np.random.default_rng(7))
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.J, b.J)

    def test_preserves_structure(self):
        H = random_cell(2)
        Hp = sa.inject_control_error(H, sa.ControlErrorSpec(),
                                     np.random.default_rng(3))
        assert Hp.graph is H.graph
        assert Hp.alpha == H.alpha


class TestLocalFieldTables:
    def test_rows_list_neighbours_in_edge_order(self):
        g = core.build_chimera(2, excluded={3, 12, 20})
        rng = np.random.default_rng(4)
        H = core.Hamiltonian(g, rng.standard_normal(g.n_spins),
                             rng.standard_normal(g.n_edges))
        h, idx, val = sa._local_field_tables(H)
        assert np.array_equal(h, H.h)
        for t, s in enumerate(g.spins):
            incident = [(e, b if a == s else a) for e, (a, b) in enumerate(g.edges)
                        if s in (a, b)]
            k = len(incident)
            assert idx[t, :k].tolist() == [g.spins.index(o) for _, o in incident]
            assert np.array_equal(val[t, :k], H.J[[e for e, _ in incident]])
            assert not val[t, k:].any()


class TestBlocks:
    @pytest.mark.parametrize("L, excluded", [
        (1, ()), (2, ()), (4, ()), (1, (0, 5)), (2, (3, 12, 20)),
        (3, (7, 8, 40, 41))])
    def test_partition_into_maximal_independent_runs(self, L, excluded):
        g = core.build_chimera(L, excluded=frozenset(excluded))
        bounds = sa._blocks(g)
        # consecutive runs covering 0..n-1 once
        assert bounds[0] == 0 and bounds[-1] == g.n_spins
        assert np.all(np.diff(bounds) > 0)
        block = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        ij = g.edge_positions
        assert not np.any(block[ij[:, 0]] == block[ij[:, 1]])
        # maximal: the position after each block has a neighbour in it
        for start, nxt in zip(bounds[:-2], bounds[1:-1]):
            assert np.any(ij[ij[:, 1] == nxt, 0] >= start)

    def test_nominal_4x4_has_17_blocks(self):
        # side 0 of cell 0, then side 1 of one cell with side 0 of the next,
        # then side 1 of the last cell
        bounds = sa._blocks(core.build_chimera(4))
        assert np.diff(bounds).tolist() == [4] + [8] * 15 + [4]


class TestNeighbourSums:
    @pytest.mark.parametrize("L, excluded, control_error, runs", [
        (3, {9}, False, 37),
        (3, {9}, True, 37),
        (4, set(), True, 1000),   # the shape sa-compare anneals under [control]
    ], ids=["False", "True", "4x4-control-error-1000-runs"])
    def test_bits_of_the_sequential_dot_products(self, L, excluded,
                                                 control_error, runs):
        H = core.Hamiltonian.uniform(core.build_chimera(L, excluded=excluded))
        H, _ = channel.sample_sector(H, 40, channel.stream(8, 0))
        if control_error:
            H = sa.inject_control_error(H, sa.ControlErrorSpec(),
                                        channel.stream(8, 1))
        h, idx, val = sa._local_field_tables(H)
        state = np.random.default_rng(8).integers(0, 2, (runs, len(h))) * 2 - 1
        spin_major = np.ascontiguousarray(state.T, dtype=float)
        bounds = sa._blocks(H.graph)
        for a, b in zip(bounds[:-1], bounds[1:]):
            got = sa._neighbour_sums(spin_major[idx[a:b]], val[a:b])
            want = [val[i] @ spin_major[idx[i]] for i in range(a, b)]
            assert np.array_equal(got, want)


@st.composite
def chains(draw):
    """An instance, schedule, replica count, seed and checkpoints for the
    chain oracle: L <= 3 with random exclusions, alpha != 1 and control
    error drawn, and checkpoints at both ends of the ramp and at updates
    inside a block."""
    L = draw(st.integers(1, 3))
    excluded = draw(st.frozensets(st.integers(0, 8 * L * L - 1), max_size=6))
    g = core.build_chimera(L, excluded=excluded)
    n = g.n_spins
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    H = core.Hamiltonian.from_vectors(
        g, rng.choice([-1.0, 1.0], n), rng.choice([-1.0, 1.0], g.n_edges),
        draw(st.sampled_from([1.0, 0.7, 0.25])))
    if draw(st.booleans()):
        H = sa.inject_control_error(H, sa.ControlErrorSpec(), rng)
    total = draw(st.sampled_from([1, 7, max(n - 1, 1), n, n + 1, 997, 1003]))
    sch = sa.AnnealSchedule(t_start=6.0, t_end=0.5, total_updates=total)
    cps = None
    if draw(st.booleans()):
        starts = set(sa._blocks(g).tolist())
        inside = [u for u in range(total) if u % n not in starts]
        picks = draw(st.lists(st.sampled_from(inside), max_size=3)) if inside else []
        cps = draw(st.permutations([sch.t_start, sch.t_end]
                                   + [sch.temperature(u) for u in picks]))
        cps = np.array(cps)
    return H, sch, draw(st.integers(1, 4)), seed, cps


class TestChainOracle:
    @settings(max_examples=80, deadline=None)
    @given(chains())
    def test_block_kernel_reproduces_the_per_update_chain(self, case):
        H, sch, runs, seed, cps = case
        want = per_update_run_batch(H, sch, runs, np.random.default_rng(seed), cps)
        got = sa._run_batch(H, sch, runs, np.random.default_rng(seed), cps)
        assert np.array_equal(got[0], want[0])
        if cps is not None:
            assert np.array_equal(got[1], want[1])


class TestAnneal:
    def test_deterministic(self):
        H = random_cell(3)
        sch = sa.AnnealSchedule(total_updates=2000)
        s1 = sa.anneal(H, sch, np.random.default_rng(9))
        s2 = sa.anneal(H, sch, np.random.default_rng(9))
        assert np.array_equal(s1, s2)
        assert set(np.unique(s1)) <= {-1, 1}

    def test_reaches_ground_state_ferromagnet(self):
        H = core.Hamiltonian.uniform(core.build_chimera(1))
        sch = sa.AnnealSchedule(t_start=5.0, t_end=0.05, total_updates=5000)
        rng = np.random.default_rng(11)
        hits = sum(np.all(sa.anneal(H, sch, rng) == 1) for _ in range(20))
        assert hits >= 18

    def test_alpha_invariance_of_dynamics(self):
        # schedule is in units of alpha, so decode statistics are alpha-free
        H1 = random_cell(5)
        H2 = core.Hamiltonian(graph=H1.graph, h=H1.h, J=H1.J, alpha=0.2)
        sch = sa.AnnealSchedule(total_updates=3000)
        s1 = sa.anneal(H1, sch, np.random.default_rng(13))
        s2 = sa.anneal(H2, sch, np.random.default_rng(13))
        assert np.array_equal(s1, s2)


class TestSweep:
    def test_curve_is_ascending_and_shaped(self):
        H = random_cell(6)
        sch = sa.AnnealSchedule(t_start=6.0, t_end=0.2, total_updates=20000)
        cps = np.array([0.5, 3.0, 1.5])
        curve = sa.sa_orientation_sweep(H, sch, cps, 50,
                                        np.random.default_rng(17))
        assert np.all(np.diff(curve.temperatures) > 0)
        assert np.allclose(curve.temperatures, [0.5, 1.5, 3.0])
        assert curve.values.shape == (3, 8)
        assert np.all(np.abs(curve.values) <= 1.0)

    def test_checkpoint_range_enforced(self):
        H = random_cell(6)
        sch = sa.AnnealSchedule(t_start=6.0, t_end=0.2, total_updates=100)
        for cps in ([7.0], [0.1], [float("nan")]):
            with pytest.raises(ValueError):
                sa.sa_orientation_sweep(H, sch, np.array(cps), 5,
                                        np.random.default_rng(0))

    def test_checkpoint_temperatures_are_the_curve_grid(self):
        g = core.build_chimera(1)
        H = core.Hamiltonian.from_vectors(g, random_cell(6).h, random_cell(6).J,
                                          alpha=0.37)
        sch = sa.AnnealSchedule(t_start=6.0, t_end=0.2, total_updates=2000)
        cps = np.array([0.5, 3.0, 1.5, 0.2])
        temps = sa.checkpoint_temperatures(H, sch, cps)
        curve = sa.sa_orientation_sweep(H, sch, cps, 5, np.random.default_rng(17))
        assert np.array_equal(temps, curve.temperatures)
        assert np.array_equal(temps, 0.37 * np.array([0.2, 0.5, 1.5, 3.0]))

    def test_repeated_checkpoint_rejected_before_the_anneal(self, monkeypatch):
        def no_anneal(*args, **kwargs):
            raise AssertionError("annealed before the checkpoints were checked")

        monkeypatch.setattr(sa, "_run_batch", no_anneal)
        H = random_cell(6)
        sch = sa.AnnealSchedule(t_start=6.0, t_end=0.2, total_updates=100)
        for call in (sa.checkpoint_temperatures,
                     lambda H, sch, cps: sa.sa_orientation_sweep(
                         H, sch, cps, 5, np.random.default_rng(0))):
            with pytest.raises(ValueError, match="repeat"):
                call(H, sch, np.array([2.0, 5.0, 2.0]))
            with pytest.raises(ValueError, match="schedule range"):
                call(H, sch, np.array([7.0]))

    def test_runs_must_be_positive(self):
        H = random_cell(6)
        sch = sa.AnnealSchedule(t_start=6.0, t_end=0.2, total_updates=100)
        for n_runs in (0, -3):
            with pytest.raises(ValueError, match="n_runs"):
                sa.sa_orientation_sweep(H, sch, np.array([1.0]), n_runs,
                                        np.random.default_rng(0))

    def test_equilibrated_sweep_matches_boltzmann(self):
        """A slow ramp equilibrates: checkpoint orientations match the
        exact thermal means within a 4-sigma binomial band."""
        H, _ = channel.sample_sector(
            core.Hamiltonian.uniform(core.build_chimera(1)), 6,
            channel.stream(31, 0))
        sch = sa.AnnealSchedule(t_start=8.0, t_end=0.5, total_updates=200000)
        cps = np.array([2.0, 3.0, 5.0])
        n_runs = 400
        curve = sa.sa_orientation_sweep(H, sch, cps, n_runs,
                                        np.random.default_rng(23))
        m = exact.ExactEngine().magnetization_curve(H, curve.temperatures)
        band = 4.0 * np.sqrt((1.0 - m ** 2) / n_runs)
        assert np.all(np.abs(curve.values - m) < band + 0.02)

    def test_fast_ramp_freezes_high_temperature_signs(self):
        """With a drastically shortened ramp the low-T checkpoints keep the
        (disordered) high-T statistics instead of the thermal ones."""
        H, _ = channel.sample_sector(
            core.Hamiltonian.uniform(core.build_chimera(1)), 6,
            channel.stream(31, 0))
        cps = np.array([1.0])
        n_runs = 400
        slow = sa.sa_orientation_sweep(
            H, sa.AnnealSchedule(8.0, 0.5, 200000), cps, n_runs,
            np.random.default_rng(29))
        fast = sa.sa_orientation_sweep(
            H, sa.AnnealSchedule(8.0, 0.5, 64), cps, n_runs,
            np.random.default_rng(29))
        m = exact.ExactEngine().magnetization_curve(H, np.array([1.0]))[0]
        slow_dev = np.abs(slow.values[0] - m)
        fast_dev = np.abs(fast.values[0] - m)
        assert fast_dev.max() > slow_dev.max() + 0.1
