import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingdec import channel, core, exact


def random_nominal(seed):
    rng = np.random.default_rng(seed)
    g = core.build_chimera(1)
    h = [float(rng.choice([-1, 1])) for _ in g.spins]
    J = [float(rng.choice([-1, 1])) for _ in g.edges]
    return core.Hamiltonian(graph=g, h=h, J=J, alpha=1.0)


def one_spin_hamiltonian():
    g = core.build_chimera(1, excluded=frozenset(range(1, 8)))
    return core.Hamiltonian(graph=g, h=[1.0], J=[], alpha=1.0)


class TestSpectrum:
    def test_ferromagnet_ground(self):
        H = core.Hamiltonian.uniform(core.build_chimera(1))
        sp = exact.enumerate_spectrum(H)
        assert sp.ground_energy == -24.0
        assert list(sp.ground_set) == [2 ** 8 - 1]  # all spins up

    def test_one_spin_levels(self):
        sp = exact.enumerate_spectrum(one_spin_hamiltonian())
        assert sorted(sp.energies) == [-1.0, 1.0]

    def test_capacity(self):
        H = core.Hamiltonian.uniform(core.build_chimera(2))
        with pytest.raises(core.CapacityError):
            exact.enumerate_spectrum(H)

    @given(st.integers(0, 2 ** 32 - 1), st.sets(st.integers(0, 7)))
    @settings(max_examples=30, deadline=None)
    def test_spectrum_multiset_gauge_invariant(self, seed, flip):
        H = random_nominal(seed)
        e1 = np.sort(exact.enumerate_spectrum(H).energies)
        e2 = np.sort(exact.enumerate_spectrum(
            core.gauge_transform(H, flip)).energies)
        assert np.allclose(e1, e2, atol=1e-12)


class TestMagnetization:
    def test_one_spin_tanh(self):
        m = exact.magnetization(one_spin_hamiltonian(), 1.0)
        assert m[0] == pytest.approx(np.tanh(1.0), abs=1e-12)

    def test_high_temperature_limit(self):
        H = random_nominal(11)
        m = exact.magnetization(H, 1e6)
        assert np.all(np.abs(m) < 1e-4)

    def test_ferromagnet_positive(self):
        H = core.Hamiltonian.uniform(core.build_chimera(1))
        for T in (0.01, 0.5, 3.0, 100.0):
            assert np.all(exact.magnetization(H, T) > 0)

    def test_gauge_covariance(self):
        H = random_nominal(12)
        flip = {1, 4, 6}
        signs = np.array([-1.0 if s in flip else 1.0 for s in H.graph.spins])
        m1 = exact.magnetization(H, 0.7)
        m2 = exact.magnetization(core.gauge_transform(H, flip), 0.7)
        assert np.allclose(m2, signs * m1, atol=1e-12)

    def test_extreme_temperatures_finite(self):
        H = random_nominal(13)
        for T in (1e-3, 1e7):
            for alpha in (0.05, 1.0):
                Ha = core.Hamiltonian(graph=H.graph, h=H.h, J=H.J, alpha=alpha)
                assert np.all(np.isfinite(exact.magnetization(Ha, T)))

    def test_weights_normalized(self):
        H = random_nominal(14)
        sp = exact.enumerate_spectrum(H)
        w = np.exp(-(sp.energies - sp.ground_energy) / 0.9)
        assert (w / w.sum()).sum() == pytest.approx(1.0, abs=1e-12)

    def test_temperature_domain(self):
        with pytest.raises(ValueError):
            exact.magnetization(random_nominal(15), 0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_temperature_must_be_positive(self, bad):
        H = random_nominal(15)
        with pytest.raises(ValueError, match="positive"):
            exact.magnetization_curve(H, np.array([1.0, bad]))
        with pytest.raises(ValueError, match="positive"):
            exact.ExactEngine().magnetization_curves([H, H], np.array([bad]))

    def test_empty_grid_gives_empty_curves(self):
        H = random_nominal(15)
        none = np.array([])
        assert exact.magnetization_curve(H, none).shape == (0, 8)
        assert exact.pair_correlation_curve(H, none, [(0, 4), (1, 5)]).shape == (0, 2)


class TestDecoders:
    def test_mpm_ferromagnet(self):
        H = core.Hamiltonian.uniform(core.build_chimera(1))
        assert np.all(exact.mpm_decode(H, 2.0) == 1)

    def test_mpm_symmetric_spin_undecided(self):
        g = core.build_chimera(1, excluded=frozenset(range(1, 8)))
        H = core.Hamiltonian(graph=g, h=[0.0], J=[], alpha=1.0)
        assert exact.mpm_decode(H, 1.0)[0] == 0

    def test_map_unique_ground(self):
        H = core.Hamiltonian.uniform(core.build_chimera(1))
        assert np.all(exact.map_decode(H) == 1)

    def test_map_tie_gives_zero(self):
        g = core.build_chimera(1, excluded=frozenset(range(1, 8)))
        H = core.Hamiltonian(graph=g, h=[0.0], J=[], alpha=1.0)
        assert exact.map_decode(H)[0] == 0

    def test_map_is_low_temperature_mpm_limit(self):
        for seed in range(30):
            H = random_nominal(seed)
            mapd = exact.map_decode(H)
            mpmd = exact.mpm_decode(H, 1e-3 * H.alpha)
            decided = mapd != 0
            assert np.array_equal(mapd[decided], mpmd[decided])


class TestBatch:
    def test_batch_energies_match_single(self):
        H = random_nominal(20)
        sp = exact.enumerate_spectrum(H)
        batch = exact.batch_energies(
            H.graph, H.h[None], H.J[None], H.alpha)[0]
        assert np.allclose(batch, sp.energies, atol=1e-12)

    def test_batch_decoders_match_single(self):
        hams = [random_nominal(s) for s in range(10)]
        g = hams[0].graph
        # zero field: every <sigma_i> is 0 by global flip symmetry
        zero_field = core.Hamiltonian.from_vectors(
            g, np.zeros(g.n_spins), hams[0].J)
        hams.append(zero_field)
        h_mat = np.array([H.h for H in hams])
        j_mat = np.array([H.J for H in hams])
        energies = exact.batch_energies(g, h_mat, j_mat, 1.0)
        map_b = exact.batch_map_decode(energies, 8, 1.0)
        temps = np.array([0.4, 1.3])
        mpm_b = exact.batch_mpm_decode_curve(energies, 8, temps)
        for k, H in enumerate(hams):
            assert np.array_equal(map_b[k], exact.map_decode(H))
            for t, T in enumerate(temps):
                assert np.array_equal(mpm_b[k, t], exact.mpm_decode(H, T))
        for T in temps:
            assert np.all(exact.mpm_decode(zero_field, T) == 0)
        assert np.all(mpm_b[-1] == 0)


def loop_curve(H, temps, observable):
    """One Hamiltonian's Boltzmann averages as a plain loop over temperatures,
    with one-dimensional products: the reference the stacked curves must
    reproduce bit for bit."""
    S = exact.config_matrix(H.graph.n_spins)
    P = exact._pair_products(H.graph, H.graph.edge_positions)
    energies = H.alpha * (-(H.h @ S.T) - (H.J @ P.T))
    neg_shifted = energies.min() - energies
    out = np.empty((len(temps), observable.shape[1]))
    for t, T in enumerate(temps):
        w = np.exp(neg_shifted / T)
        out[t] = (w @ observable) / w.sum()
    return out


def control_error_cells(n, seed):
    rng = np.random.default_rng(seed)
    g = core.build_chimera(1)
    return [core.Hamiltonian.from_vectors(
        g, rng.choice([-1.0, 1.0], 8) + 0.05 * rng.standard_normal(8),
        rng.choice([-1.0, 1.0], 16) + 0.03 * rng.standard_normal(16),
        alpha=float(rng.uniform(0.5, 2.0))) for _ in range(n)]


class TestBatchCurves:
    grid = np.linspace(7.0 / 200, 7.0, 200)

    def test_all_classes_equal_the_loop(self):
        _, _, canonical = core.enumerate_cell_classes()
        Hs = [core.cell_from_word(int(w)) for w in np.unique(canonical)]
        S = exact.config_matrix(8)
        batch = exact.ExactEngine().magnetization_curves(Hs, self.grid)
        assert batch.shape == (192, 200, 8)
        assert np.array_equal(batch, [loop_curve(H, self.grid, S) for H in Hs])

    def test_non_integer_instances_equal_the_loop(self):
        # control-error values make every summation order matter; the
        # batch is given in reverse too, so each row is its own instance's
        Hs = control_error_cells(40, 1)
        S = exact.config_matrix(8)
        loop = np.array([loop_curve(H, self.grid, S) for H in Hs])
        assert np.array_equal(exact.magnetization_curves(Hs, self.grid), loop)
        assert np.array_equal(exact.magnetization_curves(Hs[::-1], self.grid),
                              loop[::-1])
        for H, row in zip(Hs[:3], loop):
            assert np.array_equal(exact.magnetization_curve(H, self.grid), row)

    def test_pair_correlations_equal_the_loop(self):
        Hs = control_error_cells(5, 2) + [random_nominal(s) for s in range(3)]
        pairs = [(0, 4), (7, 1), (2, 3), (5, 6)]
        g = Hs[0].graph
        idx = g.positions(pairs).reshape(-1, 2)
        SS = exact._pair_products(g, idx)
        batch = exact.ExactEngine().pair_correlation_curves(Hs, self.grid, pairs)
        assert np.array_equal(batch, [loop_curve(H, self.grid, SS) for H in Hs])
        assert np.array_equal(exact.pair_correlation_curve(Hs[6], self.grid, pairs),
                              batch[6])

    def test_blocks_hold_at_most_the_block_size(self, monkeypatch):
        # with the block lowered to 2^10 energies, cells (2^8 each) go four
        # at a time, and the rows do not depend on the blocking
        monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 1 << 10)
        sizes = []
        energies = exact.batch_energies
        monkeypatch.setattr(exact, "batch_energies", lambda g, h, j, a: (
            sizes.append(len(h)) or energies(g, h, j, a)))
        Hs = control_error_cells(10, 3)
        batch = exact.magnetization_curves(Hs, self.grid[:5])
        assert sizes == [4, 4, 2]
        assert np.array_equal(batch, [loop_curve(H, self.grid[:5],
                                                 exact.config_matrix(8)) for H in Hs])

    def test_one_graph_per_batch(self):
        cell, other = random_nominal(0), one_spin_hamiltonian()
        with pytest.raises(ValueError, match="one graph"):
            exact.magnetization_curves([cell, other], self.grid)
        with pytest.raises(ValueError, match="at least one"):
            exact.magnetization_curves([], self.grid)
