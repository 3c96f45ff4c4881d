import numpy as np
import pytest
from scipy.special import comb

from isingdec import channel, core, experiments as ex
from oracles import all_words_sector_means, direct_rtot


@pytest.fixture(scope="module")
def truncated_clean():
    return core.Hamiltonian.uniform(core.truncated_cell())


@pytest.fixture(scope="module")
def cell_clean():
    return core.Hamiltonian.uniform(core.build_chimera(1))


class TestSectorRates:
    def test_zero_sector_is_errorless(self, truncated_clean):
        dec = ex.MapDecoder(truncated_clean.graph)
        rates = ex.sector_rates(truncated_clean, dec, 100,
                                np.random.default_rng(0))
        assert rates.means[0] == 0.0

    def test_full_sector_is_half(self, truncated_clean):
        """Flipping every field and coupler maps the problem onto its
        gauge-equivalent mirror on the bipartite graph: the ground pair is
        the two staggered states, consensus vanishes and the error rate is
        exactly 1/2."""
        dec = ex.MapDecoder(truncated_clean.graph)
        rates = ex.sector_rates(truncated_clean, dec, 100,
                                np.random.default_rng(0))
        assert rates.means[-1] == pytest.approx(0.5, abs=1e-15)

    def test_counts_and_exhaustive_flags(self, truncated_clean):
        n = rates_n = truncated_clean.graph.n_spins + len(
            truncated_clean.graph.edges)
        dec = ex.MapDecoder(truncated_clean.graph)
        rates = ex.sector_rates(truncated_clean, dec, 50,
                                np.random.default_rng(1))
        assert rates.n_elements == n == 15
        for s in (0, 1, 2, n):
            total = comb(n, s, exact=True)
            expected = min(total, 50)
            assert rates.counts[s] == expected
            assert rates.exhaustive[s] == (total <= 50)

    def test_grid_decoder_shape(self, truncated_clean):
        temps = np.array([0.5, 1.0, 2.0])
        dec = ex.MpmDecoder(truncated_clean.graph, temps)
        rates = ex.sector_rates(truncated_clean, dec, 20,
                                np.random.default_rng(2))
        assert rates.means.shape == (16, 3)


class TestBerCurve:
    def test_constant_rates(self):
        rates = ex.SectorRates(
            n_elements=10, counts=np.ones(11, dtype=int),
            means=np.full(11, 0.3),
            sample_rates=tuple(np.array([0.3]) for _ in range(11)),
            exhaustive=np.ones(11, dtype=bool))
        out = ex.ber_curve(rates, np.array([0.05, 0.2, 0.4]))
        assert np.allclose(out, 0.3, atol=1e-12)

    def test_linear_rates_give_expectation(self):
        # r_s = s / n makes r_tot(p) = E[s]/n = p exactly
        n = 12
        means = np.arange(n + 1) / n
        rates = ex.SectorRates(
            n_elements=n, counts=np.ones(n + 1, dtype=int), means=means,
            sample_rates=tuple(np.array([m]) for m in means),
            exhaustive=np.ones(n + 1, dtype=bool))
        ps = np.array([0.1, 0.25, 0.4])
        assert np.allclose(ex.ber_curve(rates, ps), ps, atol=1e-12)


class TestExactSectorMeans:
    def test_matches_exhaustive_enumeration(self, truncated_clean):
        temps = np.array([0.8, 1.5])
        map_means, mpm_means = ex.exact_sector_means(truncated_clean, temps)
        dec_map = ex.MapDecoder(truncated_clean.graph)
        dec_mpm = ex.MpmDecoder(truncated_clean.graph, temps)
        big = 2 ** 15  # covers every corruption pattern exhaustively
        raw_map = ex.sector_rates(truncated_clean, dec_map, big,
                                  np.random.default_rng(0))
        raw_mpm = ex.sector_rates(truncated_clean, dec_mpm, big,
                                  np.random.default_rng(0))
        assert np.all(raw_map.exhaustive)
        assert np.allclose(map_means, raw_map.means, atol=1e-13)
        assert np.allclose(mpm_means, raw_mpm.means, atol=1e-13)

    @pytest.mark.parametrize("excluded, temps", [
        ((), [0.02, 0.05, 0.1, 0.3, 0.8, 1.5, 3.0, 7.0]),
        ((3, 7), [0.05, 0.8, 1.5]),
        ((3,), [0.05, 0.8, 1.5]),
    ])
    def test_orbit_reduction_matches_all_words(self, excluded, temps):
        H = core.Hamiltonian.uniform(core.build_chimera(1, excluded=set(excluded)))
        map_means, mpm_means = ex.exact_sector_means(H, np.array(temps))
        map_all, mpm_all = all_words_sector_means(H, np.array(temps))
        assert np.array_equal(map_means, map_all)
        assert np.array_equal(mpm_means, mpm_all)

    def test_capacity_error_beyond_one_cell(self):
        H = core.Hamiltonian.uniform(core.build_chimera(2))
        with pytest.raises(core.CapacityError):
            ex.exact_sector_means(H, np.array([1.0]))

    def test_requires_nominal_instance(self, truncated_clean):
        H, _ = channel.corrupt(truncated_clean, 0.2, channel.stream(0, 0))
        with pytest.raises(ValueError):
            ex.exact_sector_means(H, np.array([1.0]))


@pytest.fixture(scope="module")
def surface(truncated_clean):
    t_nish = np.array([channel.nishimori_temperature(p)
                       for p in (0.05, 0.15, 0.3)])
    extra = np.array([0.4, 1.0, 5.0])
    t_decode = np.sort(np.concatenate([t_nish, extra]))
    return ex.ber_surface(truncated_clean, t_decode, t_nish)


class TestSurfaceAndNishimori:

    def test_shapes(self, surface):
        assert surface.r_mpm.shape == (6, 3)
        assert surface.r_map.shape == (3,)
        assert np.allclose(surface.ratio, surface.r_mpm / surface.r_map)

    def test_matched_temperature_is_optimal(self, surface):
        rep = ex.nishimori_check(surface)
        assert rep.ok
        assert rep.max_excess == 0.0

    def test_perturbed_surface_is_flagged(self, surface):
        r = surface.r_mpm.copy()
        k = int(np.argmin(np.abs(surface.t_decode - surface.t_nish[1])))
        r[k, 1] += 1e-6  # push the diagonal entry above the column minimum
        bad = ex.BerSurface(
            t_decode=surface.t_decode, t_nish=surface.t_nish, r_mpm=r,
            r_map=surface.r_map, ratio=r / surface.r_map,
            mpm_rates=surface.mpm_rates, map_rates=surface.map_rates)
        rep = ex.nishimori_check(bad)
        assert not rep.ok
        assert rep.max_excess == pytest.approx(1e-6, rel=1e-6)

    def test_missing_diagonal_detected(self, surface):
        off = ex.BerSurface(
            t_decode=surface.t_decode + 0.01, t_nish=surface.t_nish,
            r_mpm=surface.r_mpm, r_map=surface.r_map, ratio=surface.ratio,
            mpm_rates=surface.mpm_rates, map_rates=surface.map_rates)
        with pytest.raises(ValueError):
            ex.nishimori_check(off)


class TestBootstrap:
    def test_degenerate_sectors_have_zero_std(self, truncated_clean):
        dec = ex.MapDecoder(truncated_clean.graph)
        rates = ex.sector_rates(truncated_clean, dec, 1,
                                np.random.default_rng(3))
        std = ex.bootstrap_std(rates, np.array([0.1, 0.3]), 50,
                               np.random.default_rng(4))
        assert np.allclose(std, 0.0, atol=1e-15)

    def test_deterministic(self, truncated_clean):
        dec = ex.MapDecoder(truncated_clean.graph)
        rates = ex.sector_rates(truncated_clean, dec, 10,
                                np.random.default_rng(5))
        a = ex.bootstrap_std(rates, np.array([0.2]), 30,
                             np.random.default_rng(6))
        b = ex.bootstrap_std(rates, np.array([0.2]), 30,
                             np.random.default_rng(6))
        assert np.array_equal(a, b)
        assert np.all(a >= 0)

    def test_needs_multiple_resamples(self, truncated_clean):
        dec = ex.MapDecoder(truncated_clean.graph)
        rates = ex.sector_rates(truncated_clean, dec, 5,
                                np.random.default_rng(7))
        with pytest.raises(ValueError):
            ex.bootstrap_std(rates, np.array([0.2]), 1,
                             np.random.default_rng(8))


class TestDirectRtot:
    def test_matches_sector_polynomial(self, truncated_clean):
        dec = ex.MapDecoder(truncated_clean.graph)
        ps = np.linspace(0.02, 0.45, 9)
        direct = direct_rtot(truncated_clean, dec, ps)
        rates = ex.sector_rates(truncated_clean, dec, 2 ** 15,
                                np.random.default_rng(0))
        poly = ex.ber_curve(rates, ps)
        assert np.max(np.abs(direct - poly)) < 1e-12
