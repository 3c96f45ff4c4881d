import numpy as np
import pytest

from isingdec import channel, core, experiments as ex
from oracles import (all_words_sector_means, direct_rtot, map_decoder,
                     mpm_decoder, nishimori_check)


@pytest.fixture(scope="module")
def truncated_clean():
    return core.Hamiltonian.uniform(core.truncated_cell())


@pytest.fixture(scope="module")
def cell_clean():
    return core.Hamiltonian.uniform(core.build_chimera(1))


class TestSectorRates:
    """Sector means of exact_sector_means, scored per spin against the all-+1
    truth word: an undecided spin counts 1/2."""

    def test_zero_sector_is_errorless(self, truncated_clean):
        map_means, mpm_means = ex.exact_sector_means(
            truncated_clean, np.array([0.5, 1.0, 2.0]))
        assert map_means[0] == 0.0
        assert np.all(mpm_means[0] == 0.0)

    def test_full_sector_is_half(self, truncated_clean):
        """Flipping every field and coupler maps the problem onto its
        gauge-equivalent mirror on the bipartite graph: the ground pair is
        the two staggered states, consensus vanishes and the error rate is
        exactly 1/2."""
        map_means, _ = ex.exact_sector_means(truncated_clean, np.array([1.0]))
        assert map_means[-1] == pytest.approx(0.5, abs=1e-15)

    def test_grid_decoder_shape(self, truncated_clean):
        map_means, mpm_means = ex.exact_sector_means(
            truncated_clean, np.array([0.5, 1.0, 2.0]))
        assert map_means.shape == (16,)
        assert mpm_means.shape == (16, 3)


class TestBerCurve:
    def test_constant_rates(self):
        out = ex.ber_curve(np.full(11, 0.3), np.array([0.05, 0.2, 0.4]))
        assert np.allclose(out, 0.3, atol=1e-12)

    def test_linear_rates_give_expectation(self):
        # r_s = s / n makes r_tot(p) = E[s]/n = p exactly
        n = 12
        ps = np.array([0.1, 0.25, 0.4])
        assert np.allclose(ex.ber_curve(np.arange(n + 1) / n, ps), ps,
                           atol=1e-12)


class TestExactSectorMeans:
    def test_matches_exhaustive_enumeration(self):
        """The sector polynomial of the exact means against direct_rtot,
        which decodes every corruption pattern, for MAP and for MPM at each
        decode temperature, on a 2 x 4 cell (the truncated cell is 3 x 3)."""
        H = core.Hamiltonian.uniform(core.build_chimera(1, excluded={2, 3}))
        temps = np.array([0.8, 1.5])
        ps = np.linspace(0.02, 0.45, 9)
        map_means, mpm_means = ex.exact_sector_means(H, temps)
        direct = direct_rtot(H, map_decoder(H.graph), ps)
        assert np.max(np.abs(direct - ex.ber_curve(map_means, ps))) < 1e-12
        for t, T in enumerate(temps):
            direct = direct_rtot(H, mpm_decoder(H.graph, T), ps)
            grouped = ex.ber_curve(mpm_means[:, t], ps)
            assert np.max(np.abs(direct - grouped)) < 1e-12

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

    @pytest.mark.parametrize("excluded, flip", [
        ((), {0, 5}),
        ((), {1, 2, 6}),
        ((3,), {0, 4, 5, 6, 7}),
    ])
    def test_codeword_instance_equals_all_plus_one(self, excluded, flip):
        """A codeword instance is a gauge transform of the all-+1 one, so its
        bit error rate is the same, bit for bit."""
        H = core.Hamiltonian.uniform(core.build_chimera(1, excluded=set(excluded)))
        temps = np.array([0.3, 1.5])
        means = ex.exact_sector_means(H, temps)
        gauged = ex.exact_sector_means(core.gauge_transform(H, flip), temps)
        for a, b in zip(means, gauged):
            assert np.array_equal(a, b)

    def test_codeword_instance_matches_direct_enumeration(self, truncated_clean):
        """Every corruption pattern of a codeword instance, decoded and scored
        against its own codeword, gives the exact means' polynomial."""
        graph = truncated_clean.graph
        H = core.gauge_transform(truncated_clean, {graph.spins[0], graph.spins[3]})
        codeword = H.h  # h_i = sigma_i
        ps = np.linspace(0.02, 0.45, 9)
        map_means, mpm_means = ex.exact_sector_means(H, np.array([0.8]))
        decoders = [(map_decoder(graph), map_means),
                    (mpm_decoder(graph, 0.8), mpm_means[:, 0])]
        for decode, means in decoders:
            direct = direct_rtot(H, lambda el: decode(el) * codeword, ps)
            assert np.max(np.abs(direct - ex.ber_curve(means, ps))) < 1e-12

    def test_capacity_error_beyond_one_cell(self):
        H = core.Hamiltonian.uniform(core.build_chimera(2))
        with pytest.raises(core.CapacityError):
            ex.exact_sector_means(H, np.array([1.0]))

    def test_requires_nominal_instance(self, truncated_clean):
        H, _ = channel.corrupt(truncated_clean, 0.2, channel.stream(0, 0))
        with pytest.raises(ValueError, match="codeword"):
            ex.exact_sector_means(H, np.array([1.0]))

    def test_requires_codeword_instance(self, cell_clean):
        gauged = core.gauge_transform(cell_clean, {0, 5})
        one_flipped = gauged.J.copy()
        one_flipped[3] *= -1
        scaled = gauged.h * 1.05
        for h, J in ((gauged.h, one_flipped), (scaled, gauged.J)):
            H = core.Hamiltonian(cell_clean.graph, h, J)
            with pytest.raises(ValueError, match="codeword"):
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
        assert surface.map_means.shape == (16,)
        assert surface.mpm_means.shape == (16, 6)

    def test_matched_temperature_is_optimal(self, surface):
        rep = nishimori_check(surface)
        assert rep.ok
        assert rep.max_excess == 0.0

    def test_perturbed_surface_is_flagged(self, surface):
        r = surface.r_mpm.copy()
        k = int(np.argmin(np.abs(surface.t_decode - surface.t_nish[1])))
        r[k, 1] += 1e-6  # push the diagonal entry above the column minimum
        bad = ex.BerSurface(
            t_decode=surface.t_decode, t_nish=surface.t_nish, r_mpm=r,
            r_map=surface.r_map, ratio=r / surface.r_map,
            map_means=surface.map_means, mpm_means=surface.mpm_means)
        rep = nishimori_check(bad)
        assert not rep.ok
        assert rep.max_excess == pytest.approx(1e-6, rel=1e-6)

    def test_missing_diagonal_detected(self, surface):
        off = ex.BerSurface(
            t_decode=surface.t_decode + 0.01, t_nish=surface.t_nish,
            r_mpm=surface.r_mpm, r_map=surface.r_map, ratio=surface.ratio,
            map_means=surface.map_means, mpm_means=surface.mpm_means)
        with pytest.raises(ValueError):
            nishimori_check(off)


class TestDirectRtot:
    def test_matches_sector_polynomial(self, truncated_clean):
        ps = np.linspace(0.02, 0.45, 9)
        direct = direct_rtot(truncated_clean, map_decoder(truncated_clean.graph), ps)
        map_means, _ = ex.exact_sector_means(truncated_clean, np.array([1.0]))
        poly = ex.ber_curve(map_means, ps)
        assert np.max(np.abs(direct - poly)) < 1e-12
