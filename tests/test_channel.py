import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import comb

from isingdec import channel, core


@pytest.fixture(scope="module")
def clean():
    return core.Hamiltonian.uniform(core.build_chimera(1))


class TestNishimori:
    @given(st.floats(0.001, 0.499))
    @settings(max_examples=100, deadline=None)
    def test_temperature_probability_inverse(self, p):
        t = channel.nishimori_temperature(p)
        assert channel.crossover_probability(t) == pytest.approx(p, abs=1e-12)

    def test_closed_form(self):
        assert channel.nishimori_temperature(0.2) == pytest.approx(
            2.0 / np.log(4.0), rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.7, -0.1])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            channel.nishimori_temperature(p)

    def test_monotone(self):
        ps = np.linspace(0.01, 0.49, 50)
        ts = [channel.nishimori_temperature(p) for p in ps]
        assert np.all(np.diff(ts) > 0)


class TestSectorWeights:
    @given(st.floats(1e-9, 1.0 - 1e-9), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_normalized(self, p, n):
        w = channel.sector_weights(p, n)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)

    def test_binomial_oracle(self):
        p, n = 0.3, 24
        for s in (0, 1, 12, 24):
            expected = comb(n, s, exact=True) * p ** s * (1 - p) ** (n - s)
            assert channel.sector_weights(p, n)[s] == pytest.approx(
                expected, rel=1e-12)


class TestCorruption:
    def test_deterministic_per_seed(self, clean):
        H1, m1 = channel.corrupt(clean, 0.3, channel.stream(5, 1))
        H2, m2 = channel.corrupt(clean, 0.3, channel.stream(5, 1))
        assert H1.h == H2.h and H1.J == H2.J and m1 == m2

    def test_streams_independent(self, clean):
        _, m1 = channel.corrupt(clean, 0.3, channel.stream(5, 1))
        _, m2 = channel.corrupt(clean, 0.3, channel.stream(5, 2))
        assert m1 != m2

    def test_flips_are_sign_flips(self, clean):
        H, mask = channel.corrupt(clean, 0.3, channel.stream(6, 0))
        for s in clean.graph.spins:
            expected = -1.0 if s in mask.flipped_fields else 1.0
            assert H.h[s] == expected
        for e in clean.graph.edges:
            expected = -1.0 if e in mask.flipped_couplers else 1.0
            assert H.J[e] == expected

    def test_sample_sector_exact_count(self, clean):
        for s in (0, 5, 24):
            H, mask = channel.sample_sector(clean, s, channel.stream(7, s))
            assert mask.n_corr == s

    def test_apply_mask_round_trip(self, clean):
        _, mask = channel.corrupt(clean, 0.4, channel.stream(8, 0))
        H = channel.apply_mask(clean, mask)
        back = channel.apply_mask(H, mask)
        assert back.h == clean.h and back.J == clean.J

    def test_mask_from_flat_ordering(self, clean):
        n = len(clean.graph.spins)
        mask = channel.mask_from_flat(clean, [0, n, n + 1])
        assert clean.graph.spins[0] in mask.flipped_fields
        assert clean.graph.edges[0] in mask.flipped_couplers
        assert clean.graph.edges[1] in mask.flipped_couplers
        assert mask.n_corr == 3

    def test_corruption_rate_statistics(self, clean):
        rng = channel.stream(9, 0)
        counts = [channel.corrupt(clean, 0.25, rng)[1].n_corr
                  for _ in range(400)]
        assert np.mean(counts) / 24 == pytest.approx(0.25, abs=0.02)
