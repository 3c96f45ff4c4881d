import math
from fractions import Fraction

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


def exact_sector_weights(p, n):
    """C(n, s) p^s (1-p)^(n-s) in exact rationals, rounded once to float.

    p = a/d exactly (d a power of two), so each weight is the integer
    C(n, s) a^s (d-a)^(n-s) over d^n; int / int rounds correctly.
    """
    a, d = Fraction(p).as_integer_ratio()
    a_pow, b_pow = [1], [1]
    for _ in range(n):
        a_pow.append(a_pow[-1] * a)
        b_pow.append(b_pow[-1] * (d - a))
    denominator = d ** n
    return np.array([math.comb(n, s) * a_pow[s] * b_pow[n - s] / denominator
                     for s in range(n + 1)])


@pytest.mark.parametrize("n", [1, 24, 176, 480])
def test_sector_weights_exact_oracle(n):
    for p in np.linspace(0.0, 1.0, 52)[1:-1]:
        exact = exact_sector_weights(p, n)
        got = channel.sector_weights(p, n)
        assert np.all(np.isfinite(got))
        big = exact > 1e-300
        assert np.max(np.abs(got[big] - exact[big]) / exact[big]) <= 1e-12, p
    for p, s in ((0.0, 0), (1.0, n)):
        expected = np.zeros(n + 1)
        expected[s] = 1.0
        assert np.array_equal(channel.sector_weights(p, n), expected)


class TestCorruption:
    def test_deterministic_per_seed(self, clean):
        H1, m1 = channel.corrupt(clean, 0.3, channel.stream(5, 1))
        H2, m2 = channel.corrupt(clean, 0.3, channel.stream(5, 1))
        assert np.array_equal(H1.h, H2.h) and np.array_equal(H1.J, H2.J) \
            and np.array_equal(m1, m2)

    def test_streams_independent(self, clean):
        _, m1 = channel.corrupt(clean, 0.3, channel.stream(5, 1))
        _, m2 = channel.corrupt(clean, 0.3, channel.stream(5, 2))
        assert not np.array_equal(m1, m2)

    def test_flips_are_sign_flips(self, clean):
        H, flipped = channel.corrupt(clean, 0.3, channel.stream(6, 0))
        n = clean.graph.n_spins
        assert flipped.dtype == bool and flipped.shape == (24,)
        assert np.array_equal(H.h, np.where(flipped[:n], -1.0, 1.0))
        assert np.array_equal(H.J, np.where(flipped[n:], -1.0, 1.0))

    def test_sample_sector_exact_count(self, clean):
        for s in (0, 5, 24):
            H, flipped = channel.sample_sector(clean, s, channel.stream(7, s))
            assert flipped.sum() == s
            assert (np.concatenate([H.h, H.J]) == -1.0).sum() == s

    def test_apply_mask_round_trip(self, clean):
        _, flipped = channel.corrupt(clean, 0.4, channel.stream(8, 0))
        H = channel.apply_mask(clean, flipped)
        back = channel.apply_mask(H, flipped)
        assert np.array_equal(back.h, clean.h) and np.array_equal(back.J, clean.J)

    def test_flip_vector_ordering(self, clean):
        n = len(clean.graph.spins)
        flipped = np.zeros(n + len(clean.graph.edges), dtype=bool)
        flipped[[0, n, n + 1]] = True
        H = channel.apply_mask(clean, flipped)
        assert np.flatnonzero(H.h == -1.0).tolist() == [0]
        assert np.flatnonzero(H.J == -1.0).tolist() == [0, 1]
        with pytest.raises(ValueError):
            channel.apply_mask(clean, flipped[1:])

    def test_corruption_rate_statistics(self, clean):
        rng = channel.stream(9, 0)
        counts = [channel.corrupt(clean, 0.25, rng)[1].sum()
                  for _ in range(400)]
        assert np.mean(counts) / 24 == pytest.approx(0.25, abs=0.02)
