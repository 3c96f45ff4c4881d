import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingdec import core
from oracles import brute_cell_classes, unit_cell_automorphisms


def random_nominal(rng, L=1, excluded=frozenset()):
    g = core.build_chimera(L, excluded=excluded)
    h = [float(rng.choice([-1, 1])) for _ in g.spins]
    J = [float(rng.choice([-1, 1])) for _ in g.edges]
    return core.Hamiltonian(graph=g, h=h, J=J, alpha=1.0)


class TestTopology:
    def test_single_cell_counts(self):
        g = core.build_chimera(1)
        assert len(g.spins) == 8
        assert len(g.edges) == 16

    def test_four_by_four_counts(self):
        g = core.build_chimera(4)
        assert len(g.spins) == 128
        assert len(g.edges) == 352

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 8])
    def test_edge_count_formula(self, L):
        g = core.build_chimera(L)
        assert len(g.edges) == 16 * L * L + 8 * L * (L - 1)

    def test_cell_bipartite_structure(self):
        g = core.build_chimera(1)
        for a, b in g.edges:
            # intra-cell edges couple opposite sides only
            assert (a // 4) % 2 != (b // 4) % 2

    def test_intercell_edges(self):
        g = core.build_chimera(2)
        # side 0 couples to the cell below, side 1 to the cell on the right
        assert (0, 16) in g.edges
        assert (4, 12) in g.edges

    def test_truncated_cell(self):
        g = core.truncated_cell()
        assert len(g.spins) == 6
        assert len(g.edges) == 9
        assert 3 not in g.spins and 7 not in g.spins

    def test_exclusions_remove_incident_edges(self):
        g = core.build_chimera(1, excluded={0})
        assert all(0 not in e for e in g.edges)
        assert len(g.edges) == 12

    @pytest.mark.parametrize("L, excluded", [(1, ()), (2, (3, 12, 20))])
    def test_edge_positions(self, L, excluded):
        g = core.build_chimera(L, excluded=excluded)
        expected = [[g.spins.index(i), g.spins.index(j)] for i, j in g.edges]
        assert g.edge_positions.tolist() == expected
        assert g.edge_positions is g.edge_positions
        assert not g.edge_positions.flags.writeable

    def test_positions_reject_inactive_spins(self):
        g = core.build_chimera(1, excluded={3})
        assert g.positions([0, 4, 7]).tolist() == [0, 3, 6]
        for bad in ([3], [8], [-1]):
            with pytest.raises(ValueError):
                g.positions(bad)


class TestHamiltonian:
    def test_uniform_energy_ferromagnet(self):
        g = core.build_chimera(1)
        H = core.Hamiltonian.uniform(g)
        s = np.ones(g.n_spins)
        assert core.energy(H, s) == -24.0

    def test_alpha_scales_energy(self):
        g = core.build_chimera(1)
        H = core.Hamiltonian.uniform(g, alpha=0.25)
        s = np.ones(g.n_spins)
        assert core.energy(H, s) == -6.0

    def test_arrays_are_read_only_copies(self):
        g = core.build_chimera(1)
        h = np.ones(g.n_spins)
        H = core.Hamiltonian.from_vectors(g, h, np.ones(g.n_edges))
        h[0] = -1.0
        assert H.h[0] == 1.0 and H.h.dtype == np.float64
        with pytest.raises(ValueError):
            H.h[0] = -1.0
        with pytest.raises(ValueError):
            H.J[0] = -1.0

    def test_shapes_checked(self):
        g = core.build_chimera(1)
        with pytest.raises(ValueError, match="h must hold 8"):
            core.Hamiltonian(g, np.ones(7), np.ones(16))
        with pytest.raises(ValueError, match="J must hold 16"):
            core.Hamiltonian(g, np.ones(8), np.ones((1, 16)))

    @pytest.mark.parametrize("field, value", [
        ("h", np.nan), ("J", np.inf), ("alpha", np.nan), ("alpha", np.inf)])
    def test_non_finite_rejected(self, field, value):
        g = core.build_chimera(1)
        values = {"h": np.ones(8), "J": -np.ones(16), "alpha": 1.0}
        if field == "alpha":
            values["alpha"] = value
        else:
            values[field][3] = value
        with pytest.raises(ValueError, match="finite"):
            core.Hamiltonian(g, **values)

    def test_compares_by_identity(self):
        g = core.build_chimera(1)
        H = core.Hamiltonian.uniform(g)
        assert H == H and H != core.Hamiltonian.uniform(g)
        assert len({H, H, core.Hamiltonian.uniform(g)}) == 2

    def test_vector_round_trip(self):
        rng = np.random.default_rng(0)
        H = random_nominal(rng)
        H2 = core.Hamiltonian.from_vectors(H.graph, H.h, H.J, H.alpha)
        assert np.array_equal(H2.h, H.h) and np.array_equal(H2.J, H.J)


class TestGauge:
    @given(st.integers(0, 2 ** 32 - 1), st.sets(st.integers(0, 7)))
    @settings(max_examples=50, deadline=None)
    def test_energy_invariant(self, seed, flip):
        rng = np.random.default_rng(seed)
        H = random_nominal(rng)
        Hg = core.gauge_transform(H, flip)
        s = np.array([int(rng.choice([-1, 1])) for _ in H.graph.spins])
        sg = np.where(np.isin(H.graph.spins, list(flip)), -s, s)
        e1 = core.energy(H, s)
        e2 = core.energy(Hg, sg)
        assert e1 == pytest.approx(e2, abs=1e-12)

    def test_rejects_inactive_spins(self):
        H = core.Hamiltonian.uniform(core.truncated_cell())
        with pytest.raises(ValueError):
            core.gauge_transform(H, {3})

    def test_involution(self):
        rng = np.random.default_rng(1)
        H = random_nominal(rng)
        flip = {0, 3, 5}
        back = core.gauge_transform(core.gauge_transform(H, flip), flip)
        assert np.array_equal(back.h, H.h) and np.array_equal(back.J, H.J)


class TestCanonicalization:
    def test_automorphism_group_order(self):
        assert len(unit_cell_automorphisms()) == 1152

    def test_gauge_invariance_of_canonical_word(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            H = random_nominal(rng)
            word = core.canonicalize_cell(H)
            flip = set(rng.choice(8, size=3, replace=False).tolist())
            assert core.canonicalize_cell(
                core.gauge_transform(H, flip)) == word

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        H = random_nominal(rng)
        word = core.canonicalize_cell(H)
        assert core.canonicalize_cell(core.cell_from_word(word)) == word

    def test_nominal_ferromagnet_is_word_zero(self):
        g = core.build_chimera(1)
        word = core.canonicalize_cell(core.Hamiltonian.uniform(g))
        assert type(word) is int and word == 0


CELL_GRAPHS = {
    "full": core.build_chimera(1),
    "truncated": core.truncated_cell(),
    "excluded-3": core.build_chimera(1, excluded={3}),
    "no-couplers": core.build_chimera(1, excluded={4, 5, 6, 7}),
    "one-edge": core.build_chimera(1, excluded={1, 2, 3, 5, 6, 7}),
}


@pytest.fixture(scope="module")
def oracle_classes():
    return {name: brute_cell_classes(g) for name, g in CELL_GRAPHS.items()}


class TestCellOrbits:
    @pytest.mark.parametrize("name, order", [
        ("full", 1152), ("truncated", 72), ("excluded-3", 144),
        ("no-couplers", 576), ("one-edge", 72)])
    def test_matches_every_group_element(self, oracle_classes, name, order):
        graph = CELL_GRAPHS[name]
        canonical = core.cell_orbits(graph)
        oracle, oracle_order = oracle_classes[name]
        assert oracle_order == order
        assert canonical.dtype == np.int64
        assert np.array_equal(canonical, oracle)
        _, sizes = np.unique(canonical, return_counts=True)
        assert np.all(order % sizes == 0)
        assert sizes.sum() == 2 ** graph.n_edges

    def test_no_couplers_is_one_empty_word(self):
        assert core.cell_orbits(CELL_GRAPHS["no-couplers"]).tolist() == [0]

    def test_multi_cell_graph_raises(self):
        with pytest.raises(ValueError, match="single unit cell"):
            core.cell_orbits(core.build_chimera(2))

    def test_enumerate_cell_classes_matches_oracle(self, oracle_classes):
        count, hist, canonical = core.enumerate_cell_classes()
        oracle = oracle_classes["full"][0]
        assert np.array_equal(canonical, oracle)
        _, sizes = np.unique(oracle, return_counts=True)
        assert count == len(sizes) == 192
        assert hist == dict(zip(*np.unique(sizes, return_counts=True)))

    def test_canonical_word_is_an_orbit_minimum(self, oracle_classes):
        canonical = oracle_classes["full"][0]
        rng = np.random.default_rng(5)
        for _ in range(20):
            H = random_nominal(rng)
            word = core.canonicalize_cell(H)
            flip = frozenset(np.array(H.graph.spins)[H.h == -1].tolist())
            fixed = core.gauge_transform(H, flip)
            raw = core._pack_word(fixed.J)
            assert word == canonical[raw]


class TestTextFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(4)
        H = random_nominal(rng)
        H2 = core.parse_hamiltonian(core.format_hamiltonian(H))
        assert np.array_equal(H2.h, H.h) and np.array_equal(H2.J, H.J) \
            and H2.alpha == H.alpha

    def test_round_trip_with_exclusions(self):
        g = core.truncated_cell()
        H = core.Hamiltonian.uniform(g, alpha=0.5)
        H2 = core.parse_hamiltonian(core.format_hamiltonian(H))
        assert H2.graph.spins == g.spins and H2.alpha == 0.5

    def test_duplicate_rejected_with_line(self):
        g = core.build_chimera(1)
        text = core.format_hamiltonian(core.Hamiltonian.uniform(g))
        lines = text.splitlines()
        dup = next(l for l in lines if l.startswith("h "))
        with pytest.raises(core.FormatError, match=r"\d+"):
            core.parse_hamiltonian(text + "\n" + dup)

    def test_missing_entry_rejected(self):
        g = core.build_chimera(1)
        text = core.format_hamiltonian(core.Hamiltonian.uniform(g))
        lines = [l for l in text.splitlines() if not l.startswith("h 0 ")]
        with pytest.raises(core.FormatError):
            core.parse_hamiltonian("\n".join(lines))

    def test_unknown_edge_rejected(self):
        g = core.build_chimera(1)
        text = core.format_hamiltonian(core.Hamiltonian.uniform(g))
        with pytest.raises(core.FormatError):
            core.parse_hamiltonian(text + "\nJ 0 1 1.0")

    def test_duplicate_message_kept(self):
        text = core.format_hamiltonian(core.Hamiltonian.uniform(core.build_chimera(1)))
        with pytest.raises(core.FormatError,
                           match=r"line 27: duplicate h entry for spin 0"):
            core.parse_hamiltonian(text + "h 0 1.0\n")

    @pytest.mark.parametrize("old, new", [
        ("h 0 1.0", "h 0 nan"), ("J 0 4 1.0", "J 0 4 -inf"),
        ("alpha 1.0", "alpha inf"), ("alpha 1.0", "alpha nan")])
    def test_non_finite_rejected_with_line(self, old, new):
        text = core.format_hamiltonian(core.Hamiltonian.uniform(core.build_chimera(1)))
        no = text.splitlines().index(old) + 1
        with pytest.raises(core.FormatError, match=rf"line {no}: non-finite"):
            core.parse_hamiltonian(text.replace(old, new))

    @pytest.mark.parametrize("old, new, message", [
        ("h 0 1.0", "h 0 1.0 7", r"line 3: malformed entry 'h 0 1.0 7'"),
        ("J 0 4 1.0", "J 0 4 1.0 junk", r"line 11: malformed entry 'J 0 4 1.0 junk'"),
        ("alpha 1.0", "alpha 1.0 2.0", r"line 2: malformed entry 'alpha 1.0 2.0'"),
        ("alpha 1.0", "exclude\nexclude 3\nalpha 1.0", r"line 3: duplicate exclude line"),
    ], ids=["h-extra-token", "J-extra-token", "alpha-extra-token", "after-bare-exclude"])
    def test_malformed_line_rejected_with_line(self, old, new, message):
        text = core.format_hamiltonian(core.Hamiltonian.uniform(core.build_chimera(1)))
        with pytest.raises(core.FormatError, match=message):
            core.parse_hamiltonian(text.replace(old, new))

    def test_non_positive_alpha_rejected_with_line(self):
        text = core.format_hamiltonian(core.Hamiltonian.uniform(core.build_chimera(1)))
        with pytest.raises(core.FormatError, match=r"line 2: alpha must be positive"):
            core.parse_hamiltonian(text.replace("alpha 1.0", "alpha 0.0"))

    @pytest.mark.parametrize("old, new, message", [
        ("chimera L=1 K=4", "chimera L=0 K=4", r"line 1: bad chimera header .*L must be >= 1"),
        ("chimera L=1 K=4", "chimera L=1 K=3", r"line 1: bad chimera header .*K = 4"),
        ("exclude 3 7", "exclude 3 99", r"line 2: excluded spin 99 out of range"),
    ], ids=["L=0", "K=3", "exclude-99"])
    def test_bad_graph_rejected_with_line(self, old, new, message):
        text = core.format_hamiltonian(core.Hamiltonian.uniform(core.truncated_cell()))
        assert old in text
        with pytest.raises(core.FormatError, match=message):
            core.parse_hamiltonian(text.replace(old, new))

    def test_garbage_rejected(self):
        with pytest.raises(core.FormatError):
            core.parse_hamiltonian("not a header\n")
