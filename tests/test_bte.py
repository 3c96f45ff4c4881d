import dataclasses
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from scipy.special import logsumexp

from isingdec import bte, channel, core, exact, sa, workers
from oracles import elimination_cost


def spins(H):
    return [(s,) for s in H.graph.spins]


def random_instance(L, seed):
    rng = np.random.default_rng(seed)
    g = core.build_chimera(L)
    h = [float(rng.choice([-1, 1])) for _ in g.spins]
    J = [float(rng.choice([-1, 1])) for _ in g.edges]
    return core.Hamiltonian(graph=g, h=h, J=J, alpha=1.0)


@pytest.fixture
def arithmetics(monkeypatch):
    """Every elimination pass: `tried` holds (arithmetic, temperatures, flags)
    per attempted pass, flags None unless the guard fired; `ran` holds the
    arithmetic of each pass that ran to its end."""
    passes = types.SimpleNamespace(tried=[], ran=[])
    forward = bte._forward

    def spy(H, temps, order, arith, arena):
        attempt = [arith, temps.copy(), None]
        passes.tried.append(attempt)
        try:
            result = forward(H, temps, order, arith, arena)
        except bte._Underflow as e:
            attempt[2] = e.flags
            raise
        passes.ran.append(arith)
        return result

    monkeypatch.setattr(bte, "_forward", spy)
    return passes


class TestEliminationOrder:
    @pytest.mark.parametrize("L,width", [(1, 4), (2, 8), (4, 16)])
    def test_induced_width(self, L, width):
        order = bte.elimination_order(core.build_chimera(L))
        assert order.induced_width == width

    def test_order_is_permutation(self):
        g = core.build_chimera(3)
        order = bte.elimination_order(g)
        assert sorted(order.order) == sorted(g.spins)

    def test_truncated_cell(self):
        order = bte.elimination_order(core.truncated_cell())
        assert order.induced_width <= 4

    @pytest.mark.parametrize("graph", [
        *(core.build_chimera(L) for L in range(1, 6)),
        core.build_chimera(2, excluded=frozenset({3, 12, 20})),
        core.build_chimera(2, excluded=frozenset(range(16, 32)) | {2, 13}),
        core.truncated_cell(),
        core.build_chimera(1, excluded={4, 5, 6, 7}),
    ], ids=[*(f"L{L}" for L in range(1, 6)), "L2-excluded", "two-cells-partial",
            "truncated-cell", "one-side"])
    def test_width_and_entries_are_the_clique_fill(self, graph):
        # both come from the scopes of the schedule's sum-out steps
        order = bte.elimination_order(graph)
        assert (order.induced_width, order.table_entries) == \
            elimination_cost(graph, order.order)


class TestAgainstExact:
    @pytest.mark.parametrize("seed", range(8))
    def test_single_cell_magnetization(self, seed):
        H = random_instance(1, seed)
        temps = np.linspace(0.1, 6.0, 20)
        m_bte = bte.BteEngine().magnetization_curve(H, temps)
        m_ex = exact.ExactEngine().magnetization_curve(H, temps)
        assert np.max(np.abs(m_bte - m_ex)) < 1e-10

    def test_log_partition(self):
        H = random_instance(1, 100)
        sp = exact.enumerate_spectrum(H)
        for T in (0.3, 1.0, 4.0):
            lnz_ex = logsumexp(-sp.energies / T)
            assert bte.bte_log_partition_curve(H, np.array([T]))[0] == pytest.approx(
                float(lnz_ex), abs=1e-10)

    def test_two_cells_of_larger_grid(self):
        # Keep 16 spins (two cells of a 2x2 grid) so exact stays feasible.
        rng = np.random.default_rng(7)
        g = core.build_chimera(2, excluded=frozenset(range(16, 32)))
        h = [float(rng.choice([-1, 1])) for _ in g.spins]
        J = [float(rng.choice([-1, 1])) for _ in g.edges]
        H = core.Hamiltonian(graph=g, h=h, J=J, alpha=1.0)
        temps = np.array([0.5, 1.5, 3.0])
        m_bte = bte.BteEngine().magnetization_curve(H, temps)
        m_ex = exact.ExactEngine().magnetization_curve(H, temps)
        assert np.max(np.abs(m_bte - m_ex)) < 1e-9

    def test_pair_correlations(self):
        H = random_instance(1, 8)
        temps = np.array([0.7, 2.0])
        pairs = list(H.graph.edges)[:6]
        c_bte = bte.bte_moment_curves([H], temps, pairs)[0]
        c_ex = exact.moment_curves([H], temps, pairs)[0]
        assert np.max(np.abs(c_bte - c_ex)) < 1e-10

    def test_corrupted_instance(self):
        H, _ = channel.corrupt(random_instance(1, 9), 0.1,
                               channel.stream(9, 0))
        temps = np.array([1.0])
        m_bte = bte.BteEngine().magnetization_curve(H, temps)
        m_ex = exact.ExactEngine().magnetization_curve(H, temps)
        assert np.max(np.abs(m_bte - m_ex)) < 1e-9



def corrupted_two_cells(excluded=frozenset()):
    """Cells (0, 0) and (1, 0) of a 2x2 grid, 16 spins: small enough for exact."""
    g = core.build_chimera(2, excluded=frozenset(range(16, 32)) | excluded)
    H, _ = channel.sample_sector(core.Hamiltonian.uniform(g), 7,
                                 channel.stream(13, len(excluded)))
    return H


class TestOracle:
    """ln Z, <sigma_i> and <sigma_i sigma_j> against exhaustive enumeration on
    graphs whose elimination has several roots, inter-cell separators, or a
    non-cell-aligned exclusion."""

    temps = np.array([0.1, 0.6, 1.7, 5.0])

    def check(self, H, pairs, temps=temps):
        sp = exact.enumerate_spectrum(H)
        lnz_ex = [logsumexp(-sp.energies / T) for T in temps]
        np.testing.assert_allclose(bte.bte_log_partition_curve(H, temps),
                                   lnz_ex, rtol=0, atol=1e-9)
        np.testing.assert_allclose(bte.BteEngine().magnetization_curve(H, temps),
                                   exact.ExactEngine().magnetization_curve(H, temps),
                                   rtol=0, atol=1e-10)
        if pairs:
            np.testing.assert_allclose(
                bte.bte_moment_curves([H], temps, pairs)[0],
                exact.moment_curves([H], temps, pairs)[0],
                rtol=0, atol=1e-10)

    def test_disconnected_graph(self):
        # one side of a cell: four spins, no edges, one root bucket each
        g = core.build_chimera(1, excluded={4, 5, 6, 7})
        assert g.edges == ()
        H = core.Hamiltonian(graph=g, h=[1.0, -0.5, 0.25, 0.0], J=[], alpha=0.8)
        self.check(H, [])

    def test_two_cells_all_edges(self):
        H = corrupted_two_cells()
        pairs = list(H.graph.edges)
        assert {(4 + k, 12 + k) for k in range(4)} <= set(pairs)
        pairs[5] = pairs[5][::-1]
        self.check(H, pairs)

    def test_two_cells_partial_exclusion(self):
        H = corrupted_two_cells(frozenset({2, 13}))
        self.check(H, list(H.graph.edges))

    def test_log_fallback(self, arithmetics):
        # one coupler alone spans 2/T = 1000 nats at T = 0.002, more than a
        # float's ~708, so the linear pass must give way to log arithmetic
        H = corrupted_two_cells()
        self.check(H, list(H.graph.edges), temps=np.array([0.002]))
        assert arithmetics.ran == [bte._LOG] * 3

    def test_mixed_chunk_keeps_grid_order(self, arithmetics):
        # guarded and unguarded temperatures interleaved in one chunk: the
        # rows must be the one-temperature rows, in grid order
        H = corrupted_two_cells()
        pairs = list(H.graph.edges)
        temps = np.array([1.3, 0.002, 0.4, 0.004, 5.0, 0.003])
        curves = {
            "lnz": lambda t: bte.bte_log_partition_curve(H, t)[:, None],
            "m": lambda t: bte.BteEngine().magnetization_curve(H, t),
            "pairs": lambda t: bte.bte_moment_curves([H], t, pairs)[0],
        }
        for name, curve in curves.items():
            rows = np.concatenate([curve(np.array([T])) for T in temps])
            np.testing.assert_allclose(curve(temps), rows, rtol=1e-13, atol=1e-13,
                                       err_msg=name)
        assert bte._LOG in arithmetics.ran and bte._LINEAR in arithmetics.ran

    def test_flagged_temperatures_run_only_in_logs(self, arithmetics):
        # each temperature's rows are computed apart from the others', so a
        # temperature the guard flagged would trip it again in a linear pass
        H = corrupted_two_cells()
        bte.BteEngine().magnetization_curve(
            H, np.array([1.3, 0.002, 0.4, 0.004, 5.0, 0.003]))
        flagged, logged = set(), set()
        for arith, temps, flags in arithmetics.tried:
            if arith is bte._LOG:
                logged |= set(temps)
                continue
            assert not flagged & set(temps), "a flagged temperature ran linear again"
            if flags is not None:
                flagged |= set(temps[flags])
        assert 0.002 in flagged
        assert logged == flagged
        # sampling takes the same path: one linear attempt, then logs
        arithmetics.tried.clear()
        bte.bte_sample(H, 0.002, 10, np.random.default_rng(0))
        assert [arith for arith, _, _ in arithmetics.tried] == [bte._LINEAR, bte._LOG]


def live_peak(plan, skip=()):
    """Largest sum of the entries of the tables alive at one step of the
    planned pass, leaving out the tables whose kind (key[0]) is in skip."""
    slots = [v for k, v in plan.slots.items() if k[0] not in skip]
    steps = np.zeros(max(last for *_, last in slots) + 2, dtype=np.int64)
    for _, entries, first, last in slots:
        steps[first] += entries
        steps[last + 1] -= entries
    return int(np.cumsum(steps).max())


PLAN_GRAPHS = {f"L{L}": core.build_chimera(L) for L in range(1, 5)}
PLAN_GRAPHS["L2-excluded"] = core.build_chimera(2, excluded=frozenset({3, 12, 20}))
# two more excluded graphs: a cell without spins 3 and 7, and one side of a
# cell alone (four roots)
SMALL_GRAPHS = {"truncated-cell": core.truncated_cell(),
                "one-side": core.build_chimera(1, excluded={4, 5, 6, 7})}


class TestPlan:
    """The arena layout of a pass (EliminationOrder.plan) against the tables
    the pass writes."""

    @pytest.mark.parametrize("name", list(PLAN_GRAPHS) + list(SMALL_GRAPHS))
    def test_live_tables_never_share_entries(self, name):
        plan = bte.elimination_order({**PLAN_GRAPHS, **SMALL_GRAPHS}[name]).plan
        offset, entries, first, last = np.array(list(plan.slots.values())).T
        assert np.all(offset % bte._ALIGN == 0) and np.all(entries % bte._ALIGN == 0)
        assert offset.min() == 0 and (offset + entries).max() == plan.entries
        live = (first[:, None] <= last[None, :]) & (first[None, :] <= last[:, None])
        shared = ((offset[:, None] < (offset + entries)[None, :])
                  & (offset[None, :] < (offset + entries)[:, None]))
        np.fill_diagonal(live, False)
        assert not np.any(live & shared)

    @pytest.mark.parametrize("name", PLAN_GRAPHS)
    def test_arena_is_the_largest_live_total(self, name):
        # entries count the alignment to 64 bytes; the log pass writes every
        # planned table, the linear pass all but the sum-out scratch
        order = bte.elimination_order(PLAN_GRAPHS[name])
        arena = order.plan.entries
        ratios = {"log": arena / live_peak(order.plan),
                  "linear": arena / live_peak(order.plan, skip=("scratch",))}
        assert order.table_entries <= arena
        assert max(ratios.values()) <= 1.05, ratios

    def test_tables_start_on_64_byte_boundaries(self):
        plan = bte.elimination_order(PLAN_GRAPHS["L2-excluded"]).plan
        arena = bte._Arena(plan, 3)
        for key, (_, entries, _, _) in plan.slots.items():
            table = arena.table(key, (3, entries))
            assert table.__array_interface__["data"][0] % 64 == 0

    @pytest.mark.parametrize("arith", [bte._LINEAR, bte._LOG], ids=["linear", "log"])
    def test_pass_asks_for_the_planned_tables_in_plan_order(self, arith):
        # the plan lists the tables in the order its walk writes them; a
        # pass reading every spin and edge asks for them in that order
        H = corrupted_two_cells(frozenset({2, 13}))
        order = bte.elimination_order(H.graph)
        asked = []

        class Spy(bte._Arena):
            def table(self, key, shape):
                asked.append(key)
                return super().table(key, shape)

        groups = [(s,) for s in H.graph.spins] + list(H.graph.edges)
        bte._moments(H, np.array([0.7, 2.0]), order, arith, Spy(order.plan, 2), groups)
        first = list(dict.fromkeys(asked))
        assert first == [key for key in order.plan.slots if key in set(first)]
        unasked = {key[0] for key in order.plan.slots} - {key[0] for key in first}
        assert unasked == set()

    @pytest.mark.parametrize("kind",
                             ["factor", "acc", "msg", "scratch", "down", "read"])
    @pytest.mark.parametrize("change", ["missing", "smaller"])
    def test_table_outside_the_plan_raises(self, kind, change, monkeypatch):
        H = random_instance(2, 12)
        order = bte.elimination_order(H.graph)
        slots = dict(order.plan.slots)
        key = next(k for k in slots if k[0] == kind)
        if change == "missing":
            del slots[key]
        else:
            offset, entries, first, last = slots[key]
            slots[key] = (offset, 1, first, last)  # smaller than any it holds
        bent = dataclasses.replace(order)  # a new object, planned below
        vars(bent)["plan"] = bte._Plan(slots, order.plan.entries)
        with monkeypatch.context() as m:
            m.setattr(bte, "elimination_order", lambda graph: bent)
            with pytest.raises(LookupError, match="outside the memory plan"):
                bte.BteEngine().magnetization_curve(H, np.array([1.0]))
            m.setattr(bte, "elimination_order", lambda graph: order)
            planned = bte.BteEngine().magnetization_curve(H, np.array([1.0]))
        assert np.array_equal(planned,
                              bte.BteEngine().magnetization_curve(H, np.array([1.0])))


class TestGuard:
    def test_subnormal_entry_flags_its_temperature(self):
        # the guard is the smallest normal float: one subnormal entry trips
        # it at its own temperature, an entry just above it trips nothing
        lam = np.ones((3, 2, 2, 2))
        lam[1, 0, 1, 0] = 1e-310
        lam[2, 1, 0, 1] = 2 * np.finfo(float).tiny
        with pytest.raises(bte._Underflow) as e:
            bte._sum_out_linear(lam, np.empty((3, 2, 2)), np.empty((3, 2, 2)))
        assert e.value.flags.tolist() == [False, True, False]


class TestFlush:
    def test_log_backward_pass_reads_no_subnormal_entry(self):
        # the golden L=3 instance at T = 0.03, in logs: every table that a
        # sum or a copy of the backward program reads, beliefs and their
        # marginals, holds no entry below the smallest normal float; without
        # the flush they hold thousands
        H, _ = channel.sample_sector(core.Hamiltonian.uniform(core.build_chimera(3)),
                                     110, channel.stream(14, 0))
        order = bte.elimination_order(H.graph)
        groups = tuple((s,) for s in H.graph.spins)

        def subnormal_reads(arith):
            arena = bte._Arena(order.plan, 1)
            bte._forward(H, np.array([0.03]), order, arith, arena)
            (functions, arguments), _ = arena.steps(order, 1).moments(arena, arith,
                                                                      groups)
            found = 0
            for fn, args in zip(functions, arguments):
                inputs = {np.matmul: args[:2], np.copyto: args[1:]}.get(fn, ())
                found += sum(int(np.count_nonzero(
                    (x != 0) & (np.abs(x) < np.finfo(float).tiny))) for x in inputs)
                fn(*args)
            return found

        assert subnormal_reads(bte._LOG) == 0
        assert subnormal_reads(dataclasses.replace(bte._LOG, flush=None)) > 1000


class TestSampling:
    def test_distribution_matches_boltzmann(self):
        # 4-spin chain carved out of a cell: exhaustible state space.
        g = core.build_chimera(1, excluded=frozenset({2, 3, 6, 7}))
        rng = np.random.default_rng(0)
        h = [float(rng.choice([-1, 1])) for _ in g.spins]
        J = [float(rng.choice([-1, 1])) for _ in g.edges]
        H = core.Hamiltonian(graph=g, h=h, J=J, alpha=1.0)
        T, n = 2.0, 200_000
        samples = bte.bte_sample(H, T, n, np.random.default_rng(1))
        assert samples.shape == (n, 4)
        codes = ((samples > 0) << np.arange(4)).sum(axis=1)
        counts = np.bincount(codes, minlength=16)
        sp = exact.enumerate_spectrum(H)
        w = np.exp(-(sp.energies - sp.ground_energy) / T)
        probs = w / w.sum()
        assert np.max(np.abs(counts / n - probs)) < 4 * np.sqrt(0.25 / n) + 5e-3

    def test_deterministic(self):
        H = random_instance(1, 3)
        s1 = bte.bte_sample(H, 1.0, 50, np.random.default_rng(5))
        s2 = bte.bte_sample(H, 1.0, 50, np.random.default_rng(5))
        assert np.array_equal(s1, s2)

    def test_sample_mean_matches_magnetization(self):
        H = random_instance(1, 4)
        T, n = 1.5, 100_000
        samples = bte.bte_sample(H, T, n, np.random.default_rng(6))
        m = exact.ExactEngine().magnetization_curve(H, [T])[0]
        band = 4 * np.sqrt((1 - m ** 2) / n)
        assert np.all(np.abs(samples.mean(axis=0) - m) < band + 1e-3)


class TestEngine:
    def test_capacity_error(self):
        H = core.Hamiltonian.uniform(core.build_chimera(8))
        with pytest.raises(core.CapacityError):
            bte.BteEngine().magnetization_curve(H, np.array([1.0]))

    def test_capacity_error_before_any_table(self, monkeypatch):
        def no_tables(*args):
            raise AssertionError("tables built past the budget")

        monkeypatch.setattr(bte, "_forward", no_tables)
        H = core.Hamiltonian.uniform(core.build_chimera(8))
        with pytest.raises(core.CapacityError):
            bte.BteEngine().magnetization_curve(H, np.array([1.0]))

    @pytest.mark.parametrize("L", range(1, 6))
    def test_chunk_fits_budget(self, L):
        # a 32-temperature curve on one thread: one pass up to L=2, pieces
        # of 16 on L=3 and of 1 on L=4, where the largest table fills 1 MiB
        order = bte.elimination_order(core.build_chimera(L))
        threads, chunk = bte._jobs(order, 32, 1, 1)
        assert threads == 1
        assert chunk * 8 * order.plan.entries <= bte.BUDGET
        assert chunk == (32 if L <= 2 else 16 if L == 3 else 1)

    def test_table_entries_count_the_forward_tables(self):
        H = random_instance(2, 12)
        order = bte.elimination_order(H.graph)
        tables, _ = bte._forward(H, np.array([1.0, 2.0]), order, bte._LINEAR,
                                 bte._Arena(order.plan, 2))
        conds = [tables[step.reads[0]] for step in order.schedule.forward
                 if isinstance(step, bte._SumOut)]
        assert sum(c.size for c in conds) == 2 * order.table_entries

    @pytest.mark.parametrize("curve, t_min", [
        pytest.param(bte.BteEngine().magnetization_curve, 0.2,
                     id="bte_magnetization_curve"),
        pytest.param(bte.bte_log_partition_curve, 0.2, id="bte_log_partition_curve"),
        # T = 0.085 trips the linear pass's guard halfway through (bucket 37
        # of 72): the chunk splits and its lowest temperature runs in logs,
        # within the same budget only if the abandoned tables are freed first
        pytest.param(bte.BteEngine().magnetization_curve, 0.085,
                     id="bte_magnetization_curve-log-fallback"),
    ])
    def test_peak_memory_within_counted_tables(self, curve, t_min, arithmetics,
                                               monkeypatch):
        # what a pass holds at its peak may exceed the cond tables'
        # 8 * n_T * table_entries bytes by at most 25%, and the arena that
        # BUDGET is charged for by at most small per-temperature vectors; one
        # CPU, so that the curve is one piece on one thread
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        H, _ = channel.sample_sector(core.Hamiltonian.uniform(core.build_chimera(3)),
                                     110, channel.stream(14, 0))
        order = bte.elimination_order(H.graph)
        temps = np.linspace(t_min, 4.0, 8)
        tracemalloc.start()
        try:
            curve(H, temps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * len(temps) * order.table_entries
        # the arena is the call's one large buffer
        assert peak <= 8 * len(temps) * order.plan.entries + (1 << 20)
        assert (bte._LOG in arithmetics.ran) == (t_min < 0.1)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_temperature_must_be_positive(self, bad):
        H = random_instance(1, 0)
        with pytest.raises(ValueError, match="positive"):
            bte.BteEngine().magnetization_curve(H, np.array([1.0, bad]))
        with pytest.raises(ValueError, match="positive"):
            bte.bte_log_partition_curve(H, np.array([bad]))
        with pytest.raises(ValueError, match="positive"):
            bte.bte_sample(H, bad, 5, np.random.default_rng(0))

    def test_empty_grid_gives_empty_curves(self):
        H = random_instance(2, 0)
        none = np.array([])
        n = H.graph.n_spins
        assert bte.BteEngine().magnetization_curve(H, none).shape == (0, n)
        assert bte.bte_log_partition_curve(H, none).shape == (0,)
        pairs = list(H.graph.edges)[:3]
        assert bte.bte_moment_curves([H], none, pairs)[0].shape == (0, 3)
        assert bte.BteEngine().moment_curves([H, H], none, spins(H)).shape == (2, 0, n)

    def test_curve_shape(self):
        eng = bte.BteEngine()
        H = random_instance(2, 11)
        temps = np.linspace(0.2, 4.0, 7)
        m = eng.magnetization_curve(H, temps)
        assert m.shape == (7, H.graph.n_spins)

    @pytest.mark.parametrize("engine, group", [
        *[pytest.param(engine, group, id=f"{engine}-{name}")
          for engine in ("exact", "bte")
          for name, group in [("three-spins", (0, 4, 5)), ("empty", ()),
                              ("inactive-spin", (99,))]],
        # exact enumeration reads any pair, BTE only a graph edge's
        pytest.param("bte", (0, 1), id="bte-non-edge-pair"),
    ])
    def test_bad_group_is_refused_before_any_pass(self, engine, group, monkeypatch):
        # a group that is not one active spin (or, for BTE, a graph edge's
        # two spins) would read no marginal: refused before any energy or
        # table is computed
        def no_pass(*args, **kwargs):
            raise AssertionError("a pass ran before the group check")

        monkeypatch.setattr(exact, "batch_energies", no_pass)
        monkeypatch.setattr(bte, "_forward", no_pass)
        eng = {"exact": exact.ExactEngine(), "bte": bte.BteEngine()}[engine]
        H = core.Hamiltonian.uniform(core.build_chimera(1))
        with pytest.raises(ValueError):
            eng.moment_curves([H], np.array([1.0, 2.0]), [(0,), group])


class TestBatch:
    """Engine calls over many Hamiltonians of one graph: temperature pieces
    side by side on threads, each curve bit for bit the one its call gives
    alone."""

    @pytest.fixture
    def hamiltonians(self):
        H, _ = channel.sample_sector(core.Hamiltonian.uniform(core.build_chimera(3)),
                                     110, channel.stream(14, 0))
        rng = channel.stream(14, 1)
        return [sa.inject_control_error(H, sa.ControlErrorSpec(), rng)
                for _ in range(3)]

    @pytest.mark.parametrize("temps", [[1.5], [0.06, 0.4, 1.5, 4.0]],
                             ids=["one-T", "with-log-fallback"])
    def test_batch_equals_serial_calls(self, hamiltonians, temps, arithmetics,
                                       monkeypatch):
        temps = np.array(temps)
        serial = [bte.BteEngine().magnetization_curve(H, temps) for H in hamiltonians]
        assert (bte._LOG in arithmetics.ran) == (temps.min() < 0.1)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 4)
        threads = []
        split = bte._split

        def spy(*args, **kwargs):
            threads.append(threading.current_thread())
            return split(*args, **kwargs)

        monkeypatch.setattr(bte, "_split", spy)
        eng = bte.BteEngine()
        batch = eng.moment_curves(hamiltonians, temps, spins(hamiltonians[0]))
        assert len(set(threads)) > 1
        assert np.array_equal(batch, serial)
        assert np.array_equal(eng.moment_curves(hamiltonians[::-1], temps,
                                                spins(hamiltonians[0])),
                              serial[::-1])
        assert np.array_equal(eng.magnetization_curve(hamiltonians[1], temps),
                              serial[1])

    def test_pair_correlation_batch_equals_serial_calls(self, hamiltonians,
                                                        monkeypatch):
        temps = np.array([0.7, 2.0])
        pairs = list(hamiltonians[0].graph.edges)[::7]
        serial = [bte.bte_moment_curves([H], temps, pairs)[0]
                  for H in hamiltonians]
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        assert np.array_equal(
            bte.BteEngine().moment_curves(hamiltonians, temps, pairs),
            serial)

    def test_worker_exception_reaches_the_caller(self, hamiltonians, monkeypatch):
        err = core.CapacityError("from a worker")
        moments = bte._moments

        def failing(H, *args, **kwargs):
            if H is hamiltonians[1]:
                raise err
            return moments(H, *args, **kwargs)

        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        monkeypatch.setattr(bte, "_moments", failing)
        with pytest.raises(core.CapacityError) as info:
            bte.bte_moment_curves(hamiltonians, np.array([1.5]), spins(hamiltonians[0]))
        assert info.value is err

    def test_worker_count(self):
        order = bte.elimination_order(core.build_chimera(4))
        per_t = 8 * order.plan.entries  # one temperature's arena
        # two CPUs: one-temperature calls are one job each; a grid curve on
        # L=4 is cut into one-temperature pieces, its largest table 1 MiB
        assert bte._jobs(order, 1, 21, 2) == (2, 1)
        assert bte._jobs(order, 1, 1, 2) == (1, 1)
        assert bte._jobs(order, 6, 1, 2) == (2, 1)
        assert bte._jobs(order, 50, 1, 2) == (2, 1)
        # BUDGET holds one 32-temperature L=4 arena but not two
        assert 32 * per_t <= bte.BUDGET < 2 * 32 * per_t
        order3 = bte.elimination_order(core.build_chimera(3))
        for cpus, n_temps, n_calls in itertools.product(
                (1, 2, 3, 64), (1, 6, 32, 50, 200), (1, 3, 21, 100)):
            # L=4: every piece is one temperature
            threads, piece = bte._jobs(order, n_temps, n_calls, cpus)
            assert 1 <= threads <= cpus and piece == 1
            # the arenas alive at once, one piece per thread, fit BUDGET
            assert threads * piece * per_t <= bte.BUDGET
            # L=3: pieces of at most 16 temperatures
            threads, piece = bte._jobs(order3, n_temps, n_calls, cpus)
            assert 1 <= threads <= cpus and 1 <= piece <= min(16, n_temps)
            assert threads * piece * 8 * order3.plan.entries <= bte.BUDGET
        # one-temperature calls: as many threads as BUDGET holds at their peak
        n, _ = bte._jobs(order, 1, 100, 64)
        assert n * per_t <= bte.BUDGET < (n + 1) * per_t
        # L=5: one temperature's arena takes most of BUDGET, so one thread
        order5 = bte.elimination_order(core.build_chimera(5))
        assert bte._jobs(order5, 1, 100, 64) == (1, 1)
        assert bte._jobs(order5, 50, 3, 64) == (1, 1)
        # small passes: one thread per usable CPU and per job
        assert bte._jobs(order3, 1, 100, 64) == (64, 1)
        assert bte._jobs(order3, 1, 3, 64) == (3, 1)
        assert bte._jobs(order3, 8, 1, 64) == (8, 1)
        assert bte._jobs(order3, 200, 1, 1) == (1, 16)

    @pytest.mark.parametrize("n_temps, n_calls", [(6, 1), (3, 1), (50, 20)],
                             ids=["6-point-grid", "3-checkpoints", "50-point-grids"])
    def test_each_thread_is_lent_one_temperature_of_arena_on_4x4(self, n_temps,
                                                                 n_calls,
                                                                 monkeypatch):
        order = bte.elimination_order(core.build_chimera(4))
        lent = []

        class Spy:
            def __init__(self, plan, n):
                assert plan is order.plan
                lent.append(8 * plan.entries * n)

        def no_tables(run, temps, order, arena):
            assert isinstance(arena, Spy)
            return np.zeros((len(temps), H.graph.n_spins))

        monkeypatch.setattr(bte, "_Arena", Spy)
        monkeypatch.setattr(bte, "_split", no_tables)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        H = core.Hamiltonian.uniform(core.build_chimera(4))
        out = bte.BteEngine().moment_curves([H] * n_calls,
                                            np.linspace(1.0, 2.0, n_temps), spins(H))
        assert out.shape == (n_calls, n_temps, H.graph.n_spins)
        assert lent == [8 * order.plan.entries] * 2

    def test_capacity_error_before_any_table(self, monkeypatch):
        def no_tables(*args):
            raise AssertionError("tables built past the budget")

        monkeypatch.setattr(bte, "_forward", no_tables)
        H = core.Hamiltonian.uniform(core.build_chimera(8))
        with pytest.raises(core.CapacityError):
            bte.BteEngine().moment_curves([H, H], np.array([1.0]), spins(H))

    def test_one_hamiltonian_curve_is_the_one_element_batch(self, hamiltonians,
                                                            monkeypatch):
        H, temps = hamiltonians[0], np.array([0.06, 0.4, 1.5, 4.0])
        pairs = list(H.graph.edges)[::7]
        for curve, batch in [
                (bte.BteEngine().magnetization_curve(H, temps),
                 bte.bte_moment_curves([H], temps, spins(H))),
                (bte.BteEngine().moment_curves([H], temps, pairs)[0],
                 bte.bte_moment_curves([H], temps, pairs)),
                (bte.bte_log_partition_curve(H, temps),
                 bte._curves(bte._log_partition, [H], temps, ()))]:
            assert batch.shape == (1,) + curve.shape
            assert curve.tobytes() == batch[0].tobytes()
        # so a one-Hamiltonian grid curve on a 4x4, cut into one-temperature
        # pieces, runs them on both CPUs
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        H4 = core.Hamiltonian.uniform(core.build_chimera(4))
        ran = []

        def no_tables(run, piece, order, arena):
            ran.append((threading.current_thread(), len(piece)))
            return np.zeros((len(piece), H4.graph.n_spins))

        monkeypatch.setattr(bte, "_split", no_tables)
        m = bte.BteEngine().magnetization_curve(H4, np.linspace(1.0, 2.0, 6))
        assert m.shape == (6, H4.graph.n_spins)
        assert [n for _, n in ran] == [1] * 6
        assert len({thread for thread, _ in ran}) == 2

    def test_one_program_per_thread_arena_arithmetic_and_size(self, hamiltonians,
                                                              monkeypatch):
        # three jobs of one four-temperature piece on two threads: each piece
        # runs linear (T = 0.06 flagged, then the other three) and 0.06 in logs
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        arenas, asked = [], []

        class Spy(bte._Arena):
            def __init__(self, *args):
                super().__init__(*args)
                arenas.append(weakref.ref(self))

        program, bind = bte._Bound.program, bte._bind
        binds = []

        def spy_program(steps, arith):
            asked.append((threading.get_ident(), arith, steps.n,
                          (arith,) not in steps.programs))
            return program(steps, arith)

        def spy_bind(calls, arith):
            binds.append(arith)
            return bind(calls, arith)

        monkeypatch.setattr(bte, "_Arena", Spy)
        monkeypatch.setattr(bte._Bound, "program", spy_program)
        monkeypatch.setattr(bte, "_bind", spy_bind)
        temps = np.array([0.06, 0.4, 1.5, 4.0])
        bte.BteEngine().moment_curves(hamiltonians, temps, spins(hamiltonians[0]))
        compiled = [key[:3] for key in asked if key[3]]
        threads = {thread for thread, _, _ in compiled}
        assert len(arenas) == len(threads) == 2
        # every thread: one linear program of 4 and one log program of 1, on
        # its one arena, although one thread ran two jobs
        assert len(compiled) == len(set(compiled)) == len({key[:3] for key in asked})
        assert {(a, n) for _, a, n in compiled} == {(bte._LINEAR, 4), (bte._LOG, 1)}
        assert len(compiled) == 4 < len(asked)
        # and one backward program beside each forward one
        assert len(binds) == 2 * len(compiled)
        # the arenas, and the programs with them, are freed with the batch
        assert [arena() for arena in arenas] == [None, None]

    def test_one_graph_per_batch(self):
        with pytest.raises(ValueError, match="one graph"):
            bte.bte_moment_curves(
                [random_instance(1, 0), random_instance(2, 0)], np.array([1.0]),
                [(0,)])


class TestRowIndependence:
    """Each temperature's values are those of its one-temperature call,
    whatever the rest of the pass holds."""

    @pytest.fixture
    def instance(self):
        # the golden L=3 instance: T = 0.085 runs in logs, the others linear
        H, _ = channel.sample_sector(core.Hamiltonian.uniform(core.build_chimera(3)),
                                     110, channel.stream(14, 0))
        return H, np.linspace(0.085, 4.0, 8), list(H.graph.edges)[::5]

    def test_bytes_do_not_depend_on_chunk_pieces_or_workers(self, instance,
                                                            arithmetics,
                                                            monkeypatch):
        H, temps, pairs = instance
        H2 = sa.inject_control_error(H, sa.ControlErrorSpec(), channel.stream(14, 1))
        curves = {
            "m": lambda H, t: bte.BteEngine().magnetization_curve(H, t),
            "c": lambda H, t: bte.bte_moment_curves([H], t, pairs)[0],
            "z": lambda H, t: bte.bte_log_partition_curve(H, t),
        }
        alone = {(name, k): np.concatenate([curve(G, temps[i:i + 1])
                                            for i in range(len(temps))])
                 for name, curve in curves.items() for k, G in enumerate((H, H2))}
        assert bte._LOG in arithmetics.ran and bte._LINEAR in arithmetics.ran
        order = bte.elimination_order(H.graph)
        for name, curve in curves.items():
            want = alone[name, 0]
            assert np.array_equal(curve(H, temps), want)
            # pieces dealt contiguously and interleaved
            assert np.array_equal(np.concatenate([curve(H, temps[:3]),
                                                  curve(H, temps[3:])]), want)
            for r in (0, 1):
                assert np.array_equal(curve(H, temps[r::2]), want[r::2])
        # chunks of 3, 3 and 2 within one call on one CPU, as a smaller
        # BUDGET cuts it
        with monkeypatch.context() as m:
            m.setattr(bte, "BUDGET", 3 * 8 * order.plan.entries)
            m.setattr(workers, "usable_cpus", lambda: 1)
            assert bte._jobs(order, len(temps), 1, 1) == (1, 3)
            for name, curve in curves.items():
                assert np.array_equal(curve(H, temps), alone[name, 0])
        # a batch on 1 to 8 threads: pieces of 8, 4, 3 and 1 temperatures
        eng = bte.BteEngine()
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
            assert np.array_equal(eng.moment_curves([H, H2], temps, spins(H)),
                                  [alone["m", 0], alone["m", 1]])
            assert np.array_equal(eng.moment_curves([H2, H], temps, pairs),
                                  [alone["c", 1], alone["c", 0]])

    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        # a corrupted 4x4 grid curve, T = 0.05 in logs; its single products
        # are large enough for OpenBLAS to split them across its threads
        code = """
import hashlib
import numpy as np
from isingdec import bte, channel, core, workers
H, _ = channel.sample_sector(core.Hamiltonian.uniform(core.build_chimera(4)), 200,
                             channel.stream(14, 0))
temps = np.linspace(0.05, 5.0, 6)
workers.usable_cpus = lambda: 2
for m in (bte.BteEngine().magnetization_curve(H, temps),
          bte.bte_moment_curves([H], temps, [(s,) for s in H.graph.spins])[0]):
    print(hashlib.sha256(m.tobytes()).hexdigest())
"""
        src = os.path.dirname(os.path.dirname(os.path.abspath(bte.__file__)))
        hashes = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       [src] + ([os.environ["PYTHONPATH"]]
                                if os.environ.get("PYTHONPATH") else []))}
            out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True).stdout
            hashes.update(out.split())
        assert len(hashes) == 1
