"""Golden SHA-256 pins of seeded outputs.

Each pin hashes the exact bytes of a seeded output, so a change to how a
random stream is consumed, to the element order or to float rounding fails
it. The cases use only the text format and `Hamiltonian.from_vectors` to read
and build instances: the text lists the fields in spin order, then the
couplers in edge order, with every value written by `repr`.
"""

import hashlib

import numpy as np
import pytest

from isingdec import bte, channel, core, sa


def sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode() if isinstance(part, str)
                      else np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def elements(H) -> np.ndarray:
    """(N+M,) element values of H, fields first and then couplers."""
    return np.array([float(line.split()[-1])
                     for line in core.format_hamiltonian(H).splitlines()
                     if line.startswith(("h ", "J "))])


def nominal(L, seed, excluded=frozenset(), alpha=1.0):
    g = core.build_chimera(L, excluded=excluded)
    rng = channel.stream(seed, 0)
    h = rng.choice([-1.0, 1.0], g.n_spins)
    j = rng.choice([-1.0, 1.0], g.n_edges)
    return core.Hamiltonian.from_vectors(g, h, j, alpha)


def corrupted(L, seed, **kw):
    clean = nominal(L, seed, **kw)
    return channel.corrupt(clean, 0.2, channel.stream(seed, 1))[0]


def channel_draws(draw, clean, args, rng):
    """Element values and flips (against `clean`) of successive draws."""
    parts = []
    for arg in args:
        H = draw(clean, arg, rng)[0]
        values = elements(H)
        parts += [values, values != elements(clean)]
    return sha(*parts)


def case_corrupt():
    return channel_draws(channel.corrupt, nominal(2, 101), (0.3, 0.05, 0.5),
                         channel.stream(101, 1))


def case_sample_sector():
    clean = nominal(2, 102)
    total = clean.graph.n_spins + clean.graph.n_edges
    return channel_draws(channel.sample_sector, clean, (0, 1, 17, total),
                         channel.stream(102, 1))


def case_inject_control_error():
    H = corrupted(2, 103)
    rng = channel.stream(103, 2)
    spec = sa.ControlErrorSpec(0.05, 0.03)
    return sha(*(elements(sa.inject_control_error(H, spec, rng))
                 for _ in range(3)))


def case_format_control_error():
    H = corrupted(1, 104, excluded=frozenset({5}), alpha=0.7)
    Hp = sa.inject_control_error(H, sa.ControlErrorSpec(0.05, 0.03),
                                 channel.stream(104, 2))
    return sha(core.format_hamiltonian(Hp))


def sweep(H, seed):
    schedule = sa.AnnealSchedule(t_start=6.0, t_end=0.5, total_updates=3000)
    curve = sa.sa_orientation_sweep(H, schedule, np.array([0.5, 2.0, 4.0]),
                                    16, channel.stream(seed, 3))
    return sha(curve.temperatures, curve.values)


def case_sweep():
    return sweep(corrupted(2, 105), 105)


def case_sweep_control_error():
    H = sa.inject_control_error(corrupted(2, 106),
                                sa.ControlErrorSpec(0.05, 0.03),
                                channel.stream(106, 2))
    return sweep(H, 106)


def case_sweep_excluded_alpha():
    H = sa.inject_control_error(
        corrupted(2, 107, excluded=frozenset({3, 12, 20}), alpha=0.5),
        sa.ControlErrorSpec(0.05, 0.03), channel.stream(107, 2))
    return sweep(H, 107)


def case_sweep_l4_checkpoint_in_block():
    # 3001 updates are not a whole number of 128-spin sweeps, and the ramp
    # first reaches 3.643 at update 1286 (position 6, inside the block of
    # positions 4-11) and 1.0 at update 2728 (position 40, block 36-43).
    H = sa.inject_control_error(corrupted(4, 108),
                                sa.ControlErrorSpec(0.05, 0.03),
                                channel.stream(108, 2))
    schedule = sa.AnnealSchedule(t_start=6.0, t_end=0.5, total_updates=3001)
    curve = sa.sa_orientation_sweep(H, schedule, np.array([0.5, 1.0, 3.643, 6.0]),
                                    16, channel.stream(108, 3))
    return sha(curve.temperatures, curve.values)


def bte_instance():
    # the corrupted L=3 instance of tests/test_bte.py's memory test; on the
    # grid below, T = 0.085 trips the linear pass's guard and runs in logs
    H, _ = channel.sample_sector(core.Hamiltonian.uniform(core.build_chimera(3)),
                                 110, channel.stream(14, 0))
    return H, np.linspace(0.085, 4.0, 8)


def case_bte_magnetization():
    H, temps = bte_instance()
    return sha(bte.bte_magnetization_curve(H, temps))


def case_bte_log_partition():
    H, temps = bte_instance()
    return sha(bte.bte_log_partition_curve(H, temps))


def case_bte_pair_correlation():
    H, temps = bte_instance()
    return sha(bte.bte_pair_correlation_curve(H, temps, list(H.graph.edges)[::5]))


def case_bte_sample():
    # T = 0.05 draws from the log arithmetic's tables, T = 1.5 from the
    # linear one's; the second instance has excluded spins and alpha != 1
    H, _ = bte_instance()
    excluded = corrupted(3, 109, excluded=frozenset({3, 12, 20}), alpha=0.7)
    rng = channel.stream(109, 3)
    return sha(*(bte.bte_sample(G, T, 64, rng)
                 for G in (H, excluded) for T in (1.5, 0.05)))


PINS = {
    case_corrupt:
        "b536526c083dc50233e7279f1d1437fb21bf53578d6a7b5a16b693a6a0ba7321",
    case_sample_sector:
        "a279425e7119e9ad2e7c8d77a1a116884ab38f907b371e2d22a245150cdcbaf9",
    case_inject_control_error:
        "5f3ff2f28c7a55bd3c8272b2cff1bd383cc8f97434817dba379b141e896724cd",
    case_format_control_error:
        "b9b2eff992004c2cdce82011fb29ceb1728d44c8b1fdd0061da959e7aafbccf3",
    case_sweep:
        "fe61dff01ed1b8ed1cc472cb7a9a44a7a09278423b4c10f610d01d125b48b6c9",
    case_sweep_control_error:
        "899159f21ba61ddfd887fee9dba5b69a9be746acf5503923067954a0f530bfe9",
    case_sweep_excluded_alpha:
        "1e6a09f28fa02ada5048172d65e4563889be7c424d1c2cfef9ae387dede7f4bb",
    case_sweep_l4_checkpoint_in_block:
        "87af7948eea500adc8feba0815107791a96e11fe4758c94193abf5506b2e148d",
    case_bte_magnetization:
        "c531eb307129b0e18d7b573a9e1b07dd60602325e2f444fa734e5c3e15526274",
    case_bte_log_partition:
        "68cd308894e4ef92c21a94d7c695d3c5938efb3b2f00650681ef8f59700f3fae",
    case_bte_pair_correlation:
        "d66eafef620866bd1f79c898d2f4a058c6116748730fddcbb696ca804497a21c",
    case_bte_sample:
        "58cf593b0c375b3363b8f5e1718d507c885f045325670ee139d0313690efe511",
}


@pytest.mark.parametrize("case", PINS, ids=lambda f: f.__name__[5:])
def test_golden(case):
    assert case() == PINS[case]


# the graphs of tests/test_bte.py's TestPlan
PLAN_GRAPHS = {
    **{f"L{L}": lambda L=L: core.build_chimera(L) for L in range(1, 5)},
    "L2-excluded": lambda: core.build_chimera(2, excluded=frozenset({3, 12, 20})),
    "truncated-cell": core.truncated_cell,
    "one-side": lambda: core.build_chimera(1, excluded={4, 5, 6, 7}),
}

# sha256 of each graph's memory plan: every slot (key, offset, entries,
# first and last step), sorted, and the arena's entries per temperature
PLAN_PINS = {
    "L1":
        "51487d62e3a3c0140aba6413401857c977efd97eae62fc3905270fd1387425f3",
    "L2":
        "936328c4ad0d8c9814366a4ef5512966c716fc881f572c5945c32b54babde5bd",
    "L3":
        "042da3173241539f8be21dabf8469f9bbec77c237908f0965b93203ac44e96e9",
    "L4":
        "b50cd2a5ff37e37ecaed21cf6ca6457e40efd1e3b5a585415be03ad30d0cb3ef",
    "L2-excluded":
        "56d7e4ea4a34b05536c06d40f29cfe596c0c60e8c5e28a074bcf345ed135b8bf",
    "truncated-cell":
        "7106847d5fa8c999256091c881da07b8fbb49ffadd461a34395b8dfab8080638",
    "one-side":
        "a3fff6a4541fd51c4b7095bb5d0a4299ded162c03ea3ca7f1aeff42533101088",
}


@pytest.mark.parametrize("name", PLAN_PINS)
def test_plan(name):
    plan = bte.elimination_order(PLAN_GRAPHS[name]()).plan
    assert sha(repr(sorted(plan.slots.items())), repr(plan.entries)) == PLAN_PINS[name]
