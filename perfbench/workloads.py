"""The benchmark's workloads: seeded configs and output checks.

Each workload is one `isingdec` command on a config made from the workload
seed. Its check reads the command's outputs and compares them with the
benchmark's own computations (brute-force enumeration of a K_{4,4} cell) or
with properties the method must have. Checks raise CheckError.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckError(Exception):
    """An output of the program is wrong."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _grid(config: dict) -> np.ndarray:
    return np.linspace(config["t_min"], config["t_max"], config["points"])


# ---------------------------------------------------------------------------
# independent K_{4,4} cell enumeration: spins 0-3 form side 0, 4-7 side 1

_CELL_EDGES = [(a, 4 + b) for a in range(4) for b in range(4)]
_CONFIGS = 2.0 * ((np.arange(256)[:, None] >> np.arange(8)) & 1) - 1.0  # (256, 8)


def _cell_energies(h: np.ndarray, j: np.ndarray, edges=_CELL_EDGES) -> np.ndarray:
    """Energies -h.s - J.ss of all 256 configurations; h (B, 8), j (B, 16)."""
    pairs = np.stack([_CONFIGS[:, a] * _CONFIGS[:, b] for a, b in edges], axis=1)
    return -(h @ _CONFIGS.T) - (j @ pairs.T)


def _thermal_means(energies: np.ndarray, temps) -> np.ndarray:
    """<sigma_i>(T) from (B, 256) energies: (B, n_temps, 8)."""
    shifted = energies - energies.min(axis=1, keepdims=True)
    out = np.empty((energies.shape[0], len(temps), 8))
    for t, T in enumerate(temps):
        w = np.exp(-shifted / T)
        out[:, t] = (w @ _CONFIGS) / w.sum(axis=1, keepdims=True)
    return out


def _decode_error(signs: np.ndarray) -> np.ndarray:
    """Per-spin error against the all-+1 word; an undecided spin counts 1/2."""
    return ((1.0 - signs) / 2.0).mean(axis=-1)


# ---------------------------------------------------------------------------
# cell-surface


def _surface_config(rng: np.random.Generator) -> dict:
    p = np.concatenate([rng.uniform(0.01, 0.03, 1), rng.uniform(0.03, 0.3, 3)])
    return {"t_min": float(rng.uniform(0.1, 0.3)),
            "t_max": float(rng.uniform(4.0, 6.0)),
            "points": 4, "p": sorted(float(x) for x in p)}


def _surface_text(c: dict) -> str:
    return (
        "# MPM/MAP BER surface of the nominal K_{4,4} cell, exact channel average\n"
        "[graph]\nl = 1\n"
        f"[grid]\nt_min = {c['t_min']!r}\nt_max = {c['t_max']!r}\npoints = {c['points']}\n"
        f"[channel]\np = {' '.join(repr(p) for p in c['p'])}\nmode = exhaustive\n")


_LOW_WEIGHT = 4  # corruption patterns of at most this many flips are enumerated


def _low_weight_bounds(p: float, t_decode: np.ndarray):
    """Bounds on r_mpm(T_decode) and r_map at channel p for one cell.

    Sums the exact error of every pattern with <= _LOW_WEIGHT flipped elements
    (of 24) times its probability; the unenumerated patterns add between 0
    and their total probability, since no decode errs on more than every spin.
    """
    n_el = 24
    masks = np.array([np.isin(np.arange(n_el), pos)
                      for s in range(_LOW_WEIGHT + 1)
                      for pos in itertools.combinations(range(n_el), s)])
    weight = masks.sum(axis=1)
    prob = p ** weight * (1.0 - p) ** (n_el - weight)
    signs = 1.0 - 2.0 * masks
    energies = _cell_energies(signs[:, :8], signs[:, 8:])

    ground = energies <= energies.min(axis=1, keepdims=True) + 1e-9
    map_err = _decode_error(np.sign(ground.astype(float) @ _CONFIGS))
    means = _thermal_means(energies, t_decode)
    mpm_signs = np.where(np.abs(means) < 1e-12, 0.0, np.sign(means))
    mpm_err = _decode_error(mpm_signs)                   # (B, n_t_decode)

    rest = 1.0 - prob.sum()
    lo_map, lo_mpm = prob @ map_err, prob @ mpm_err
    return (lo_mpm, lo_mpm + rest), (lo_map, lo_map + rest)


def _check_surface(out: Path, c: dict, seed: int) -> None:
    rows = _rows(out / "surface.csv")
    t_nish = sorted({float(r["t_nish"]) for r in rows})
    t_decode = sorted({float(r["t_decode"]) for r in rows})
    p_vals = [1.0 / (1.0 + math.exp(2.0 / t)) for t in t_nish]
    _require(np.allclose(p_vals, c["p"], rtol=1e-12, atol=0),
             f"T_Nish columns give p {p_vals}, config has {c['p']}")
    expected = np.unique(np.concatenate([_grid(c), t_nish]))
    _require(np.allclose(t_decode, expected, rtol=1e-12, atol=0)
             and len(rows) == len(t_decode) * len(t_nish),
             "decode grid is not the config grid joined with T_Nish")
    r_mpm = {(float(r["t_decode"]), float(r["t_nish"])): float(r["r_mpm"]) for r in rows}
    r_map = {float(r["t_nish"]): float(r["r_map"]) for r in rows}
    _require(all(0.0 <= v <= 0.5 for v in list(r_mpm.values()) + list(r_map.values())),
             "a bit error rate lies outside [0, 1/2]")
    tol = 1e-12
    for tn in t_nish:
        column = [r_mpm[td, tn] for td in t_decode]
        diag = r_mpm[tn, tn]
        _require(diag <= min(column) + tol,
                 f"T_Nish={tn}: r_mpm on the diagonal {diag} exceeds the column minimum "
                 f"{min(column)} (Nishimori optimality)")
        _require(diag <= r_map[tn] + tol,
                 f"T_Nish={tn}: r_mpm {diag} > r_map {r_map[tn]} on the diagonal")

    tn = t_nish[0]
    (lo_mpm, hi_mpm), (lo_map, hi_map) = _low_weight_bounds(p_vals[0], np.array(t_decode))
    _require(lo_map - tol <= r_map[tn] <= hi_map + tol,
             f"r_map {r_map[tn]} at p={p_vals[0]} outside [{lo_map}, {hi_map}]")
    for k, td in enumerate(t_decode):
        _require(lo_mpm[k] - tol <= r_mpm[td, tn] <= hi_mpm[k] + tol,
                 f"r_mpm {r_mpm[td, tn]} at T_decode={td}, p={p_vals[0]} outside "
                 f"[{lo_mpm[k]}, {hi_mpm[k]}]")


# ---------------------------------------------------------------------------
# class-transitions

_SMOOTHING_WINDOW = 5  # the CLI's running-average window for transitions


def _classes_config(rng: np.random.Generator) -> dict:
    return {"t_min": 0.05, "t_max": float(rng.uniform(4.5, 5.5)), "points": 200,
            "sample": int(rng.integers(2**32))}


def _classes_text(c: dict) -> str:
    return (
        "# spin-sign transitions of all canonical K_{4,4} cell classes, exact engine\n"
        "[graph]\nl = 1\nengine = exact\n"
        f"[grid]\nt_min = {c['t_min']!r}\nt_max = {c['t_max']!r}\npoints = {c['points']}\n"
        "[ensemble]\nclasses = true\n")


def _check_classes(out: Path, c: dict, seed: int) -> None:
    rows = _rows(out / "transitions.csv")
    by_class: dict[str, dict[int, dict]] = {}
    for r in rows:
        by_class.setdefault(r["instance"], {})[int(r["item"])] = r
    _require(len(by_class) == 192, f"{len(by_class)} classes, expected 192")
    _require(all(sorted(spins) == list(range(8)) for spins in by_class.values())
             and len(rows) == 192 * 8, "a class does not list each of its 8 spins once")
    for r in rows:
        temps = r["transition_temps"].split()
        _require(int(r["n_transitions"]) == len(temps) <= 1,
                 f"{r['instance']} spin {r['item']}: {len(temps)} transitions")

    grid = _grid(c)
    half = _SMOOTHING_WINDOW // 2
    rng = np.random.default_rng(c["sample"])
    for label in rng.choice(sorted(by_class), size=8, replace=False):
        word = int(label.split("-")[1])
        j = np.array([[-1.0 if (word >> (15 - t)) & 1 else 1.0 for t in range(16)]])
        means = _thermal_means(_cell_energies(np.ones((1, 8)), j), grid)[0]
        for spin, r in by_class[label].items():
            m = means[:, spin]
            if r["excluded"] == "0":
                _require(int(r["sigma_low"]) == np.sign(m[0]),
                         f"{label} spin {spin}: sigma_low {r['sigma_low']}, <sigma>={m[0]}")
            for t in map(float, r["transition_temps"].split()):
                k = int(np.clip(np.searchsorted(grid, t) - 1, 0, len(grid) - 2))
                lo, hi = max(k - half, 0), min(k + half, len(grid) - 2)
                window = m[lo:hi + 2]
                _require(np.any(window[:-1] * window[1:] <= 0),
                         f"{label} spin {spin}: transition at T={t} but <sigma> keeps "
                         f"its sign on grid points {lo}..{hi + 1}")


# ---------------------------------------------------------------------------
# control-error-plow

_SAMPLER_T = 1.5
_FLIPS = 200


def _plow_config(rng: np.random.Generator) -> dict:
    return {"t_min": 0.05, "t_max": 5.0, "points": 6}


def _plow_text(c: dict) -> str:
    return (
        "# P_low vs transition temperature under 5%/3% Gaussian control error,\n"
        "# after presets/control-error-transitions.cfg at a coarser grid\n"
        "[graph]\nl = 4\nalpha = 1.0\nengine = bte\n"
        f"[channel]\nflips = {_FLIPS}\n[ensemble]\ninstances = 1\n"
        f"[grid]\nt_min = {c['t_min']!r}\nt_max = {c['t_max']!r}\npoints = {c['points']}\n"
        f"[plow]\nn_run = 1000\nsampler_temperature = {_SAMPLER_T!r}\n"
        "[control]\nsigma_h = 0.05\nsigma_j = 0.03\nrealizations = 1\n")


def _check_plow(out: Path, c: dict, seed: int) -> None:
    from isingdec import channel
    from isingdec.bte import BteEngine
    from isingdec.core import Hamiltonian, build_chimera, gauge_transform

    rows = _rows(out / "plow.csv")
    fit = json.loads((out / "fit.json").read_text())
    _require(fit["n_points"] == len(rows) >= 3, "fit.json n_points != plow.csv rows")
    _require(all(0.0 <= float(r["p_low"]) <= 1.0 for r in rows), "P_low outside [0, 1]")
    _require(all(c["t_min"] <= float(r["t_trans"]) <= c["t_max"] for r in rows),
             "a transition temperature lies outside the grid")
    _require(math.isfinite(fit["width"]) and fit["width"] > 0
             and math.isfinite(fit["center"]), f"logistic fit {fit}")

    engine = BteEngine()
    rng = np.random.default_rng([seed, 1])
    clean = Hamiltonian.uniform(build_chimera(4))
    H = channel.sample_sector(clean, _FLIPS, channel.stream(seed, 10, 0))[0]
    flip = frozenset(s for s in H.graph.spins if rng.random() < 0.5)
    m = engine.magnetization_curve(H, np.array([_SAMPLER_T]))[0]
    m_gauge = engine.magnetization_curve(gauge_transform(H, flip),
                                         np.array([_SAMPLER_T]))[0]
    sign = np.array([-1.0 if s in flip else 1.0 for s in H.graph.spins])
    err = np.abs(m_gauge - sign * m).max()
    _require(err <= 1e-9, f"BTE is not gauge covariant: max deviation {err}")

    cell = build_chimera(1)
    temps = np.array([0.5, _SAMPLER_T, 3.0])
    for _ in range(3):
        h = rng.choice([-1.0, 1.0], 8) + 0.05 * rng.standard_normal(8)
        j = rng.choice([-1.0, 1.0], 16) + 0.03 * rng.standard_normal(16)
        H = Hamiltonian.from_vectors(cell, h, j)
        ref = _thermal_means(_cell_energies(h[None], j[None], cell.edges), temps)[0]
        err = np.abs(engine.magnetization_curve(H, temps) - ref).max()
        _require(err <= 1e-9, f"BTE differs from enumeration by {err} on a cell")


# ---------------------------------------------------------------------------
# anneal-vs-bte

_RUNS = 500
_UPDATES = 40_000
_CHECKPOINTS = (1.405, 6.0, 9.0)
# at equilibrium a spin leaves the 4-sigma band with probability 6.3e-5, so
# 3 or more of 128 spins outside it at one checkpoint has probability ~1e-7
_MAX_OUTSIDE = 2


def _anneal_config(rng: np.random.Generator) -> dict:
    return {}


def _anneal_text(c: dict) -> str:
    return (
        "# simulated annealing of a corrupted 4x4 instance vs exact BTE references\n"
        "[graph]\nl = 4\nalpha = 1.0\nengine = bte\n"
        f"[channel]\nflips = {_FLIPS}\n[ensemble]\ninstances = 1\n"
        f"[sa]\nt_start = 10.0\nt_end = 1.405\nupdates = {_UPDATES}\nruns = {_RUNS}\n"
        f"checkpoints = {' '.join(map(repr, _CHECKPOINTS))}\n")


def _check_anneal(out: Path, c: dict, seed: int) -> None:
    rows = _rows(out / "deviation.csv")
    summary = json.loads((out / "summary.json").read_text())
    _require(summary["n_runs"] == _RUNS and summary["total_updates"] == _UPDATES,
             f"summary.json {summary} does not echo the config")
    temps = sorted({float(r["temperature"]) for r in rows})
    _require(np.allclose(temps, sorted(_CHECKPOINTS), rtol=1e-12, atol=0)
             and len(rows) == len(temps) * 128, "deviation.csv misses checkpoints or spins")
    outside: dict[float, int] = {t: 0 for t in temps}
    for r in rows:
        sa_mean, ref = float(r["sa_mean"]), float(r["reference"])
        ups = sa_mean * _RUNS
        _require(abs(ups - round(ups)) < 1e-6 and round(ups) % 2 == _RUNS % 2,
                 f"sa_mean {sa_mean} is not a mean of {_RUNS} spins")
        band = 4.0 * math.sqrt(max(1.0 - ref * ref, 0.0) / _RUNS)
        dev = sa_mean - ref
        _require(abs(float(r["deviation"]) - dev) <= 1e-12
                 and abs(float(r["band_4sigma"]) - band) <= 1e-12,
                 f"row {r}: deviation or band disagrees with sa_mean and reference")
        within = abs(dev) <= band
        _require(int(r["within"]) == within, f"row {r}: within flag is wrong")
        outside[float(r["temperature"])] += not within
    off = [t for t, n in outside.items() if n]
    _require(summary["all_within_band"] == (not off)
             and summary["deviation_onset_temperature"] == (max(off) if off else None),
             f"summary.json {summary} disagrees with deviation.csv")
    for t in temps[-2:]:
        _require(outside[t] <= _MAX_OUTSIDE,
                 f"{outside[t]} spins outside the 4-sigma band at checkpoint T={t}")


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    command: str
    make: Callable[[np.random.Generator], dict]
    text: Callable[[dict], str]
    check: Callable[[Path, dict, int], None]


WORKLOADS = {
    "cell-surface": Workload("surface", _surface_config, _surface_text, _check_surface),
    "class-transitions": Workload("transitions", _classes_config, _classes_text,
                                  _check_classes),
    "control-error-plow": Workload("plow-fit", _plow_config, _plow_text, _check_plow),
    "anneal-vs-bte": Workload("sa-compare", _anneal_config, _anneal_text, _check_anneal),
}
