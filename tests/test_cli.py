import csv
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

from isingdec import bte, cli, core, exact, sa, workers


def run(argv):
    return cli.main(argv)


# [graph] alpha values that each once left a command as an internal error
ALPHAS = ["0", "-1", "nan", "inf"]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_unknown_key_has_line_number(self, tmp_path):
        cfg = write(tmp_path, "bad.cfg", "[graph]\nl = 1\nbogus = 3\n")
        with pytest.raises(cli.ConfigError, match=r"bad\.cfg:3"):
            cli.load_config(cfg)

    def test_duplicate_key(self, tmp_path):
        cfg = write(tmp_path, "dup.cfg", "[graph]\nl = 1\nl = 2\n")
        with pytest.raises(cli.ConfigError, match=r"dup\.cfg:3.*duplicate"):
            cli.load_config(cfg)

    def test_bad_value(self, tmp_path):
        cfg = write(tmp_path, "val.cfg", "[graph]\nl = one\n")
        with pytest.raises(cli.ConfigError, match=r"val\.cfg:2.*bad value"):
            cli.load_config(cfg)

    def test_missing_equals(self, tmp_path):
        cfg = write(tmp_path, "eq.cfg", "[graph]\njust a line\n")
        with pytest.raises(cli.ConfigError, match=r"eq\.cfg:2"):
            cli.load_config(cfg)

    def test_comments_and_case(self, tmp_path):
        cfg = write(tmp_path, "ok.cfg",
                    "# comment\n[Graph]\nL = 2\n\n[run]\nseed = 5\n")
        config = cli.load_config(cfg)
        assert config["graph.l"] == 2
        assert config["run.seed"] == 5

    def test_missing_file_is_config_error_exit(self, tmp_path, capsys):
        rc = run(["validate", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        cfg = write(tmp_path, "v.cfg", "[graph]\nl = 1\n[run]\nseed = 1\n")
        assert run(["validate", "--config", str(cfg)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_seed_required(self, tmp_path):
        cfg = write(tmp_path, "v.cfg", "[graph]\nl = 1\n")
        assert run(["validate", "--config", str(cfg)]) == 2
        assert run(["validate", "--config", str(cfg), "--seed", "3"]) == 0

    def test_negative_seed_rejected(self, tmp_path):
        cfg = write(tmp_path, "v.cfg", "[graph]\nl = 1\n")
        assert run(["validate", "--config", str(cfg), "--seed", "-1"]) == 2

    @pytest.mark.parametrize("settings, command, message", [
        ({"graph.hamiltonian": "missing.txt"}, "ber", "missing.txt: [Errno 2]"),
        ({"graph.engine": "foo"}, "transitions",
         "unknown graph.engine 'foo': use exact or bte"),
        ({"grid.points": "0"}, "surface", "grid.points must be >= 1"),
        ({"sa.t_start": "2.0", "sa.t_end": "5.0"}, "sa-compare",
         "[sa] t_end must not exceed t_start"),
        ({"sa.checkpoints": "0.4"}, "sa-compare",
         "sa.checkpoints must lie within the schedule range"),
        ({"channel.flips": "99"}, "transitions",
         "channel.flips must lie in [0, 24], got 99"),
    ], ids=["missing-hamiltonian-file", "unknown-engine", "no-grid-points",
            "t-end-above-t-start", "checkpoint-below-t-end", "flips-above-elements"])
    def test_refuses_what_a_command_refuses(self, tmp_path, capsys, settings,
                                            command, message):
        sections = {"graph": {"l": "1"}, "grid": {"points": "6"},
                    "channel": {"p": "0.1"}}
        for key, value in settings.items():
            section, name = key.split(".")
            sections.setdefault(section, {})[name] = value
        cfg = write(tmp_path, "v.cfg", "".join(
            f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for s, keys in sections.items()))
        for argv in (["validate"], [command, "--out", str(tmp_path / "o")]):
            assert run(argv + ["--config", str(cfg), "--seed", "1"]) == 2
            assert f"config error: {message}" in capsys.readouterr().err


class TestOutputDirectory:
    @pytest.mark.parametrize("command", ["surface", "validate"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_file_in_the_way_is_config_error(self, tmp_path, capsys, command,
                                             under, source):
        # FileExistsError and NotADirectoryError here were internal errors
        taken = write(tmp_path, "taken", "")
        out = taken / "sub" if under else taken
        text = COMMAND_CONFIGS["surface"]
        argv = [command, "--seed", "1"]
        if source == "flag":
            argv += ["--out", str(out)]
        else:
            text += f"[run]\nout = {out}\n"
        cfg = write(tmp_path, "c.cfg", text)
        assert run(argv + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {out}: {taken} is not a directory\n")

    def test_validate_makes_no_directory(self, tmp_path, capsys):
        out = tmp_path / "vnew"
        cfg = write(tmp_path, "c.cfg", f"[run]\nseed = 1\nout = {out}\n"
                    "[graph]\nl = 1\n")
        assert run(["validate", "--config", str(cfg)]) == 0
        assert "config ok" in capsys.readouterr().out
        assert not out.exists()

    def test_failed_mkdir_is_config_error(self, tmp_path, capsys, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise PermissionError("Permission denied")

        monkeypatch.setattr(Path, "mkdir", refuse)
        out = tmp_path / "new"
        cfg = write(tmp_path, "c.cfg", COMMAND_CONFIGS["surface"])
        assert run(["surface", "--config", str(cfg), "--seed", "1",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {out}: Permission denied\n")

    def test_too_few_transition_points_leave_no_directory(self, tmp_path,
                                                          capsys):
        # the refusal comes after all of plow-fit's engine work; the
        # directory is made only once there are outputs to write
        out = tmp_path / "o"
        cfg = write(tmp_path, "c.cfg", "[graph]\nl = 1\nexclude = 3 7 6\n"
                    "[grid]\npoints = 5\n[channel]\np = 0.1\n"
                    "[plow]\nsampler_temperature = 1.5\n")
        assert run(["plow-fit", "--config", str(cfg), "--seed", "1",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: too few transition points for a fit\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "transitions", "plow-fit",
                                         "sa-compare"])
    @pytest.mark.parametrize("graph, message", [
        ("l = 2", "32 spins exceeds the exhaustive cap 25"),
        ("l = 6\nengine = bte", "induced width 24: one temperature needs at "
         "least 39782133744 bytes of tables"),
    ], ids=["exact-l2", "bte-l6"])
    def test_capacity_is_refused_before_any_work(self, tmp_path, capsys,
                                                 monkeypatch, command, graph,
                                                 message):
        # the engine checks the instances' graph before any curve or anneal
        def no_work(*args, **kwargs):
            raise AssertionError("worked before the capacity check")

        for module, name in [(sa, "_run_batch"), (exact, "moment_curves"),
                             (bte, "bte_moment_curves")]:
            monkeypatch.setattr(module, name, no_work)
        out = tmp_path / "o"
        cfg = write(tmp_path, "c.cfg", f"[graph]\n{graph}\n[grid]\npoints = 10\n"
                    "[channel]\nflips = 6\n[plow]\nsampler_temperature = 1.5\n"
                    "[sa]\nupdates = 3000000\nruns = 200\n")
        assert run([command, "--config", str(cfg), "--seed", "1",
                    "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"capacity error: {message}\n"
        assert not out.exists()


# every command but validate that reads a key; validate checks them all
INSTANCE_COMMANDS = ["transitions", "plow-fit", "sa-compare"]
GRAPH_COMMANDS = ["ber", "surface", *INSTANCE_COMMANDS]
GRID_COMMANDS = ["surface", "transitions", "plow-fit"]
READERS = {
    "run.seed": ["canonicalize", *GRAPH_COMMANDS],
    "graph.l": GRAPH_COMMANDS,
    "graph.alpha": GRAPH_COMMANDS,
    "graph.engine": INSTANCE_COMMANDS,
    "grid.t_min": GRID_COMMANDS,
    "grid.t_max": GRID_COMMANDS,
    "grid.points": GRID_COMMANDS,
    "channel.p": GRAPH_COMMANDS,
    "channel.mode": ["ber", "surface"],
    "channel.flips": INSTANCE_COMMANDS,
    "ensemble.instances": INSTANCE_COMMANDS,
    "sa.t_start": ["sa-compare"],
    "sa.t_end": ["sa-compare"],
    "sa.updates": ["sa-compare"],
    "sa.runs": ["sa-compare"],
    "sa.checkpoints": ["sa-compare"],
    "control.sigma_h": ["plow-fit", "sa-compare"],
    "control.sigma_j": ["plow-fit", "sa-compare"],
    "control.realizations": ["plow-fit", "sa-compare"],
    "plow.n_run": ["plow-fit"],
    "plow.sampler_temperature": ["plow-fit"],
}

# a config every command runs: the key under test replaces or joins these
SCHEMA_BASE = {
    "run": {"seed": "1"},
    "graph": {"l": "1", "exclude": "3 7 6"},
    "grid": {"points": "5"},
    "channel": {"p": "0.1"},
    "ensemble": {"instances": "8"},
    "plow": {"sampler_temperature": "1.5"},
    "sa": {"updates": "200", "runs": "5", "checkpoints": "1.5 4.0"},
}


def positive(key, value):
    return f"{key} must be positive and finite, got {float(value)!r}"


OUT_OF_DOMAIN = [
    ("run.seed", "-1", "run.seed must be >= 0, got -1"),
    ("graph.l", "0", "graph.l must be >= 1, got 0"),
    *[("graph.alpha", v, positive("graph.alpha", v)) for v in ALPHAS],
    ("graph.engine", "foo", "unknown graph.engine 'foo': use exact or bte"),
    ("grid.points", "0", "grid.points must be >= 1, got 0"),
    ("grid.t_min", "nan", positive("grid.t_min", "nan")),
    ("grid.t_min", "-0.5", positive("grid.t_min", "-0.5")),
    ("grid.t_max", "inf", positive("grid.t_max", "inf")),
    ("grid.t_max", "nan", positive("grid.t_max", "nan")),
    *[("channel.p", v, f"channel.p must list one or more values in [0, 1], got {p}")
      for v, p in [("1.5", "[1.5]"), ("", "[]"), ("0.1 1.5", "[0.1, 1.5]")]],
    *[("channel.mode", v, f"unknown channel.mode '{v}': use exhaustive")
      for v in ["bogus", "sampled"]],
    ("channel.flips", "-1", "channel.flips must be >= 0, got -1"),
    ("ensemble.instances", "0", "ensemble.instances must be >= 1, got 0"),
    ("sa.t_start", "nan", positive("sa.t_start", "nan")),
    ("sa.t_end", "0.0", positive("sa.t_end", "0.0")),
    ("sa.updates", "0", "sa.updates must be >= 1, got 0"),
    ("sa.runs", "0", "sa.runs must be >= 1, got 0"),
    ("sa.runs", "-3", "sa.runs must be >= 1, got -3"),
    ("sa.checkpoints", "", "sa.checkpoints must list at least one temperature, got []"),
    ("control.realizations", "-1", "control.realizations must be >= 0, got -1"),
    ("control.sigma_h", "-0.1", "control.sigma_h must be finite and >= 0, got -0.1"),
    ("control.sigma_j", "inf", "control.sigma_j must be finite and >= 0, got inf"),
    ("plow.n_run", "0", "plow.n_run must be >= 1, got 0"),
    *[("plow.sampler_temperature", v, positive("plow.sampler_temperature", v))
      for v in ["-1.0", "nan", "inf"]],
]


def config_lines(sections):
    return [line for s, keys in sections.items()
            for line in [f"[{s}]", *(f"{k} = {v}" for k, v in keys.items())]]


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_schema_base_config_runs(tmp_path, command):
    cfg = write(tmp_path, "c.cfg", "\n".join(config_lines(SCHEMA_BASE)) + "\n")
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("key, value, message", OUT_OF_DOMAIN,
                         ids=[f"{k}={v}" for k, v, _ in OUT_OF_DOMAIN])
def test_out_of_domain_value_is_refused_when_read(tmp_path, capsys, key, value,
                                                  message):
    # validate and every command that reads the key refuse it alike, with
    # its line, before any output; each once took its own check in a command
    sections = {s: dict(keys) for s, keys in SCHEMA_BASE.items()}
    section, name = key.split(".")
    sections.setdefault(section, {})[name] = value
    lines = config_lines(sections)
    cfg = write(tmp_path, "c.cfg", "\n".join(lines) + "\n")
    lineno = lines.index(f"{name} = {value}") + 1
    for command in ["validate", *READERS[key]]:
        out = tmp_path / command
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way
            assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {message} ({cfg}:{lineno})\n", command
        assert not out.exists(), command


class TestBer:
    def make_cfg(self, tmp_path, out):
        # truncated unit cell keeps the exhaustive channel average cheap
        return write(tmp_path, "ber.cfg", f"""
[run]
seed = 7
out = {out}
[graph]
l = 1
exclude = 3 7 6
[channel]
p = 0.1 0.2
""")

    def test_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        cfg = self.make_cfg(tmp_path, out)
        assert run(["ber", "--config", str(cfg)]) == 0
        text = (out / "ber.csv").read_text()
        assert text.splitlines()[0] == "p,t_nish,r_map,r_mpm,ratio,std"
        assert len(text.splitlines()) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "ber"
        assert manifest["seed"] == 7
        assert "ber.csv" in manifest["outputs"]

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = self.make_cfg(tmp_path, out1)
        assert run(["ber", "--config", str(cfg)]) == 0
        assert run(["ber", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "ber.csv").read_bytes() == (out2 / "ber.csv").read_bytes()

    def test_bad_probability(self, tmp_path):
        cfg = write(tmp_path, "p.cfg",
                    "[run]\nseed = 1\n[graph]\nl = 1\nexclude = 3 7 6\n"
                    "[channel]\np = 0.6\n")
        assert run(["ber", "--config", str(cfg), "--out",
                    str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", ["ber", "surface"])
    @pytest.mark.parametrize("channel, message", [
        ("mode = bogus", "unknown channel.mode 'bogus'"),
        ("mode = sampled", "unknown channel.mode 'sampled'"),
        ("samples_per_sector = 5", "unknown key [channel] samples_per_sector"),
        ("bootstrap = 5", "unknown key [channel] bootstrap"),
        ("p = 0.7", "channel.p values must lie in"),
    ], ids=["unknown-mode", "sampled-without-samples", "removed-samples-key",
            "removed-bootstrap-key", "bad-p"])
    def test_bad_channel_is_config_error(self, tmp_path, capsys, command,
                                         channel, message):
        if not channel.startswith("p ="):
            channel = "p = 0.1\n" + channel
        cfg = write(tmp_path, "m.cfg",
                    "[run]\nseed = 1\n[graph]\nl = 1\nexclude = 3 7 6\n"
                    f"[grid]\npoints = 5\n[channel]\n{channel}\n")
        assert run([command, "--config", str(cfg), "--out",
                    str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err


class TestCodewordFile:
    """surface and ber take any codeword Hamiltonian file (h_i = sigma_i,
    J_ij = sigma_i sigma_j), a gauge transform of the all-+1 instance."""

    def surface_csv(self, tmp_path, name, graph_section):
        cfg = write(tmp_path, f"{name}.cfg",
                    f"[graph]\n{graph_section}[grid]\nt_min = 0.5\n"
                    "t_max = 3.0\npoints = 6\n[channel]\np = 0.05 0.2\n")
        assert run(["surface", "--config", str(cfg), "--seed", "1", "--out",
                    str(tmp_path / name)]) == 0
        return (tmp_path / name / "surface.csv").read_bytes()

    def test_gauged_cell_equals_uniform_cell(self, tmp_path):
        gauged = core.gauge_transform(
            core.Hamiltonian.uniform(core.build_chimera(1)), {0, 5})
        ham = write(tmp_path, "h.txt", core.format_hamiltonian(gauged))
        assert (self.surface_csv(tmp_path, "gauged", f"hamiltonian = {ham}\n")
                == self.surface_csv(tmp_path, "uniform", "l = 1\n"))

    @pytest.mark.parametrize("command", ["ber", "surface"])
    def test_one_flipped_coupler_is_config_error(self, tmp_path, capsys,
                                                 command):
        gauged = core.gauge_transform(
            core.Hamiltonian.uniform(core.build_chimera(1)), {0, 5})
        J = gauged.J.copy()
        J[3] *= -1
        H = core.Hamiltonian(gauged.graph, gauged.h, J)
        ham = write(tmp_path, "h.txt", core.format_hamiltonian(H))
        cfg = write(tmp_path, "c.cfg", f"[graph]\nhamiltonian = {ham}\n"
                    "[grid]\npoints = 5\n[channel]\np = 0.1\n")
        assert run([command, "--config", str(cfg), "--seed", "1", "--out",
                    str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "codeword" in err

    @pytest.mark.parametrize("command", ["ber", "surface"])
    def test_cell_without_couplers_has_r_equal_p(self, tmp_path, command):
        # isolated spins: every flipped field is one wrong bit, decoded or not
        cfg = write(tmp_path, "c.cfg", "[graph]\nl = 1\nexclude = 4 5 6 7\n"
                    "[grid]\npoints = 4\n[channel]\np = 0.05 0.2\n")
        out = tmp_path / "o"
        assert run([command, "--config", str(cfg), "--seed", "1", "--out",
                    str(out)]) == 0
        with open(out / f"{command}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == (2 if command == "ber" else 12)
        for row in rows:
            # p back from its Nishimori temperature, T = 2 / ln((1 - p) / p)
            p = 1.0 / (1.0 + math.exp(2.0 / float(row["t_nish"])))
            assert float(row["r_map"]) == pytest.approx(p, abs=1e-12)
            assert float(row["r_mpm"]) == pytest.approx(p, abs=1e-12)

    @pytest.mark.parametrize("command", ["ber", "surface", "validate"])
    @pytest.mark.parametrize("graph, message", [
        ("exclude = 0 1 2 3 4 5 6 7", "[graph] exclude leaves no spin"),
        ("exclude = 3 99", "[graph] excluded spin 99 out of range [0, 8)"),
        ("l = 0", "graph.l must be >= 1, got 0"),
    ] + [(f"alpha = {v}", f"graph.alpha must be positive and finite, got {float(v)!r}")
         for v in ALPHAS], ids=["no-spins", "spin-out-of-range", "no-cells"]
        + [f"alpha-{v}" for v in ALPHAS])
    def test_bad_graph_is_config_error(self, tmp_path, capsys, command, graph,
                                       message):
        cfg = write(tmp_path, "c.cfg", f"[graph]\n{graph}\n"
                    "[grid]\npoints = 4\n[channel]\np = 0.05 0.2\n")
        out = tmp_path / "o"
        assert run([command, "--config", str(cfg), "--seed", "1", "--out",
                    str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ber", "surface"])
    def test_multi_cell_graph_is_capacity_error(self, tmp_path, command):
        cfg = write(tmp_path, "c.cfg", "[graph]\nl = 2\n[grid]\npoints = 5\n"
                    "[channel]\np = 0.1\n")
        assert run([command, "--config", str(cfg), "--seed", "1", "--out",
                    str(tmp_path / "o")]) == 3


PRESETS = sorted((Path(cli.__file__).parent / "presets").glob("*.cfg"))


@pytest.mark.parametrize("preset", PRESETS, ids=[p.stem for p in PRESETS])
def test_preset_validates(preset, capsys):
    assert run(["validate", "--config", str(preset)]) == 0
    assert "config ok" in capsys.readouterr().out


class TestTransitions:
    def test_classes_mode(self, tmp_path):
        out = tmp_path / "out"
        cfg = write(tmp_path, "t.cfg", f"""
[run]
seed = 3
out = {out}
[graph]
engine = exact
[grid]
points = 40
t_max = 6.0
[ensemble]
classes = true
""")
        assert run(["transitions", "--config", str(cfg)]) == 0
        lines = (out / "transitions.csv").read_text().splitlines()
        assert lines[0].startswith("instance,")
        labels = {row.split(",")[0] for row in lines[1:]}
        assert len(labels) == 192

    def test_capacity_exit_code(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", """
[run]
seed = 3
[graph]
l = 4
engine = exact
[grid]
points = 10
[channel]
flips = 20
""")
        assert run(["transitions", "--config", str(cfg), "--out",
                    str(tmp_path / "o")]) == 3

    def test_short_grid_rejected(self, tmp_path):
        cfg = write(tmp_path, "g.cfg",
                    "[run]\nseed = 1\n[grid]\npoints = 3\n")
        assert run(["transitions", "--config", str(cfg), "--out",
                    str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", ["transitions", "plow-fit"])
    def test_repeated_grid_temperature_is_config_error(self, tmp_path, capsys,
                                                       command):
        cfg = write(tmp_path, "g.cfg",
                    "[run]\nseed = 1\n[grid]\nt_min = 2.0\nt_max = 2.0\n"
                    "points = 10\n[plow]\nsampler_temperature = 1.5\n")
        assert run([command, "--config", str(cfg), "--out",
                    str(tmp_path / "o")]) == 2
        assert "no room for grid.points distinct temperatures" in capsys.readouterr().err

    def test_surface_merges_repeated_grid_temperatures(self, tmp_path):
        # surface decodes on the grid and the Nishimori temperatures merged,
        # so a grid that repeats a temperature is not an error there
        cfg = write(tmp_path, "s.cfg",
                    "[graph]\nl = 1\nexclude = 3\n[grid]\nt_min = 1.0\n"
                    "t_max = 1.0\npoints = 3\n[channel]\np = 0.1 0.2\n")
        assert run(["surface", "--config", str(cfg), "--seed", "1", "--out",
                    str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("command, section, message", [
        pytest.param(command, section, message, id=f"{name}-{command}")
        for name, section, message in [
            ("flips-above-elements", "[channel]\nflips = 25",
             "channel.flips must lie in [0, 24], got 25"),
            ("negative-flips", "[channel]\nflips = -1",
             "channel.flips must be >= 0, got -1"),
        ]
        for command in ("transitions", "plow-fit", "sa-compare")
    ] + [pytest.param("plow-fit", "[channel]\nflips = 4\n[plow]\nn_run = 0",
                      "plow.n_run must be >= 1", id="zero-n-run-plow-fit")] + [
        pytest.param(command, f"[channel]\nflips = 4\n[graph]\nalpha = {v}",
                     f"graph.alpha must be positive and finite, got {float(v)!r}",
                     id=f"alpha-{v}-{command}")
        for v in ALPHAS for command in ("transitions", "plow-fit", "sa-compare")])
    def test_bad_instance_value_is_config_error(self, tmp_path, capsys, command,
                                                section, message):
        # each of these once left the command as an internal error (exit 4)
        cfg = write(tmp_path, "c.cfg",
                    "[run]\nseed = 1\n[grid]\npoints = 10\n[plow]\n"
                    "sampler_temperature = 1.5\n[sa]\nupdates = 200\nruns = 5\n"
                    f"{section}\n")
        assert run([command, "--config", str(cfg), "--out",
                    str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["transitions", "plow-fit", "sa-compare"])
    @pytest.mark.parametrize("channel", ["flips = 3", "p = 0.1"],
                             ids=["flips", "p"])
    def test_non_nominal_file_is_config_error(self, tmp_path, capsys, command,
                                              channel):
        # sample_sector and corrupt raised ValueError here (exit 4)
        H = core.Hamiltonian.uniform(core.build_chimera(1))
        text = core.format_hamiltonian(H).replace("h 0 1.0", "h 0 0.5")
        ham = write(tmp_path, "h.txt", text)
        cfg = write(tmp_path, "c.cfg",
                    f"[run]\nseed = 1\n[graph]\nhamiltonian = {ham}\n"
                    "[grid]\npoints = 10\n[plow]\nsampler_temperature = 1.5\n"
                    f"[sa]\nupdates = 200\nruns = 5\n[channel]\n{channel}\n")
        assert run([command, "--config", str(cfg), "--out",
                    str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "h.txt: the channel needs a nominal instance" in err

    @pytest.mark.parametrize("command", ["validate", "ber", "surface"])
    def test_non_nominal_file_is_refused_by_every_reader(self, tmp_path, capsys,
                                                         command):
        # validate printed "config ok" for it, ber and surface refused it as
        # no codeword instance
        H = core.Hamiltonian.uniform(core.build_chimera(1))
        text = core.format_hamiltonian(H).replace("h 0 1.0", "h 0 0.5")
        ham = write(tmp_path, "h.txt", text)
        cfg = write(tmp_path, "c.cfg",
                    f"[run]\nseed = 1\n[graph]\nhamiltonian = {ham}\n"
                    "[grid]\npoints = 10\n[channel]\np = 0.1\n")
        out = tmp_path / "o"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {ham}: the channel needs a nominal instance, "
            "h and J in {-1, +1}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "ber", "surface"])
    def test_non_codeword_file_is_refused_where_channel_p_is_read(self, tmp_path,
                                                                  capsys, command):
        # nominal, but J_04 != h_0 h_4: validate printed "config ok" for it
        # while ber and surface refused it
        H = core.Hamiltonian.uniform(core.build_chimera(1))
        text = core.format_hamiltonian(H).replace("J 0 4 1.0", "J 0 4 -1.0")
        ham = write(tmp_path, "h.txt", text)
        cfg = write(tmp_path, "c.cfg",
                    f"[run]\nseed = 1\n[graph]\nhamiltonian = {ham}\n"
                    "[grid]\npoints = 10\n[channel]\np = 0.1\n")
        out = tmp_path / "o"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {ham}: exact sector means need a codeword instance "
            "(h_i = +-1, J_ij = h_i h_j)\n")
        assert not out.exists()

    def test_non_codeword_file_serves_transitions(self, tmp_path, capsys):
        # the same file without channel.p: validate and transitions take it
        H = core.Hamiltonian.uniform(core.build_chimera(1))
        text = core.format_hamiltonian(H).replace("J 0 4 1.0", "J 0 4 -1.0")
        ham = write(tmp_path, "h.txt", text)
        cfg = write(tmp_path, "c.cfg",
                    f"[run]\nseed = 1\n[graph]\nhamiltonian = {ham}\n"
                    "[grid]\npoints = 10\n")
        assert run(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == "config ok\n"
        out = tmp_path / "o"
        assert run(["transitions", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "transitions.csv").is_file()

    @pytest.mark.parametrize("command", ["validate", "transitions",
                                         "canonicalize"])
    def test_malformed_file_refusal_names_the_file(self, tmp_path, capsys,
                                                   command):
        H = core.Hamiltonian.uniform(core.build_chimera(1))
        text = core.format_hamiltonian(H).replace("h 0 1.0", "h 0 zz")
        ham = write(tmp_path, "h.txt", text)
        cfg = write(tmp_path, "c.cfg",
                    f"[run]\nseed = 1\n[graph]\nhamiltonian = {ham}\n"
                    "[grid]\npoints = 10\n")
        out = tmp_path / "o"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {ham}: line 3: malformed entry 'h 0 zz'\n")
        assert not out.exists()

    def test_missing_hamiltonian_file_is_config_error(self, tmp_path, capsys):
        ham = tmp_path / "missing.txt"
        cfg = write(tmp_path, "m.cfg",
                    f"[run]\nseed = 1\n[graph]\nhamiltonian = {ham}\n"
                    "[grid]\npoints = 10\n")
        assert run(["transitions", "--config", str(cfg), "--out",
                    str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "missing.txt" in err

    def test_correlation_mode_schema(self, tmp_path):
        out = tmp_path / "out"
        cfg = write(tmp_path, "corr.cfg", f"""
[run]
seed = 5
out = {out}
[graph]
l = 1
engine = exact
[grid]
points = 30
t_max = 5.0
[channel]
flips = 6
[ensemble]
instances = 2
correlation = true
""")
        assert run(["transitions", "--config", str(cfg)]) == 0
        lines = (out / "correlation_transitions.csv").read_text().splitlines()
        assert len(lines) > 1
        labels = {row.split(",")[0] for row in lines[1:]}
        assert labels == {"instance-0", "instance-1"}


class TestCanonicalize:
    def test_class_table(self, tmp_path):
        out = tmp_path / "out"
        cfg = write(tmp_path, "k.cfg", f"[run]\nseed = 1\nout = {out}\n")
        assert run(["canonicalize", "--config", str(cfg)]) == 0
        lines = (out / "classes.csv").read_text().splitlines()
        assert len(lines) == 193  # header + one row per class

    def test_file_mode(self, tmp_path):
        from isingdec import core
        H = core.Hamiltonian.uniform(core.build_chimera(1))
        ham = write(tmp_path, "h.txt", core.format_hamiltonian(H))
        out = tmp_path / "out"
        cfg = write(tmp_path, "k.cfg",
                    f"[run]\nseed = 1\nout = {out}\n[graph]\n"
                    f"hamiltonian = {ham}\n")
        assert run(["canonicalize", "--config", str(cfg)]) == 0
        assert (out / "canonical.csv").exists()

    def test_non_finite_file_is_config_error(self, tmp_path, capsys):
        from isingdec import core
        H = core.Hamiltonian.uniform(core.build_chimera(1))
        text = core.format_hamiltonian(H).replace("h 0 1.0", "h 0 nan")
        ham = write(tmp_path, "h.txt", text)
        cfg = write(tmp_path, "k.cfg",
                    f"[run]\nseed = 1\n[graph]\nhamiltonian = {ham}\n")
        assert run(["canonicalize", "--config", str(cfg), "--out",
                    str(tmp_path / "o")]) == 2
        assert "line 3: non-finite value 'nan'" in capsys.readouterr().err

    @pytest.mark.parametrize("excluded, old, new, message", [
        ((), "chimera L=1 K=4", "chimera L=0 K=4", "line 1: bad chimera header"),
        ((3, 7), "exclude 3 7", "exclude 3 99",
         "line 2: excluded spin 99 out of range"),
        ((), "h 0 1.0", "h 0 0.5", "requires h, J in {-1, +1}"),
        ((3, 7), "", "", "requires a full single unit cell"),
    ], ids=["bad-header", "bad-exclude", "not-nominal", "not-full-cell"])
    def test_unusable_file_is_config_error(self, tmp_path, capsys, excluded,
                                           old, new, message):
        from isingdec import core
        H = core.Hamiltonian.uniform(core.build_chimera(1, excluded=excluded))
        ham = write(tmp_path, "h.txt", core.format_hamiltonian(H).replace(old, new))
        cfg = write(tmp_path, "k.cfg",
                    f"[run]\nseed = 1\n[graph]\nhamiltonian = {ham}\n")
        assert run(["canonicalize", "--config", str(cfg), "--out",
                    str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err


    def test_missing_file_is_config_error(self, tmp_path, capsys):
        ham = tmp_path / "missing.txt"
        cfg = write(tmp_path, "k.cfg",
                    f"[run]\nseed = 1\n[graph]\nhamiltonian = {ham}\n")
        assert run(["canonicalize", "--config", str(cfg), "--out",
                    str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "missing.txt" in err


class TestControl:
    """[control] injects control error only when realizations >= 1."""

    plow = ("[graph]\nl = 1\nengine = exact\n[grid]\npoints = 40\nt_max = 6.0\n"
            "[channel]\nflips = 6\n[ensemble]\ninstances = 8\n"
            "[plow]\nn_run = 100\nsampler_temperature = 1.5\n")
    anneal = ("[graph]\nl = 1\nengine = exact\n[channel]\nflips = 6\n"
              "[sa]\nupdates = 2000\nruns = 20\ncheckpoints = 1.5 4.0\n")

    def outputs(self, tmp_path, command, text, name):
        out = tmp_path / name
        cfg = write(tmp_path, f"{name}.cfg", text)
        assert run([command, "--config", str(cfg), "--seed", "1",
                    "--out", str(out)]) == 0
        return {f: (out / f).read_bytes() for f in
                (["plow.csv", "fit.json"] if command == "plow-fit"
                 else ["deviation.csv", "summary.json"])}

    @pytest.mark.parametrize("command", ["plow-fit", "sa-compare"])
    def test_zero_realizations_is_no_control_error(self, tmp_path, command):
        base = self.plow if command == "plow-fit" else self.anneal
        none = self.outputs(tmp_path, command, base, "none")
        zero = self.outputs(tmp_path, command, base + "[control]\nsigma_h = 0.5\n"
                            "sigma_j = 0.5\nrealizations = 0\n", "zero")
        one = self.outputs(tmp_path, command, base + "[control]\nrealizations = 1\n",
                           "one")
        assert zero == none
        assert one != none

    def test_unset_sigmas_take_the_paper_defaults(self, tmp_path):
        implicit = self.outputs(tmp_path, "sa-compare",
                                self.anneal + "[control]\nrealizations = 1\n", "a")
        explicit = self.outputs(tmp_path, "sa-compare", self.anneal
                                + "[control]\nsigma_h = 0.05\nsigma_j = 0.03\n"
                                "realizations = 1\n", "b")
        assert implicit == explicit


def test_capacity_error_in_a_worker_exits_3(tmp_path, capsys, monkeypatch):
    # plow-fit's batches run their BTE jobs on two threads; the jobs on the
    # helper thread fail
    split = bte._split

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            raise core.CapacityError("tables of a worker's call")
        return split(*args)

    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    monkeypatch.setattr(bte, "_split", failing)
    cfg = write(tmp_path, "p.cfg", COMMAND_CONFIGS["plow-fit"])
    assert run(["plow-fit", "--config", str(cfg), "--seed", "3", "--out",
                str(tmp_path / "o")]) == 3
    assert "capacity error: tables of a worker's call" in capsys.readouterr().err


class TestSaCompare:
    sa_keys = {"t_start": "6.0", "t_end": "0.5", "updates": "200", "runs": "5",
               "checkpoints": "1.5 4.0"}

    def test_bte_reference_starts_no_thread(self, tmp_path, monkeypatch):
        # the reference runs beside the anneal, which holds the second CPU:
        # its BTE batch runs inline, on the thread that started it
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        started, ran_on = [], []
        start, split = threading.Thread.start, bte._split

        def counting(thread):
            started.append(thread)
            return start(thread)

        def spy(*args):
            ran_on.append(threading.current_thread())
            return split(*args)

        monkeypatch.setattr(threading.Thread, "start", counting)
        monkeypatch.setattr(bte, "_split", spy)
        keys = {**self.sa_keys, "checkpoints": "1.0 1.5 2.0 4.0"}
        cfg = write(tmp_path, "s.cfg",
                    "[graph]\nl = 2\nengine = bte\n[channel]\nflips = 6\n[sa]\n"
                    + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert run(["sa-compare", "--config", str(cfg), "--seed", "1",
                    "--out", str(tmp_path / "o")]) == 0
        assert len(started) == 1  # the anneal's helper
        assert ran_on == [threading.main_thread()]

    # the checkpoints against the schedule; each key's own domain is a row
    # of OUT_OF_DOMAIN
    @pytest.mark.parametrize("key, value, message", [
        ("checkpoints", "1.5 7.0", "sa.checkpoints must lie within"),
        ("checkpoints", "0.4", "sa.checkpoints must lie within"),
        ("checkpoints", "nan", "sa.checkpoints must lie within"),
        ("checkpoints", "2.0 2.0 5.0", "sa.checkpoints must not repeat"),
    ], ids=["checkpoint-above-t-start", "checkpoint-below-t-end",
            "nan-checkpoint", "repeated-checkpoint"])
    def test_bad_sa_value_is_config_error(self, tmp_path, capsys, monkeypatch,
                                          key, value, message):
        def no_anneal(*args, **kwargs):
            raise AssertionError("annealed before the config was checked")

        monkeypatch.setattr(sa, "_run_batch", no_anneal)
        keys = {**self.sa_keys, key: value}
        cfg = write(tmp_path, "s.cfg",
                    "[graph]\nl = 1\nengine = exact\n[channel]\nflips = 6\n[sa]\n"
                    + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert run(["sa-compare", "--config", str(cfg), "--seed", "1",
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not (tmp_path / "o").exists()


def python_with_src(code: str) -> str:
    """stdout of a fresh interpreter running code with the package on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


# the modules of the engines that only some commands run
ENGINE_MODULES = ["isingdec.bte", "isingdec.sa", "isingdec.workers"]

# tiny configs of the commands a decoding run uses
COMMAND_CONFIGS = {
    "surface": "[graph]\nl = 1\nexclude = 3\n[grid]\nt_min = 0.5\nt_max = 2.0\n"
               "points = 3\n[channel]\np = 0.1 0.2\n",
    "transitions": "[graph]\nl = 1\n[grid]\nt_min = 0.2\nt_max = 3.0\npoints = 8\n"
                   "[ensemble]\nclasses = true\n",
    "plow-fit": "[graph]\nl = 2\nengine = bte\n[channel]\nflips = 30\n"
                "[ensemble]\ninstances = 4\n[grid]\nt_min = 0.1\nt_max = 4.0\n"
                "points = 12\n[plow]\nn_run = 100\nsampler_temperature = 1.5\n"
                "[control]\nrealizations = 2\n",
    "sa-compare": "[graph]\nl = 1\n[channel]\nflips = 4\n[sa]\nupdates = 200\n"
                  "runs = 20\nt_start = 5.0\nt_end = 1.0\ncheckpoints = 1.0 3.0\n",
}


class TestImport:
    def test_cli_import_leaves_scipy_stats_out(self):
        # scipy.stats once cost about a second of every CLI start, and
        # scipy.special plus scipy.optimize most of what was left
        code = ("import json, sys, isingdec.cli\n"
                "print(json.dumps(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.'))))")
        loaded = json.loads(python_with_src(code))
        assert "scipy.stats" not in loaded
        assert loaded == []

    def test_cli_import_leaves_engine_modules_out(self):
        # the BTE engine, the annealer, the thread pool and numpy.random load
        # on first use, not with the CLI; numpy 1.x imports numpy.random
        # with numpy itself, so what `import numpy` loads does not count
        loaded = json.loads(python_with_src(
            "import json, sys, numpy\n"
            "before = set(sys.modules)\n"
            "import isingdec.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))"))
        engines = {*ENGINE_MODULES, "numpy.random"}
        assert "isingdec.cli" in loaded
        assert not engines & set(loaded)

    def test_commands_load_only_what_they_run(self, tmp_path):
        # a module first imported inside cli.main is charged to the run
        # instead of the start: numpy loads some submodules on first use
        # (numpy.ma from a bare np.unique), and argparse imports locale
        # through gettext. The single-cell commands load nothing more; the
        # others load only the engine modules and numpy.random's own imports
        def new_modules(code):
            return set(json.loads(python_with_src(
                "import json, sys\n"
                "import isingdec.cli as cli\n"
                "before = set(sys.modules)\n"
                f"{code}\n"
                "print(json.dumps(sorted(set(sys.modules) - before)))")))

        may_load = {*ENGINE_MODULES, *new_modules("import numpy.random")}
        for name, text in COMMAND_CONFIGS.items():
            cfg = write(tmp_path, f"{name}.cfg", text)
            argv = [name, "--config", str(cfg), "--seed", "3",
                    "--out", str(tmp_path / name)]
            new = new_modules(f"assert cli.main({argv!r}) == 0")
            if name in ("surface", "transitions"):
                assert new == set(), name
            else:
                assert new <= may_load, (name, sorted(new - may_load))
        assert (tmp_path / "plow-fit" / "fit.json").is_file()
