"""Smoke tests of the benchmark runner: python3 -m pytest perfbench/test_smoke.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spans import PER_LAYER, layer_metrics, self_times

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["experiments.exact_sector_means", 1.0, 9.0, 0, None],
        ["exact.batch_mpm_decode_curve", 2.0, 5.0, 1,
         {"decodes": 600}],
        ["exact.batch_energies", 5.0, 6.0, 1, None],
        ["bte.magnetization_curve", 9.0, 9.5, 0, {"temperatures": 1}],
    ]
    assert self_times(spans) == [1.5, 4.0, 3.0, 1.0, 0.5]
    m = layer_metrics(spans, output_bytes=42)
    assert set(m) == {name for name, _ in PER_LAYER}
    assert m["cli.self_s"] == 1.5
    assert m["experiments.self_s"] == 4.0
    assert m["exact.decodes"] == 600 and m["exact.decodes_per_s"] == 200.0
    assert m["bte.single_t_call_s"] == 0.5 and m["bte.s_per_temperature"] == 0.0
    assert m["cli.output_bytes"] == 42


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def test_traced_run_reports_every_layer_metric():
    proc = _run(HERE.parent, "--workload", "cell-surface", "--seed", "0",
                "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # one untraced reference operation, then one traced operation
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert [*result["metrics"]] == [name for name, _ in PER_LAYER]
    assert result["metrics"]["exact.decodes"]["value"] > 0
    assert any(line.startswith("tracing overhead:") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "cell-surface", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
