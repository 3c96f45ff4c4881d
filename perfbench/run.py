"""Benchmark of the `isingdec` CLI: one workload, closed loop, one command at a time.

    python3 perfbench/run.py --workload cell-surface --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The workload's config is made from --seed;
each operation is one fresh `isingdec` process (see child.py). Operations
repeat until --seconds have passed; then the outputs are checked and the last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. A traced run first makes one untraced operation, whose outputs its
traced operations must reproduce byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the thread settings)

from spans import PER_LAYER, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OP_TIMEOUT_S = 100  # keeps a run under 180 s even if one operation hangs


def _operation(command: str, config: Path, seed: int, work: Path, k: int,
               trace: bool) -> dict:
    """Run one command in a fresh process; returns its record plus timings."""
    out, result = work / f"op{k}", work / f"op{k}.json"
    argv = [sys.executable, str(HERE / "child.py"), "--command", command,
            "--config", str(config), "--seed", str(seed), "--out", str(out),
            "--result", str(result)] + (["--trace"] if trace else [])
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"operation {k} killed after {OP_TIMEOUT_S} s\n")
        return {"ok": False, "out": out, "timed_out": True}
    if proc.returncode != 0 or not result.is_file():
        sys.stderr.write(f"operation {k} failed ({proc.returncode}):\n{proc.stderr}")
        return {"ok": False, "out": out}
    rec = json.loads(result.read_text())
    if rec["exit_code"] != 0:
        sys.stderr.write(f"isingdec exited {rec['exit_code']}:\n{proc.stderr}")
    rec.update(ok=rec["exit_code"] == 0, out=out,
               setup_s=rec["ready"] - spawned, run_s=rec["end"] - rec["start"])
    return rec


def _outputs(out: Path) -> dict[str, bytes]:
    """Seeded outputs of one operation; the manifest carries a wall time."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "manifest.json"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "isingdec" / "cli.py").is_file():
        print(f"no isingdec source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the checks call into the program
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workload = WORKLOADS[args.workload]
    config = workload.make(np.random.default_rng([args.seed, 0]))
    work = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "run.cfg"
    config_path.write_text(workload.text(config))

    def operation(k: int, trace: bool) -> dict:
        return _operation(workload.command, config_path, args.seed, work, k, trace)

    # a traced run starts with one untraced operation: its reference outputs
    # and its run_s, to which the traced operations are compared
    records = [operation(0, False)] if args.trace else []
    reference, kept = None, None  # outputs every operation must reproduce
    started = time.monotonic()
    while len(records) < 1 + args.trace or time.monotonic() - started < args.seconds:
        k = len(records)
        rec = operation(k, bool(args.trace))
        records.append(rec)
        if rec["ok"]:
            produced = _outputs(rec["out"])
            if reference is None:
                reference, kept = produced, rec["out"]
            elif produced != reference:
                sys.stderr.write(f"operation {k}: outputs differ from the first\n")
                rec["ok"] = False
        if rec["out"] != kept:
            shutil.rmtree(rec["out"], ignore_errors=True)
        if rec.get("timed_out"):
            break

    correct = kept is not None
    if correct:
        try:
            workload.check(kept, config, args.seed)
        except CheckError as err:
            print(f"check failed on {kept}: {err}", file=sys.stderr)
            correct = False
    done = [r for r in records[args.trace:] if r["ok"] and correct]
    failed = len(records) - sum(r["ok"] and correct for r in records)

    if args.trace:
        per_op = [layer_metrics(r["spans"], r["output_bytes"]) for r in done]
        metrics = {name: {"value": statistics.median(m[name] for m in per_op)
                          if per_op else 0.0, "unit": unit}
                   for name, unit in PER_LAYER}
        with open(work / "spans.jsonl", "w") as fh:
            for k, r in enumerate(done):
                for name, start, end, parent, counters in r["spans"]:
                    fh.write(json.dumps({"op": k, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "counters": counters}) + "\n")
        if done and records[0]["ok"]:
            traced, untraced = statistics.median(r["run_s"] for r in done), records[0]["run_s"]
            print(f"tracing overhead: traced run_s {traced:.4f} s - untraced "
                  f"{untraced:.4f} s = {traced - untraced:+.4f} s")
    else:
        def median(key):
            return statistics.median(r[key] for r in done) if done else 0.0
        metrics = {
            "setup_s": {"value": median("setup_s"), "unit": "s"},
            "run_s": {"value": median("run_s"), "unit": "s"},
            "peak_rss_mib": {"value": median("peak_rss_kib") / 1024.0, "unit": "MiB"},
        }
    print("per operation: setup_s " + " ".join(f"{r['setup_s']:.3f}" for r in done)
          + ", run_s " + " ".join(f"{r['run_s']:.3f}" for r in done))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    print(f"operations: {len(records)} attempted, {failed} failed")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
