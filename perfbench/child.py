"""One benchmark operation: a fresh process that runs one `isingdec` command.

    python3 perfbench/child.py --command surface --config run.cfg --seed 7 \
        --out results/op0 --result results/op0.json [--trace]

The process sets up as a CLI run does (imports isingdec, parses the config,
builds the graph and instances), then calls `isingdec.cli.main` and writes a
JSON record: monotonic time when its inputs were ready, start and end of the
command, exit code, peak RSS, output bytes and, with --trace, its spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _build_inputs(config: dict, seed: int) -> list:
    """The graph and Hamiltonian instances the command will decode."""
    from isingdec import channel
    from isingdec.core import Hamiltonian, build_chimera

    clean = Hamiltonian.uniform(build_chimera(config.get("graph.l", 1)),
                                alpha=config.get("graph.alpha", 1.0))
    flips = config.get("channel.flips")
    if flips is None:
        return [clean]
    return [channel.sample_sector(clean, flips, channel.stream(seed, 10, k))[0]
            for k in range(config.get("ensemble.instances", 1))]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--command", required=True)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import isingdec.cli as cli

    source = Path(cli.__file__).resolve()
    if not source.is_relative_to(root):
        print(f"isingdec imported from {source}, outside the checkout",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print("not traced (absent): " + " ".join(missing), file=sys.stderr)
    config = cli.load_config(args.config)
    _build_inputs(config, args.seed)
    ready = time.monotonic()

    argv = [args.command, "--config", str(args.config), "--seed", str(args.seed),
            "--out", str(args.out)]
    run = tracer.span("cli.main", cli.main) if tracer else cli.main
    start = time.monotonic()
    code = run(argv)
    end = time.monotonic()

    record = {
        "ready": ready,
        "start": start,
        "end": end,
        "exit_code": code,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "output_bytes": sum(p.stat().st_size for p in args.out.glob("*")),
        "spans": tracer.spans if tracer else None,
    }
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
