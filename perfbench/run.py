"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its ``src/`` directory.  ``--trace 0`` measures the end-to-end metrics
with no tracing; ``--trace 1`` alternates untraced and traced work for
``S`` seconds and prints the per-layer metrics, including the tracing
overhead (traced over untraced latency).  Context and every
operation's outcome are printed first; the last line is the JSON
result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("imm-ic-serial", "imm-lt-pool", "serve-mixed", "dist-ic-sim")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no package source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    from common import host_facts

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        if args.workload == "serve-mixed":
            import serve

            out = serve.run(args.seed, args.seconds, bool(args.trace), tmp)
        else:
            import solver

            out = solver.run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass

    outcomes = out["outcomes"]
    print("context", json.dumps({"workload": args.workload, "seed": args.seed,
                                 **out["context"], "host": host_facts()}))
    print("outcomes", json.dumps(dict(sorted(outcomes.counts.items()))))
    if args.trace:
        import layers

        metrics = layers.finish(out["layers"])
    else:
        metrics = {name: {"value": float(v), "unit": unit}
                   for name, (v, unit) in out["metrics"].items()}
    print(json.dumps({
        "correct": outcomes.correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }))
    sys.stdout.flush()
    # Pool workers start multiprocessing's resource tracker; stop it and
    # wait for it here instead of leaving it to exit after this process.
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
