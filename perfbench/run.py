"""End-to-end benchmark for secure decision-forest serving.

Run one workload in this process::

    python3 perfbench/run.py --workload width78-deadline --seed 1 \\
        --seconds 10 --trace 0

from the root of a checkout of the repository (the program is imported
from ``src/``; nothing is installed or built).  Workloads, their reasons
and their models are in ``perfbench/workloads.py`` and
``perfbench/models/``.

``--trace 0`` measures untraced and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced segments, installs span
recorders around each layer's public entry points during the traced
ones, and prints the per-layer metrics.  Every answer is checked against
the frozen forest; any mismatch makes the command exit 1.  A run whose
load generator fell behind its schedule exits 3, and a traced run whose
per-layer ledger does not reconcile with request wall time exits 4,
both without a result.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run's facts
(host, seed, raw samples, ledger, and in traced runs the spans) are
written under ``.perfbench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import workloads as wl  # noqa: E402

OUT_DIR = ".perfbench_out"


def host_facts() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def write_record(run, name: str, seed: int, trace: bool, result: dict) -> Path:
    out = Path.cwd() / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    lat = run.latencies
    record = {
        "workload": name,
        "why": run.workload.why,
        "seed": seed,
        "seconds": run.seconds,
        "host": host_facts(),
        "service_args": wl.SERVICE_ARGS,
        "result": result,
        "end_to_end": run.metrics,
        "per_layer": run.layer,
        "notes": run.notes,
        "samples": {
            "setup_s": run.setup_walls,
            "latency_s_untraced": lat[False],
            "latency_s_traced": lat[True],
            "gen_lag_s": run.gen_lag,
            "batch_service_s_untraced": run.batch_walls[False],
        },
        "counts": {
            "setup": len(run.setup_walls),
            "latency_untraced": len(lat[False]),
            "latency_traced": len(lat[True]),
            "full_batches_untraced": len(run.batch_walls[False]),
            "attempted": run.attempted,
            "failed": run.failed,
            "mismatched": run.mismatched,
        },
    }
    path = out / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1))
    if trace:
        # One header line naming the fields, then one JSON list per span.
        with gzip.open(out / f"{stem}.spans.jsonl.gz", "wt",
                       compresslevel=1) as fh:
            fh.write(json.dumps(["phase", "id", "name", "start", "end",
                                 "parent", "request", "batch"]) + "\n")
            for group, spans in (
                [(f"setup{k}", s) for k, s in enumerate(run.setup_spans)]
                + [("timed", run.traced_spans)]
            ):
                for span in spans:
                    fh.write(json.dumps((group,) + span) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--short", action="store_true",
        help="one set-up and a few requests (self-test mode): p99 is not "
        "backed by ten samples beyond it",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    # A terminated run still closes its services and stops its processes.
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return measure(args)
    finally:
        wl.stop_children()
        signal.signal(signal.SIGTERM, previous)


def measure(args) -> int:
    """Run one workload, print its metrics and result line; exit code."""
    run = wl.Run(wl.WORKLOADS[args.workload], args.seed, args.seconds,
                 trace=bool(args.trace), short=args.short)
    run.run()
    chosen = wl.PER_LAYER if args.trace else wl.END_TO_END
    source = run.layer if args.trace else run.metrics
    correct = run.mismatched == 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": source[name], "unit": unit}
            for name, unit in chosen
        },
    }
    path = write_record(run, args.workload, args.seed, bool(args.trace),
                        result)
    for name, unit in chosen:
        print(f"{name:<45} {source[name]:>14.6g} {unit}")
    print(f"latency samples: {run.notes['latency_samples']} "
          f"({run.notes['latency_samples_beyond_p99']} beyond p99); "
          f"record: {path}")
    lag_p99_ms = wl.percentile(run.gen_lag, 0.99) * 1e3
    if run.gen_lag and lag_p99_ms > wl.MAX_GEN_LAG_MS:
        print(f"perfbench: INVALID run: the open-loop generator fell "
              f"behind (p99 lateness {lag_p99_ms:.1f} ms > "
              f"{wl.MAX_GEN_LAG_MS} ms); its latencies are not reported",
              file=sys.stderr)
        return 3
    if not correct:
        print(f"perfbench: {run.mismatched} answers differ from the frozen "
              f"forests", file=sys.stderr)
        print(json.dumps(result))
        return 1
    if args.trace and not run.notes["reconciled"]:
        print(f"perfbench: INVALID run: the per-layer ledger leaves "
              f"{run.layer['bench.reconcile_gap_share']:.4f} of request "
              f"wall time unattributed (epsilon {wl.RECONCILE_EPSILON}); "
              f"its per-layer figures are not reported", file=sys.stderr)
        return 4
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
