"""Benchmark of fuzzyhh: four workloads, end-to-end and per-layer figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is one of monotone-integrals, grid-integrals, bound-solve, cli-session.
Run from the root of a checkout: the library is imported from ``src/``.

This process computes the expected results with the benchmark's own oracles,
times set-up in several fresh interpreters, then runs the workload in one
more fresh process (``worker.py``: one closed-loop caller, no extra threads)
and prints each metric by name with its unit.  Timings are each operation's
best time over the run's rounds, scaled by the best time of fixed
reference work timed between the same rounds.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  ``--workload all`` runs every workload untraced
and traced and ends with one JSON object keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import NOMINAL_S, REFERENCE_KINDS, best_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(".sloc"):
        return "lines"
    return "count"


def _worker(args: argparse.Namespace, deadline: float, extra: list[str], stdin: str | None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd + extra, input=stdin, capture_output=True, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return start, proc.stdout


def run_workload(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    ops = workloads.make_ops(args.workload, args.seed)
    expected = json.dumps(workloads.expectations(args.workload, ops))

    def probe():
        start, out = _worker(args, deadline, ["--setup-only"], None)
        return float(out) - start

    # probes on both sides of the workload sample more of the machine's drift
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    res = json.loads(_worker(args, deadline, [], expected)[1])
    setups += [probe() for _ in range(SETUP_PROBES - len(setups))]

    for line in res["unexpected"][:10]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    result = {"correct": not res["unexpected"], "attempted": res["attempted"],
              "failed": res["failed"]}
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layers"].items()}
        print(f"{args.workload}: {res['spans']} spans in {res['spans_file']}")
    else:
        lat, n = res["latencies"], res["round"]
        # best times at the reference's nominal speed (see worker.make_reference)
        nominal = sum(NOMINAL_S[k] for k in REFERENCE_KINDS[args.workload])
        speed = nominal / min(res["reference"])
        best = [t * speed for t in best_times(lat, n)]
        values = {
            "setup_s": statistics.median(setups),
            "throughput_ops_s": n / sum(best),
            "latency_p50_ms": 1e3 * statistics.median(best),
            "latency_p90_ms": 1e3 * statistics.quantiles(best, n=10, method="inclusive")[8],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        q = statistics.quantiles(lat, n=10, method="inclusive")
        print(f"{args.workload}: {len(lat) // n} rounds of {n} operations; over every attempt "
              f"{len(lat) / sum(lat):.4g} ops/s, p50 {1e3 * statistics.median(lat):.4g} ms, "
              f"p90 {1e3 * q[8]:.4g} ms; unscaled best times {n * speed / sum(best):.4g} ops/s; "
              f"reference best {1e3 * min(res['reference']):.4g} ms (nominal {1e3 * nominal:.4g}); "
              f"set-up probes {', '.join(f'{s:.3f}' for s in setups)} s")
    result["metrics"] = metrics
    for name, m in metrics.items():
        print(f"{args.workload}  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "fuzzyhh" / "__init__.py").is_file():
        print(f"no fuzzyhh sources under {ROOT / 'src'}: run from a checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args)))
        return 0
    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            results[f"{name}/trace{trace}"] = run_workload(
                argparse.Namespace(workload=name, seed=args.seed, seconds=args.seconds, trace=trace))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
