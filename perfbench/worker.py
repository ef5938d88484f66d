"""One workload in a fresh process: set up, run whole rounds, check each result.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Set-up is importing fuzzyhh from this checkout's ``src`` (numpy included;
``fuzzyhh.cli`` too for the cli session) and generating the inputs from the
seed.  ``--setup-only`` stops there and prints the CLOCK_MONOTONIC time at
which the first operation was ready, so the caller can time set-up from
before the interpreter started.

Otherwise the expected results arrive as JSON on stdin (the caller computes
them with the oracles, outside this process, so their memory and time do not
show here), the rounds run for ``--seconds``, and one JSON object with the
latencies, the reference times, counts and peak RSS goes to stdout.  With
``--trace 1`` the first half of the time runs untraced and the second half
under the tracer, and the per-layer figures come from the second half.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

import oracles as orc
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_OPS = 100  # the 90th percentile needs at least ten samples beyond it


def load_library(workload: str):
    sys.path.insert(0, str(SRC))
    import fuzzyhh

    if Path(fuzzyhh.__file__).resolve().parent != (SRC / "fuzzyhh").resolve():
        raise SystemExit(f"fuzzyhh imported from {fuzzyhh.__file__}, not from {SRC}")
    if workload == "cli-session":
        import fuzzyhh.cli  # noqa: F401
    return fuzzyhh


# -- one operation -------------------------------------------------------------------


def call(fz, op):
    """The timed public call(s) of one operation."""
    if op.kind == "integral":
        ig = op.integrand
        A = fz.RealInterval(ig.lo, ig.hi)
        return fz.sugeno_integral(fz.function_from_expression(ig.src, A), A).value
    if op.kind == "bound":
        inp = fz.BoundInputs(**op.bound)
        solver = fz.r_preinvex_bound if inp.r is not None else fz.alpha_m_bound
        return solver(inp).bound
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fz.cli.main(list(op.argv))
    return code, out.getvalue()


def _near(value, expected: float, tol: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and abs(value - expected) <= tol


def check(op, out, exp: dict) -> bool:
    """Does the operation's output agree with the oracle's expectation?"""
    if op.kind != "cli":
        return _near(out, exp["value"], exp["tol"])
    code, text = out
    cmd = op.argv[0]
    if cmd == "sweep":
        rows = list(csv.DictReader(io.StringIO(text)))
        return code == 0 and len(rows) == len(exp["rows"]) and all(
            row["case"] != "no-root"
            and float(row["param"]) == want["param"]
            and _near(float(row["integral"]), exp["integral"], exp["tol"])
            and _near(float(row["bound"]), want["bound"], exp["tol"] * max(1.0, want["bound"]))
            for row, want in zip(rows, exp["rows"])
        )
    report = json.loads(text)
    result = report["result"]
    if cmd == "reproduce":
        entries = {e["entry"]: {c["name"]: c["computed"] for c in e["checks"]} for e in result["entries"]}
        return code == 0 and result["holds"] is True and all(
            _near(entries[entry][name], want, orc.LIB_TOL)
            for entry, checks in exp["entries"].items() for name, want in checks.items()
        )
    if cmd == "integrate":
        return code == 0 and _near(result["integral"], exp["value"], exp["tol"])
    if cmd == "check":
        if exp["holds"]:
            return code == 0 and result["holds"] is True and result["witness"] is None
        w = result["witness"]
        if code != 2 or result["holds"] is not False or w is None:
            return False
        gap = orc.witness_violation(op.integrand.fn, w, op.cli.get("r"), op.cli.get("alpha"),
                                    op.cli.get("m"))
        return gap > orc.CHECK_SLACK and _near(w["lhs"] - w["rhs"], gap, 1e-9 * max(1.0, abs(w["lhs"])))
    assert cmd == "bound"
    return (
        code == (0 if exp["passes"] else 2)
        and _near(result["integral"], exp["integral"], exp["tol"])
        and _near(result["bound"], exp["bound"], exp["tol"] * max(1.0, exp["bound"]))
    )


def _checked(op, out, exp: dict) -> bool:
    try:
        return check(op, out, exp)
    except (ValueError, KeyError, TypeError):  # an unreadable report is a wrong one
        return False


# -- reference work ----------------------------------------------------------------
#
# The host's speed drifts by a fifth or more over minutes, and an operation's
# best time drifts with it.  After every round the worker times fixed work that
# shares no code with fuzzyhh, and ``run.py`` scales the best times by the
# reference's best time in the same run.  Scalar Python code and large-array
# numpy code slow down by different amounts in the same stretch, so each
# workload's reference does the kind of work its operations do.

#: The kinds of reference work timed after each round of a workload.
REFERENCE_KINDS = {
    "monotone-integrals": ("scalar",),  # nested bisection over scalar evaluate calls
    "grid-integrals": ("array",),  # 1e6-point evaluation and sorting
    "bound-solve": ("scalar",),  # scalar case equations, no integrand
    "cli-session": ("scalar", "array"),  # both, through the commands
}
#: Best time of each kind of reference work on a quiet machine (Xeon at 2.1
#: GHz, Python 3.11, numpy 2.4); scaled times read at this speed.
NOMINAL_S = {"scalar": 0.004, "array": 0.019}

#: The scalar reference's expression tree, ``0.5*x + sin(3*x)``.
_REF_TREE = ("+", ("*", ("c", 0.5), ("x",)), ("sin", ("*", ("c", 3.0), ("x",))))


def _ref_eval(node, x: float) -> float:
    op = node[0]
    if op == "x":
        return x
    if op == "c":
        return node[1]
    a = _ref_eval(node[1], x)
    if op == "sin":
        return math.sin(a)
    b = _ref_eval(node[2], x)
    return a + b if op == "+" else a * b


def make_reference(workload: str):
    """The reference work of ``workload`` as a function of no arguments.

    Scalar: a recursive evaluation of a small expression tree at 6 000
    points.  Array: a 1e6-point array filled, summed, passed through sin and
    sorted in place; the array is allocated once, here, so it adds a
    constant 7.6 MB to the peak resident set and no page faults later."""
    kinds = REFERENCE_KINDS[workload]
    array = np.empty(1_000_000) if "array" in kinds else None

    def reference() -> None:
        if "scalar" in kinds:
            s = 0.0
            for i in range(6000):
                s += _ref_eval(_REF_TREE, i * 1e-3)
        if array is not None:
            array.fill(7e-6)
            np.cumsum(array, out=array)
            np.sin(array, out=array)
            array.sort()

    return reference


# -- the timed loop ------------------------------------------------------------------


def best_times(latencies: list[float], round_size: int) -> list[float]:
    """Each operation of the round at its fastest repetition in the run.

    Every round repeats the same operations on the same inputs, and
    interference from the rest of the machine only ever adds time, so the
    minimum over the rounds estimates an operation's own cost (as ``timeit``
    advises); on a VM whose speed drifts by tens of percent it is far steadier
    than the mean or a percentile over every attempt."""
    return [min(latencies[i::round_size]) for i in range(round_size)]


def run_rounds(fz, ops, expected, seconds: float, min_ops: int, reference, tracer=None):
    """Whole rounds until ``seconds`` have passed and ``min_ops`` were attempted.

    Successive rounds run on alternate CPUs: on a VM each virtual CPU slows
    down and recovers on its own, so the best time of an operation then
    draws on both.  After each round ``reference()`` is timed on the same
    CPU.  With a tracer, each operation's spans carry its index in this run."""
    latencies: list[float] = []
    refs: list[float] = []
    failed = 0
    unexpected: list[str] = []
    clock = time.perf_counter
    cpus = sorted(os.sched_getaffinity(0))
    start = clock()
    while True:
        os.sched_setaffinity(0, {cpus[len(latencies) // len(ops) % len(cpus)]})
        for op, exp in zip(ops, expected):
            if tracer is not None:
                tracer.op = len(latencies)
            t0 = clock()
            try:
                out = call(fz, op)
            except Exception as exc:  # a raise is a failed operation, never a crash
                out = exc
            latencies.append(clock() - t0)
            if isinstance(out, Exception) or not _checked(op, out, exp):
                failed += 1
                if op.fault is None:
                    unexpected.append(f"{op.id}: {out!r}"[:300])
        t0 = clock()
        reference()
        refs.append(clock() - t0)
        if clock() - start >= seconds and len(latencies) >= min_ops:
            return latencies, refs, failed, unexpected


def peak_rss_mb() -> float:
    """Peak resident set of this process (VmHWM).

    Not ``getrusage``'s ``ru_maxrss``: Linux carries the parent's peak into
    it across fork and exec, and the parent holds the oracles' dense grids."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    fz = load_library(args.workload)
    ops = workloads.make_ops(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(repr(ready))
        return 0

    expected = json.load(sys.stdin)
    if [e["id"] for e in expected] != [op.id for op in ops]:
        raise SystemExit("expectations do not match the generated operations")

    out: dict = {"ready": ready, "round": len(ops)}
    reference = make_reference(args.workload)
    # one untimed round first, so that lazy imports and first-call costs stay
    # out of the figures; its operations are checked but not counted
    run_rounds(fz, ops, expected, 0.0, 1, reference)
    if args.trace == 0:
        lat, refs, failed, unexpected = run_rounds(fz, ops, expected, args.seconds, MIN_OPS,
                                                   reference)
        out.update(latencies=lat, reference=refs, attempted=len(lat), failed=failed,
                   unexpected=unexpected)
    else:
        import tracing  # only the traced run pays for it

        half = args.seconds / 2.0
        plain, refs0, failed0, unexpected0 = run_rounds(fz, ops, expected, half, 1, reference)
        tracer = tracing.Tracer()
        tracer.install()
        traced, refs1, failed1, unexpected1 = run_rounds(fz, ops, expected, half, 1, reference, tracer)
        layers = tracer.layer_metrics(len(traced))
        n = len(ops)
        # each half at the machine speed its own reference times measured
        layers["trace.overhead_pct"] = 100.0 * (
            sum(best_times(traced, n)) / min(refs1) / (sum(best_times(plain, n)) / min(refs0)) - 1.0)
        layers.update(tracing.sloc(SRC))
        spans_file = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans_file)
        out.update(attempted=len(plain) + len(traced), failed=failed0 + failed1,
                   unexpected=unexpected0 + unexpected1, layers=layers,
                   spans=len(tracer.spans), spans_file=str(spans_file.relative_to(ROOT)))
    out["peak_rss_mb"] = peak_rss_mb()
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
