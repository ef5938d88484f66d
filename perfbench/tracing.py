"""Per-layer spans around fuzzyhh's public functions, from outside the library.

``Tracer.install()`` replaces each traced public function with a timing
wrapper in every fuzzyhh module that binds it (``fuzzyhh.bounds`` calls
``sugeno_integral`` through its own import, ``fuzzyhh.cli`` through its own,
and so on), patches ``DistributionProfile.at`` on the class, and wraps the
``evaluate`` field of every function ``function_from_expression`` builds.
Nothing in ``src/`` changes.

Each span is ``[name, start, end, parent, op, extra]`` where ``parent`` is
the index of the enclosing span (-1 at top level) and ``extra`` a count the
span carries (points evaluated, case-equation evaluations, draws).  Spans
stay in memory until ``write`` and ``layer_metrics`` at the end of a run.
"""

from __future__ import annotations

import csv
import dataclasses
import gzip
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: A solve that evaluates its case equation more often than this left the
#: hint bracket for the scan: bisecting the hint takes at most 4 + 200 + 1
#: evaluations, the scan takes one per cell (10 000) before it bisects.
SCAN_EVALS = 1000

MODULES = ("expressions", "measure", "sugeno", "convexity", "bounds", "golden", "cli")

#: (module, public function) pairs wrapped in every module that binds them.
PLAIN = (
    ("sugeno", "sugeno_integral"),
    ("sugeno", "sugeno_fixed_point"),
    ("sugeno", "sugeno_supmin_exact"),
    ("sugeno", "sugeno_supmin"),
    ("bounds", "verify_fuzzy_hh"),
    ("bounds", "r_preinvex_bound"),
    ("bounds", "alpha_m_bound"),
    ("golden", "run_all"),
    ("golden", "run_entry"),
    ("cli", "main"),
)
CHECKS = ("check_preinvex", "check_r_preinvex", "check_m_preinvex", "check_alpha_m_preinvex")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    # -- recording ----------------------------------------------------------------

    def wrap(self, name: str, fn, extra=None, done=None):
        """``fn`` recording one span per call.  ``extra(*args)`` gives the
        span's count up front, or ``done(result)`` when the call ends
        (``result`` is None if it raised)."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   extra(*args) if extra is not None else 0]
            stack.append(len(spans))
            spans.append(rec)
            out = None
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                rec[2] = clock()
                stack.pop()
                if done is not None:
                    rec[5] = done(out)

        return traced

    def _solve(self, fn):
        """``solve_beta`` counting the case-equation evaluations of each solve,
        including solves that end in ``NoRoot``."""
        evals = [0]

        def counting(G, *args, **kwargs):
            def counted(b):
                evals[0] += int(np.size(b))
                return G(b)

            return fn(counted, *args, **kwargs)

        def taken(_result):
            n, evals[0] = evals[0], 0
            return n

        return self.wrap("bounds.solve_beta", counting, done=taken)

    def _wrap_builder(self, fn):
        wrap_eval = self.wrap

        def build(*args, **kwargs):
            f = fn(*args, **kwargs)
            return dataclasses.replace(
                f, evaluate=wrap_eval("expressions.evaluate", f.evaluate, extra=np.size))

        return self.wrap("expressions.function_from_expression", build)

    def install(self) -> None:
        import fuzzyhh
        import fuzzyhh.cli  # noqa: F401  (bind every module before patching)

        mods = [m for k, m in sys.modules.items() if k == "fuzzyhh" or k.startswith("fuzzyhh.")]
        replace: dict[int, object] = {}
        for module, name in PLAIN:
            orig = getattr(sys.modules[f"fuzzyhh.{module}"], name)
            replace[id(orig)] = self.wrap(f"{module}.{name}", orig)
        for name in CHECKS:
            orig = getattr(fuzzyhh.convexity, name)
            replace[id(orig)] = self.wrap(f"convexity.{name}", orig,
                                          done=lambda rep: rep.samples_checked if rep else 0)
        replace[id(fuzzyhh.bounds.solve_beta)] = self._solve(fuzzyhh.bounds.solve_beta)
        build = fuzzyhh.expressions.function_from_expression
        replace[id(build)] = self._wrap_builder(build)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and callable(value):
                    setattr(mod, attr, replace[id(value)])
        profile = fuzzyhh.measure.DistributionProfile
        profile.at = self.wrap("measure.DistributionProfile.at", profile.at)

    # -- reporting ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start", "end", "parent", "op", "extra"])
            for i, (name, t0, t1, parent, op, extra) in enumerate(self.spans):
                out.writerow([i, name, repr(t0), repr(t1), parent, op, extra])

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation layer figures over every recorded span."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        count: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        selft: dict[str, float] = defaultdict(float)
        extra: dict[str, int] = defaultdict(int)
        layer_self: dict[str, float] = defaultdict(float)
        fallbacks = scans = 0
        for i, (name, t0, t1, parent, _, x) in enumerate(spans):
            layer = name.split(".", 1)[0]
            outer = parent < 0 or spans[parent][0].split(".", 1)[0] != layer
            own = t1 - t0 - child[i]
            layer_self[layer] += own
            if layer in ("convexity", "golden") and not outer:
                continue  # nested within the same layer: counted by the outer span
            count[name] += 1
            total[name] += t1 - t0
            selft[name] += own
            extra[name] += x
            if name == "sugeno.sugeno_supmin_exact" and parent >= 0 \
                    and spans[parent][0] == "sugeno.sugeno_integral":
                fallbacks += 1
            if name == "bounds.solve_beta" and x > SCAN_EVALS:
                scans += 1

        def per_op(v):
            return v / ops

        def ms(v):
            return 1e3 * v / ops

        convexity = [n for n in count if n.startswith("convexity.")]
        golden = [n for n in count if n.startswith("golden.")]
        return {
            "expressions.build_ms": ms(total["expressions.function_from_expression"]),
            "expressions.eval_calls": per_op(count["expressions.evaluate"]),
            "expressions.eval_points": per_op(extra["expressions.evaluate"]),
            "expressions.eval_ms": ms(total["expressions.evaluate"]),
            "measure.profile_queries": per_op(count["measure.DistributionProfile.at"]),
            "measure.profile_self_ms": ms(selft["measure.DistributionProfile.at"]),
            "sugeno.integral_calls": per_op(count["sugeno.sugeno_integral"]),
            "sugeno.fixed_point_ms": ms(total["sugeno.sugeno_fixed_point"]),
            "sugeno.fallbacks": per_op(fallbacks),
            "sugeno.supmin_exact_ms": ms(total["sugeno.sugeno_supmin_exact"]),
            "sugeno.self_ms": ms(layer_self["sugeno"]),
            "bounds.solve_calls": per_op(count["bounds.solve_beta"]),
            "bounds.g_evals": per_op(extra["bounds.solve_beta"]),
            "bounds.scan_fallbacks": per_op(scans),
            "bounds.solve_ms": ms(total["bounds.solve_beta"]),
            "convexity.check_ms": ms(sum(total[n] for n in convexity)),
            "convexity.draws": per_op(sum(extra[n] for n in convexity)),
            "golden.entry_ms": ms(sum(total[n] for n in golden)),
            "cli.self_ms": ms(selft["cli.main"]),
        }


def sloc(src: Path) -> dict[str, int]:
    """Non-blank lines that are not only a comment, per library module."""
    out = {}
    for module in MODULES:
        lines = (src / "fuzzyhh" / f"{module}.py").read_text(encoding="utf-8").splitlines()
        out[f"{module}.sloc"] = sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))
    return out
