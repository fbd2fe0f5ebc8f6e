"""rectmatch benchmark: one closed-loop caller, no threads.

    python3 perfbench/run.py --workload approx-random --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The run sets its inputs up from the seed (several times, for ``setup_s``),
then runs whole rounds of operations until ``--seconds`` have passed.
Every answer is checked outside the timed call; a wrong answer or an
exception counts as a failed operation and the run goes on.

The last line of standard output is one JSON object.  With ``--trace 0`` it
holds the end-to-end metrics; with ``--trace 1`` each operation is also
run again with every stage wrapped in a span, and it holds the per-layer
metrics (the spans are written to ``perfbench/out/``).
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5

WORKLOADS = ("approx-random", "oracle-exact", "reduction")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def use_checkout_source() -> None:
    """Import rectmatch from this checkout's src, or stop with exit code 2."""
    src = ROOT / "src"
    if not (src / "rectmatch" / "__init__.py").is_file():
        print(f"error: no rectmatch package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


class Run:
    """Outcomes of the timed calls of one run."""

    def __init__(self, tracer, check_failed):
        self.tracer = tracer
        self.check_failed = check_failed
        self.op_s: list[float] = []     # failed operations count as +inf
        self.timed = 0.0                # all timed calls
        self.traced_base = 0.0          # direct time of the calls run traced
        self.traced = 0.0               # their traced reruns
        self.traced_ops = 0
        self.correct = 0
        self.wrong = 0                  # answers that failed their check
        self.failures: Counter = Counter()
        self.names: list[str] = []

    def op(self, op) -> None:
        """Time, rerun traced when tracing, and check one operation."""
        self.names.append(op.name)
        if self.tracer is not None:
            self.tracer.op = len(self.names) - 1
        # A fresh PointSet per call, so nothing one call caches on an
        # instance speeds up the next.
        points = type(op.points)(op.points.points)
        gc.collect()
        t0 = perf_counter()
        try:
            answer = op.call(points)
        except Exception as exc:
            self.timed += perf_counter() - t0
            self._failed(op, exc)
            return
        dt = perf_counter() - t0
        self.timed += dt
        try:
            if self.tracer is None:
                op.check(points, answer)
            else:
                self._traced(op, answer, dt)
                with self.tracer.instrument(["verify_matching"]):
                    op.check(points, answer)
        except Exception as exc:
            self._failed(op, exc)
            return
        self.correct += 1
        self.op_s.append(dt)

    def _traced(self, op, answer, direct: float) -> None:
        points = type(op.points)(op.points.points)
        gc.collect()
        t0 = perf_counter()
        with self.tracer.instrument():
            again = op.call(points)
        dt = perf_counter() - t0
        self.traced_base += direct
        self.traced += dt
        self.traced_ops += 1
        if again != answer:
            raise self.check_failed("the traced call gave a different answer")

    def _failed(self, op, exc) -> None:
        self.op_s.append(math.inf)
        self.wrong += isinstance(exc, self.check_failed)
        key = f"{type(exc).__name__} on {op.name.rsplit('/', 1)[0]}"
        if not self.failures[key]:
            print(f"{key}: {str(exc)[:300]}", file=sys.stderr)
            if not isinstance(exc, (self.check_failed, RecursionError)):
                traceback.print_exception(exc, limit=-3, file=sys.stderr)
        self.failures[key] += 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    use_checkout_source()
    import workloads as wl
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    ref = wl.load_reference()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        if tracer is not None:
            tracer.op = "setup"
        t0 = perf_counter()
        workload = wl.BUILDERS[args.workload](args.seed, ref, tracer)
        setup_s.append(perf_counter() - t0)

    run = Run(tracer, wl.CheckFailed)
    # The deadline is on wall time, so untimed work (checks, traced reruns) cannot
    # stretch a run however fast the calls become.
    start = perf_counter()
    deadline = start + args.seconds
    rounds = 0
    while perf_counter() < deadline:
        for op in workload.rounds[rounds % len(workload.rounds)]:
            run.op(op)
        rounds += 1

    attempted = len(run.op_s)
    failed = attempted - run.correct
    print(f"{args.workload} seed {args.seed}: {rounds} rounds in "
          f"{perf_counter() - start:.2f} s, {attempted} ops, {failed} failed, "
          f"timed {run.timed:.2f} s, tail = p{workload.tail_pct}",
          file=sys.stderr)
    for key, n in sorted(run.failures.items()):
        print(f"  failed {n}x: {key}", file=sys.stderr)

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": run.correct / run.timed,
            "op_s.p50": percentile(run.op_s, 50),
            "op_s.tail": percentile(run.op_s, workload.tail_pct),
            "ok_frac": run.correct / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = metric_units("end_to_end")
    else:
        units = metric_units("per_layer")
        values = layer_metrics(tracer, run, units)
        tracer.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json", run.names)
    result = {
        "correct": not run.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, run: Run, names) -> dict[str, float]:
    """Self time of each stage span (`<span>.s`) and each count, per
    traced operation; for the `gadgets` layer, which builds the inputs,
    per set-up."""
    ops = max(run.traced_ops, 1)
    self_op = tracer.self_times([s for s in tracer.spans if s[4] != "setup"])
    self_setup = tracer.self_times([s for s in tracer.spans if s[4] == "setup"])
    values = {}
    for name in names:
        setup = name.startswith("gadgets.")
        if name.endswith(".s"):
            total = (self_setup if setup else self_op).get(name[:-2], 0.0)
        else:
            total = tracer.counts.get(name, 0)
        values[name] = total / (SETUP_REPEATS if setup else ops)
    classified = tracer.counts.get("independent_set.pairs_classified", 0)
    values["independent_set.intersect_ratio"] = (
        tracer.counts.get("independent_set.pairs_intersecting", 0) / classified
        if classified else 0.0)
    direct = run.traced_base
    # Layer time inside the traced calls: every stage's self time, not the
    # tracer's own counting and not the checks' verify spans.
    covered = sum(t for name, t in self_op.items()
                  if not name.startswith("trace.") and name != "matching.verify")
    values["trace.overhead_frac"] = (run.traced - direct) / direct if direct else 0.0
    values["trace.coverage_frac"] = covered / direct if direct else 0.0
    return values


if __name__ == "__main__":
    sys.exit(main())
