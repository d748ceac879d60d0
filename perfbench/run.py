"""Run one treecut benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tree-bisect --seed 1 --seconds 15 --trace 0

Run it from the root of a treecut checkout: the library is imported from
src/. Each workload is a closed loop with one caller: the next op starts
when the previous one returns. Every op's output is checked, and a failed
op is printed and counted without stopping the run.

Times are CPU seconds of this process, scaled to a reference machine speed:
right after each timed op and each set-up build the benchmark times one pass
of a fixed calibration kernel (see Calibration), and the op's CPU time is
multiplied by CAL_MS over that pass's CPU time. On a shared host the speed
of the machine drifts within seconds and between runs by more than a
regression bound. CPU time leaves out the time the process waits for a
processor, and the scaling cancels most of the slowdown that other tenants
cause while it runs. The unscaled wall and CPU medians are printed beside
the metrics.

--trace 0 measures the end-to-end metrics with tracing off. One untimed op
under tracemalloc gives peak_mem_mb, and one untimed round (each op of the
workload once) warms up. Whole rounds are then timed until --seconds have
passed and at least 11 ops have run.

- op_ms.p50: the median op time.
- op_ms.tail: op_ms.p50 times the tail ratio, which is each op's time over
  its own label's median, at the highest rank with ten ratios above it. On a
  workload of one label this is the op time at that rank.
- vertices_per_s: instance vertices summed over the timed ops, over their
  summed time.
- width_sum, width_over_bound.max: over the first cut of each label.
- setup_s: the median of three builds of the workload's inputs.

The failed share of ops is printed as a line, not a metric, because it is
normally 0; attempted and failed carry it.

--trace 1 alternates untraced and traced rounds in ABBA order after one
warm-up round, prints the per-layer metrics of the traced rounds (see
tracing.py), and writes their spans to perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_OPS = 11  # the tail percentile needs ten samples above it
CAL_MS = 40.0  # reference CPU time of one calibration pass
CAL_SEED = 1


class Calibration:
    """A fixed pure-Python kernel whose CPU time tracks the machine's speed.

    It does the kind of work treecut does (list reads at random over a
    working set of some megabytes, dict updates, list appends) and calls no
    treecut code, so a change to the library leaves it alone.
    """

    def __init__(self):
        rng = random.Random(CAL_SEED)
        self.data = [rng.getrandbits(40) for _ in range(1 << 19)]
        self.order = [rng.randrange(1 << 19) for _ in range(1 << 16)]
        self.samples = []

    def scale(self, seconds):
        """Run one pass now and return `seconds` of CPU time in reference
        seconds: times CAL_MS over the pass's CPU time."""
        data, counts, out = self.data, {}, []
        start = time.process_time()
        for j in self.order:
            x = data[j]
            key = x & 8191
            counts[key] = counts.get(key, 0) + 1
            out.append(x ^ j)
        self.samples.append(time.process_time() - start)
        return seconds * CAL_MS / (1000.0 * self.samples[-1])


class Runner:
    """Runs ops, checks each output, and keeps the first result per op."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.calibration = None  # set to scale the times of timed ops
        self.unscaled = []  # (wall, CPU) seconds of each op
        self.attempted = 0
        self.failed = 0
        self.first = {}  # op label -> (width, width / bound, digest of B)
        self.peak_bytes = 0

    def attempt(self, op, trace_memory=False):
        """Run one op after a full collection and return its CPU seconds,
        scaled if the runner has a calibration."""
        gc.collect()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        if trace_memory:
            tracemalloc.start()
        out, error = None, None
        start, wall = time.process_time(), time.perf_counter()
        try:
            out = op.run()
        except Exception:
            error = traceback.format_exc()
        seconds = time.process_time() - start
        self.unscaled.append((time.perf_counter() - wall, seconds))
        if trace_memory:
            self.peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        if error is None:
            error = self._judge(op, out)
        if error is not None:
            self.failed += 1
            print("FAILED %s: %s" % (op.label, error.strip()))
        if self.calibration is not None:
            seconds = self.calibration.scale(seconds)
        return seconds

    def _judge(self, op, out):
        try:
            width, digest, problems = workloads.check(op, *out)
            share = width / out[2].bound
        except Exception:
            return traceback.format_exc()
        first = self.first.setdefault(op.label, (width, share, digest))
        if first[2] != digest:
            problems.append("B changed between calls (digest %s, then %s)"
                            % (first[2], digest))
        return "; ".join(problems) if problems else None

    def round(self, ops):
        """Each op once, in order: a list of (op, seconds)."""
        return [(op, self.attempt(op)) for op in ops]

    def rounds(self, ops, seconds, min_ops):
        """Whole rounds of ops until `seconds` have passed and `min_ops` ran."""
        timed = []
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or len(timed) < min_ops):
            timed.extend(self.round(ops))
        return timed


def tail_ratio(timed):
    """The highest ratio of an op's time to its label's median time that has
    ten ratios above it.

    Times of unlike ops (three trees, fifteen cut sizes) are normalised per
    label first. Ranked raw, the tail would fall at the edge of whichever
    label's group the number of whole rounds reaches, so a speed-up that fits
    one more round could move it to a slower label.
    """
    by_label = {}
    for op, s in timed:
        by_label.setdefault(op.label, []).append(s)
    median = {label: statistics.median(s) for label, s in by_label.items()}
    ratios = sorted(s / median[op.label] for op, s in timed)
    return ratios[len(ratios) - MIN_OPS]


def end_to_end(workload, seed, seconds):
    calibration = Calibration()
    setup = []
    for _ in range(SETUP_REPEATS):
        ops = None  # hold one instance set at a time
        gc.collect()
        start = time.process_time()
        ops = workloads.build(workload, seed)
        setup.append(calibration.scale(time.process_time() - start))
    runner = Runner()
    runner.attempt(ops[0], trace_memory=True)
    runner.round(ops)  # warm-up: no op's first call is timed
    runner.calibration, runner.unscaled = calibration, []
    timed = runner.rounds(ops, seconds, MIN_OPS)

    p50 = 1000.0 * statistics.median(s for _, s in timed)
    firsts = runner.first.values()
    metrics = {
        "op_ms.p50": (p50, "ms"),
        "op_ms.tail": (p50 * tail_ratio(timed), "ms"),
        "vertices_per_s": (sum(op.inst.n for op, _ in timed)
                           / sum(s for _, s in timed), "1/s"),
        "width_sum": (sum(f[0] for f in firsts), "edges"),
        "width_over_bound.max": (max((f[1] for f in firsts), default=None),
                                 "ratio"),
        "peak_mem_mb": (runner.peak_bytes / 1e6, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    print("op_ms.tail is op_ms.p50 times the p%.1f time ratio of %d timed"
          " ops (10 above it)"
          % (100.0 * (len(timed) - MIN_OPS + 1) / len(timed), len(timed)))
    print("unscaled op medians: %.6g ms wall, %.6g ms CPU; calibration"
          " pass median %.6g ms CPU (%d passes), reference %g ms"
          % (1000.0 * statistics.median(w for w, _ in runner.unscaled),
             1000.0 * statistics.median(c for _, c in runner.unscaled),
             1000.0 * statistics.median(calibration.samples),
             len(calibration.samples), CAL_MS))
    print("fail_frac = %.6g ratio (%d of %d ops)"
          % (runner.failed / runner.attempted, runner.failed,
             runner.attempted))
    return runner, metrics


def traced(workload, seed, seconds):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops = workloads.build(workload, seed)
    finally:
        tracer.uninstall()
    runner = Runner(tracer)
    plain, spanned, op_ids = [], [], set()

    def traced_round():
        first = runner.attempted + 1
        tracer.install()
        try:
            spanned.extend(runner.round(ops))
        finally:
            tracer.uninstall()
        op_ids.update(range(first, runner.attempted + 1))

    runner.round(ops)  # warm-up, so that neither mean holds first calls
    # untraced and traced rounds alternate in ABBA order, so a drift in
    # machine speed during the run moves both means alike
    pairs = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if pairs % 2:
            traced_round()
            plain.extend(runner.round(ops))
        else:
            plain.extend(runner.round(ops))
            traced_round()
        pairs += 1
    overhead = (statistics.fmean(s for _, s in spanned)
                / statistics.fmean(s for _, s in plain) - 1.0)
    metrics = tracing.layer_metrics(tracer, len(spanned), op_ids, overhead)
    for name in sorted(tracer.missing | tracer.broken):
        print("MISSING %s: not found, so the metrics built on it read null"
              % name)
    tracer.write(HERE / "out" / ("%s-seed%d.spans.jsonl" % (workload, seed)))
    return runner, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = HERE.parent / "src"
    if not (src / "treecut" / "__init__.py").is_file():
        sys.exit("perfbench: no treecut package under %s" % src)
    sys.path.insert(0, str(src))
    global workloads, tracing  # importable only once src/ is on the path
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of: %s"
                     % ", ".join(workloads.WORKLOADS))

    start = time.perf_counter()
    run = traced if args.trace else end_to_end
    runner, metrics = run(args.workload, args.seed, args.seconds)
    print("%s seed %d: %d ops in %.1f s, %d failed"
          % (args.workload, args.seed, runner.attempted,
             time.perf_counter() - start, runner.failed))
    for label, (width, share, digest) in runner.first.items():
        print("  %-24s width %-6d width/bound %.6f  B digest %s"
              % (label, width, share, digest))
    for name, (value, unit) in metrics.items():
        shown = "null" if value is None else "%.6g" % value
        print("  %-40s %12s %s" % (name, shown, unit))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
