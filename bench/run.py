#!/usr/bin/env python3
"""circledyn benchmark: one workload per fresh process, one caller, closed loop.

    python3 bench/run.py --workload {scan,verify,beta,all} [--seed N]
                         [--seconds S] [--trace {0,1}]

A run repeats passes over the workload's items (back to back, in the order
the seed fixes) while another typical pass still fits in --seconds; it always
finishes at least one whole pass.  Every item's output is checked against the independent
reference in check.py outside the timed interval.

--trace 0 prints the end-to-end metrics: wall_s (median pass time),
item_p50_ms / item_p90_ms (quantiles over the items of each item's median
latency across the run's passes), setup_s (median over fresh interpreters of
start + `import circledyn` + input generation) and peak_rss_mb.  The four
timings are seconds at the reference speed: each is scaled by the benchmark's
own reference loop, timed between the items (speed.py), so that the host's
speed drift does not show in them.  The plain wall-clock pass time is printed
too, as raw_wall_s, but not gated.  --trace 1 spends the first half of the run
untraced, then wraps the program's functions (tracer.py) and prints the
per-module metrics, the tracing overhead and how much of the traced time the
module spans cover; traced outputs must equal the untraced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --workload all runs the three workloads in
turn, each in its own process, and prefixes every metric with the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 15
REF_PER_PROBE = 3
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; "
    "import circledyn, workloads; workloads.make_items(sys.argv[3], int(sys.argv[4]))"
)

END_TO_END = [
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Self time of each traced function: "<module>.<function>.self_s".
SELF_S = [
    "markov.build_markov_system",
    "markov.perron_bracket",
    "markov.find_rome",
    "markov.rome_char_poly",
    "markov.transitivity_certificate",
    "markov.enumerate_loops",
    "oracle.periods_up_to",
    "lifting.upper_lower",
    "lifting.rotation_number_monotone",
    "lifting.build_from_orbits",
    "arith.largest_root_above",
    "periods.per_from_rotation",
    "periods.m_set",
    "cofiniteness.report",
    "minentropy.q_series_enclosure",
    "minentropy.r_series_enclosure",
    "minentropy.beta",
    "graphext.extend",
    "graphext.verify_extension",
    "families.make",
    "families.verify",
    "families.mts1_scan",
]
SPAN_CALLS = [
    "oracle.periods_up_to",
    "lifting.rotation_interval",
    "minentropy.q_series_enclosure",
    "minentropy.r_series_enclosure",
]
COUNTERS = [
    "markov.classes",
    "markov.arrows",
    "markov.rome_size",
    "markov.loops",
    "oracle.witnesses",
    "lifting.compose.calls",
    "lifting.eval.calls",
    "arith.poly_eval.calls",
    "minentropy.series_terms",
]

PER_LAYER = (
    [(f"{name}.self_s", "s") for name in SELF_S]
    + [(f"{name}.calls", "count") for name in SPAN_CALLS]
    + [(name, "count") for name in COUNTERS]
    + [
        ("oracle.witness_ratio", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("trace.coverage", "ratio"),
    ]
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["scan", "verify", "beta", "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "circledyn").glob("*.py")))


def measure_setup(workload: str, seed: int) -> float:
    """Median time of a fresh interpreter that imports circledyn and generates
    the workload's inputs, in seconds at the reference speed."""
    from speed import Speed

    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload, str(seed)]
    times = []
    speed = Speed()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        for _ in range(REF_PER_PROBE):
            speed.sample()
    return statistics.median(times) * speed.scale()


class Passes:
    """Timed passes over the items, with the outputs checked between items.

    The reference loop is timed before the first item and after every item,
    outside the timed intervals, and each item time is scaled by the samples
    around it (speed.py).  `walls` are wall-clock pass times, `scaled_walls`
    and `latencies` are at the reference speed; `scales` is each pass's
    scaled over wall-clock time."""

    def __init__(self, workload: str, items: list):
        self.workload = workload
        self.items = items
        self.walls: list[float] = []
        self.scales: list[float] = []
        self.scaled_walls: list[float] = []
        self.latencies: list[list[float]] = [[] for _ in items]  # per item, one per pass
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, reference: list | None = None) -> list:
        import check
        import workloads
        from speed import Speed

        sigs = []
        problems = []
        rows = {}
        times = []
        speed = Speed()
        speed.sample()
        for i, item in enumerate(self.items):
            error = None
            t0 = time.perf_counter()
            try:
                out = workloads.run_item(self.workload, item)
            except Exception:
                error = traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            speed.sample()
            times.append(dt)
            sig = None
            if error is not None:
                found = [f"{workloads.label(item)}: raised\n{error}"]
            else:
                found = check_output(self.workload, item, out)
                sig = workloads.signature(out)
                if self.workload == "scan":
                    rows[item] = out.rows[0]
                del out
            if reference is not None and sig != reference[i]:
                found.append(f"{workloads.label(item)}: traced output differs from untraced")
            problems.append(found)
            sigs.append(sig)
        if self.workload == "scan":
            order = check.check_scan_order(rows)
            for i, item in enumerate(self.items):
                problems[i] += order.get(item, [])
        scaled = speed.scale_items(times)
        self.walls.append(sum(times))
        self.scaled_walls.append(sum(scaled))
        self.scales.append(sum(scaled) / sum(times))
        for i, dt in enumerate(scaled):
            self.latencies[i].append(dt)
        self.attempted += len(self.items)
        self.failed += sum(1 for found in problems if found)
        self.problems += [p for found in problems for p in found]
        return sigs

    def keep_going(self, start: float, seconds: float) -> bool:
        """Start another pass only if a typical pass still fits in the run."""
        return time.perf_counter() - start + statistics.median(self.walls) <= seconds


def check_output(workload: str, item: tuple, out) -> list[str]:
    import check
    import workloads as w

    if workload == "scan":
        return check.check_scan(item, out, w.SCAN_TOL)
    if workload == "verify":
        if item[0] == "family":
            return check.check_verify(item, out, w.VERIFY_TOL)
        return check.check_extension(item[:4], out, w.VERIFY_TOL)
    return check.check_beta(item, out, w.BETA_TOL)


def item_quantiles(latencies: list[list[float]]) -> tuple[float, float]:
    """p50 and p90 over the items of each item's median latency.

    Taking each item's median over the passes first keeps a pass-count change
    from moving the quantile between items of very different cost (verify's
    p90 lies between montevideo 4 at ~0.36 s and the extension of montevideo 5
    at ~0.46 s)."""
    per_item = [statistics.median(ts) for ts in latencies]
    if len(per_item) == 1:
        return per_item[0], per_item[0]
    return statistics.median(per_item), statistics.quantiles(per_item, n=10, method="inclusive")[8]


def end_to_end(workload: str, seed: int, items: list, seconds: float) -> tuple[Passes, dict]:
    setup_s = measure_setup(workload, seed)
    runs = Passes(workload, items)
    start = time.perf_counter()
    runs.run_pass()
    while runs.keep_going(start, seconds):
        runs.run_pass()
    p50, p90 = item_quantiles(runs.latencies)
    values = {
        "wall_s": statistics.median(runs.scaled_walls),
        "item_p50_ms": 1000 * p50,
        "item_p90_ms": 1000 * p90,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return runs, values


def traced(workload: str, items: list, seconds: float) -> tuple[Passes, dict, dict]:
    from tracer import Tracer, self_times, top_level_seconds

    start = time.perf_counter()
    plain = Passes(workload, items)
    reference = plain.run_pass()
    while plain.keep_going(start, seconds / 2):
        plain.run_pass()

    runs = Passes(workload, items)
    per_pass = []
    tr = Tracer()
    tr.install()
    try:
        while not per_pass or runs.keep_going(start, seconds):
            tr.reset()
            runs.run_pass(reference)
            per_pass.append((self_times(tr.spans), Counter(tr.counts), top_level_seconds(tr.spans)))
    finally:
        tr.uninstall()

    def med(f, median=statistics.median):
        return median([f(*p) for p in per_pass])

    values = {}
    for name in SELF_S:
        values[f"{name}.self_s"] = med(lambda st, c, top: st.get(name, (0.0, 0))[0])
    # counts repeat exactly from pass to pass; median_low keeps them integers
    for name in SPAN_CALLS:
        values[f"{name}.calls"] = med(lambda st, c, top: st.get(name, (0.0, 0))[1], statistics.median_low)
    for name in COUNTERS:
        values[name] = med(lambda st, c, top: c[name], statistics.median_low)
    values["oracle.witness_ratio"] = med(
        lambda st, c, top: c["oracle.witnesses"] / c["oracle.loops_solved"] if c["oracle.loops_solved"] else 0.0
    )
    trace_wall = statistics.median(runs.walls)
    values["trace.wall_s"] = trace_wall
    # at the reference speed, so that host drift between the halves cancels
    values["trace.overhead_frac"] = statistics.median(runs.scaled_walls) / statistics.median(plain.scaled_walls) - 1
    values["trace.coverage"] = statistics.median(top / wall for (_, _, top), wall in zip(per_pass, runs.walls))
    # untraced passes count toward attempted / failed too
    runs.attempted += plain.attempted
    runs.failed += plain.failed
    runs.problems = plain.problems + runs.problems
    info = {"untraced_passes": len(plain.walls), "untraced_wall_s": statistics.median(plain.walls)}
    return runs, values, info


def run_one(args) -> int:
    import workloads

    items = workloads.make_items(args.workload, args.seed)
    if args.trace:
        runs, values, info = traced(args.workload, items, args.seconds)
        units = dict(PER_LAYER)
    else:
        runs, values = end_to_end(args.workload, args.seed, items, args.seconds)
        info = {}
        units = dict(END_TO_END)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "item_order": [workloads.label(it) for it in items],
        "passes": len(runs.walls),
        "pass_walls_s": [round(w, 4) for w in runs.walls],
        "pass_scales": [round(k, 4) for k in runs.scales],
        "latency_samples": sum(len(ts) for ts in runs.latencies),
        "failed_frac": runs.failed / runs.attempted,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        **info,
    }
    print("record " + json.dumps(record))
    for problem in runs.problems[:20]:
        print("problem " + problem)
    for name, value in values.items():
        print(f"{args.workload:>7} {name:<40} {value:>14.6g} {units[name]}")
    print(f"{args.workload:>7} {'failed_frac':<40} {record['failed_frac']:>14.6g} ratio "
          f"({runs.failed} of {runs.attempted} items)")
    print(f"{args.workload:>7} {'raw_wall_s':<40} {statistics.median(runs.walls):>14.6g} s "
          "(wall clock, not scaled, not gated)")
    result = {
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; metrics prefixed with the workload."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "circledyn" / "__init__.py").is_file():
        print(f"bench: no circledyn package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
