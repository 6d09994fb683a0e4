"""Measure one workload in this process and print one JSON line.

Usage (normally started by run.py, with PYTHONPATH pointing at src/):
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]
    python3 bench/worker.py --workload NAME --seed N --setup-only

A run imports critgroups and builds the seeded inputs as blocks (set-up),
runs every block once as a warm-up whose answers the workload's checks
judge, then runs the blocks in turn, cycle after cycle, for the measuring
time, comparing every answer with the warm-up's. With --trace 1 the time is
split: untraced cycles first, then cycles with the package's functions
wrapped in spans.

Times are given at a fixed reference speed of the machine. A calibration
computation of fixed work, written here and not in the package, runs before
every item of a block and after the block; each call's latency is divided by
the median of the calibrations of its run of the block, and the median of
that ratio over the run's cycles, times CAL_NOMINAL_S, is the call's time. The shared host this was built
on slows every process on it alike, by up to two thirds, for seconds to
minutes at a time; the calibration slows down with the workload, so the
ratio cancels that, while any change in the package's own cost shows in full.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

import tracing
from workloads import ROOT, WORKLOADS, BlockRun

# End-to-end metrics (tracing off); setup_s is added by run.py.
E2E_UNITS = {"wall_s": "s", "items_per_s": "1/s", "call_p50_ms": "ms", "call_tail_ms": "ms", "peak_rss_mb": "MB"}


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics: name -> (unit, value computed from one cycle's trace summary).
PER_LAYER = {
    "graphs.calls": ("count", lambda s: s.get("graphs.calls", 0)),
    "graphs.busy_s": ("s", lambda s: s.get("graphs.busy", 0.0)),
    "linalg.snf_calls": ("count", lambda s: s.get("linalg.snf_calls", 0)),
    "linalg.snf_busy_s": ("s", lambda s: s.get("linalg.snf_busy", 0.0)),
    "linalg.snf_u_max_bits": ("bits", lambda s: s.get("linalg.snf_u_bits", 0)),
    "linalg.snf_v_max_bits": ("bits", lambda s: s.get("linalg.snf_v_bits", 0)),
    "linalg.det_calls": ("count", lambda s: s.get("linalg.det_calls", 0)),
    "linalg.det_busy_s": ("s", lambda s: s.get("linalg.det_busy", 0.0)),
    "linalg.det_max_bits": ("bits", lambda s: s.get("linalg.det_bits", 0)),
    "critical.laplacian_busy_s": ("s", lambda s: s.get("critical.laplacian_busy", 0.0)),
    "critical.group_calls": ("count", lambda s: s.get("critical.group_calls", 0)),
    "critical.group_self_s": ("s", lambda s: s.get("critical.group_self", 0.0)),
    "critical.query_calls": ("count", lambda s: s.get("critical.query_outer", 0)),
    "critical.query_busy_s": ("s", lambda s: s.get("critical.query_busy", 0.0)),
    "critical.pair_reports": ("count", lambda s: s.get("critical.pair_reports", 0)),
    "critical.generating_ratio": ("ratio", lambda s: _ratio(s.get("critical.generating", 0),
                                                            s.get("critical.pair_reports", 0))),
    "verify.examined": ("count", lambda s: s.get("verify.examined", 0)),
    "verify.coprime_ratio": ("ratio", lambda s: _ratio(s.get("verify.coprime", 0), s.get("verify.examined", 0))),
    "verify.snf_per_examined": ("ratio", lambda s: _ratio(s.get("verify.search_snf", 0),
                                                          s.get("verify.examined", 0))),
    "verify.search_self_s": ("s", lambda s: s.get("verify.search_self", 0.0)),
    "verify.reverify_busy_s": ("s", lambda s: s.get("verify.reverify_busy", 0.0)),
    "firing.reduce_calls": ("count", lambda s: s.get("firing.reduce_calls", 0)),
    "firing.reduce_busy_s": ("s", lambda s: s.get("firing.reduce_busy", 0.0)),
    "firing.replay_busy_s": ("s", lambda s: s.get("firing.replay_busy", 0.0)),
    "firing.moves": ("count", lambda s: s.get("firing.moves", 0)),
    "recurrences.calls": ("count", lambda s: s.get("recurrences.calls", 0)),
    "recurrences.busy_s": ("s", lambda s: s.get("recurrences.busy", 0.0)),
    "cli.main_busy_s": ("s", lambda s: s.get("cli.main_busy", 0.0)),
    "trace.spans": ("count", lambda s: s.get("trace.spans", 0)),
}
# Not computed from one cycle: traced wall_s minus untraced wall_s.
OVERHEAD = "trace.overhead_s"

MIN_CYCLES = 3
MIN_TRACED_CYCLES = 2
TAIL_BEYOND = 10


def _calibration_matrix(n: int = 40) -> list[list[int]]:
    rng = random.Random("critgroups-bench-calibration")
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


# Calibration: Bareiss elimination of a fixed 40 x 40 matrix with entries in
# -9..9 (interpreted loops over list rows, integers growing to 175 bits, as
# in the workloads). CAL_NOMINAL_S is its fastest time on a 2-vCPU Xeon VM
# with Python 3.11.7 in a quiet period, so times there read close to raw
# seconds when the machine is quiet.
CAL_MATRIX = _calibration_matrix()
CAL_NOMINAL_S = 0.004
SETUP_CAL_REPS = 15


def calibrate() -> float:
    """Seconds taken by one calibration computation."""
    t = perf_counter()
    a = [row[:] for row in CAL_MATRIX]
    prev = 1
    for k in range(len(a) - 1):
        piv = next(i for i in range(k, len(a)) if a[i][k])
        a[k], a[piv] = a[piv], a[k]
        akk, rk = a[k][k], a[k]
        for ri in a[k + 1:]:
            aik = ri[k]
            for j in range(k + 1, len(a)):
                ri[j] = (ri[j] * akk - aik * rk[j]) // prev
        prev = akk
    return perf_counter() - t


def _setup(name: str, seed: int, size: str):
    """Import critgroups and build the inputs; the set-up time is returned
    raw and at the reference speed, by the median of calibrations made
    right after it."""
    t0 = perf_counter()
    cg = importlib.import_module("critgroups")
    wl = WORKLOADS[name](size)
    blocks = wl.setup(cg, seed)
    setup_s = perf_counter() - t0
    src = (ROOT / "src").resolve()
    if src not in Path(cg.__file__).resolve().parents:
        raise SystemExit(f"critgroups was imported from {cg.__file__}, not from {src}")
    cal = median(calibrate() for _ in range(SETUP_CAL_REPS))
    return cg, wl, blocks, {"setup_s": setup_s * CAL_NOMINAL_S / cal, "raw_setup_s": setup_s}


def _cycles(cg, wl, blocks, refs, oks, seconds, min_cycles, tracer=None) -> dict:
    """Run every block in turn, cycle after cycle, until `seconds` have passed.

    Every answer is compared with the warm-up cycle's answer, which the
    workload's checks judged. Returns the call latencies of every block and
    the median calibration time of every run of a block (one list per
    cycle), the number of calibrations and, when traced, one summary per
    cycle.
    """
    runs = {"lats": [[] for _ in blocks], "ref": [[] for _ in blocks], "calibrations": 0,
            "attempted": 0, "failed": 0, "summaries": [], "spans": []}
    cycles = 0
    start = perf_counter()
    while cycles < min_cycles or perf_counter() - start < seconds:
        cycles += 1
        summary, rows = {}, []
        for b, block in enumerate(blocks):
            gc.collect()
            rnd = BlockRun(b, tracer, calibrate)
            answers = wl.run_block(cg, block, rnd)
            rnd.cal.append(calibrate())
            runs["lats"][b].append(rnd.lat)
            runs["ref"][b].append(median(rnd.cal))
            runs["calibrations"] += len(rnd.cal)
            runs["attempted"] += len(answers)
            runs["failed"] += abs(len(answers) - len(refs[b])) + sum(
                1 for a, r, ok in zip(answers, refs[b], oks[b]) if not (ok and a == r))
            if tracer is not None:
                spans = tracer.take()
                summary = tracing.combine(summary, tracing.summarize(spans))
                rows += tracing.span_rows(spans, len(rows))
        if tracer is not None:
            runs["summaries"].append(summary)
            runs["spans"] = rows  # the last cycle's spans are written out
    return runs


def _at_reference(runs) -> list[float]:
    """Each call's time at the reference speed, in call order.

    A repetition's latency is divided by the median calibration time of its
    run of the block; the call's time is the median of those ratios over
    the run's cycles, times CAL_NOMINAL_S.
    """
    return [CAL_NOMINAL_S * median(rep[j] / ref for rep, ref in zip(per_block, refs))
            for per_block, refs in zip(runs["lats"], runs["ref"]) for j in range(len(per_block[0]))]


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    cg, wl, blocks, setup = _setup(name, seed, size)
    refs, oks = [], []
    for b, block in enumerate(blocks):  # warm-up cycle, judged by the checks
        gc.collect()
        refs.append(wl.run_block(cg, block, BlockRun(b)))
        try:
            oks.append(wl.check(cg, block, refs[-1]))
        except Exception:  # a check that cannot even run fails the whole block
            traceback.print_exc()
            oks.append([False] * len(refs[-1]))
    attempted = sum(len(r) for r in refs)
    failed = sum(ok.count(False) for ok in oks)

    plain = _cycles(cg, wl, blocks, refs, oks, seconds / 2 if trace else seconds, MIN_CYCLES)
    runs = [plain]
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            runs.append(_cycles(cg, wl, blocks, refs, oks, seconds / 2, MIN_TRACED_CYCLES, tracer))
        finally:
            tracer.uninstall()
    attempted += sum(r["attempted"] for r in runs)
    failed += sum(r["failed"] for r in runs)

    calls = _at_reference(plain)
    wall = sum(calls)  # the whole set of operations
    detail = {
        "workload": name, "seed": seed, "size": size, **setup,
        "calibrations": plain["calibrations"],
        "calibration_median_s": median(r for refs in plain["ref"] for r in refs),
        "raw_wall_s": sum(median(rep[j] for rep in per_block)
                          for per_block in plain["lats"] for j in range(len(per_block[0]))),
        "blocks": len(blocks), "cycles": len(plain["lats"][0]),
        "items_per_cycle": sum(wl.count_items(r) for r in refs),
        "attempted": attempted, "failed": failed,
        "fail_ratio": _ratio(failed, attempted), "fail_ratio_base": attempted,
    }
    correct = failed == 0
    if not trace:
        # Percentiles over the calls of one cycle.
        lat = sorted(calls)
        if len(lat) <= TAIL_BEYOND:
            raise SystemExit(f"{name}: {len(lat)} calls leave no tail with {TAIL_BEYOND} samples beyond it")
        metrics = {
            "wall_s": wall,
            "items_per_s": detail["items_per_cycle"] / wall,
            "call_p50_ms": 1000 * median(lat),
            "call_tail_ms": 1000 * lat[-1 - TAIL_BEYOND],
        }
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        detail["calls_per_cycle"] = len(lat)
        detail["call_tail_percentile"] = 100 * (len(lat) - TAIL_BEYOND) / len(lat)
        units = E2E_UNITS
    else:
        traced = runs[1]
        summaries = traced["summaries"]
        counts = [{k: v for k, v in s.items() if isinstance(v, int)} for s in summaries]
        drift = {k for c in counts[1:] for k in set(c) | set(counts[0]) if c.get(k) != counts[0].get(k)}
        if drift:
            correct = False
            detail["count_drift"] = sorted(drift)
        metrics = {m: median(fn(s) for s in summaries) if unit == "s" else fn(summaries[0])
                   for m, (unit, fn) in PER_LAYER.items()}
        traced_wall = sum(_at_reference(traced))
        metrics[OVERHEAD] = traced_wall - wall
        units = {m: unit for m, (unit, _) in PER_LAYER.items()} | {OVERHEAD: "s"}
        trace_file = ROOT / ".bench_out" / f"trace-{name}-{seed}.jsonl"
        tracing.write_spans(trace_file, traced["spans"])
        detail.update({"traced_cycles": len(summaries), "untraced_wall_s": wall, "traced_wall_s": traced_wall,
                       "trace_file": str(trace_file.relative_to(ROOT))})
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "detail": detail,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        print(json.dumps(_setup(args.workload, args.seed, args.size)[3]))
        return 0
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
