"""critgroups benchmark: one seeded workload through the public entry points.

Usage, from the repository root:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: group_random, pairs_stack, search_coprime (see
bench/README.md). Single process, closed loop, one client, no threads.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics from a traced run.
The line before it is a JSON "detail" object: block and cycle counts, the tail
percentile and its sample count, fail_ratio with its base, set-up times, and
the raw seconds behind the times, which are given at a fixed reference speed
of the machine by a calibration interleaved with the calls (see worker.py).

Set-up (importing critgroups and building the inputs) is measured in
separate fresh processes, half before and half after the measuring run, as
well as in the measuring one, and setup_s is their median. The measuring
run happens in a fresh child process, so its peak memory is its own.
critgroups is imported from src/ of the checkout this file sits in; without
it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("group_random", "pairs_stack", "search_coprime")
SETUP_PROBES = 8
RUN_LIMIT_S = 170  # the whole run must end within 180 s


def _worker(args: list[str], timeout: float) -> dict:
    """Run bench/worker.py in its own process group; return its JSON line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker {' '.join(args)} did not finish in {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="critgroups benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the benchmark's own smoke test")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "critgroups" / "__init__.py").is_file():
        print(f"error: no critgroups sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    probes = SETUP_PROBES if not args.trace else 0

    def probe_setup(count):
        # Set-up probes before and after the measuring run, so that one slow
        # stretch of the machine does not hold all of them.
        return [_worker(common + ["--setup-only"], 30) for _ in range(count)]

    setups = probe_setup(probes // 2)
    left = RUN_LIMIT_S - 30 - (time.monotonic() - start)
    doc = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], left)
    setups += [doc["detail"]] + probe_setup(probes - probes // 2)
    metrics = doc["metrics"]
    detail = doc["detail"]
    if not args.trace:
        # Each set-up time is at the reference speed, by its own process's calibration.
        metrics["setup_s"] = {"value": median(s["setup_s"] for s in setups), "unit": "s"}
        detail["setup_runs_s"] = [s["setup_s"] for s in setups]
        detail["raw_setup_runs_s"] = [s["raw_setup_s"] for s in setups]
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
