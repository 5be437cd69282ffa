"""pbcap benchmark: drives the CLI on one seeded workload and prints its metrics.

    python3 perfbench/run.py --workload {tag,pdp-mix,pdp-miss} --seed N \
        --seconds S --trace {0,1} [--suite {production,mock}]

Run from the repository root.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  A run record with the raw and probe seconds of
every request, the Python version, the CPU count, the commit and the
seed goes to ``.perfbench_work/records/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads
from runner import normalised, rate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUPS = 5  # set-ups per run, each in a fresh process; setup_s is their median
BUDGET_S = 150  # every pbcap process must have ended by then, leaving time for the oracle


def spawn(work: Path, index: int, seconds: float, trace: int, deadline: float) -> dict:
    """Run one pbcap process (runner.py) to completion and return its result."""
    subprocess.run(
        [sys.executable, str(HERE / "runner.py"), str(work), str(index), repr(seconds), str(trace)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=subprocess.DEVNULL,
        timeout=max(1.0, deadline - time.monotonic()), check=True,
    )
    return json.loads((work / f"proc{index}" / "result.json").read_text(encoding="utf-8"))


def execute(workload: str, seed: int, seconds: float, trace: int, suite: str, work: Path):
    """Generate the inputs, set up SETUPS times and run the timed loop once.

    Returns (plan, results): results[0] comes from the process that also
    ran the timed loop; the others only set up (not made when tracing).
    """
    deadline = time.monotonic() + BUDGET_S
    plan = workloads.generate(workload, seed, suite, work)
    setup_only = [] if trace else [spawn(work, i, 0, 0, deadline) for i in range(1, SETUPS)]
    return plan, [spawn(work, 0, seconds, trace, deadline)] + setup_only


def evaluate(plan: dict, results: list[dict], work: Path) -> list[list[str]]:
    """Oracle verdicts for every warm-up and timed request, in that order."""
    verdicts = []
    for index, result in enumerate(results):
        warm = result["setup"]["warmup"]
        pairs = [(plan["warmup"][index], warm)]
        pairs += [(plan["requests"][rec["i"]], rec) for rec in result.get("requests", [])]
        found = oracle.check(plan, pairs, work / f"proc{index}")
        if any(code != 0 for code in warm["step_exits"] + [result.get("traced_compile_exit", 0)]):
            found[0].append(f"set-up commands exited {warm['step_exits']}")
        verdicts += found
    return verdicts


def end_to_end(results: list[dict]) -> dict:
    timed = results[0]["requests"]
    latency = normalised(timed)
    values = {
        "latency_p50_s": (statistics.median(latency), "s"),
        "latency_p90_s": (statistics.quantiles(latency, n=10)[8], "s"),
        "requests_per_s": (rate(timed), "1/s"),
        "peak_rss_mb": (results[0]["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(r["setup"]["setup_s"] for r in results), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def commit() -> str:
    if not (ROOT / ".git").exists():  # do not report an enclosing repository's commit
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description="pbcap CLI benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", choices=("production", "mock"), default="production")
    args = parser.parse_args()

    if not (SRC / "pbcap" / "cli.py").is_file():
        print(f"pbcap sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan, results = execute(args.workload, args.seed, args.seconds, args.trace, args.suite, work)
        verdicts = evaluate(plan, results, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for v in verdicts if v)
    metrics = results[0]["layers"] if args.trace else end_to_end(results)
    timed = results[0]["requests"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "suite": args.suite, "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)), "commit": commit(),
        "samples": len(timed), "attempted": len(verdicts), "failed": failed,
        "fail_share": failed / len(verdicts),
        "failures": [v for v in verdicts if v][:10],
        "absent_layers": results[0].get("absent_layers", []),
        "raw_s": [r["raw_s"] for r in timed], "probe_s": [r["probe_s"] for r in timed],
        "setup_raw_s": [r["setup"]["raw_s"] for r in results],
        "setup_probe_s": [r["setup"]["probe_s"] for r in results],
        "metrics": metrics,
    }
    records = WORK_ROOT / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record {path.relative_to(ROOT)}: {len(timed)} timed requests, fail_share {record['fail_share']}, "
          f"absent layers {record['absent_layers']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(verdicts), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
