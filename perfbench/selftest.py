"""Self-test of the benchmark on the mock suite; takes a few seconds.

    python3 perfbench/selftest.py

For each workload it checks that one seed gives byte-identical inputs
and another seed different ones, that a short run is correct and
reports exactly the metrics BENCHMARK.json names, that the traced
run's call counts repeat across seeds, and that the oracle counts
deliberately wrong outcomes as failures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
SUITE = "mock"
SECONDS = 1.0


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def tree(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def fresh(name: str) -> Path:
    path = run.WORK_ROOT / "selftest" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def check_inputs(workload: str) -> None:
    first, again, other = fresh(f"{workload}-a"), fresh(f"{workload}-b"), fresh(f"{workload}-c")
    workloads.generate(workload, 7, SUITE, first)
    workloads.generate(workload, 7, SUITE, again)
    workloads.generate(workload, 8, SUITE, other)
    expect(tree(first) == tree(again), f"{workload}: seed 7 gave different inputs twice")
    expect(tree(first) != tree(other), f"{workload}: seeds 7 and 8 gave the same inputs")
    print(f"ok {workload}: seed 7 gives byte-identical inputs twice, seed 8 different ones")


def tamper(workload: str, plan: dict, results: list[dict], work: Path) -> int:
    """Spoil two timed requests, one in its recorded outcome and one on disk."""
    first, second = results[0]["requests"][:2]
    first["exit"] = 3
    req = plan["requests"][second["i"]]
    if workload == "tag":
        out = work / "proc0" / "out" / req["out"]
        doc = json.loads(out.read_text(encoding="utf-8"))
        doc["tags"][0]["z"] = "00" * 32
        out.write_text(json.dumps(doc), encoding="utf-8")
    elif req["decision"] is not None:
        stored = work / "proc0" / "store" / req["decision"]["storage_unit"] / req["file_id"]
        stored.write_bytes(stored.read_bytes() + b"!")
    else:
        second["log"].append(second["log"][0])
    return 2


def check_run(workload: str) -> None:
    work = fresh(f"{workload}-run")
    plan, results = run.execute(workload, 7, SECONDS, 0, SUITE, work)
    verdicts = run.evaluate(plan, results, work)
    expect(not any(verdicts), f"{workload}: clean run failed: {[v for v in verdicts if v][:3]}")
    expect(len(results[0]["requests"]) >= 2, f"{workload}: fewer than two timed requests")
    expect(set(run.end_to_end(results)) == END_TO_END, f"{workload}: end-to-end metric names differ")
    spoiled = tamper(workload, plan, results, work)
    verdicts = run.evaluate(plan, results, work)
    failed = sum(1 for v in verdicts if v)
    expect(failed == spoiled, f"{workload}: oracle counted {failed} of {spoiled} spoiled requests")
    print(f"ok {workload}: {len(verdicts)} requests correct; fail_share {failed / len(verdicts):.3f} "
          f"after spoiling {spoiled}")


def traced_calls(workload: str, seed: int) -> dict:
    work = fresh(f"{workload}-trace-{seed}")
    plan, results = run.execute(workload, seed, SECONDS, 1, SUITE, work)
    expect(not any(run.evaluate(plan, results, work)), f"{workload}: traced run failed")
    layers = results[0]["layers"]
    expect(set(layers) == PER_LAYER, f"{workload}: per-layer metric names differ")
    expect(not results[0]["absent_layers"], f"{workload}: absent layers {results[0]['absent_layers']}")
    return {k: v["value"] for k, v in layers.items() if k.endswith(".calls")}


def check_trace(workload: str) -> None:
    calls = traced_calls(workload, 7)
    expect(calls == traced_calls(workload, 8), f"{workload}: traced call counts differ across seeds")
    if workload == "pdp-miss":
        expect(calls["scheme.matches_trapdoor.calls"] == 12 and calls["scheme.verify_authenticity.calls"] == 1,
               f"pdp-miss: want 12 trapdoor tests and 1 authenticity check per request, got {calls}")
    if workload == "tag":
        expect(calls["scheme.make_tag.calls"] == 3, f"tag: want 3 make_tag calls per request, got {calls}")
    print(f"ok {workload}: traced call counts repeat across seeds")


def check_absent_layer() -> None:
    """A layer that a later version renames is recorded as absent; the rest
    are still wrapped and pass keyword arguments through."""
    from pbcap import provenance

    tracer = tracing.Tracer()
    tracer.install(dict(tracing.LAYERS, **{"gone.layer": ("pbcap.scheme", "no_such_function")}))
    expect(tracer.absent == ["gone.layer"], f"absent layers {tracer.absent}")
    graph = provenance.parse_graph(text="node a Artifact A\n")
    expect(len(graph.nodes) == 1 and [s[0] for s in tracer.spans] == ["provenance.parse_graph"],
           f"traced parse_graph recorded {tracer.spans}")
    print("ok a missing layer is recorded as absent; wrapped layers pass arguments through")


def check_command() -> None:
    """The benchmark's own command line: last stdout line is the result object."""
    out = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", "pdp-mix", "--seed", "3",
                          "--seconds", str(SECONDS), "--trace", "0", "--suite", SUITE],
                         capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"result {result}")
    print("ok run.py prints the result object")


def main() -> None:
    if not (run.SRC / "pbcap" / "cli.py").is_file():
        raise SystemExit(f"pbcap sources not found under {run.SRC}")
    sys.path.insert(0, str(run.SRC))
    try:
        for workload in workloads.WORKLOADS:
            check_inputs(workload)
            check_run(workload)
            check_trace(workload)
        check_command()
        check_absent_layer()  # last: it leaves this process's pbcap wrapped
    finally:
        shutil.rmtree(run.WORK_ROOT / "selftest", ignore_errors=True)


if __name__ == "__main__":
    main()
