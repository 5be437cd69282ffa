"""The process that runs pbcap: one set-up, then optionally the timed loop.

    python3 runner.py WORKDIR INDEX SECONDS TRACE

runs with WORKDIR as its working directory, reads ``plan.json`` there and
writes ``procINDEX/result.json``.  Every pbcap command goes through the
click entry point in-process, ``pbcap.cli.cli.main(argv,
standalone_mode=False)``, one after another with no think time.  Every
timing is multiplied by ``NOMINAL_S / probe``, with the probe measured
right after the timed work.  With SECONDS = 0 the process only sets up.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from probe import NOMINAL_S, Probe
from tracing import LAYERS, REQUEST, SETUP_LAYERS, HIT_LAYER, Tracer

LOG_NAME = "decisions.log"


def pin_to_one_cpu() -> None:
    """Keep this process and its probe on one CPU, so the probe sees the
    same core, clock and neighbours as the request it normalises."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Session:
    def __init__(self, plan: dict, proc_dir: Path, probe: Probe):
        self.plan = plan
        self.suite = plan["suite"]
        self.dir = proc_dir
        self.probe = probe
        self.main = None
        self.tracer = None
        self.compiled = str(proc_dir / "compiled.json")
        self.store = proc_dir / "store"
        self.out = proc_dir / "out"
        self._log_offset = 0

    def invoke(self, argv: list[str]) -> dict:
        out, err = io.StringIO(), io.StringIO()
        code, error = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                if self.tracer is None:
                    rv = self.main(argv, prog_name="pbcap", standalone_mode=False)
                else:
                    rv = self.tracer.span(REQUEST, self.main, argv, prog_name="pbcap", standalone_mode=False)
                code = rv if isinstance(rv, int) else 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except Exception as exc:  # a failed request is counted, not fatal
                code, error = None, repr(exc)
            raw = perf_counter() - start
        return {"raw_s": raw, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
                "error": error}

    def argv(self, req: dict) -> list[str]:
        if self.plan["workload"] == "tag":
            return ["user", "tag", "--graph", req["graph"], "--admin-pk", self.plan["admin_pk"],
                    "--user-sk", self.plan["user_sk"], "--payload", req["payload"],
                    "--out", str(self.out / req["out"]), "--file-id", req["file_id"], "--suite", self.suite]
        return ["pdp", "classify", req["submission"], "--policies", self.compiled,
                "--admin-pk", self.plan["admin_pk"], "--user-pk", req["user_pk"],
                "--storage-root", str(self.store), "--suite", self.suite]

    def new_log_lines(self) -> list[str]:
        path = self.store / LOG_NAME
        if not path.exists():
            return []
        with path.open("rb") as fh:
            fh.seek(self._log_offset)
            data = fh.read()
        self._log_offset += len(data)
        return data.decode("utf-8").splitlines()

    def request(self, req: dict, index) -> dict:
        record = self.invoke(self.argv(req))
        record["probe_s"] = self.probe.measure()
        record["i"] = index
        record["log"] = self.new_log_lines()
        return record

    def compile_argv(self) -> list[str]:
        return ["pap", "compile", "--policies", self.plan["policies"], "--admin-sk", self.plan["admin_sk"],
                "--out", self.compiled, "--force", "--suite", self.suite]

    def setup(self, warmup: dict) -> dict:
        """Import, key generation, policy compilation and one warm-up request,
        each step normalised by the probe right after it."""
        self.store.mkdir(parents=True)
        self.out.mkdir(parents=True)
        keys = str(self.dir / "keys")
        start = perf_counter()
        self.main = importlib.import_module("pbcap.cli").cli.main
        steps = [(perf_counter() - start, self.probe.measure())]
        argvs = [["pap", "keygen", "--out-dir", keys, "--suite", self.suite],
                 ["user", "keygen", "--out-dir", keys, "--suite", self.suite]]
        if "policies" in self.plan:
            argvs.append(self.compile_argv())
        step_exits = []
        for argv in argvs:
            done = self.invoke(argv)
            step_exits.append(done["exit"])
            steps.append((done["raw_s"], self.probe.measure()))
        warm = self.request(warmup, "warmup")
        warm["step_exits"] = step_exits
        steps.append((warm["raw_s"], warm["probe_s"]))
        return {"raw_s": sum(raw for raw, _ in steps), "probe_s": [p for _, p in steps],
                "setup_s": sum(raw * NOMINAL_S / p for raw, p in steps), "warmup": warm}

    def loop(self, start: int, seconds: float) -> list[dict]:
        """Closed loop over the pool from ``start`` until ``seconds`` have passed
        and the current block is complete, or until the pool runs out.  Whole
        blocks keep the request mix, and so the latency quantiles, the same
        from run to run."""
        requests, block = self.plan["requests"], self.plan["block"]
        deadline = perf_counter() + seconds
        records = []
        i = start
        while i < len(requests) and (
                i == start or perf_counter() < deadline or (i - start) % block):
            if self.tracer is not None:
                self.tracer.request = i
            records.append(self.request(requests[i], i))
            i += 1
        return records


def normalised(records: list[dict]) -> list[float]:
    return [r["raw_s"] * NOMINAL_S / r["probe_s"] for r in records]


def rate(records: list[dict]) -> float:
    """Requests per host-normalised second."""
    return len(records) / sum(normalised(records))


def layer_metrics(tracer: Tracer, records: list[dict], setup_probe_s: float) -> dict:
    """Per traced request: calls and host-normalised self time of each layer."""
    factor = {r["i"]: NOMINAL_S / r["probe_s"] for r in records}
    factor["setup"] = NOMINAL_S / setup_probe_s
    calls, self_s = defaultdict(int), defaultdict(float)
    for name, self_t, key in tracer.self_times():
        scope = "setup" if key == "setup" else "request"
        calls[name, scope] += 1
        self_s[name, scope] += self_t * factor[key]
    metrics = {}
    for name in list(LAYERS) + [REQUEST]:
        scope, per = ("setup", 1) if name in SETUP_LAYERS else ("request", len(records))
        metrics[f"{name}.calls"] = {"value": calls[name, scope] / per, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s[name, scope] / per, "unit": "s"}
    hit_calls = calls[HIT_LAYER, "request"]
    metrics[f"{HIT_LAYER}.hit_ratio"] = {"value": tracer.hits / hit_calls if hit_calls else 0.0, "unit": "ratio"}
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", type=Path)
    parser.add_argument("index", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("trace", type=int, choices=(0, 1))
    args = parser.parse_args()

    os.chdir(args.workdir)
    plan = json.loads(Path("plan.json").read_text(encoding="utf-8"))
    proc_dir = Path(f"proc{args.index}")
    pin_to_one_cpu()
    with Probe() as probe:
        session = Session(plan, proc_dir, probe)
        result = {"setup": session.setup(plan["warmup"][args.index])}
        if args.seconds and not args.trace:
            result["requests"] = session.loop(0, args.seconds)
            result["peak_rss_mb"] = peak_rss_mb()
        elif args.seconds:
            untraced = session.loop(0, args.seconds / 2)
            session.tracer = tracer = Tracer()
            tracer.install()
            setup_probe_s = NOMINAL_S
            if "policies" in plan:
                tracer.request = "setup"
                result["traced_compile_exit"] = session.invoke(session.compile_argv())["exit"]
                setup_probe_s = probe.measure()
            traced = session.loop(len(untraced), args.seconds / 2)
            result["requests"] = untraced + traced
            result["layers"] = layer_metrics(tracer, traced, setup_probe_s)
            result["layers"]["trace.overhead"] = {"value": rate(traced) / rate(untraced), "unit": "ratio"}
            result["absent_layers"] = tracer.absent
    (proc_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
