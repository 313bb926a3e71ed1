#!/usr/bin/env python3
"""iwalambda benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reflection_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

    reflection_sweep  reflection_check over every admissible (S, T) of ten fields
    order_tables      level_order_table + fit_parameters, shallow and deep windows
    cli_cold          one fresh `python -m iwalambda.cli` process per operation

With --trace 0 the run measures the end-to-end metrics with no tracing;
with --trace 1 it runs a fixed number of cycles once untraced and once
traced and reports the per-layer metrics.  Each workload's output ends with
one JSON line {"correct", "attempted", "failed", "metrics"}; a fuller record
with run metadata goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER, UNITS, end_to_end, layer_metrics, layer_shares, merge_agg
from workloads import WORKLOADS, generate, input_hash

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
SETUP_SAMPLES = 11
TRACE_CYCLES = {"reflection_sweep": 40, "order_tables": 30, "cli_cold": 2}
CHILD_TIMEOUT = 150
TRACEBACK = b"Traceback (most recent call last)"


class Bench:
    def __init__(self, root: str, workload: str, seed: int, seconds: int):
        self.root = root
        self.workload = workload
        self.seconds = seconds
        self.out = os.path.join(HERE, "out")
        os.makedirs(self.out, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
        self.inputs = generate(workload, seed)
        self.inputs_path = self._path(f"inputs-{workload}.json")
        with open(self.inputs_path, "w", encoding="utf-8") as fh:
            json.dump(self.inputs, fh)
        self.backend = None

    def _path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def _run(self, cmd: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, timeout=CHILD_TIMEOUT)

    def _worker(self, *args: str) -> subprocess.CompletedProcess:
        proc = self._run([sys.executable, os.path.join(HERE, "worker.py"), *args])
        if proc.returncode != 0:
            raise RuntimeError(f"worker {args[0]} failed:\n{proc.stderr.decode(errors='replace')}")
        return proc

    def _load(self, name: str) -> dict:
        with open(self._path(name), encoding="utf-8") as fh:
            return json.load(fh)

    # -- set-up -----------------------------------------------------------

    def setup_samples(self, count: int) -> list[float]:
        """Fresh interpreter to the end of the declared set-up, `count` times."""
        out = []
        for _ in range(count):
            t0 = time.monotonic()
            proc = self._worker("setup", self.workload, self.inputs_path)
            out.append(json.loads(proc.stdout.decode().strip().splitlines()[-1])["ready"] - t0)
        return out

    # -- in-process workloads ---------------------------------------------

    def measure_inprocess(self) -> dict:
        setup = self.setup_samples(SETUP_SAMPLES - 1)
        t0 = time.monotonic()
        self._worker("measure", self.workload, self.inputs_path, self._path("measure.json"),
                     str(self.seconds), str(MIN_OPS))
        res = self._load("measure.json")
        setup.append(res["ready"] - t0)
        self.backend = res["backend"]
        return dict(res, setup=setup, rss_mb=res["rss_kb"] / 1024)

    def trace_inprocess(self) -> dict:
        spans = self._path(f"spans-{self.workload}.json")
        self._worker("trace", self.workload, self.inputs_path, self._path("trace.json"),
                     str(TRACE_CYCLES[self.workload]), spans)
        res = self._load("trace.json")
        self.backend = res["backend"]
        return res

    # -- cli_cold ---------------------------------------------------------

    def cli_op(self, argv: list[str], trace_path: str | None = None) -> tuple[float, dict]:
        if trace_path is None:
            cmd = [sys.executable, "-m", "iwalambda.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), trace_path, *argv]
        t0 = time.perf_counter()
        try:
            proc = self._run(cmd)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, {"error": "timeout"}
        dt = time.perf_counter() - t0
        return dt, {
            "rc": proc.returncode,
            "sha": hashlib.sha256(proc.stdout).hexdigest(),
            "traceback": TRACEBACK in proc.stderr,
        }

    def cli_check(self, seq: list[int], outcomes: list[dict]) -> tuple[int, int, list[str]]:
        from worker import CheckReport, Outcome, check_cli

        ops = self.inputs["ops"]
        keys = sorted({k for k in seq if ops[k]["valid"]})
        with open(self._path("cli-argvs.json"), "w", encoding="utf-8") as fh:
            json.dump([ops[k]["argv"] for k in keys], fh)
        self._worker("clicheck", self._path("cli-argvs.json"), self._path("cli-refs.json"))
        res = self._load("cli-refs.json")
        self.backend = res["backend"]
        refs = dict(zip(keys, res["refs"]))
        report = CheckReport()
        wrapped = [Outcome(error=o["error"]) if "error" in o else Outcome(o) for o in outcomes]
        check_cli(ops, seq, wrapped, refs, report)
        return len(report.failed), len(report.wrong), report.reasons

    def measure_cli(self) -> dict:
        setup = self.setup_samples(SETUP_SAMPLES)
        ops, cycle = self.inputs["ops"], self.inputs["cycle"]
        seq, outcomes, latencies = [], [], []
        t_start = time.perf_counter()
        deadline = t_start + self.seconds
        i = 0
        while True:
            k = i % len(ops)
            dt, out = self.cli_op(ops[k]["argv"])
            seq.append(k)
            outcomes.append(out)
            latencies.append(dt)
            i += 1
            if i % cycle == 0 and time.perf_counter() >= deadline and i >= MIN_OPS:
                break
        wall = time.perf_counter() - t_start
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        failed, wrong, reasons = self.cli_check(seq, outcomes)
        return {"latencies": latencies, "wall": wall, "attempted": len(seq), "failed": failed,
                "wrong": wrong, "reasons": reasons, "setup": setup, "rss_mb": rss_mb}

    def trace_cli(self) -> dict:
        """Each traced operation runs once untraced and once traced,
        alternating which goes first."""
        ops, cycle = self.inputs["ops"], self.inputs["cycle"]
        agg = None
        span_dumps = []
        seq, outcomes = [], []
        child_path = self._path("cli-child-trace.json")
        for k in range(TRACE_CYCLES["cli_cold"] * cycle):
            argv = ops[k % len(ops)]["argv"]
            walls = {}
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                dt, out = self.cli_op(argv, child_path if traced else None)
                walls[traced] = dt
                seq.append(k % len(ops))
                outcomes.append(out)
            with open(child_path, encoding="utf-8") as fh:
                child = json.load(fh)
            os.remove(child_path)
            child["agg"]["traced_wall"] = walls[True]
            child["agg"]["untraced_wall"] = walls[False]
            agg = child["agg"] if agg is None else merge_agg(agg, child["agg"])
            span_dumps.append(child["spans"])
        with open(self._path("spans-cli_cold.json"), "w", encoding="utf-8") as fh:
            json.dump({"processes": span_dumps}, fh, separators=(",", ":"))
        failed, wrong, reasons = self.cli_check(seq, outcomes)
        return {"agg": agg, "attempted": len(seq), "failed": failed, "wrong": wrong, "reasons": reasons}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_one(root: str, workload: str, seed: int, seconds: int, trace: int) -> None:
    bench = Bench(root, workload, seed, seconds)
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "input_sha256": input_hash(bench.inputs),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cycle": bench.inputs["cycle"],
    }
    lines = []
    if trace:
        res = bench.trace_cli() if workload == "cli_cold" else bench.trace_inprocess()
        values = layer_metrics(res["agg"])
        names = [m[0] for m in PER_LAYER]
        shares = layer_shares(res["agg"])
        lines.append("self time per layer, share of traced op time: "
                     + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    else:
        res = bench.measure_cli() if workload == "cli_cold" else bench.measure_inprocess()
        values = end_to_end(res["latencies"], res["wall"], res["setup"], res["rss_mb"],
                            res["attempted"], res["failed"])
        names = [m[0] for m in END_TO_END]
        n = len(res["latencies"])
        beyond = sum(x * 1e3 > values["op_ms_p90"] for x in res["latencies"])
        lines.append(f"{n} timed operations in {res['wall']:.2f} s ({n // meta['cycle']} cycles); "
                     f"{beyond} samples above op_ms_p90; setup_s is the median of "
                     f"{len(res['setup'])} fresh interpreters")
    meta["backend"] = bench.backend
    metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in names}
    result = {"correct": res["wrong"] == 0, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    record = dict(meta=meta, reasons=res["reasons"], **result)
    with open(bench._path(f"result-{workload}-seed{seed}-trace{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for name in names:
        print(f"  {name:<42} {_fmt(values[name]):>14} {UNITS[name]}")
    for line in lines + [f"failure: {r}" for r in res["reasons"]]:
        print(line)
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or 'all' to run the three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "iwalambda", "__init__.py")):
        sys.stderr.write("perfbench: no src/iwalambda here; run from the root of an iwalambda checkout\n")
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_one(root, workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
