"""In-process side of the benchmark: set-up, timed loop, traced run, checks.

Run from the root of a checkout with ``src`` on PYTHONPATH (run.py does
this).  Modes:

    worker.py setup   WORKLOAD INPUTS          set up, print the ready time
    worker.py measure WORKLOAD INPUTS OUT SECONDS MIN_OPS
    worker.py trace   WORKLOAD INPUTS OUT CYCLES SPANS
    worker.py clicheck INPUTS OUT              in-process reference of CLI argv

Every call into iwalambda goes through a module attribute (for example
``defect.reflection_check``) so that the tracer's patches apply.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback


class Outcome:
    """One operation's result: the value, or the exception it raised."""

    __slots__ = ("value", "error")

    def __init__(self, value=None, error=None):
        self.value = value
        self.error = error


class CheckReport:
    """Failed operations (any reason) and the subset with a wrong answer."""

    def __init__(self):
        self.failed: set[int] = set()
        self.wrong: set[int] = set()
        self.reasons: list[str] = []

    def fail(self, j: int, reason: str, wrong: bool) -> None:
        self.failed.add(j)
        if wrong:
            self.wrong.add(j)
        if len(self.reasons) < 10:
            self.reasons.append(f"op {j}: {reason}")


# ---------------------------------------------------------------------------
# workloads

class ReflectionSweep:
    """reflection_check on every admissible (S, T) of ten fields."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.ops = inputs["ops"]

    def setup(self) -> None:
        from iwalambda import characters, defect, fields

        self.mod = defect
        self.fields = []
        for f in self.inputs["setup"]["fields"]:
            F = fields.field_spec(f["ell"], f["conductor"], tuple(f["subgroup"]))
            F.require_mirror_valid()
            defect.ladic_chars_of(F)
            characters.teichmuller(F)
            self.fields.append(F)

    def run(self, op):
        i, S, T = op
        return self.mod.reflection_check(self.fields[i], S, T).holds

    def check(self, seq: list[int], outcomes: list[Outcome], report: CheckReport) -> None:
        """holds must be True; once per distinct tame set, defect_character
        must equal defect_oracle."""
        oracle: dict[tuple, bool] = {}
        for j, (k, out) in enumerate(zip(seq, outcomes)):
            i, S, T = self.ops[k]
            F = self.fields[i]
            if out.error is not None:
                report.fail(j, out.error, wrong=False)
                continue
            if out.value is not True:
                report.fail(j, f"identity fails for {F} S={S} T={T}", wrong=True)
            for side in (S, T):
                tame = tuple(p for p in side if p != F.ell)
                if not tame:
                    continue
                key = (i, tame)
                if key not in oracle:
                    try:
                        oracle[key] = self.mod.defect_character(F, tame) == self.mod.defect_oracle(F, tame)
                    except Exception as exc:  # the check itself failed: no answer to trust
                        oracle[key] = False
                        report.fail(j, f"defect oracle raised {type(exc).__name__}: {exc}", wrong=True)
                if not oracle[key]:
                    report.fail(j, f"defect oracle disagrees for {F} S={tame}", wrong=True)


class OrderTables:
    """level_order_table over a window, then fit_parameters."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.ops = inputs["ops"]

    def setup(self) -> None:
        from iwalambda import iwasawa

        self.mod = iwasawa

    def run(self, op):
        iw = self.mod
        spec = iw.ElementaryModuleSpec(
            op["ell"], rho=op["rho"], polys=tuple(map(tuple, op["polys"])), mus=tuple(op["mus"])
        )
        table = iw.level_order_table(spec, op["n_min"], op["n_max"], exponent_offset=op["offset"])
        fit = iw.fit_parameters(table, op["ell"]) if len(table.entries) >= 4 else None
        entries = tuple(sorted(table.entries.items()))
        return entries, (None if fit is None else (fit.rho, fit.mu, fit.lam, fit.nu))

    def expected_entries(self, op, oracle_top: bool, memo: dict) -> dict[int, int]:
        """x(n) from the closed-form free and mu parts plus the integer Smith
        form oracle for each polynomial; the top level only if oracle_top."""
        ell, off = op["ell"], op["offset"]
        out = {}
        for n in range(op["n_min"], op["n_max"] + (1 if oracle_top else 0)):
            dim, cap = ell**n, n + off
            x = op["rho"] * cap * dim + sum(dim * min(m, cap) for m in op["mus"])
            for f in op["polys"]:
                key = (tuple(f), ell, n, cap)
                if key not in memo:
                    memo[key] = self.mod.poly_level_valuation_direct(tuple(f), ell, n, cap)
                x += memo[key]
            out[n] = x
        return out

    def check(self, seq: list[int], outcomes: list[Outcome], report: CheckReport) -> None:
        """Tables match the direct oracle (sampled at the deepest level);
        stable windows recover (rho, mu + offset*rho, lambda); any fit
        reproduces its window."""
        rng = random.Random(self.inputs.get("seed", 0))
        deep = {}
        for k in sorted(set(seq)):
            op = self.ops[k]
            if op["ell"] ** op["n_max"] > 100:
                deep.setdefault(op["ell"], []).append(k)
        sampled = {rng.choice(ks) for ks in deep.values()}
        memo: dict = {}
        expected = {}
        for k in sorted(set(seq)):
            op = self.ops[k]
            top = op["ell"] ** op["n_max"] <= 100 or k in sampled
            try:
                expected[k] = self.expected_entries(op, top, memo)
            except Exception as exc:  # the oracle itself failed: no answer to trust
                expected[k] = exc
        for j, (k, out) in enumerate(zip(seq, outcomes)):
            op = self.ops[k]
            if out.error is not None:
                report.fail(j, out.error, wrong=False)
                continue
            if isinstance(expected[k], Exception):
                report.fail(j, f"oracle raised {type(expected[k]).__name__}: {expected[k]}", wrong=True)
                continue
            entries, fit = out.value
            table = dict(entries)
            bad = [n for n, x in expected[k].items() if table.get(n) != x]
            if bad or sorted(table) != list(range(op["n_min"], op["n_max"] + 1)):
                report.fail(j, f"order table differs from the oracle at levels {bad}", wrong=True)
                continue
            ell, rho = op["ell"], op["rho"]
            if op["stable"]:
                want = (rho, sum(op["mus"]) + op["offset"] * rho, sum(len(f) - 1 for f in op["polys"]))
                if fit is None or fit[:3] != want:
                    report.fail(j, f"stable window fit {fit} != {want}", wrong=True)
                    continue
            if fit is not None:
                r, mu, lam, nu = fit
                if any(r * n * ell**n + mu * ell**n + lam * n + nu != x for n, x in table.items()):
                    report.fail(j, f"fit {fit} does not reproduce its window", wrong=True)


def check_cli(ops: list[dict], seq: list[int], outcomes: list[Outcome], refs: dict, report: CheckReport) -> None:
    """Valid argv: exit 0, schema iwalambda/1 and stdout bytes equal to the
    same argv through cli.main in-process (refs).  Invalid argv: a non-zero
    exit and no Python traceback.  A traceback or an unexpected exit code
    fails the operation; only a wrong stdout or an accepted invalid argv
    counts as a wrong answer."""
    for j, (k, out) in enumerate(zip(seq, outcomes)):
        op = ops[k]
        argv = " ".join(op["argv"])
        if out.error is not None:
            report.fail(j, f"{out.error}: {argv}", wrong=False)
            continue
        got = out.value
        if got["traceback"]:
            report.fail(j, f"traceback, exit {got['rc']}: {argv}", wrong=False)
        elif not op["valid"]:
            if got["rc"] == 0:
                report.fail(j, f"invalid argv accepted: {argv}", wrong=True)
        elif got["rc"] != 0:
            report.fail(j, f"exit {got['rc']}: {argv}", wrong=False)
        else:
            ref = refs.get(k) or {}
            if ref.get("rc") != 0 or ref.get("schema") != "iwalambda/1" or ref.get("sha") != got["sha"]:
                report.fail(j, f"stdout differs from in-process cli.main: {argv}", wrong=True)


WORKLOADS = {"reflection_sweep": ReflectionSweep, "order_tables": OrderTables}


def attempt(workload, op) -> Outcome:
    try:
        return Outcome(workload.run(op))
    except Exception as exc:  # a failed operation is counted, never dropped
        return Outcome(error=f"{type(exc).__name__}: {exc}")


def timed_loop(workload, seconds: float, min_ops: int, cycle: int):
    """Closed loop, one client: run operations until at least `seconds` have
    passed and `min_ops` are done, stopping only at a cycle boundary."""
    ops = workload.ops
    seq, outcomes, latencies = [], [], []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    i = 0
    while True:
        k = i % len(ops)
        t0 = time.perf_counter()
        out = attempt(workload, ops[k])
        t1 = time.perf_counter()
        seq.append(k)
        outcomes.append(out)
        latencies.append(t1 - t0)
        i += 1
        if i % cycle == 0 and t1 >= deadline and i >= min_ops:
            return seq, outcomes, latencies, time.perf_counter() - t_start


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dump(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _backend() -> str:
    from iwalambda import _kernels

    return _kernels.BACKEND


def _check_source(root_src: str) -> None:
    import iwalambda

    if not iwalambda.__file__.startswith(root_src):
        raise SystemExit(f"iwalambda imported from {iwalambda.__file__}, not from {root_src}")


def mode_setup(name: str, inputs_path: str) -> None:
    inputs = _load(inputs_path)
    if name == "cli_cold":
        import iwalambda.cli  # noqa: F401  (the floor every CLI process pays)
    else:
        WORKLOADS[name](inputs).setup()
    print(json.dumps({"ready": time.monotonic()}))


def mode_measure(name: str, inputs_path: str, out_path: str, seconds: str, min_ops: str) -> None:
    inputs = _load(inputs_path)
    wl = WORKLOADS[name](inputs)
    wl.setup()
    ready = time.monotonic()
    seq, outcomes, latencies, wall = timed_loop(wl, float(seconds), int(min_ops), inputs["cycle"])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = CheckReport()
    wl.check(seq, outcomes, report)
    _dump(out_path, {
        "ready": ready,
        "latencies": latencies,
        "wall": wall,
        "attempted": len(seq),
        "failed": len(report.failed),
        "wrong": len(report.wrong),
        "reasons": report.reasons,
        "rss_kb": rss_kb,
        "backend": _backend(),
    })


def mode_trace(name: str, inputs_path: str, out_path: str, cycles: str, spans_path: str) -> None:
    """Fixed number of cycles; each cycle runs once untraced and once traced,
    alternating which goes first, so the overhead ratio compares the same
    operations with caches equally warm on both sides.  The set-up is
    traced too."""
    import iwalambda.cli  # noqa: F401  (every trace target must resolve)

    from tracer import Tracer, cache_infos, write_json

    inputs = _load(inputs_path)
    wl = WORKLOADS[name](inputs)
    tracer = Tracer()
    cache: dict[str, tuple[int, int]] = {}
    seq, outcomes = [], []

    def traced(fn):
        tracer.install()
        before = cache_infos()
        try:
            return fn()
        finally:
            after = cache_infos()
            tracer.uninstall()
            for key, (h, m) in after.items():
                ch, cm = cache.get(key, (0, 0))
                cache[key] = (ch + h - before[key][0], cm + m - before[key][1])

    def run_ops(ks, on: bool) -> float:
        t0 = time.perf_counter()
        for k in ks:
            with tracer.span("bench.op") if on else contextlib.nullcontext():
                outcomes.append(attempt(wl, wl.ops[k]))
            seq.append(k)
        return time.perf_counter() - t0

    def setup():
        with tracer.span("bench.setup"):
            wl.setup()

    traced(setup)
    cycle = inputs["cycle"]
    walls = {False: 0.0, True: 0.0}
    for c in range(int(cycles)):
        ks = [(c * cycle + t) % len(wl.ops) for t in range(cycle)]
        for on in ((False, True) if c % 2 == 0 else (True, False)):
            walls[on] += traced(lambda: run_ops(ks, True)) if on else run_ops(ks, False)
    report = CheckReport()
    wl.check(seq, outcomes, report)
    write_json(spans_path, tracer.dump())
    _dump(out_path, {
        "agg": tracer.aggregate(cache, traced_wall=walls[True], untraced_wall=walls[False]),
        "attempted": len(seq),
        "failed": len(report.failed),
        "wrong": len(report.wrong),
        "reasons": report.reasons,
        "backend": _backend(),
    })


def cli_reference(argv: list[str]) -> dict:
    """Run argv through cli.main in this process; stdout digest and exit code."""
    from iwalambda import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
    except Exception:
        return {"rc": None, "error": traceback.format_exc(limit=1)}
    data = buf.getvalue().encode()
    try:
        schema = json.loads(data).get("schema")
    except ValueError:
        schema = None
    return {"rc": rc, "sha": hashlib.sha256(data).hexdigest(), "schema": schema}


def mode_clicheck(argvs_path: str, out_path: str) -> None:
    argvs = _load(argvs_path)
    _dump(out_path, {"refs": [cli_reference(a) for a in argvs], "backend": _backend()})


MODES = {"setup": mode_setup, "measure": mode_measure, "trace": mode_trace, "clicheck": mode_clicheck}


def main(argv: list[str]) -> None:
    _check_source(os.path.join(os.getcwd(), "src"))
    MODES[argv[0]](*argv[1:])


if __name__ == "__main__":
    main(sys.argv[1:])
