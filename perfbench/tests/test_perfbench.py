"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_lists_the_metrics_and_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_input_hash_follows_the_seed(name):
    a, b, c = (workloads.input_hash(workloads.generate(name, s)) for s in (5, 5, 6))
    assert a == b
    assert a != c


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_cycle_has_the_same_composition(name):
    inputs = workloads.generate(name, 9)
    cycle, ops = inputs["cycle"], inputs["ops"]
    assert len(ops) % cycle == 0
    cycles = [ops[i:i + cycle] for i in range(0, len(ops), cycle)]
    if name == "reflection_sweep":
        assert all(sorted(op[0] for op in c) == sorted(op[0] for op in cycles[0]) for c in cycles)
    elif name == "order_tables":
        def kind(op):
            return (op["ell"], op["n_min"], op["n_max"], op["stable"], len(op["polys"]))

        assert all(sorted(map(kind, c)) == sorted(map(kind, cycles[0])) for c in cycles)
    else:
        for c in cycles:
            assert sum(not op["valid"] for op in c) == 3
            assert sum("2805" in op["argv"] for op in c) == 4
            assert sum("98403" in op["argv"] for op in c) == 1
            assert {op["argv"][0] for op in c if op["valid"]} == {
                "chars", "defect", "lambda", "reflect", "simulate", "ambig", "cohomology"}


def test_format_poly_round_trips_through_the_cli_parser():
    from iwalambda.cli import parse_poly

    for coeffs in ([3, 1], [0, -6, 9, 1], [-3, 0, 1], [9, 3, -3, 1]):
        assert parse_poly(workloads.format_poly(coeffs)) == tuple(coeffs)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("bench.op", 0.0, 10.0, -1),   # 0
        ("a", 1.0, 4.0, 0),            # 1
        ("b", 3.0, 6.0, 0),            # 2 overlaps a: union of children is 1..6
        ("c", 1.0, 2.0, 1),            # 3
        ("bench.setup", 20.0, 22.0, -1),  # 4
        ("a", 20.5, 21.0, 4),          # 5
    ]
    stats = tracer.span_stats(spans)
    assert stats["bench.op"]["self_s"] == pytest.approx(5.0)
    assert stats["a"]["calls"] == 2
    assert stats["a"]["total_s"] == pytest.approx(3.5)
    assert stats["a"]["self_s"] == pytest.approx(2.0 + 0.5)
    assert stats["b"]["self_s"] == pytest.approx(3.0)
    assert stats["c"]["self_s"] == pytest.approx(1.0)
    assert stats["bench.setup"]["self_s"] == pytest.approx(1.5)
    under = tracer.span_stats(spans, under="bench.op")
    assert under["a"]["calls"] == 1 and "bench.setup" not in under


def test_tracer_wraps_every_binding_and_restores_it():
    import iwalambda
    import iwalambda.cli
    from iwalambda import _kernels, defect, iwasawa, splitting

    originals = (splitting.chi_S, iwasawa.snf_mod_valuations, iwalambda.cli.defect_character)
    t = tracer.Tracer()
    t.install()
    try:
        assert defect.chi_S is splitting.chi_S is iwalambda.chi_S
        assert defect.chi_S is not originals[0]
        assert iwasawa.snf_mod_valuations is _kernels.snf_mod_valuations
        assert iwasawa.snf_mod_valuations is not originals[1]
        assert iwalambda.cli.defect_character is defect.defect_character is not originals[2]
        F = iwalambda.field_spec(3, 15)
        iwalambda.reflection_check(F, (3, 7), (13,))
    finally:
        t.uninstall()
    assert (splitting.chi_S, iwasawa.snf_mod_valuations, iwalambda.cli.defect_character) == originals
    names = {name for name, *_ in t.spans()}
    assert {"defect.reflection_check", "splitting.chi_S", "splitting.chi_p", "characters.induce_trivial"} <= names


def test_missing_trace_target_fails_the_traced_run(monkeypatch):
    import iwalambda  # noqa: F401

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("x.y", "iwalambda.defect", "no_such_fn", None),))
    with pytest.raises(LookupError):
        tracer.Tracer().install()


def _small_reflection():
    inputs = workloads.generate("reflection_sweep", 3)
    inputs["ops"] = inputs["ops"][: inputs["cycle"]]
    wl = worker.ReflectionSweep(inputs)
    wl.setup()
    return wl


def test_corrupted_expectation_counts_as_failed_reflection():
    wl = _small_reflection()
    seq = list(range(len(wl.ops)))
    outcomes = [worker.Outcome(wl.run(op)) for op in wl.ops]
    report = worker.CheckReport()
    wl.check(seq, outcomes, report)
    assert not report.failed
    outcomes[4] = worker.Outcome(False)
    outcomes[7] = worker.Outcome(error="ValueError: boom")
    report = worker.CheckReport()
    wl.check(seq, outcomes, report)
    assert report.failed == {4, 7}
    assert report.wrong == {4}


def test_corrupted_expectation_counts_as_failed_order_tables(monkeypatch):
    inputs = workloads.generate("order_tables", 3)
    inputs["ops"] = [op for op in inputs["ops"] if op["ell"] ** op["n_max"] < 100][:6]
    wl = worker.OrderTables(inputs)
    wl.setup()
    seq = list(range(len(wl.ops)))
    outcomes = [worker.Outcome(wl.run(op)) for op in wl.ops]
    report = worker.CheckReport()
    wl.check(seq, outcomes, report)
    assert not report.failed
    real = worker.OrderTables.expected_entries

    def corrupted(self, op, top, memo):
        out = real(self, op, top, memo)
        if op is self.ops[2]:
            out[op["n_max"]] += 1
        return out

    monkeypatch.setattr(worker.OrderTables, "expected_entries", corrupted)
    report = worker.CheckReport()
    wl.check(seq, outcomes, report)
    assert report.failed == report.wrong == {2}


def test_corrupted_expectation_counts_as_failed_cli():
    ops = [
        {"argv": ["ambig", "--class-val", "2", "--ram", "1", "--deg", "1"], "valid": True},
        {"argv": ["defect", "--ell", "3", "--conductor", "15", "--primes", "7,x"], "valid": False},
        {"argv": ["chars", "--ell", "3", "--conductor", "14"], "valid": False},
    ]
    ref = worker.cli_reference(ops[0]["argv"])
    good = {"rc": 0, "sha": ref["sha"], "traceback": False}
    outcomes = [worker.Outcome(good), worker.Outcome({"rc": 1, "sha": "", "traceback": True}),
                worker.Outcome({"rc": 2, "sha": "", "traceback": False})]
    report = worker.CheckReport()
    worker.check_cli(ops, [0, 1, 2], outcomes, {0: ref}, report)
    assert report.failed == {1} and not report.wrong
    report = worker.CheckReport()
    worker.check_cli(ops, [0, 1, 2], outcomes, {0: dict(ref, sha="0" * 64)}, report)
    assert report.failed == {0, 1} and report.wrong == {0}


def test_compare_refuses_other_backend_or_inputs(tmp_path, capsys):
    record = {"meta": {"workload": "order_tables", "trace": 0, "backend": "python", "input_sha256": "ab"},
              "metrics": {"ops_per_s": {"value": 10.0, "unit": "1/s"}}}
    paths = []
    for i, meta in enumerate(({}, {"backend": "cython"}, {"input_sha256": "cd"})):
        p = tmp_path / f"r{i}.json"
        p.write_text(json.dumps(dict(record, meta=dict(record["meta"], **meta))))
        paths.append(str(p))
    assert compare.main([paths[0], paths[0]]) == 0
    assert compare.main([paths[0], paths[1]]) == 2
    assert compare.main([paths[0], paths[2]]) == 2


@pytest.fixture
def smallest(monkeypatch):
    """One cycle per run, one set-up sample, one traced cycle."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(run, "TRACE_CYCLES", {k: 1 for k in workloads.WORKLOADS})

    def first_cycle(name, seed, real=workloads.generate):
        inputs = real(name, seed)
        inputs["ops"] = inputs["ops"][: inputs["cycle"]]
        return inputs

    monkeypatch.setattr(run, "generate", first_cycle)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smallest_run_reports_every_metric(smallest, capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "2", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m[0]: m[1] for m in expected}
    assert result["correct"] is True
    with open(os.path.join(PERFBENCH, "out", f"result-{name}-seed2-trace{trace}.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    # the only failures allowed are the known tracebacks on malformed integer lists
    assert all(",x" in reason for reason in record["reasons"])
    assert record["meta"]["backend"] in ("python", "cython")
    if name != "cli_cold":
        assert result["failed"] == 0
