"""Metric definitions and the arithmetic that turns measurements into them.

BENCHMARK.json lists the same names, units and directions; a test keeps
the two in step.  Per-layer values are totals over the fixed set of traced
operations of a run, so counts repeat exactly for a given seed.  Metrics
marked "computed" are derived from input sizes (matrix dimensions, group
orders), not measured.
"""

from __future__ import annotations

import statistics

# name, unit, better, bound
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("success_rate", "ratio", "higher", 0.02),
)

# name, unit, better
PER_LAYER = (
    ("exact.snf.calls", "count", "lower"),
    ("exact.snf.self_s", "s", "lower"),
    ("exact.snf.max_cols", "count", "lower"),  # computed
    ("groups.unit_group.build_s", "s", "lower"),
    ("groups.unit_group.hit_ratio", "ratio", "higher"),
    ("groups.quotient.calls", "count", "lower"),
    ("groups.quotient.self_s", "s", "lower"),
    ("groups.subgroup_generated.calls", "count", "lower"),
    ("groups.subgroup_generated.self_s", "s", "lower"),
    ("groups.subgroup_generated.elements", "count", "lower"),  # computed
    ("fields.field_spec.build_s", "s", "lower"),
    ("fields.field_spec.hit_ratio", "ratio", "higher"),
    ("characters.induce_trivial.calls", "count", "lower"),
    ("characters.induce_trivial.self_s", "s", "lower"),
    ("characters.induce_trivial.useful_ratio", "ratio", "higher"),  # computed
    ("characters.mirror.calls", "count", "lower"),
    ("characters.mirror.self_s", "s", "lower"),
    ("characters.parity_split.self_s", "s", "lower"),
    ("characters.all_ladic_chars.self_s", "s", "lower"),
    ("characters.teichmuller.hit_ratio", "ratio", "higher"),
    ("splitting.chi_p.calls", "count", "lower"),
    ("splitting.chi_p.self_s", "s", "lower"),
    ("splitting.chi_p.distinct_ratio", "ratio", "higher"),  # computed
    ("splitting.chi_S.calls", "count", "lower"),
    ("splitting.chi_S.self_s", "s", "lower"),
    ("splitting.decomposition_data.self_s", "s", "lower"),
    ("splitting.decomposition_data.hit_ratio", "ratio", "higher"),
    ("defect.reflection_check.calls", "count", "lower"),
    ("defect.reflection_check.self_s", "s", "lower"),
    ("defect.lambda_shifts.self_s", "s", "lower"),
    ("defect.defect_character.self_s", "s", "lower"),
    ("defect.defect_oracle.calls", "count", "lower"),
    ("defect.defect_oracle.self_s", "s", "lower"),
    ("defect.ladic_chars_of.hit_ratio", "ratio", "higher"),
    ("iwasawa.level_order.calls", "count", "lower"),
    ("iwasawa.level_order.self_s", "s", "lower"),
    ("iwasawa.mult_matrix.self_s", "s", "lower"),
    ("iwasawa.mult_matrix.entries", "count", "lower"),  # computed
    ("iwasawa.fit_parameters.self_s", "s", "lower"),
    ("iwasawa.fit_parameters.stable_ratio", "ratio", "higher"),
    ("iwasawa.direct_oracle.self_s", "s", "lower"),
    ("kernels.snf_mod_valuations.calls", "count", "lower"),
    ("kernels.snf_mod_valuations.self_s", "s", "lower"),
    ("kernels.snf_mod_valuations.max_dim", "count", "lower"),  # computed
    ("kernels.snf_mod_valuations.ops", "count", "lower"),  # computed
    ("cohomology.tate.calls", "count", "lower"),
    ("cohomology.tate.self_s", "s", "lower"),
    ("cohomology.module_check.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.render.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage_ratio", "ratio", "higher"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

def merge_agg(a: dict, b: dict) -> dict:
    """Sum two traced processes' aggregates (see tracer.Tracer.aggregate)."""
    out = dict(a)
    for key in ("stats", "op_stats"):
        stats = {k: dict(v) for k, v in a[key].items()}
        for name, st in b[key].items():
            cur = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for field in cur:
                cur[field] += st[field]
        out[key] = stats
    for key in ("sums", "distinct", "build_s"):
        merged = dict(a[key])
        for name, v in b[key].items():
            merged[name] = merged.get(name, 0) + v
        out[key] = merged
    out["maxima"] = {n: max(a["maxima"].get(n, 0), b["maxima"].get(n, 0)) for n in {*a["maxima"], *b["maxima"]}}
    cache = {k: tuple(v) for k, v in a["cache"].items()}
    for name, (h, m) in b["cache"].items():
        h0, m0 = cache.get(name, (0, 0))
        cache[name] = (h0 + h, m0 + m)
    out["cache"] = cache
    for key in ("traced_wall", "untraced_wall", "import_s", "stdout_bytes"):
        out[key] = a[key] + b[key]
    return out


def _ratio(num: float, den: float) -> float:
    """num / den, and 0.0 when nothing was counted (the layer did not run)."""
    return num / den if den else 0.0


def layer_metrics(agg: dict) -> dict[str, float]:
    stats, sums, maxima = agg["stats"], agg["sums"], agg["maxima"]

    def st(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    def hit(name: str) -> float:
        h, m = agg["cache"].get(name, (0, 0))
        return _ratio(h, h + m)

    values = {
        "exact.snf.calls": st("exact.snf", "calls"),
        "exact.snf.self_s": st("exact.snf", "self_s"),
        "exact.snf.max_cols": maxima.get("exact.snf.max_cols", 0),
        "groups.unit_group.build_s": agg["build_s"].get("groups.unit_group", 0.0),
        "groups.unit_group.hit_ratio": hit("groups.unit_group"),
        "groups.quotient.calls": st("groups.quotient", "calls"),
        "groups.quotient.self_s": st("groups.quotient", "self_s"),
        "groups.subgroup_generated.calls": st("groups.subgroup_generated", "calls"),
        "groups.subgroup_generated.self_s": st("groups.subgroup_generated", "self_s"),
        "groups.subgroup_generated.elements": sums.get("groups.subgroup_generated.elements", 0),
        "fields.field_spec.build_s": agg["build_s"].get("fields.field_spec", 0.0),
        "fields.field_spec.hit_ratio": hit("fields.field_spec"),
        "characters.induce_trivial.calls": st("characters.induce_trivial", "calls"),
        "characters.induce_trivial.self_s": st("characters.induce_trivial", "self_s"),
        "characters.induce_trivial.useful_ratio": _ratio(
            sums.get("characters.induce_trivial.support", 0), sums.get("characters.induce_trivial.tested", 0)
        ),
        "characters.mirror.calls": st("characters.mirror", "calls"),
        "characters.mirror.self_s": st("characters.mirror", "self_s"),
        "characters.parity_split.self_s": st("characters.parity_split", "self_s"),
        "characters.all_ladic_chars.self_s": st("characters.all_ladic_chars", "self_s"),
        "characters.teichmuller.hit_ratio": hit("characters.teichmuller"),
        "splitting.chi_p.calls": st("splitting.chi_p", "calls"),
        "splitting.chi_p.self_s": st("splitting.chi_p", "self_s"),
        "splitting.chi_p.distinct_ratio": _ratio(
            agg["distinct"].get("splitting.chi_p.pairs", 0), st("splitting.chi_p", "calls")
        ),
        "splitting.chi_S.calls": st("splitting.chi_S", "calls"),
        "splitting.chi_S.self_s": st("splitting.chi_S", "self_s"),
        "splitting.decomposition_data.self_s": st("splitting.decomposition_data", "self_s"),
        "splitting.decomposition_data.hit_ratio": hit("splitting.decomposition_data"),
        "defect.reflection_check.calls": st("defect.reflection_check", "calls"),
        "defect.reflection_check.self_s": st("defect.reflection_check", "self_s"),
        "defect.lambda_shifts.self_s": st("defect.lambda_shifts", "self_s"),
        "defect.defect_character.self_s": st("defect.defect_character", "self_s"),
        "defect.defect_oracle.calls": st("defect.defect_oracle", "calls"),
        "defect.defect_oracle.self_s": st("defect.defect_oracle", "self_s"),
        "defect.ladic_chars_of.hit_ratio": hit("defect.ladic_chars_of"),
        "iwasawa.level_order.calls": st("iwasawa.level_order", "calls"),
        "iwasawa.level_order.self_s": st("iwasawa.level_order", "self_s"),
        "iwasawa.mult_matrix.self_s": st("iwasawa.mult_matrix", "self_s"),
        "iwasawa.mult_matrix.entries": sums.get("iwasawa.mult_matrix.entries", 0),
        "iwasawa.fit_parameters.self_s": st("iwasawa.fit_parameters", "self_s"),
        "iwasawa.fit_parameters.stable_ratio": _ratio(
            sums.get("iwasawa.fit_parameters.stable", 0), st("iwasawa.fit_parameters", "calls")
        ),
        "iwasawa.direct_oracle.self_s": st("iwasawa.direct_oracle", "self_s"),
        "kernels.snf_mod_valuations.calls": st("kernels.snf_mod_valuations", "calls"),
        "kernels.snf_mod_valuations.self_s": st("kernels.snf_mod_valuations", "self_s"),
        "kernels.snf_mod_valuations.max_dim": maxima.get("kernels.snf_mod_valuations.max_dim", 0),
        "kernels.snf_mod_valuations.ops": sums.get("kernels.snf_mod_valuations.ops", 0),
        "cohomology.tate.calls": st("cohomology.tate", "calls"),
        "cohomology.tate.self_s": st("cohomology.tate", "self_s"),
        "cohomology.module_check.self_s": st("cohomology.module_check", "self_s"),
        "cli.import_s": agg["import_s"],
        "cli.main.self_s": st("cli.main", "self_s"),
        "cli.render.self_s": st("cli.render", "self_s"),
        "cli.stdout_bytes": agg["stdout_bytes"],
        "trace.overhead_ratio": _ratio(agg["traced_wall"], agg["untraced_wall"]) - 1.0,
        "trace.coverage_ratio": sum(layer_shares(agg).values()),
    }
    return values


def layer_shares(agg: dict) -> dict[str, float]:
    """Self time of each layer (span-name prefix) under the traced
    operations, as a share of the traced operation time."""
    shares: dict[str, float] = {}
    for name, st in agg["op_stats"].items():
        layer = name.split(".")[0]
        if layer != "bench":
            shares[layer] = shares.get(layer, 0.0) + st["self_s"]
    op_total = agg["op_stats"].get("bench.op", {}).get("total_s", 0.0)
    return {k: _ratio(v, op_total) for k, v in sorted(shares.items())}


def end_to_end(latencies: list[float], wall: float, setup: list[float], rss_mb: float,
               attempted: int, failed: int) -> dict[str, float]:
    return {
        "ops_per_s": attempted / wall,
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_p90": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "success_rate": (attempted - failed) / attempted,
    }
