"""Outside-in tracer: wraps public entry points of iwalambda at run time.

The package imports with ``from .x import y``, so one function is bound in
several namespaces (``iwalambda.splitting.chi_S`` is also
``iwalambda.defect.chi_S`` and ``iwalambda.chi_S``).  ``Tracer.install``
replaces the function in every ``iwalambda.*`` module that binds it, and
``uninstall`` puts the originals back; nothing under ``src/`` changes.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out when the run ends.  A span's self time is its duration minus
the part of its interval that its child spans cover.  Hooks derive the
"computed" counters (matrix sizes, support sizes) from a call's arguments
and result, and the ``lru_cache`` counters of the cached entry points
give hit ratios.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict


# -- hooks: computed counters from (args, result) ---------------------------

def _rows_of(m):
    return m.to_rows() if hasattr(m, "to_rows") else m


def _snf_hook(c, args, result):
    rows = _rows_of(args[0])
    c.max("exact.snf.max_cols", len(rows[0]) if rows else 0)


def _subgroup_hook(c, args, result):
    c.add("groups.subgroup_generated.elements", len(result.elements))


def _induce_hook(c, args, result):
    delta, D = args[0], args[1]
    c.add("characters.induce_trivial.support", len(result.support()))
    c.add("characters.induce_trivial.tested", delta.order * D.order)


def _chi_p_hook(c, args, result):
    field, p = args[0], args[1]
    c.distinct("splitting.chi_p.pairs", (field.ell, field.conductor, field.subgroup_gens, p))


def _mult_matrix_hook(c, args, result):
    dim = args[1] ** args[2]
    c.add("iwasawa.mult_matrix.entries", dim * dim)


def _fit_hook(c, args, result):
    c.add("iwasawa.fit_parameters.stable", result is not None)


def _kernel_hook(c, args, result):
    dim = len(args[0])
    c.max("kernels.snf_mod_valuations.max_dim", dim)
    c.add("kernels.snf_mod_valuations.ops", dim**3)


# (span name, module, attribute path, hook).  Several entry points may share
# one span name; the cached ones are listed in CACHED below.
TARGETS = (
    ("exact.snf", "iwalambda.exact", "smith_normal_form", _snf_hook),
    ("exact.snf", "iwalambda.exact", "_snf_with_transform", _snf_hook),
    ("groups.unit_group", "iwalambda.groups", "unit_group", None),
    ("groups.quotient", "iwalambda.groups", "quotient", None),
    ("groups.subgroup_generated", "iwalambda.groups", "subgroup_generated", _subgroup_hook),
    ("fields.field_spec", "iwalambda.fields", "field_spec", None),
    ("characters.induce_trivial", "iwalambda.characters", "induce_trivial", _induce_hook),
    ("characters.mirror", "iwalambda.characters", "mirror", None),
    ("characters.parity_split", "iwalambda.characters", "parity_split", None),
    ("characters.all_ladic_chars", "iwalambda.characters", "all_ladic_chars", None),
    ("characters.teichmuller", "iwalambda.characters", "teichmuller", None),
    ("splitting.chi_p", "iwalambda.splitting", "chi_p", _chi_p_hook),
    ("splitting.chi_S", "iwalambda.splitting", "chi_S", None),
    ("splitting.decomposition_data", "iwalambda.splitting", "decomposition_data", None),
    ("defect.reflection_check", "iwalambda.defect", "reflection_check", None),
    ("defect.lambda_shifts", "iwalambda.defect", "lambda_shift_real", None),
    ("defect.lambda_shifts", "iwalambda.defect", "lambda_shift_imaginary", None),
    ("defect.lambda_shifts", "iwalambda.defect", "lambda_wild", None),
    ("defect.defect_character", "iwalambda.defect", "defect_character", None),
    ("defect.defect_oracle", "iwalambda.defect", "defect_oracle", None),
    ("defect.ladic_chars_of", "iwalambda.defect", "ladic_chars_of", None),
    ("iwasawa.level_order", "iwalambda.iwasawa", "level_order", None),
    ("iwasawa.mult_matrix", "iwalambda.iwasawa", "_mult_matrix_mod", _mult_matrix_hook),
    ("iwasawa.fit_parameters", "iwalambda.iwasawa", "fit_parameters", _fit_hook),
    ("iwasawa.direct_oracle", "iwalambda.iwasawa", "poly_level_valuation_direct", None),
    ("kernels.snf_mod_valuations", "iwalambda._kernels", "snf_mod_valuations", _kernel_hook),
    ("cohomology.tate", "iwalambda.cohomology", "tate_h0", None),
    ("cohomology.tate", "iwalambda.cohomology", "tate_h1", None),
    ("cohomology.module_check", "iwalambda.cohomology", "FiniteGammaModule.__post_init__", None),
    ("cli.main", "iwalambda.cli", "main", None),
    ("cli.render", "iwalambda.cli", "_emit", None),
    ("cli.render", "iwalambda.cli", "_render_virtual", None),
    ("cli.render", "iwalambda.cli", "_render_lambda", None),
    ("cli.render", "iwalambda.cli", "_render_field", None),
)

# span name -> the lru_cache'd entry point whose cache_info() gives hit ratios
CACHED = {
    "fields.field_spec": ("iwalambda.fields", "field_spec"),
    "groups.unit_group": ("iwalambda.groups", "unit_group"),
    "splitting.decomposition_data": ("iwalambda.splitting", "decomposition_data"),
    "defect.ladic_chars_of": ("iwalambda.defect", "ladic_chars_of"),
    "characters.teichmuller": ("iwalambda.characters", "teichmuller"),
}

class Counters:
    """Sums, maxima and distinct-key sets recorded by the hooks."""

    def __init__(self):
        self.sums = defaultdict(int)
        self.maxima = defaultdict(int)
        self.keys = defaultdict(set)

    def add(self, name, value):
        self.sums[name] += value

    def max(self, name, value):
        self.maxima[name] = max(self.maxima[name], value)

    def distinct(self, name, key):
        self.keys[name].add(key)

    def to_json(self) -> dict:
        return {
            "sums": dict(self.sums),
            "maxima": dict(self.maxima),
            "distinct": {k: len(v) for k, v in self.keys.items()},
        }


def _resolve(module_name: str, path: str):
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, parts[-1], None) if owner is not None else None
    if fn is None:
        raise LookupError(f"trace target {module_name}.{path} not found")
    return owner, parts[-1], fn


def cache_infos() -> dict[str, tuple[int, int]]:
    """(hits, misses) of every cached entry point, from the originals."""
    out = {}
    for name, (module_name, attr) in CACHED.items():
        _, _, fn = _resolve(module_name, attr)
        fn = getattr(fn, "__wrapped_original__", fn)
        info = fn.cache_info()
        out[name] = (info.hits, info.misses)
    return out


class Tracer:
    """Span recorder plus the run-time patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters = Counters()
        self.build_s = defaultdict(float)  # cached entry points: time spent in misses
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_idx.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager recording one span, for the benchmark's own spans."""
        return _Span(self, self._name_id(name))

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        name_id = self._name_id(name)
        cached = hasattr(fn, "cache_info")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = fn.cache_info().misses if cached else 0
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if cached and fn.cache_info().misses > misses:
                tracer.build_s[name] += tracer.end[idx] - tracer.start[idx]
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        wrapper.__wrapped_original__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target in every iwalambda namespace that binds it.

        Raises LookupError when a target is missing, so a renamed entry
        point fails the traced run instead of silently vanishing from it.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "iwalambda" or n.startswith("iwalambda.")]
        for name, module_name, path, hook in TARGETS:
            owner, attr, fn = _resolve(module_name, path)
            wrapper = self._wrap(name, fn, hook)
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, key, fn))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [
            (self.names[self.name_idx[i]], self.start[i], self.end[i], self.parent[i])
            for i in range(len(self.start))
        ]

    def aggregate(self, cache: dict, **totals) -> dict:
        """This process's totals, in the form metrics.merge_agg and
        metrics.layer_metrics read; `totals` sets the wall times, import
        time and stdout bytes measured outside the tracer."""
        spans = self.spans()
        agg = {
            "stats": span_stats(spans),
            "op_stats": span_stats(spans, under="bench.op"),
            **self.counters.to_json(),
            "cache": cache,
            "build_s": dict(self.build_s),
            "traced_wall": 0.0,
            "untraced_wall": 0.0,
            "import_s": 0.0,
            "stdout_bytes": 0,
        }
        agg.update(totals)
        return agg

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name_idx": list(self.name_idx),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
        }


class _Span:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.idx = self.tracer._open(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


def span_stats(spans, under: str | None = None) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds.

    Self time is a span's duration minus the union of its children's
    intervals clipped to the span, so overlapping children are not
    subtracted twice.  With `under`, only spans whose root span has that
    name count.  Parents always precede their children in `spans`.
    """
    children = defaultdict(list)
    root = []
    for i, (_, s, e, p) in enumerate(spans):
        root.append(i if p < 0 else root[p])
        if p >= 0:
            children[p].append((s, e))
    stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, s, e, _) in enumerate(spans):
        if under is not None and spans[root[i]][0] != under:
            continue
        covered = 0.0
        cursor = s
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, cursor), min(ce, e)
            if ce > cs:
                covered += ce - cs
                cursor = ce
        st = stats[name]
        st["calls"] += 1
        st["total_s"] += e - s
        st["self_s"] += (e - s) - covered
    return dict(stats)


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
