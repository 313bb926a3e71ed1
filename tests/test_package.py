"""The package namespace loads its layers on first use (PEP 562), the CLI
runs only the layers its subcommand uses, every name the benchmark reads
resolves, and the source holds no floating point.

Each namespace check runs in a fresh interpreter, because this test
process has long since imported every layer.
"""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import iwalambda

SRC = os.path.dirname(os.path.dirname(iwalambda.__file__))
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# the modules perfbench/tracer.py wraps, all reached through iwalambda.cli
TRACED = ("exact", "groups", "fields", "characters", "splitting", "defect", "iwasawa", "_kernels",
          "cohomology", "cli")
LAYERS = TRACED[:-1]  # the layers iwalambda.cli registers and executes on first use


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(statement: str) -> set[str]:
    out = run_fresh(f"""
        import sys
        {statement}
        print(" ".join(sys.modules))
    """)
    return set(out.split())


class TestLazyNamespace:
    def test_iwasawa_leaves_the_character_algebra_out(self):
        loaded = loaded_after("import iwalambda.iwasawa")
        assert "iwalambda.iwasawa" in loaded
        assert not {"iwalambda.characters", "iwalambda.defect", "iwalambda.cohomology"} & loaded

    def test_reflection_layers_leave_iwasawa_and_cohomology_out(self):
        loaded = loaded_after("from iwalambda import characters, defect, fields")
        assert {"iwalambda.characters", "iwalambda.defect", "iwalambda.splitting"} <= loaded
        assert not {"iwalambda.iwasawa", "iwalambda.cohomology", "iwalambda._kernels", "fractions"} & loaded

    def test_every_public_name_is_its_submodule_object(self):
        out = run_fresh("""
            import importlib
            import iwalambda
            for name in iwalambda.__all__:
                obj = getattr(iwalambda, name)
                home = importlib.import_module(obj.__module__)
                assert home.__name__.startswith("iwalambda."), name
                assert getattr(home, name) is obj, name
            assert set(iwalambda.__all__) <= set(dir(iwalambda))
            print(len(iwalambda.__all__))
        """)
        assert int(out) == len(iwalambda.__all__) > 50

    def test_star_import_and_version(self):
        out = run_fresh("""
            from iwalambda import *
            import iwalambda
            assert reflection_check(field_spec(3, 15), [3], [7, 13]).holds
            print(iwalambda.__version__)
        """)
        assert out.strip() == "0.1.0"

    def test_unknown_name_raises_attribute_error(self):
        run_fresh("""
            import iwalambda
            try:
                iwalambda.no_such_name
            except AttributeError as exc:
                assert "no_such_name" in str(exc)
            else:
                raise SystemExit("no AttributeError")
            assert not hasattr(iwalambda, "no_such_name")
            try:
                from iwalambda import no_such_name
            except ImportError:
                pass
            else:
                raise SystemExit("no ImportError")
        """)

    def test_cli_leaves_dataclasses_and_fractions_out(self):
        loaded = loaded_after("import iwalambda.cli")
        assert not {"dataclasses", "inspect", "fractions", "decimal"} & loaded

    def test_cli_loads_every_traced_module(self):
        loaded = loaded_after("import iwalambda.cli")
        assert {f"iwalambda.{name}" for name in TRACED} <= loaded


def layers_run_after(code: str) -> set[str]:
    """The layers that have executed after `code`, which must leave all of
    them in sys.modules.  A layer is read by its type only: an attribute
    access would run it, and LazyLoader's placeholder type turns back into
    types.ModuleType when the layer runs."""
    out = run_fresh(textwrap.dedent(code) + textwrap.dedent(f"""
        import sys, types
        registered = [sys.modules.get("iwalambda." + name) for name in {LAYERS!r}]
        assert None not in registered, registered
        print(" ".join(name for name, m in zip({LAYERS!r}, registered) if type(m) is types.ModuleType))
    """))
    return set(out.splitlines()[-1].split())


class TestLazyCliLayers:
    def test_import_registers_every_layer_and_runs_none(self):
        assert layers_run_after("import iwalambda.cli") == set()

    @pytest.mark.parametrize(
        "argv, ran",
        [
            (["simulate", "--ell", "3", "--poly", "T^2+3T", "--mu", "1", "--n", "3", "--verify"],
             {"iwasawa", "exact", "_kernels"}),
            (["cohomology", "--factors", "3,9", "--sigma", "2,0;0,4", "--order", "6"],
             {"cohomology", "groups", "exact"}),
            (["ambig", "--class-val", "1", "--ram", "1,1", "--deg", "1"], {"cohomology", "groups", "exact"}),
            (["defect", "--ell", "3", "--conductor", "15", "--primes", "7,13", "--verify"],
             {"defect", "splitting", "characters", "fields", "groups", "exact"}),
            (["chars", "--ell", "3", "--conductor", "15"], {"characters", "fields", "groups", "exact"}),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_a_subcommand_runs_only_its_layers(self, argv, ran):
        assert layers_run_after(f"""
            import contextlib, io
            import iwalambda.cli
            with contextlib.redirect_stdout(io.StringIO()):
                assert iwalambda.cli.main({argv!r}) == 0
        """) == ran

    def test_a_later_import_binds_the_layer_on_the_package(self):
        out = run_fresh("""
            import iwalambda.cli
            import iwalambda.defect
            print(iwalambda.defect.reflection_check.__name__)
        """)
        assert out.strip() == "reflection_check"

    def test_an_imported_layer_is_kept(self):
        run_fresh("""
            import types
            import iwalambda.defect as defect
            import iwalambda.cli
            assert iwalambda.cli.defect is defect and type(defect) is types.ModuleType
        """)

    def test_public_names_read_through_the_cli_module(self):
        run_fresh("""
            import iwalambda.cli, iwalambda.defect
            assert iwalambda.cli.defect_character is iwalambda.defect.defect_character
            assert not hasattr(iwalambda.cli, "__path__") and not hasattr(iwalambda.cli, "is_prime")
        """)


def test_every_name_the_benchmark_reads_resolves():
    """perfbench/tracer.py wraps its TARGETS and reads cache_info() of CACHED,
    its hooks read Subgroup.elements and .order and VirtualChar.support, and
    perfbench reads _kernels.BACKEND and iwalambda.cli.defect_character."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    import iwalambda.cli
    from iwalambda import _kernels, characters, defect, groups

    for _, module, path, _ in tracer.TARGETS:
        tracer._resolve(module, path)  # LookupError when the target is gone
    assert set(tracer.cache_infos()) == set(tracer.CACHED)
    assert all(hasattr(groups.Subgroup, name) for name in ("elements", "order"))
    assert hasattr(characters.VirtualChar, "support")
    assert _kernels.BACKEND
    assert iwalambda.cli.defect_character is defect.defect_character


def float_sites(tree: ast.AST) -> list[tuple[int, str]]:
    """True division, float literals and float(...) calls in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float() call"))
    return found


class TestNoFloatingPoint:
    def test_guard_sees_each_form(self):
        code = "a = 1 / 2\nb //= 2\nb /= 2\nc = 0.5\nd = float(3)\ne = 7 // 2\n"
        assert sorted(line for line, _ in float_sites(ast.parse(code))) == [1, 3, 4, 5]

    def test_package_source(self):
        files = sorted(pathlib.Path(SRC, "iwalambda").rglob("*.py"))
        assert len(files) > 10
        sites = {
            str(path.relative_to(SRC)): hits
            for path in files
            if (hits := float_sites(ast.parse(path.read_text(encoding="utf-8"))))
        }
        assert sites == {}
