"""The package namespace loads its layers on first use (PEP 562), and its
source holds no floating point.

Each namespace check runs in a fresh interpreter, because this test
process has long since imported every layer.
"""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

import iwalambda

SRC = os.path.dirname(os.path.dirname(iwalambda.__file__))

# the modules perfbench/tracer.py wraps, all reached through iwalambda.cli
TRACED = ("exact", "groups", "fields", "characters", "splitting", "defect", "iwasawa", "_kernels",
          "cohomology", "cli")


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

    def test_herbrand_quotient_loads_fractions_on_first_call(self):
        out = run_fresh("""
            import sys
            from iwalambda.cohomology import FiniteGammaModule, herbrand_quotient
            from iwalambda.groups import FiniteAbelianGroup
            assert "fractions" not in sys.modules
            q = herbrand_quotient(FiniteGammaModule(FiniteAbelianGroup((3,)), ((2,),), 2))
            import fractions
            assert type(q) is fractions.Fraction
            print(q)
        """)
        assert out.strip() == "1"

    def test_cli_loads_every_traced_module(self):
        loaded = loaded_after("import iwalambda.cli")
        assert {f"iwalambda.{name}" for name in TRACED} <= loaded


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
