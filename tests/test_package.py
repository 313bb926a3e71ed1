"""The package namespace loads its layers on first use (PEP 562).

Each check runs in a fresh interpreter, because this test process has
long since imported every layer.
"""

import os
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

    def test_cli_loads_every_traced_module(self):
        loaded = loaded_after("import iwalambda.cli")
        assert {f"iwalambda.{name}" for name in TRACED} <= loaded
