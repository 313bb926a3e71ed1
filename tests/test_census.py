"""The census of src/ (tests/census.py): the replay itself, and the
comparison on synthetic inputs, one case per kind of disagreement."""

import os
import re
import subprocess
import sys

import census
import iwalambda

SRC = os.path.dirname(os.path.dirname(iwalambda.__file__))


def test_every_unreached_def_is_listed_with_its_reason():
    proc = subprocess.run(
        [sys.executable, str(census.ROOT / "tests" / "census.py")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout
    argvs, reached = map(int, re.match(r"census: (\d+) argvs, 0 moved, \d+ defs, (\d+) reached", proc.stdout).groups())
    # the replay ran: a corpus or profile that came up empty reaches nothing
    assert argvs > 600 and reached >= 150


def corpus_line(argv, digest="0" * 64):
    return {"argv": argv.split(" "), "code": 0, "stdout_sha256": digest, "stderr": ""}


CORPUS = [corpus_line("chars --ell 3 --conductor 15"), corpus_line("ambig --class-val 1 --ram 1 --deg 1")]


def test_a_reproduced_corpus_has_no_move():
    assert census.moved(CORPUS, [dict(line) for line in CORPUS]) == []


def test_a_line_that_moved_is_named():
    replayed = [CORPUS[0], {**CORPUS[1], "stderr": "error: x\n"}]
    assert census.moved(CORPUS, replayed) == ["moved from the corpus: ambig --class-val 1 --ram 1 --deg 1"]
    replayed = [corpus_line("chars --ell 3 --conductor 15", "1" * 64), CORPUS[1]]
    assert census.moved(CORPUS, replayed) == ["moved from the corpus: chars --ell 3 --conductor 15"]


def test_argv_lists_that_differ_are_one_problem():
    regenerate = ["the corpus file does not list the corpus argvs in order: regenerate it (tests/cli_corpus.py)"]
    for replayed in (CORPUS[:1], CORPUS[::-1], CORPUS + [corpus_line("chars --ell 3 --conductor 33")]):
        assert census.moved(CORPUS, replayed) == regenerate


def fake_root(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_m.py").write_text("class TestM:\n    def test_f(self):\n        pass\n\n\ndef test_g():\n    pass\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "bench.py").write_text("m.teichmuller(F)\n")
    return tmp_path


DEFS = {"m.f", "m.g", "m.C.teichmuller", "m.h"}
REACHED = {"m.h"}
LISTED = {
    "m.f": "tests/test_m.py::TestM::test_f",
    "m.g": "tests/test_m.py::test_g",
    "m.C.teichmuller": "perfbench/bench.py",
}


def test_a_listed_census_has_no_problem(tmp_path):
    assert census.problems(DEFS, REACHED, LISTED, fake_root(tmp_path)) == []


def test_unreached_and_unlisted(tmp_path):
    assert census.problems(DEFS | {"m.new"}, REACHED, LISTED, fake_root(tmp_path)) == [
        "unreached and unlisted: m.new"
    ]


def test_listed_but_reached(tmp_path):
    assert census.problems(DEFS, REACHED | {"m.f"}, LISTED, fake_root(tmp_path)) == [
        "listed but reached by the corpus: m.f"
    ]


def test_listed_but_gone(tmp_path):
    assert census.problems(DEFS - {"m.g"}, REACHED, LISTED, fake_root(tmp_path)) == [
        "listed but no longer in src/: m.g"
    ]


def test_kept_for_a_test_that_does_not_exist(tmp_path):
    root = fake_root(tmp_path)
    for node in ("tests/test_m.py::TestM::test_gone", "tests/test_m.py::test_f", "tests/test_m.py::TestN::test_f",
                 "tests/test_gone.py::test_g", "tests/test_m.py"):
        assert census.problems(DEFS, REACHED, {**LISTED, "m.f": node}, root) == [
            f"kept_for does not resolve: m.f  {node}"
        ]


def test_kept_for_a_perfbench_file_that_does_not_mention_the_name(tmp_path):
    root = fake_root(tmp_path)
    (root / "perfbench" / "bench.py").write_text("m.teichmuller_coeffs(F)\n")
    assert census.problems(DEFS, REACHED, LISTED, root) == [
        "kept_for does not resolve: m.C.teichmuller  perfbench/bench.py"
    ]
    assert census.problems(DEFS, REACHED, {**LISTED, "m.C.teichmuller": "perfbench/gone.py"}, root) == [
        "kept_for does not resolve: m.C.teichmuller  perfbench/gone.py"
    ]


def test_list_form(tmp_path):
    path = tmp_path / "unreached_defs.txt"
    path.write_text("m.g  tests/t.py::test_g\nm.f  tests/t.py::test_f\nm.f  perfbench/b.py\nm.h\n")
    listed, found = census.read_listed(path)
    assert listed == {"m.g": "tests/t.py::test_g", "m.f": "perfbench/b.py"}
    assert found == [
        "unreached_defs.txt:3: m.f is listed twice",
        "unreached_defs.txt:4: not 'module.Qualname  kept_for': 'm.h'",
        "unreached_defs.txt: the lines are not sorted",
    ]


def test_defs_keyed_by_module_and_qualname(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import functools\n\n"
        "def f(x=lambda: 0):\n    def inner():\n        pass\n\n"
        "class C:\n    @property\n    @functools.cache\n    def p(self):\n        return [y for y in ()]\n\n"
        "    class D:\n        def q(self):\n            pass\n\n"
        "if True:\n    def g():\n        pass\n"
    )
    assert census.defs_of(path) == {
        "m.f": (3, "f"),
        "m.C.p": (8, "p"),
        "m.C.D.q": (14, "q"),
        "m.g": (18, "g"),
    }
