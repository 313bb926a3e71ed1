"""Census of src/: every def is reached by the CLI corpus or listed with its reason.

Run from the repository root:

    PYTHONPATH=src python tests/census.py

One fresh interpreter profiles the import of iwalambda.cli and the replay
of every corpus argv (tests/cli_corpus.py), so every cache starts cold; this
in-order pass is also the corpus's replay, and each line that moved is named.
A module-level function or class method counts as reached when its code
object ran; nested functions, lambdas and comprehensions count with their
parent.  Each def is keyed as module.Qualname, with the package's
__init__.py as "iwalambda", and its code object is found by name and by
its first line: the first decorator's line for a decorated def (as
co_firstlineno reads on Python 3.10-3.13), else the def line.

tests/data/unreached_defs.txt lists each def the corpus does not reach,
one sorted line each: "module.Qualname  kept_for".  kept_for is a test
node "tests/<file>.py::Class::name" (or "tests/<file>.py::name") that
exists, or a perfbench/*.py file that mentions the def's name.  The script
prints each disagreement and exits 1: a moved corpus line, a def unreached
and unlisted, a listed def that is reached or gone, or a kept_for that does
not resolve.  It writes nothing; the list is edited by hand.
"""

from __future__ import annotations

import ast
import cProfile
import pathlib
import re
import sys
import time

import cli_corpus

ROOT = cli_corpus.ROOT
PACKAGE = ROOT / "src" / "iwalambda"
LISTED = cli_corpus.DATA / "unreached_defs.txt"


def module_key(path: pathlib.Path) -> str:
    return "iwalambda" if path.stem == "__init__" else path.stem


def defs_of(path: pathlib.Path) -> dict[str, tuple[int, str]]:
    """module.Qualname -> (co_firstlineno, co_name) of its code object."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0] if child.decorator_list else child
                found[prefix + child.name] = (first.lineno, child.name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), f"{module_key(path)}.")
    return found


def read_listed(path: pathlib.Path) -> tuple[dict[str, str], list[str]]:
    """The list as key -> kept_for, and the problems of its form."""
    listed, problems, keys = {}, [], []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        parts = line.split()
        if len(parts) != 2:
            problems.append(f"{path.name}:{number}: not 'module.Qualname  kept_for': {line!r}")
            continue
        key, kept_for = parts
        if key in listed:
            problems.append(f"{path.name}:{number}: {key} is listed twice")
        listed[key] = kept_for
        keys.append(key)
    if keys != sorted(keys):
        problems.append(f"{path.name}: the lines are not sorted")
    return listed, problems


def node_exists(root: pathlib.Path, node: str) -> bool:
    """Whether "tests/<file>.py::[Class::]name" names a test function."""
    file, _, qualname = node.partition("::")
    path = root / file
    if not (file.startswith("tests/") and file.endswith(".py") and qualname and path.is_file()):
        return False
    scope = ast.parse(path.read_text(encoding="utf-8"))
    *classes, name = qualname.split("::")
    for cls in classes:
        scope = next((n for n in scope.body if isinstance(n, ast.ClassDef) and n.name == cls), None)
        if scope is None:
            return False
    return any(isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name == name for n in scope.body)


def resolves(root: pathlib.Path, key: str, kept_for: str) -> bool:
    if kept_for.startswith("perfbench/"):
        path = root / kept_for
        name = key.rsplit(".", 1)[1]
        return (kept_for.endswith(".py") and path.is_file()
                and re.search(rf"\b{re.escape(name)}\b", path.read_text(encoding="utf-8")) is not None)
    return node_exists(root, kept_for)


def problems(defs: set[str], reached: set[str], listed: dict[str, str], root: pathlib.Path = ROOT) -> list[str]:
    """Each way the list disagrees with the census, one line each.

    defs: every def key in src/; reached: the keys whose code ran;
    listed: key -> kept_for as the list gives them."""
    found = [f"unreached and unlisted: {key}" for key in sorted(defs - reached - listed.keys())]
    for key, kept_for in sorted(listed.items()):
        if key not in defs:
            found.append(f"listed but no longer in src/: {key}")
        elif key in reached:
            found.append(f"listed but reached by the corpus: {key}")
        if not resolves(root, key, kept_for):
            found.append(f"kept_for does not resolve: {key}  {kept_for}")
    return found


def moved(committed: list[dict], replayed: list[dict]) -> list[str]:
    """One line per committed corpus line that the replay did not reproduce,
    or one line alone when the two list different argvs."""
    if [line["argv"] for line in committed] != [line["argv"] for line in replayed]:
        return ["the corpus file does not list the corpus argvs in order: regenerate it (tests/cli_corpus.py)"]
    return [f"moved from the corpus: {' '.join(got['argv'])}" for want, got in zip(committed, replayed) if want != got]


def main() -> int:
    argvs = cli_corpus.corpus_argvs()
    start = time.perf_counter()
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    import iwalambda.cli

    replayed = [cli_corpus.run(argv) for argv in argvs]
    profile.disable()
    seconds = time.perf_counter() - start

    imported = pathlib.Path(iwalambda.cli.__file__).resolve().parent
    if imported != PACKAGE:
        print(f"iwalambda was imported from {imported}, not {PACKAGE}")
        return 1
    profile.create_stats()
    ran = {(pathlib.Path(file).resolve(), line, name) for file, line, name in profile.stats}
    defs, reached = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for key, (line, name) in defs_of(path).items():
            defs.add(key)
            if (path, line, name) in ran:
                reached.add(key)

    corpus = moved(cli_corpus.load(), replayed)
    listed, found = read_listed(LISTED)
    found = corpus + found + problems(defs, reached, listed)
    print(f"census: {len(argvs)} argvs, {len(corpus)} moved, {len(defs)} defs, {len(reached)} reached, "
          f"{len(listed)} listed, {seconds:.1f} s")
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
