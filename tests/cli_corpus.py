"""The committed CLI corpus: argv -> (exit code, sha256 of stdout, stderr).

Run from the repository root to regenerate tests/data/cli_corpus.jsonl:

    PYTHONPATH=src python tests/cli_corpus.py

The argvs are the distinct cli_cold argvs of benchmark seeds 1-3, read
from perfbench/workloads.py (which imports nothing from iwalambda), then
EXTRA_ARGVS.  A "{data}" token in an argv stands for tests/data, so the
config files there are found from any working directory.  Every argv
runs in one process through cli.main, as the census (tests/census.py,
in order) and tests/test_cli_corpus.py (reversed) replay them.
Regenerating the file is a reviewed act: each line whose digest or
stderr moves needs a reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
CORPUS = DATA / "cli_corpus.jsonl"
SEEDS = (1, 2, 3)

EXTRA_ARGVS = [
    # |H| = 8332: a subgroup far larger than the field's rank
    "chars --ell 3 --conductor 99987 --subgroup 4",
    # fields whose basis of Delta depends on how H's lattice is reduced
    "chars --ell 3 --conductor 120 --subgroup 19",
    "chars --ell 5 --conductor 95 --subgroup 56",
    "chars --ell 7 --conductor 105 --subgroup 8",
    # n_1459 = 5 is over the real-shift oracle's level cap
    "lambda --ell 3 --conductor 15 --primes 1459,7 --verify",
    # one bad input per check of each constructor that reads command-line data
    "chars --ell 9 --conductor 9",
    "chars --ell 3 --conductor 14",
    "chars --ell 3 --conductor 0",
    "chars --ell 3 --conductor 300003",
    "chars --ell 3 --conductor 15 --subgroup 3",
    "simulate --ell 9 --poly T+3 --n 2",
    "simulate --ell 3 --rho -1 --n 2",
    "simulate --ell 3 --poly 2T+3 --n 2",
    "simulate --ell 3 --poly T+1 --n 2",
    "simulate --ell 3 --mu 0 --n 2",
    "ambig --class-val 1 --ram 1,-1 --deg 0",
    "cohomology --factors 1 --sigma=1 --order 1",
    "cohomology --factors 4,6 --sigma=1,0;0,1 --order 1",
    "cohomology --factors 4 --sigma=1,0 --order 1",
    "cohomology --factors 4 --sigma=1 --order 0",
    "cohomology --factors 2,4 --sigma=1,0;1,1 --order 2",
    "cohomology --factors 4 --sigma=2 --order 2",
    "cohomology --factors 4 --sigma=3 --order 3",
    # README's CLI examples; K = Q(zeta_3) reaches the real lambda shift's
    # rational-field value
    "chars --ell 3 --conductor 15",
    "defect --ell 3 --conductor 3 --primes 7,13 --verify",
    "lambda --ell 3 --conductor 3 --primes 7,13 --parity real",
    "reflect --ell 3 --conductor 3 --S 3 --T 7,13",
    "simulate --ell 3 --poly T^2+3T --mu 1 --n 5 --n-min 1 --verify",
    "ambig --class-val 1 --ram 1,1 --deg 1 --unit-index 1",
    "cohomology --factors 3,9 --sigma=2,0;0,4 --order 6",
    # the table renderer, and a usage error from the argument parser
    "chars --ell 3 --conductor 15 --format table",
    "reflect --ell 3 --conductor 15 --S=3,7 --T=13 --format table",
    "lambda --ell 3 --conductor 15 --primes 7 --parity bogus",
    # config files: a flag the argv spells wins over the file's key, a
    # repeatable flag included; a key the subcommand lacks is a usage error
    "defect --config {data}/defect.cfg",
    "defect --config {data}/defect.cfg --primes 2",
    "simulate --config {data}/simulate.cfg",
    "simulate --config {data}/simulate.cfg --poly T+3",
    "chars --config {data}/defect.cfg",
    "chars --config {data}/bad.cfg",
    # which error wins: the subgroup list, then the field, then the handler's lists
    "defect --ell 3 --conductor 14 --primes 7,x",
    "chars --ell 9 --conductor 15 --subgroup x",
    "lambda --ell 3 --conductor 21 --primes 7,x",
    "defect --ell 3 --conductor 15 --subgroup 3 --primes 7,x",
    # terms that cancel: T^2 - T^2 + T is T; T - T is no polynomial
    "simulate --ell 3 --n 3 --poly T^2-T^2+T",
    "simulate --ell 3 --n 3 --poly T-T",
    # conductors 4 mod 8: (Z/4)* is one generator 3 of order 2, and p = 2 is ramified
    "chars --ell 3 --conductor 12",
    "defect --ell 3 --conductor 60 --primes 2,7,13 --verify",
    "reflect --ell 3 --conductor 12 --S=2,3 --T=13 --verify",
    # ambig is a formula over given valuations, with no oracle for --verify to run
    "ambig --class-val 1 --ram 1,1 --deg 1 --unit-index 1 --verify",
    # every subcommand, --verify on and off, the mid-size conductor 2805 and
    # the large field 98403 with H = <93484>; the mirror at m = 561
    "chars --ell 3 --conductor 165 --format table",
    "defect --ell 3 --conductor 15 --primes 2,7,17",
    "defect --ell 3 --conductor 165 --primes 7,13,19 --verify",
    "defect --ell 5 --conductor 35 --primes 11,31,41",
    "defect --ell 3 --conductor 2805 --primes 7,13 --verify",
    "defect --ell 3 --conductor 98403 --subgroup 93484 --primes 7,13 --verify",
    "lambda --ell 3 --conductor 3 --primes 7,13 --parity real --verify",
    "lambda --ell 3 --conductor 15 --primes 2,7 --parity imaginary",
    "lambda --ell 3 --conductor 33 --primes 3,7 --parity wild --verify",
    "lambda --ell 3 --conductor 2805 --primes 7,13,19 --parity real",
    "lambda --ell 3 --conductor 3 --primes= --parity imaginary",
    "reflect --ell 3 --conductor 3 --S 3 --T=",
    "reflect --ell 3 --conductor 15 --S 3,2 --T 7,13 --verify",
    "reflect --ell 3 --conductor 165 --S 7,13 --T 3,19",
    "reflect --ell 5 --conductor 35 --S 5 --T 11,31 --verify",
    "reflect --ell 3 --conductor 98403 --subgroup 93484 --S 3,7 --T 13",
    "simulate --ell 3 --rho 1 --poly T^2+3T --mu 1 --n 4 --n-min 1",
    "simulate --ell 3 --poly T+3 --n 3 --verify",
    "simulate --ell 5 --poly T^2+5 --n 2 --offset 1 --verify",
    "ambig --class-val 3 --ram 0,2,1 --deg 2",
    "cohomology --factors 9 --sigma 4 --order 3 --verify",
    "defect --ell 3 --conductor 15 --primes 7,7",
    "chars --ell 3 --conductor 120003",
    "reflect --ell 3 --conductor 561 --S 3,7 --T 13",
    # 4 exactly divides 60: (Z/4)* is one generator, and p = 2 is ramified in T
    "reflect --ell 3 --conductor 15 --S=3,7 --T= --verify",
    "reflect --ell 3 --conductor 60 --S=3 --T=2,7 --verify",
    "lambda --ell 3 --conductor 33 --primes 7 --parity imaginary --verify",
    # K = Q(zeta_3): the real shift also reports the rational-field value
    "lambda --ell 3 --conductor 3 --primes 7,13",
    # ell^n = 125 with a dense fold and two columns past the band
    "simulate --ell 5 --poly T^2+5T+5 --n 3 --offset 2",
    "cohomology --factors 3,9 --sigma 2,0;0,4 --order 6",
    "simulate --ell 3 --poly T^2+3T --n 3",
    # the table of each remaining subcommand
    "defect --ell 3 --conductor 15 --primes 7,13 --format table",
    "lambda --ell 3 --conductor 3 --primes 7,13 --format table",
    "simulate --ell 3 --poly T^2+3T --n 3 --format table",
    "ambig --class-val 1 --ram 1,1 --deg 1 --unit-index 1 --format table",
    "cohomology --factors 3,9 --sigma=2,0;0,4 --order 6 --format table",
    # the argvs of acceptance criterion 8 that no line above spells; the
    # trailing space of the reflect argv is its empty --T value
    "defect --ell 3 --conductor 15 --primes 2,7,13 --verify",
    "lambda --ell 3 --conductor 3 --primes 3,7 --parity wild",
    "reflect --ell 3 --conductor 3 --S 3 --T ",
    "reflect --ell 3 --conductor 15 --S 3,2 --T 7,13",
    "simulate --ell 3 --poly T^2+3T --n 4 --n-min 1",
    "ambig --class-val 1 --ram 1 --deg 1",
    "cohomology --factors 9 --sigma 4 --order 3",
]


def corpus_argvs() -> list[list[str]]:
    """The distinct cli_cold argvs of SEEDS in first-seen order, then EXTRA_ARGVS."""
    spec = importlib.util.spec_from_file_location("_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    seen: dict[tuple[str, ...], None] = {}
    for seed in SEEDS:
        for op in workloads.cli_cold(seed)["ops"]:
            seen.setdefault(tuple(op["argv"]), None)
    for line in EXTRA_ARGVS:
        seen.setdefault(tuple(line.split(" ")), None)
    return [list(argv) for argv in seen]


def call(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI call: exit code, stdout and stderr."""
    from iwalambda.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("{data}", str(DATA)) for a in argv])
    return code, out.getvalue(), err.getvalue()


def run(argv: list[str]) -> dict:
    """One in-process CLI call, as a corpus line."""
    code, out, err = call(argv)
    return {"argv": list(argv), "code": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(), "stderr": err}


def load() -> list[dict]:
    with CORPUS.open(encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def main() -> None:
    lines = [json.dumps(run(argv), sort_keys=True) for argv in corpus_argvs()]
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines)} argvs -> {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
