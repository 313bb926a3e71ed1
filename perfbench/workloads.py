"""Seeded inputs for the three benchmark workloads.

Every workload is a list of operations grouped in fixed-size cycles.  A
cycle has a fixed composition of operation classes (which field, which
window depth, which subcommand); the seed only draws the concrete primes,
polynomials and arguments inside each class and shuffles the order within
the cycle.  A timed run always stops at a cycle boundary, so every run of
a workload measures the same mix whatever the seed, and the percentiles
land inside a class rather than on the edge between two classes of very
different cost.

This module imports nothing from iwalambda: the program under test
receives only the generated inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

WORKLOADS = ("reflection_sweep", "order_tables", "cli_cold")


def _primes_below(n: int) -> list[int]:
    return [p for p in range(2, n) if all(p % q for q in range(2, int(p**0.5) + 1))]


PRIMES = _primes_below(60)


def _tame_pool(rng: random.Random, ell: int, size: int) -> list[int]:
    return sorted(rng.sample([p for p in PRIMES if p != ell], size))


# ---------------------------------------------------------------------------
# reflection_sweep

# (ell, conductor, subgroup generators, checks per cycle).  |Delta| runs from
# 2 to 320; (3, 15, (4,)) is the proper subfield.  Slots per cycle keep the
# small fields at 80% of the operations (the median lands among them) and
# put m = 165 across the 90th percentile, above which only the m = 255 and
# m = 561 checks sit.
REFLECTION_FIELDS = (
    (3, 3, (), 4),
    (3, 15, (), 4),
    (3, 15, (4,), 4),
    (3, 33, (), 4),
    (5, 5, (), 4),
    (5, 15, (), 4),
    (5, 35, (), 4),
    (3, 165, (), 4),
    (3, 255, (), 1),
    (3, 561, (), 1),
)
REFLECTION_POOL = 6
REFLECTION_LIST_CYCLES = 240


def _admissible_pairs(pool: list[int], ell: int) -> list[tuple[list[int], list[int]]]:
    """Every disjoint (S, T) with |S|, |T| <= 2 from the pool, ell on one side."""
    out = []
    for s_size in range(3):
        for S in itertools.combinations(pool, s_size):
            rest = [p for p in pool if p not in S]
            for t_size in range(3):
                for T in itertools.combinations(rest, t_size):
                    out.append((sorted(S + (ell,)), list(T)))
                    out.append((list(S), sorted(T + (ell,))))
    return out


def reflection_sweep(seed: int) -> dict:
    rng = random.Random(seed)
    fields, queues = [], []
    for ell, m, gens, _ in REFLECTION_FIELDS:
        pool = _tame_pool(rng, ell, REFLECTION_POOL)
        pairs = _admissible_pairs(pool, ell)
        rng.shuffle(pairs)
        fields.append({"ell": ell, "conductor": m, "subgroup": list(gens), "pool": pool})
        queues.append(itertools.cycle(pairs))
    slots = [i for i, f in enumerate(REFLECTION_FIELDS) for _ in range(f[3])]
    ops = []
    for _ in range(REFLECTION_LIST_CYCLES):
        cycle = [[i, *next(queues[i])] for i in slots]
        rng.shuffle(cycle)
        ops.extend(cycle)
    return {"setup": {"fields": fields}, "cycle": len(slots), "ops": ops}


# ---------------------------------------------------------------------------
# order_tables

# (ell, n_min, n_max, number of polynomials, stable, slots per cycle).
# Shallow windows stop at 3^3 and 5^2; deep ones reach the matrix cap at
# 3^5 and 5^3.  Cost grows with depth and with the number of polynomials,
# so each class fixes both.  Sorted by cost the classes fill the cycle as
# 0-35% shallow ell = 5, 35-65% shallow ell = 3 with one polynomial (the
# median), 65-80% the rest, 80-95% deep ell = 3 with one polynomial (the
# 90th percentile) and 95-100% deep ell = 3 with two.  Only the deep
# ell = 3 window 2..5 is in the stable regime for every spec drawn here,
# so only there must the fit recover (rho, mu + offset*rho, lambda).
ORDER_CLASSES = (
    (5, 0, 2, 1, False, 4),
    (5, 0, 2, 2, False, 3),
    (3, 0, 3, 1, False, 6),
    (3, 0, 3, 2, False, 1),
    (5, 0, 3, 1, False, 1),
    (5, 0, 3, 2, False, 1),
    (3, 2, 5, 1, True, 3),
    (3, 2, 5, 2, True, 1),
)
ORDER_LIST_CYCLES = 16


def _distinguished_poly(rng: random.Random, ell: int) -> list[int]:
    return [ell * rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [1]


def order_tables(seed: int) -> dict:
    rng = random.Random(seed)
    ops = []
    for _ in range(ORDER_LIST_CYCLES):
        cycle = []
        for ell, n_min, n_max, npolys, stable, count in ORDER_CLASSES:
            for _ in range(count):
                cycle.append({
                    "ell": ell,
                    "rho": rng.randint(0, 1),
                    "polys": [_distinguished_poly(rng, ell) for _ in range(npolys)],
                    "mus": [rng.randint(1, 2) for _ in range(rng.randint(0, 2))],
                    "n_min": n_min,
                    "n_max": n_max,
                    "offset": rng.randint(0, 2),
                    "stable": stable,
                })
        rng.shuffle(cycle)
        ops.extend(cycle)
    return {"setup": {}, "cycle": sum(c[-1] for c in ORDER_CLASSES), "ops": ops}


# ---------------------------------------------------------------------------
# cli_cold

CLI_SMALL_FIELDS = ((3, 15, ()), (3, 33, ()), (3, 15, (4,)), (5, 35, ()), (3, 165, ()), (5, 15, ()))
CLI_MID_FIELD = (3, 2805, ())
# 98403 = 3 * 32801; H is the order-200 subgroup generated by 93484, so
# Delta = Z/2 x Z/164.  A subgroup with a very large |H| (m = 99987,
# H = <2>) is left out on purpose: quotient() then builds a dense
# (|H|+k)^2 transform that grows past 2 GB (see README.md).
CLI_LARGE_FIELD = (3, 98403, (93484,))
COHOMOLOGY_CASES = (
    ("9", "4", 3),
    ("3,9", "1,3;0,1", 3),
    ("3,9", "1,0;0,4", 3),
    ("5,25", "1,0;0,6", 5),
    ("7", "2", 3),
    ("3,3", "0,1;1,0", 2),
    ("25", "6", 5),
)
INVALID_KINDS = ("bad_field", "bad_prime_set", "over_cap", "malformed_list")


def _field_args(field) -> list[str]:
    ell, m, gens = field
    out = ["--ell", str(ell), "--conductor", str(m)]
    if gens:
        out += ["--subgroup", ",".join(map(str, gens))]
    return out


def _csv(xs) -> str:
    return ",".join(map(str, xs))


def format_poly(coeffs: list[int]) -> str:
    """Ascending coefficients to the CLI's 'T^2-3T+6' notation."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = "" if abs(c) == 1 and k > 0 else str(abs(c))
        var = "" if k == 0 else ("T" if k == 1 else f"T^{k}")
        terms.append(("-" if c < 0 else "+") + mag + var)
    return "".join(terms).lstrip("+")


class _CliDraw:
    """Seeded argument draws for one cycle of cli_cold."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def field(self):
        return self.rng.choice(CLI_SMALL_FIELDS)

    def tame(self, ell: int, lo: int = 1, hi: int = 3) -> list[int]:
        return _tame_pool(self.rng, ell, self.rng.randint(lo, hi))

    def reflect_sets(self, ell: int) -> tuple[list[int], list[int]]:
        pool = _tame_pool(self.rng, ell, 4)
        cut = self.rng.randint(0, 2)
        S, T = pool[:cut], pool[cut:cut + self.rng.randint(0, 2)]
        if self.rng.random() < 0.5:
            return sorted(S + [ell]), T
        return S, sorted(T + [ell])

    def chars(self, field):
        return ["chars", *_field_args(field)]

    def defect(self, field, verify: bool):
        argv = ["defect", *_field_args(field), "--primes", _csv(self.tame(field[0]))]
        return argv + ["--verify"] if verify else argv

    def lambda_(self, field, parity: str, verify: bool):
        ell = field[0]
        S = self.tame(ell) if parity != "wild" else sorted(self.tame(ell, 0, 2) + [ell])
        argv = ["lambda", *_field_args(field), "--primes", _csv(S), "--parity", parity]
        return argv + ["--verify"] if verify else argv

    def reflect(self, field, verify: bool):
        S, T = self.reflect_sets(field[0])
        argv = ["reflect", *_field_args(field), f"--S={_csv(S)}", f"--T={_csv(T)}"]
        return argv + ["--verify"] if verify else argv

    def simulate(self, verify: bool):
        rng = self.rng
        ell = rng.choice((3, 5))
        if verify:  # the integer Smith form oracle stays cheap up to 27 dimensions
            n = rng.randint(2, 3) if ell == 3 else 2
        else:
            n = rng.randint(3, 4) if ell == 3 else rng.randint(2, 3)
        argv = ["simulate", "--ell", str(ell), "--rho", str(rng.randint(0, 1)), "--n", str(n),
                "--offset", str(rng.randint(0, 2))]
        for _ in range(rng.randint(1, 2)):
            argv += ["--poly", format_poly(_distinguished_poly(rng, ell))]
        mus = [rng.randint(1, 2) for _ in range(rng.randint(0, 2))]
        if mus:
            argv += ["--mu", _csv(mus)]
        return argv + ["--verify"] if verify else argv

    def ambig(self):
        rng = self.rng
        deg, unit = rng.randint(1, 3), rng.randint(0, 2)
        ram = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        return ["ambig", "--class-val", str(deg + unit + rng.randint(0, 3)), "--ram", _csv(ram),
                "--deg", str(deg), "--unit-index", str(unit)]

    def cohomology(self, verify: bool):
        factors, sigma, order = self.rng.choice(COHOMOLOGY_CASES)
        argv = ["cohomology", "--factors", factors, f"--sigma={sigma}", "--order", str(order)]
        return argv + ["--verify"] if verify else argv

    def invalid(self, kind: str):
        rng = self.rng
        p = rng.choice([q for q in PRIMES if q > 5])
        cases = {
            "bad_field": [
                ["chars", "--ell", "3", "--conductor", str(rng.choice((14, 22, 26)))],
                ["defect", "--ell", "3", "--conductor", "21", "--primes", str(p)],
                ["chars", "--ell", "3", "--conductor", "15", "--subgroup", "3"],
            ],
            "bad_prime_set": [
                ["defect", "--ell", "3", "--conductor", "15", "--primes", f"{p},{p + 1}"],
                ["reflect", "--ell", "3", "--conductor", "33", "--S", str(p), "--T", "2"],
                ["defect", "--ell", "3", "--conductor", "15", "--primes", f"3,{p}"],
            ],
            "over_cap": [
                ["chars", "--ell", "3", "--conductor", str(3 * rng.randint(40000, 90000))],
                ["simulate", "--ell", "3", "--poly", "T+3", "--n", str(rng.randint(6, 9))],
            ],
            "malformed_list": [
                ["defect", "--ell", "3", "--conductor", "15", "--primes", f"{p},x"],
                ["cohomology", "--factors", "3,x", "--sigma=1,0;0,1", "--order", "3"],
            ],
        }
        return rng.choice(cases[kind])


CLI_CYCLE = 30
CLI_LIST_CYCLES = 8


def _cli_cycle(draw: _CliDraw, c: int) -> list[dict]:
    """One 30-operation cycle: 22 small valid calls covering all seven
    subcommands, 4 mid-size calls at m = 2805, 1 large-conductor call and 3
    invalid argv (one in ten).  The mid class spans the 90th percentile."""
    d = draw
    small = [
        d.chars(d.field()), d.chars(d.field()),
        d.defect(d.field(), False), d.defect(d.field(), False),
        d.defect(d.field(), True), d.defect(d.field(), True),
        d.lambda_(d.field(), "real", False), d.lambda_(d.field(), "imaginary", True),
        d.lambda_(d.field(), "wild", False),
        d.reflect(d.field(), False), d.reflect(d.field(), False),
        d.reflect(d.field(), True), d.reflect(d.field(), True),
        d.simulate(False), d.simulate(False), d.simulate(True),
        d.ambig(), d.ambig(), d.ambig(),
        d.cohomology(False), d.cohomology(False), d.cohomology(True),
    ]
    mid = [
        d.chars(CLI_MID_FIELD),
        d.defect(CLI_MID_FIELD, True), d.defect(CLI_MID_FIELD, True),
        d.lambda_(CLI_MID_FIELD, d.rng.choice(("real", "imaginary")), False),
    ]
    large_kinds = (d.chars, lambda f: d.reflect(f, False), lambda f: d.defect(f, True))
    large = [large_kinds[c % 3](CLI_LARGE_FIELD)]
    invalid = [d.invalid(INVALID_KINDS[(3 * c + j) % len(INVALID_KINDS)]) for j in range(3)]
    ops = [{"argv": a, "valid": True} for a in small + mid + large]
    ops += [{"argv": a, "valid": False} for a in invalid]
    d.rng.shuffle(ops)
    return ops


def cli_cold(seed: int) -> dict:
    draw = _CliDraw(random.Random(seed))
    ops = []
    for c in range(CLI_LIST_CYCLES):
        ops.extend(_cli_cycle(draw, c))
    return {"setup": {}, "cycle": CLI_CYCLE, "ops": ops}


# ---------------------------------------------------------------------------

GENERATORS = {"reflection_sweep": reflection_sweep, "order_tables": order_tables, "cli_cold": cli_cold}


def generate(workload: str, seed: int) -> dict:
    inputs = GENERATORS[workload](seed)
    inputs["workload"] = workload
    inputs["seed"] = seed
    return inputs


def input_hash(inputs: dict) -> str:
    """sha256 of the canonical JSON of everything the program receives."""
    body = {k: inputs[k] for k in ("workload", "setup", "cycle", "ops")}
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
