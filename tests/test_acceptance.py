"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and timings.  Everything is exact arithmetic; the stated budgets
are generous (the whole suite finishes well inside them).
"""

import hashlib
import itertools
import json
import random
import time
from contextlib import contextmanager

import cli_corpus
from iwalambda.characters import (
    IMAGINARY,
    REAL,
    VirtualChar,
    all_ladic_chars,
    induce_trivial,
    inner_product,
    mirror,
    parity_of_value,
    parity_split,
    restrict,
    teichmuller,
    trivial_char,
)
from iwalambda.cohomology import (
    AmbiguousInput,
    ambiguous_valuation,
    herbrand_quotient,
    quotient_module,
    stable_submodule,
    tate_h0,
    tate_h1,
)
from iwalambda.defect import (
    defect_character,
    defect_oracle,
    imo_lambda,
    lambda_shift_real,
    lambda_shift_real_oracle,
    reflection_check,
)
from iwalambda.errors import InconsistentDataError
from iwalambda.fields import field_spec
from iwalambda.iwasawa import ElementaryModuleSpec, fit_parameters, level_order_table
from iwalambda.splitting import splitting_exponent, splitting_exponent_oracle
from oracles import all_subgroups, mirror_by_products, primes_below, random_gamma_module, tate_by_enumeration


@contextmanager
def criterion(name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    print(f"[acceptance] {name}: PASS ({time.perf_counter() - t0:.2f}s)")


def test_criterion_1_defect_oracle_equivalence():
    """defect_character == defect_oracle, and the real lambda shift == its
    counting oracle, over every admissible field and S."""
    with criterion("1 defect-oracle equivalence"):
        pool = [2, 5, 7, 13, 17, 53]
        fields = []
        for q in (1, 5, 7, 11, 13):
            F = field_spec(3, 3 * q)
            if F.degree_prime_to_ell:  # drops 21 and 39 (3 | phi)
                fields.append(F)
        assert [F.conductor for F in fields] == [3, 15, 33]
        checked = 0
        for F in fields:
            for size in range(0, 4):
                for S in itertools.combinations(pool, size):
                    assert defect_character(F, S) == defect_oracle(F, S), (F, S)
                    assert lambda_shift_real(F, S).shift == lambda_shift_real_oracle(F, S), (F, S)
                    checked += 1
        assert checked == 3 * 42


def test_criterion_2_imo_example_formula():
    """imo_lambda == trivial component of the real shift for K = Q(zeta_ell)."""
    with criterion("2 rational-field example formula"):
        rng = random.Random(101)
        for ell in (3, 5):
            F = field_spec(ell, ell)
            one = trivial_char(F.delta)
            pool = [p for p in primes_below(300) if p != ell]
            for _ in range(50):
                S = tuple(sorted(rng.sample(pool, rng.randint(0, 4))))
                value = imo_lambda(ell, S)
                shift = lambda_shift_real(F, S).shift
                assert value == shift.multiplicity(one), (ell, S)
                # piecewise form, exponents recomputed by the place-count oracle
                s_omega = [p for p in S if p % ell == 1]
                weights = [ell ** splitting_exponent_oracle(ell, p) for p in s_omega]
                if len(s_omega) <= 1:
                    assert value == 0
                else:
                    assert value == sum(weights) - max(weights)


def test_criterion_3_reflection_identity():
    """reflection_check holds for all admissible disjoint (S, T) with ell inside."""
    with criterion("3 reflection identity"):
        pool = [2, 5, 7, 13, 17, 53]
        fields = [field_spec(3, 3), field_spec(3, 15), field_spec(3, 33), field_spec(3, 15, (4,))]
        checked = 0
        for F in fields:
            for s_size in range(0, 3):
                for S in itertools.combinations(pool, s_size):
                    rest = [p for p in pool if p not in S]
                    for t_size in range(0, 3):
                        for T in itertools.combinations(rest, t_size):
                            for SS, TT in ((S + (3,), T), (S, T + (3,))):
                                rep = reflection_check(F, SS, TT)
                                assert rep.holds, (F, SS, TT)
                                checked += 1
        assert checked >= 1000  # includes every T = {} special case


def test_criterion_4_parameter_theorem():
    """fit_parameters recovers (rho, mu, lambda) for 100 randomized specs."""
    with criterion("4 parameter theorem at module level"):
        rng = random.Random(104)
        specs = []
        while len(specs) < 70:  # ell = 3, polynomials allowed
            specs.append(
                ElementaryModuleSpec(
                    3,
                    rho=rng.randint(0, 1),
                    polys=tuple(
                        tuple(3 * rng.randint(-3, 3) for _ in range(rng.randint(1, 3))) + (1,)
                        for _ in range(rng.randint(0, 2))
                    ),
                    mus=tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 2))),
                )
            )
        while len(specs) < 100:  # ell = 5, closed-form summands
            specs.append(
                ElementaryModuleSpec(
                    5,
                    rho=rng.randint(0, 1),
                    mus=tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 2))),
                )
            )
        for spec in specs:
            table = level_order_table(spec, 2, 5)
            fit = fit_parameters(table, spec.ell)
            assert fit is not None, spec
            assert (fit.rho, fit.mu, fit.lam) == (
                spec.rho,
                spec.mu_invariant,
                spec.lambda_invariant,
            ), (spec, fit)
            for n in table.levels():
                residual = table.entries[n] - (
                    fit.rho * n * spec.ell**n + fit.mu * spec.ell**n + fit.lam * n
                )
                assert residual == fit.nu, (spec, n)


def test_criterion_5_character_algebra_laws():
    """Mirror involution, parity swap, degree partition, Frobenius reciprocity."""
    with criterion("5 character algebra laws"):
        rng = random.Random(105)
        fields = [field_spec(3, 3), field_spec(3, 15), field_spec(3, 33), field_spec(3, 15, (4,))]
        for F in fields:
            chars = all_ladic_chars(F.delta, F.ell, F.tau_bar)
            assert sum(c.degree for c in chars) == F.delta.order
            omega = teichmuller(F).rep
            for phi in chars:
                starred = mirror_by_products(phi.rep, omega)
                assert {phi.parity, parity_of_value(starred.value_at(F.tau_bar), F.delta.exponent)} == {REAL, IMAGINARY}
            for _ in range(20):
                mults = {}
                for phi in chars:
                    k = rng.randint(-3, 3)
                    for chi in phi.orbit:
                        mults[chi] = k
                x = VirtualChar(F.delta, mults)
                assert mirror(mirror(x, F), F) == x
                real, imag = parity_split(x, F.tau_bar)
                assert real + imag == x and inner_product(real, imag) == 0
            for D in all_subgroups(F.delta):
                ind = induce_trivial(F.delta, D)
                for phi in chars:
                    v = VirtualChar.from_ladic(phi)
                    want = phi.degree if phi.rep.is_trivial_on(D.elements) else 0
                    assert inner_product(ind, v) == want
                    res = restrict(v, D)
                    assert res.multiplicity(trivial_char(res.group)) == want


def test_criterion_6_splitting_exponent_closed_form():
    """Closed form v_ell(p^(ell-1) - 1) - 1 equals the place-count oracle."""
    with criterion("6 splitting exponent closed form"):
        for ell in (3, 5, 7):
            for p in primes_below(500):
                if p != ell:
                    assert splitting_exponent(ell, p) == splitting_exponent_oracle(ell, p), (ell, p)


def test_criterion_7_appendix_engine():
    """Herbrand quotient 1, SES multiplicativity, enumeration agreement,
    and the ambiguous-class valuation hand cases."""
    with criterion("7 appendix engine"):
        rng = random.Random(107)
        for _ in range(200):
            M = random_gamma_module(rng)
            assert (tate_h0(M), tate_h1(M)) == tate_by_enumeration(M)
            assert herbrand_quotient(M) == 1
            gens = [rng.choice(list(M.module.elements()))]
            sub, H = stable_submodule(M, gens)
            quo = quotient_module(M, H)
            assert herbrand_quotient(M) == herbrand_quotient(sub) * herbrand_quotient(quo)
        assert ambiguous_valuation(AmbiguousInput(0, (1,), 1, 0)) == 0
        assert ambiguous_valuation(AmbiguousInput(1, (1, 1), 1, 1)) == 1
        assert ambiguous_valuation(AmbiguousInput(2, (1, 2, 1), 2, 1)) == 3
        try:
            ambiguous_valuation(AmbiguousInput(0, (), 1, 0))
            raise AssertionError("inconsistent data must be rejected")
        except InconsistentDataError:
            pass


def test_criterion_8_cli_determinism():
    """Byte-identical JSON across processes, every subcommand covered: each
    run here matches the corpus line that another process wrote (the
    census replays it in a third)."""
    with criterion("8 CLI determinism"):
        committed = {tuple(line["argv"]): line for line in cli_corpus.load()}
        matrix = [
            ("chars", "--ell", "3", "--conductor", "15"),
            ("chars", "--ell", "3", "--conductor", "33"),
            ("defect", "--ell", "3", "--conductor", "3", "--primes", "7,13", "--verify"),
            ("defect", "--ell", "3", "--conductor", "15", "--primes", "2,7,17"),
            ("defect", "--ell", "3", "--conductor", "15", "--primes", "2,7,13", "--verify"),
            ("lambda", "--ell", "3", "--conductor", "3", "--primes", "7,13", "--parity", "real"),
            ("lambda", "--ell", "3", "--conductor", "15", "--primes", "2,7", "--parity", "imaginary"),
            ("lambda", "--ell", "3", "--conductor", "3", "--primes", "3,7", "--parity", "wild"),
            ("reflect", "--ell", "3", "--conductor", "3", "--S", "3", "--T", ""),
            ("reflect", "--ell", "3", "--conductor", "15", "--S", "3,2", "--T", "7,13"),
            ("reflect", "--ell", "3", "--conductor", "3", "--S", "3", "--T", "7,13"),
            ("simulate", "--ell", "3", "--rho", "1", "--poly", "T^2+3T", "--mu", "1", "--n", "4", "--n-min", "1"),
            ("simulate", "--ell", "3", "--poly", "T^2+3T", "--n", "4", "--n-min", "1"),
            ("ambig", "--class-val", "1", "--ram", "1,1", "--deg", "1", "--unit-index", "1"),
            ("ambig", "--class-val", "1", "--ram", "1", "--deg", "1"),
            ("cohomology", "--factors", "3,9", "--sigma", "2,0;0,4", "--order", "6"),
            ("cohomology", "--factors", "9", "--sigma", "4", "--order", "3"),
        ]
        for cmd in matrix:
            code, out, err = cli_corpus.call(cmd)
            want = committed[cmd]
            assert (code, err) == (want["code"], want["stderr"]) == (0, ""), (cmd, err)
            assert hashlib.sha256(out.encode()).hexdigest() == want["stdout_sha256"], cmd
            payload = json.loads(out)
            assert payload["schema"] == "iwalambda/1"
            assert "result" in payload and "oracle_checked" in payload
