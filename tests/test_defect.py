import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import iwalambda.characters
import iwalambda.defect
import iwalambda.splitting
from iwalambda.characters import IMAGINARY, VirtualChar, inner_product, parity_split, teichmuller, trivial_char
from iwalambda.defect import (
    ORACLE_LEVEL_CAP,
    BaseSymbol,
    CaseTag,
    LambdaExpr,
    _s_phi_character,
    defect_character,
    defect_oracle,
    imo_lambda,
    kappa,
    ladic_chars_of,
    lambda_shift_imaginary,
    lambda_shift_real,
    lambda_shift_real_oracle,
    lambda_wild,
    mirror_lambda_expr,
    mirror_symbol,
    reflection_check,
)
from iwalambda.errors import PrimeSetError, ScaleError
from iwalambda.fields import FieldSpec, field_spec
from iwalambda.splitting import (
    chi_S,
    chi_p,
    decomposition_data,
    splitting_exponent,
    splitting_exponent_oracle,
    validate_prime_set,
)
from oracles import PROPERTY_FIELDS, all_ladic_chars_by_walk, induce_trivial_by_scan, primes_below, s_phi_by_scan

F3 = field_spec(3, 3)
TEST_FIELDS = [field_spec(3, 3), field_spec(3, 15), field_spec(3, 33), field_spec(3, 15, (4,))]


def omega_v(field):
    return VirtualChar.from_ladic(teichmuller(field))


def scan_s_phis(F, S, chars) -> dict:
    """imaginary phi -> s_phi_by_scan(F, S, phi), over the phi of chars."""
    return {phi: s_phi_by_scan(F, S, phi) for phi in chars if phi.parity == IMAGINARY}


def assert_s_phi_matches(F, S, s_phis):
    """_s_phi_character(F, S, weigh) against the S_phi of scan_s_phis,
    which covers every imaginary phi: on each member of phi, weigh=len
    gives |S_phi| copies and weigh=sum the sum of ell^{n_p} over S_phi
    (n_p from the place-count oracle), and no other character is reached."""
    by_len, by_sum = _s_phi_character(F, S, len), _s_phi_character(F, S, sum)
    for phi, primes in s_phis.items():
        assert phi.parity == IMAGINARY
        weight = sum(F.ell ** splitting_exponent_oracle(F.ell, p) for p in primes)
        for chi in phi.orbit:
            assert (by_len.multiplicity(chi), by_sum.multiplicity(chi)) == (len(primes), weight), (F, S, chi.coeffs)
    reached = sum(phi.degree for phi, primes in s_phis.items() if primes)
    assert len(by_len.support()) == len(by_sum.support()) == reached


class TestSPhi:
    def test_examples(self):
        om = teichmuller(F3)
        assert s_phi_by_scan(F3, [7, 13], om) == (7, 13)
        assert _s_phi_character(F3, [7, 13], len) == 2 * omega_v(F3)
        for S in ([7, 13], [2], []):
            assert_s_phi_matches(F3, S, scan_s_phis(F3, S, [om]))
        assert _s_phi_character(F3, [2], len).is_zero
        assert _s_phi_character(F3, [], sum).is_zero

    @given(
        st.sampled_from(PROPERTY_FIELDS),
        st.lists(st.sampled_from(primes_below(100)), unique=True, max_size=4),
    )
    def test_lookup_matches_scan(self, key, S):
        F = field_spec(*key)
        assume(F.ell not in S)
        assert_s_phi_matches(F, S, scan_s_phis(F, S, ladic_chars_of(F)))


F15 = field_spec(3, 15)
# each public entry point that takes a prime set, fed a field F and the raw
# list S; the wild prime 3 is added where the entry point needs it in S
PRIME_SET_ENTRY_POINTS = {
    "defect_character": lambda F, S: defect_character(F, S),
    "defect_oracle": lambda F, S: defect_oracle(F, S),
    "lambda_shift_real": lambda F, S: lambda_shift_real(F, S),
    "lambda_shift_real_oracle": lambda F, S: lambda_shift_real_oracle(F, S),
    "lambda_shift_imaginary": lambda F, S: lambda_shift_imaginary(F, S),
    "lambda_wild": lambda F, S: lambda_wild(F, [3, *S]),
    "chi_S": lambda F, S: chi_S(F, S),
    "kappa_S": lambda F, S: kappa(F, [3, *S], []),
    "kappa_T": lambda F, S: kappa(F, [3], S),
    "reflection_check_S": lambda F, S: reflection_check(F, [3, *S], []),
    "reflection_check_T": lambda F, S: reflection_check(F, [3], S),
    "imo_lambda": lambda F, S: imo_lambda(3, S),
    "validate_prime_set": lambda F, S: validate_prime_set(S),
}
TAME_ENTRY_POINTS = (
    "defect_character", "defect_oracle", "lambda_shift_real", "lambda_shift_real_oracle",
    "lambda_shift_imaginary", "imo_lambda",
)
# the entry points that take one prime p
PRIME_ENTRY_POINTS = {
    "decomposition_data": lambda F, p: decomposition_data(F, p),
    "chi_p": lambda F, p: chi_p(F, p),
    "splitting_exponent": lambda F, p: splitting_exponent(3, p),
    "splitting_exponent_oracle": lambda F, p: splitting_exponent_oracle(3, p),
}


class TestPrimeSetValidation:
    """Every entry point validates the raw list it is given, whatever it
    passes on internally."""

    @pytest.mark.parametrize("entry", sorted(PRIME_SET_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "S, message",
        [([7, 13, 7], "7 is repeated: a prime list must be a set"), ([7, 9], "9 is not prime"), ([1], "1 is not prime"),
         # a plain tuple is checked too: only a set validate_prime_set returned skips the check
         ((7, 13, 7), "7 is repeated"), ((7, 9), "9 is not prime"),
         # every element is checked to be a prime before S is checked for repeats
         ([7, 7, 9], "^9 is not prime$"), ([[7]], r"^\[7\] is not prime$"), ([7, [7]], r"^\[7\] is not prime$")],
    )
    def test_raw_list_rejected(self, entry, S, message):
        with pytest.raises(PrimeSetError, match=message):
            PRIME_SET_ENTRY_POINTS[entry](F15, S)

    @pytest.mark.parametrize("entry", TAME_ENTRY_POINTS)
    def test_tame_entry_rejects_ell(self, entry):
        with pytest.raises(PrimeSetError, match="tame"):
            PRIME_SET_ENTRY_POINTS[entry](F15, [7, 3])

    def test_non_int_prime_rejected_before_and_after_the_int_is_cached(self):
        # 7.0 == 7 and hash(7.0) == hash(7): a cache keyed on the value alone
        # would answer for 7.0 once 7 is in it.  F is a new object, so no
        # cache holds anything for it on the first pass.
        F = FieldSpec(3, 15)
        for _ in ("before", "after"):
            for entry in PRIME_SET_ENTRY_POINTS.values():
                with pytest.raises(PrimeSetError, match=r"^7\.0 is not prime$"):
                    entry(F, [7.0])
            for entry in PRIME_ENTRY_POINTS.values():
                with pytest.raises(PrimeSetError, match="prime"):
                    entry(F, 7.0)
            for entry in PRIME_SET_ENTRY_POINTS.values():
                entry(F, [7])
            for entry in PRIME_ENTRY_POINTS.values():
                entry(F, 7)


class TestDefect:
    def test_examples(self):
        assert defect_character(F3, [7, 13]) == omega_v(F3)
        assert defect_character(F3, [2]).is_zero
        assert defect_character(F3, []).is_zero

    def test_oracle_examples(self):
        assert defect_oracle(F3, [7, 13]) == omega_v(F3)
        assert defect_oracle(F3, [2]).is_zero
        assert defect_oracle(F3, [17]).is_zero  # S_omega empty: 17 = 2 mod 3
        assert defect_oracle(F3, []).is_zero

    def test_matches_oracle_everywhere(self):
        pool = [2, 5, 7, 13, 17, 53]
        for F in TEST_FIELDS:
            for size in range(0, 3):
                for S in itertools.combinations(pool, size):
                    assert defect_character(F, S) == defect_oracle(F, S), (F, S)

    def test_matches_oracle_larger_conductors(self):
        # conductors up to 200, a nontrivial H, and splitting depth n0 = 3
        assert splitting_exponent(3, 163) == 3  # 163 = 2 * 81 + 1
        pool = [2, 7, 13, 53, 163]
        for m, gens in ((87, ()), (123, ()), (165, ()), (165, (4,))):
            F = field_spec(3, m, gens)
            assert F.contains_mu_ell and F.degree_prime_to_ell
            for S in itertools.combinations(pool, 2):
                assert defect_character(F, S) == defect_oracle(F, S), (m, gens, S)
            deep = (7, 13, 163)
            assert defect_character(F, deep) == defect_oracle(F, deep)

    @settings(derandomize=True, max_examples=80)
    @given(
        st.sampled_from(PROPERTY_FIELDS),
        st.lists(st.sampled_from(primes_below(200)), unique=True, max_size=3),
    )
    def test_matches_oracle_seeded(self, key, S):
        F = field_spec(*key)
        assume(F.ell not in S)
        assume(max((splitting_exponent(F.ell, p) for p in S), default=0) <= ORACLE_LEVEL_CAP)
        assert defect_character(F, S) == defect_oracle(F, S)

    @settings(derandomize=True, max_examples=80)
    @given(
        st.sampled_from(PROPERTY_FIELDS),
        st.lists(st.sampled_from(primes_below(200)), unique=True, max_size=3),
    )
    def test_real_shift_matches_oracle_seeded(self, key, S):
        F = field_spec(*key)
        assume(F.ell not in S)
        assume(max((splitting_exponent(F.ell, p) for p in S), default=0) <= ORACLE_LEVEL_CAP)
        assert lambda_shift_real(F, S).shift == lambda_shift_real_oracle(F, S)

    def test_real_shift_oracle_examples(self):
        # on F3 every prime = 1 mod 3 kills omega; 7 and 13 have n_p = 0, 19 has n_p = 1
        assert [splitting_exponent(3, p) for p in (7, 13, 19)] == [0, 0, 1]
        assert lambda_shift_real_oracle(F3, [7, 13]) == VirtualChar.one(F3.delta)  # 1 + 1 - 1
        assert lambda_shift_real_oracle(F3, [7, 19]) == VirtualChar.one(F3.delta)  # 1 + 3 - 3
        assert lambda_shift_real_oracle(F3, [7, 13, 19]) == 2 * VirtualChar.one(F3.delta)  # 1 + 1 + 3 - 3
        assert lambda_shift_real_oracle(F3, [19]).is_zero
        assert lambda_shift_real_oracle(F3, [2, 17]).is_zero  # S_omega empty
        assert lambda_shift_real_oracle(F3, []).is_zero

    def test_oracle_scale_cap(self):
        # 1459 = 2 * 729 + 1 has n_p = 5, past the oracle level cap
        assert splitting_exponent(3, 1459) == 5
        with pytest.raises(ScaleError, match="oracle scale"):
            defect_oracle(F3, [1459])
        with pytest.raises(ScaleError, match="oracle scale"):
            lambda_shift_real_oracle(F3, [7, 1459])
        # the closed form itself has no such cap
        assert defect_character(F3, [1459]) == 3**5 * omega_v(F3)

    def test_purely_imaginary_nonnegative(self):
        for F in TEST_FIELDS:
            for S in ([7, 13], [2, 7, 17], [5, 53], [13, 53]):
                d = defect_character(F, S)
                real, imag = parity_split(d, F.tau_bar)
                assert real.is_zero
                assert all(k >= 0 for _, k in d.items())

    def test_component_bound(self):
        # defect component never exceeds the phi-multiplicity of chi_S^imag
        for F in TEST_FIELDS:
            for S in ([7, 13], [2, 7, 13, 17], [5, 17, 53]):
                d = defect_character(F, S)
                s_phis = scan_s_phis(F, S, ladic_chars_of(F))
                assert_s_phi_matches(F, S, s_phis)
                for phi, primes in s_phis.items():
                    comp = inner_product(d, VirtualChar.from_ladic(phi)) // phi.degree
                    bound = sum(F.ell ** decomposition_data(F, p).n_p for p in primes)
                    assert 0 <= comp <= bound


class TestLambdaShifts:
    def test_real_examples(self):
        expr = lambda_shift_real(F3, [7, 13])
        assert expr.base == {BaseSymbol.LAMBDA_REAL: 1}
        assert expr.shift == VirtualChar.one(F3.delta)
        assert lambda_shift_real(F3, [7]).shift.is_zero
        assert lambda_shift_real(F3, []).shift.is_zero

    def test_real_singleton_s_phi_zero_shift(self):
        for F in TEST_FIELDS:
            for p in (2, 7, 13, 53):
                assert lambda_shift_real(F, [p]).shift.is_zero, (F, p)

    def test_imaginary_examples(self):
        assert lambda_shift_imaginary(F3, [2]).shift.is_zero
        assert lambda_shift_imaginary(F3, [7]).shift.is_zero
        # literal evaluation at S = {} gives -omega (flagged out-of-range)
        assert lambda_shift_imaginary(F3, []).shift == -1 * omega_v(F3)

    def test_wild_examples(self):
        one = VirtualChar.one(F3.delta)
        w = lambda_wild(F3, [3])
        assert w.base == {BaseSymbol.LAMBDA_REAL_MIRROR: 1, BaseSymbol.LAMBDA_IMAG_MIRROR: 1}
        assert w.shift.is_zero
        # chi_{3,7} = 2*one + omega, so the shift is (one + omega)* = omega + one
        assert lambda_wild(F3, [3, 7]).shift == one + omega_v(F3)
        assert lambda_wild(F3, [3, 2]).shift == omega_v(F3)

    def test_wild_requires_ell(self):
        with pytest.raises(PrimeSetError, match="requires ell"):
            lambda_wild(F3, [7])

    def test_expr_algebra(self):
        a = lambda_shift_real(F3, [7, 13])
        b = lambda_shift_imaginary(F3, [7, 13])
        total = a + b
        assert total.base == {BaseSymbol.LAMBDA_REAL: 1, BaseSymbol.LAMBDA_IMAG: 1}
        assert mirror_lambda_expr(mirror_lambda_expr(total, F3), F3) == total
        for sym in BaseSymbol:
            assert mirror_symbol(mirror_symbol(sym)) == sym

    def test_expr_negation_and_difference(self):
        a = lambda_shift_real(F3, [7, 13])
        b = lambda_wild(F3, [3, 7])
        assert (-a).base == {BaseSymbol.LAMBDA_REAL: -1} and (-a).shift == -a.shift
        assert -(-b) == b
        diff = a - b
        assert diff + b == a and (a - a).base == {} and (a - a).shift.is_zero
        assert a - a.shift == LambdaExpr(a.base, VirtualChar.zero(F3.delta))
        with pytest.raises(TypeError):
            a - 1

    def test_reprs(self):
        # what a failed comparison of expressions, shifts or fields prints
        assert repr(lambda_shift_real(F3, [7])) == "LambdaExpr(1*lambda_real, shift=VirtualChar(0))"
        assert repr(lambda_wild(field_spec(3, 15), [3, 7])) == (
            "LambdaExpr(1*lambda_imag_mirror + 1*lambda_real_mirror, shift=VirtualChar(1*chi(0, 0) + 1*chi(1, 0)))"
        )
        assert repr(field_spec(3, 15, (4,))) == "FieldSpec(ell=3, conductor=15, H=[4], delta=(2, 2))"


class TestKappa:
    def test_special(self):
        k = kappa(F3, [3], [])
        assert k.case is CaseTag.SPECIAL
        assert k.value == -1 * VirtualChar.one(F3.delta)

    def test_torsion(self):
        k = kappa(F3, [7], [3])
        assert k.case is CaseTag.TORSION and k.value.is_zero

    def test_wild_mirror(self):
        k = kappa(F3, [3], [7, 13])
        assert k.case is CaseTag.WILD_MIRROR
        assert k.value == defect_character(F3, [7, 13])

    def test_hypotheses(self):
        with pytest.raises(PrimeSetError, match="reflection theorem"):
            kappa(F3, [7], [7])
        with pytest.raises(PrimeSetError, match="reflection theorem"):
            kappa(F3, [7], [13])


class TestReflection:
    def test_spec_examples(self):
        assert reflection_check(F3, [3], [7]).holds
        assert reflection_check(F3, [3], []).holds
        assert reflection_check(field_spec(3, 15), [3], [7, 13]).holds

    def test_sweep_all_orientations(self):
        pool = [2, 7, 13, 17]
        for F in TEST_FIELDS:
            for s_size, t_size in itertools.product(range(3), repeat=2):
                for S in itertools.combinations(pool, s_size):
                    rest = [p for p in pool if p not in S]
                    for T in itertools.combinations(rest, t_size):
                        for SS, TT in ((S + (3,), T), (S, T + (3,))):
                            rep = reflection_check(F, SS, TT)
                            assert rep.holds, (F, SS, TT)

    def test_report_contents(self):
        rep = reflection_check(F3, [3], [7, 13])
        assert isinstance(rep.lhs, LambdaExpr) and isinstance(rep.rhs, LambdaExpr)
        assert rep.lhs == rep.rhs
        assert rep.kappa_rhs.case is CaseTag.WILD_MIRROR

    @settings(derandomize=True, max_examples=60)
    @given(
        st.sampled_from(PROPERTY_FIELDS),
        st.lists(st.sampled_from(primes_below(60)), unique=True, max_size=4),
        st.lists(st.booleans(), min_size=4, max_size=4),
        st.booleans(),
    )
    def test_report_carries_both_kappas(self, key, primes, in_s, ell_in_s):
        F = field_spec(*key)
        tame = [p for p in primes if p != F.ell]
        S = [p for p, side in zip(tame, in_s) if side]
        T = [p for p, side in zip(tame, in_s) if not side]
        (S if ell_in_s else T).append(F.ell)
        rep = reflection_check(F, S, T)
        for got, want in ((rep.kappa_rhs, kappa(F, S, T)), (rep.kappa_lhs, kappa(F, T, S))):
            assert got.case is want.case and got.value == want.value

    @pytest.mark.parametrize(
        "S, T, message", [([3, 9], [7, 7], "9 is not prime"), ([3, 7, 7], [1], "7 is repeated")]
    )
    def test_s_reported_before_t(self, S, T, message):
        with pytest.raises(PrimeSetError, match=message):
            reflection_check(F3, S, T)

    def test_t_reported_before_the_hypotheses(self):
        # S and T overlap, but the non-prime in T is what is reported
        with pytest.raises(PrimeSetError, match="9 is not prime"):
            reflection_check(F3, [3, 7], [7, 9])

    def test_each_set_is_checked_once_and_summed_once(self, monkeypatch):
        # a call of validate_prime_set that returns a new object ran the check
        F, S, T = field_spec(3, 33), [29, 3], [5, 43]
        checked, summed = [], []
        validate, chi = iwalambda.splitting.validate_prime_set, iwalambda.defect.chi_S

        def counting_validate(primes):
            out = validate(primes)
            if out is not primes:
                checked.append(tuple(primes))
            return out

        def counting_chi(field, primes):
            summed.append(tuple(primes))
            return chi(field, primes)

        for module in (iwalambda.splitting, iwalambda.defect):
            monkeypatch.setattr(module, "validate_prime_set", counting_validate)
        monkeypatch.setattr(iwalambda.defect, "chi_S", counting_chi)
        assert reflection_check(F, S, T).holds
        assert checked == [(29, 3), (5, 43)]
        assert summed == [(3, 29), (5, 43)]


class TestImoLambda:
    def test_examples(self):
        assert imo_lambda(3, [7, 13]) == 1
        assert imo_lambda(3, [7]) == 0
        assert imo_lambda(3, [2, 5]) == 0

    def test_wild_rejected(self):
        with pytest.raises(PrimeSetError):
            imo_lambda(3, [3, 7])

    @pytest.mark.parametrize("ell, S", [(9, [7]), (4, []), (1, [2]), (2, [3])])
    def test_ell_must_be_an_odd_prime(self, ell, S):
        with pytest.raises(PrimeSetError, match="^ell must be an odd prime$"):
            imo_lambda(ell, S)

    def test_matches_trivial_component_of_real_shift(self):
        rng = random.Random(13)
        for ell in (3, 5):
            F = field_spec(ell, ell)
            pool = [p for p in primes_below(250) if p != ell]
            for _ in range(25):
                S = tuple(sorted(rng.sample(pool, rng.randint(0, 4))))
                shift = lambda_shift_real(F, S).shift
                assert imo_lambda(ell, S) == shift.multiplicity(trivial_char(F.delta))

    def test_explicit_weights(self):
        # 487 = 1 mod 243: n_p = 4, weight 81; 7 and 13 carry weight 1
        assert splitting_exponent(3, 487) == 4
        assert imo_lambda(3, [7, 487]) == (1 + 81) - 81
        assert imo_lambda(3, [7, 13, 487]) == (1 + 1 + 81) - 81


def test_oracles_do_not_read_the_char_table(monkeypatch):
    # on a field with no table built yet, every oracle runs with char_table
    # refused, and afterwards agrees with the table-backed closed forms
    F, S = FieldSpec(3, 165), (7, 13, 19)

    def refuse(field):
        raise AssertionError("an oracle read the character table")

    for module in (iwalambda.characters, iwalambda.defect):
        monkeypatch.setattr(module, "char_table", refuse)
    chars = all_ladic_chars_by_walk(F.delta, F.ell, F.tau_bar)
    defect = defect_oracle(F, S)
    shift = lambda_shift_real_oracle(F, S)
    s_phis = scan_s_phis(F, S, chars)
    inductions = [induce_trivial_by_scan(F.delta, decomposition_data(F, p).decomposition) for p in S]
    monkeypatch.undo()
    assert defect == defect_character(F, S)
    assert shift == lambda_shift_real(F, S).shift
    assert chars == list(ladic_chars_of(F))
    assert_s_phi_matches(F, S, s_phis)
    assert inductions == [decomposition_data(F, p).induced_trivial for p in S]
