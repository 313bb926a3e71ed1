import tracemalloc
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iwalambda import splitting
from iwalambda.characters import VirtualChar, all_abs_chars, induce_trivial
from iwalambda.errors import PrimeSetError, ScaleError
from iwalambda.fields import FieldSpec, field_spec
from iwalambda.groups import subgroup_generated, unit_group
from iwalambda.splitting import (
    chi_S,
    chi_p,
    decomposition_data,
    splitting_exponent,
    splitting_exponent_oracle,
    validate_prime_set,
)
from oracles import PROPERTY_FIELDS, SCAN_PHI_CAP, decomposition_by_scan, induce_trivial_by_scan, primes_below


class TestDecomposition:
    def test_split_prime(self):
        F = field_spec(3, 3)
        d = decomposition_data(F, 7)  # 7 = 1 mod 3: split
        assert d.decomposition.order == 1 and d.inertia.order == 1

    def test_inert_prime(self):
        F = field_spec(3, 3)
        d = decomposition_data(F, 2)  # 2 = -1 mod 3: inert
        assert d.decomposition.order == 2 and d.inertia.order == 1
        assert d.frobenius == F.tau_bar

    def test_totally_ramified(self):
        F = field_spec(3, 3)
        d = decomposition_data(F, 3)
        assert d.inertia.order == 2 and d.decomposition.order == 2
        assert d.n_p == 0 and d.weight == 1

    def test_ramified_tame_prime(self):
        F = field_spec(3, 15)
        d = decomposition_data(F, 5)
        assert d.inertia.order == 4  # phi(5)
        assert d.decomposition.order == 8  # Frobenius 5 = 2 mod 3 adds order 2

    def test_unramified_primes_have_trivial_inertia(self):
        for m, gens in ((15, ()), (33, ()), (15, (4,))):
            F = field_spec(3, m, gens)
            for p in (2, 7, 11, 13, 17, 53):
                if m % p == 0:
                    continue
                d = decomposition_data(F, p)
                assert d.inertia.order == 1
                # Frobenius alone generates the decomposition subgroup
                assert subgroup_generated(F.delta, [F.delta_element(p)]) == d.decomposition

    def test_composite_rejected(self):
        with pytest.raises(PrimeSetError):
            decomposition_data(field_spec(3, 3), 6)

    def test_residue_scan_has_a_scale_limit(self):
        # phi(3 * 10007) = 20012: refused from the conductor alone, before any unit is mapped
        assert SCAN_PHI_CAP < 20012
        with pytest.raises(ScaleError, match="oracle scale"):
            decomposition_by_scan(SimpleNamespace(conductor=3 * 10007), 2)

    @pytest.mark.parametrize("key", [*PROPERTY_FIELDS, (3, 24, ())], ids=str)
    def test_matches_residue_scan(self, key):
        # every p < 100: unramified, tame ramified, wild, and p = 2 with (Z/4)*
        # at m = 60 and (Z/8)* at m = 24
        F = field_spec(*key)
        for p in primes_below(100):
            d = decomposition_data(F, p)
            assert (frozenset(d.decomposition.elements), frozenset(d.inertia.elements)) == decomposition_by_scan(F, p), (key, p)


class TestSplittingExponent:
    def test_examples(self):
        assert splitting_exponent(3, 7) == 0  # v3(48) - 1
        assert splitting_exponent(3, 17) == 1  # v3(288) - 1
        assert splitting_exponent(3, 53) == 2  # v3(2808) - 1

    def test_oracle_examples(self):
        assert splitting_exponent_oracle(3, 7) == 0
        assert splitting_exponent_oracle(3, 17) == 1
        assert splitting_exponent_oracle(5, 7) == 1  # v5(2400) = 2

    def test_oracle_has_no_depth_cap(self):
        # v3(39367^2 - 1) = 9, so n_p = 8 and the count freezes at layer 9
        assert splitting_exponent_oracle(3, 39367) == splitting_exponent(3, 39367) == 8

    def test_wild_prime_rejected(self):
        with pytest.raises(PrimeSetError, match="wild prime"):
            splitting_exponent(3, 3)
        with pytest.raises(PrimeSetError):
            splitting_exponent_oracle(5, 5)

    def test_closed_form_equals_oracle(self):
        for ell in (3, 5, 7):
            for p in primes_below(500):
                if p != ell:
                    assert splitting_exponent(ell, p) == splitting_exponent_oracle(ell, p), (ell, p)

    @settings(derandomize=True, max_examples=150)
    @given(st.sampled_from([3, 5, 7]), st.sampled_from(primes_below(1000)))
    def test_closed_form_equals_place_count_seeded(self, ell, p):
        assume(p != ell)
        assert splitting_exponent(ell, p) == splitting_exponent_oracle(ell, p)


class TestChiS:
    def test_inert_gives_one(self):
        F = field_spec(3, 3)
        assert chi_S(F, [2]) == VirtualChar.one(F.delta)

    def test_split_gives_regular(self):
        F = field_spec(3, 3)
        reg = VirtualChar(F.delta, {c: 1 for c in all_abs_chars(F.delta)})
        assert chi_S(F, [7]) == reg

    def test_empty(self):
        F = field_spec(3, 3)
        assert chi_S(F, []).is_zero

    def test_duplicates_rejected(self):
        with pytest.raises(PrimeSetError, match="must be a set"):
            chi_S(field_spec(3, 3), [7, 7])

    def test_weighting(self):
        # 17 has n_p = 1 at ell = 3, so chi_17 carries weight 3
        F = field_spec(3, 3)
        d = decomposition_data(F, 17)
        assert d.weight == 3
        assert chi_p(F, 17) == 3 * VirtualChar.one(F.delta)  # 17 = 2 mod 3 is inert

    def test_degree_additivity(self):
        # total multiplicity of chi_S = sum of weight * (characters trivial on Delta_p)
        for m, gens in ((3, ()), (15, ()), (33, ()), (15, (4,))):
            F = field_spec(3, m, gens)
            for S in ([2], [7, 13], [2, 5, 17], [5, 53], [3, 7]):
                if any(F.conductor % p == 0 and p != 3 and m == 3 for p in S):
                    continue
                total = sum(k for _, k in chi_S(F, S).items())
                expect = 0
                for p in S:
                    d = decomposition_data(F, p)
                    weight = 1 if p == 3 else 3**d.n_p
                    expect += weight * (F.delta.order // d.decomposition.order)
                assert total == expect, (m, S)

    def test_wild_prime_allowed_weight_one(self):
        F = field_spec(3, 3)
        assert chi_S(F, [3]) == VirtualChar.one(F.delta)
        assert chi_S(F, [3, 2]) == 2 * VirtualChar.one(F.delta)


class TestInducedTrivialCache:
    @given(st.sampled_from(PROPERTY_FIELDS), st.sampled_from(primes_below(100)))
    def test_cached_induction_matches_scan(self, key, p):
        F = field_spec(*key)
        data = decomposition_data(F, p)
        scan = induce_trivial_by_scan(F.delta, data.decomposition)
        assert data.induced_trivial == scan
        assert decomposition_data(F, p).induced_trivial is data.induced_trivial
        assert chi_p(F, p) == data.weight * scan
        # arithmetic on chi_p's result never writes through to the cache
        x = chi_p(F, p)
        assert x is not data.induced_trivial
        x += chi_p(F, p)
        x += VirtualChar.one(F.delta)
        assert -x + 2 * chi_S(F, [p]) == -VirtualChar.one(F.delta)
        assert data.induced_trivial == scan
        assert chi_p(F, p) == data.weight * scan

    def test_chi_p_builds_the_induction_once_per_prime(self, monkeypatch):
        calls = []

        def counting(delta, D):
            calls.append(D)
            return induce_trivial(delta, D)

        fresh = lru_cache(maxsize=None)(decomposition_data.__wrapped__)
        monkeypatch.setattr(splitting, "decomposition_data", fresh)
        monkeypatch.setattr(splitting, "induce_trivial", counting)
        F = field_spec(3, 15)
        for _ in range(5):
            chi_p(F, 2)
            chi_S(F, [2, 7, 13])
        assert len(calls) == 3


class TestValidatedPrimeSet:
    def test_equals_and_hashes_as_the_sorted_tuple(self):
        primes = validate_prime_set([13, 3, 7])
        assert primes == (3, 7, 13) and hash(primes) == hash((3, 7, 13))
        assert {(3, 7, 13): "S"}[primes] == "S" and repr(primes) == "(3, 7, 13)"
        assert validate_prime_set(()) == () and validate_prime_set([]) == ()

    def test_a_validated_set_comes_back_unchanged(self):
        primes = validate_prime_set((7, 2))
        assert validate_prime_set(primes) is primes


class TestFieldValidation:
    def test_bad_field_inputs(self):
        from iwalambda.errors import FieldError
        from iwalambda.fields import FieldSpec

        with pytest.raises(FieldError, match="odd prime"):
            FieldSpec(2, 8)
        with pytest.raises(FieldError, match="odd prime"):
            FieldSpec(9, 9)
        with pytest.raises(FieldError, match="divisible"):
            FieldSpec(3, 10)
        with pytest.raises(FieldError, match="not a unit"):
            FieldSpec(3, 15, (5,))
        # ell = 3.0 is refused, also with the field of ell = 3 in the cache
        field_spec(3, 15)
        with pytest.raises(FieldError, match="odd prime"):
            field_spec(3.0, 15)

    def test_keeps_no_element_list_of_h(self):
        # H = <2> mod 99987 has 16,664 elements; Delta is reduced from them,
        # but the field keeps only the quotient map onto Delta = Z/4
        unit_group(99987)  # shared by every field of this conductor: built outside the count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            F = FieldSpec(3, 99987, (2,))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert F.delta.invariant_factors == (4,) and not hasattr(F, "subgroup")
        assert kept < 500_000

    def test_power_of_two_conductor_component(self):
        # 24 = 8 * 3: the two-generator inertia at p = 2 fills the whole group
        F = field_spec(3, 24)
        d = decomposition_data(F, 2)
        assert d.inertia.order == 4  # phi(8)
        assert d.decomposition.order == 8  # Frobenius of 2 mod 3 adds order 2
