import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwalambda.characters import (
    IMAGINARY,
    REAL,
    AbsChar,
    VirtualChar,
    all_abs_chars,
    all_ladic_chars,
    char_table,
    induce_trivial,
    inner_product,
    mirror,
    parity_of_value,
    parity_split,
    restrict,
    teichmuller,
    teichmuller_coeffs,
    trivial_char,
)
from iwalambda.defect import defect_character, ladic_chars_of
from iwalambda.errors import FieldError
from iwalambda.fields import FieldSpec, field_spec
from iwalambda.groups import FiniteAbelianGroup, GroupElement, subgroup_generated
from oracles import (
    CHAINS,
    PROPERTY_FIELDS,
    all_ladic_chars_by_walk,
    all_subgroups,
    contains_mu_ell_by_scan,
    induce_trivial_by_scan,
    mirror_by_products,
)


def stable_random_char(field, rng, lo=-3, hi=3):
    mults = {}
    for phi in all_ladic_chars(field.delta, field.ell, field.tau_bar):
        k = rng.randint(lo, hi)
        for chi in phi.orbit:
            mults[chi] = k
    return VirtualChar(field.delta, mults)


class TestOrbits:
    def test_trivial_group(self):
        F = FiniteAbelianGroup(())
        chars = all_ladic_chars(F, 3, F.identity())
        assert len(chars) == 1 and chars[0].degree == 1 and chars[0].parity == REAL

    def test_degrees_2_4_example(self):
        F = field_spec(3, 15)
        chars = all_ladic_chars(F.delta, 3, F.tau_bar)
        assert sorted(c.degree for c in chars) == [1, 1, 1, 1, 2, 2]

    def test_quadratic_group_any_ell(self):
        F = field_spec(3, 3)  # delta = Z/2
        chars = all_ladic_chars(F.delta, 5, F.tau_bar)
        assert [c.degree for c in chars] == [1, 1]

    def test_partition(self):
        for ell, m, gens in ((3, 15, ()), (3, 33, ()), (5, 5, ()), (3, 15, (4,))):
            F = field_spec(ell, m, gens)
            chars = all_ladic_chars(F.delta, ell, F.tau_bar)
            assert sum(c.degree for c in chars) == F.delta.order

    def test_ell_divides_order_rejected(self):
        F = field_spec(3, 9)
        with pytest.raises(FieldError, match="ell divides group order"):
            all_ladic_chars(F.delta, 3, F.tau_bar)

    @pytest.mark.parametrize("ell", [9, -3, 15, 1, 2])
    def test_ell_must_be_an_odd_prime(self, ell):
        F = field_spec(3, 15)
        with pytest.raises(FieldError, match="^ell must be an odd prime$"):
            all_ladic_chars(F.delta, ell, F.tau_bar)

    def test_non_involution_rejected(self):
        F = field_spec(3, 15)
        order4 = next(g for g in F.delta.elements() if g.order() == 4)
        with pytest.raises(FieldError):
            all_ladic_chars(F.delta, 3, order4)


class TestInnerProduct:
    def test_degree_identity(self):
        F = field_spec(3, 15)
        for phi in all_ladic_chars(F.delta, 3, F.tau_bar):
            v = VirtualChar.from_ladic(phi)
            assert inner_product(v, v) == phi.degree

    def test_one(self):
        F = field_spec(3, 3)
        one = VirtualChar.one(F.delta)
        assert inner_product(one, one) == 1

    def test_regular_against_each_orbit(self):
        F = field_spec(3, 15)
        reg = VirtualChar(F.delta, {chi: 1 for chi in all_abs_chars(F.delta)})
        for phi in all_ladic_chars(F.delta, 3, F.tau_bar):
            assert inner_product(reg, VirtualChar.from_ladic(phi)) == phi.degree

    def test_group_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(
                VirtualChar.one(FiniteAbelianGroup((2,))),
                VirtualChar.one(FiniteAbelianGroup((4,))),
            )


class TestInduction:
    def test_full_subgroup_gives_one(self):
        F = field_spec(3, 15)
        assert induce_trivial(F.delta, subgroup_generated(F.delta, F.delta.basis())) == VirtualChar.one(F.delta)

    def test_trivial_subgroup_gives_regular(self):
        F = field_spec(3, 15)
        ind = induce_trivial(F.delta, subgroup_generated(F.delta, []))
        assert ind == VirtualChar(F.delta, dict.fromkeys(all_abs_chars(F.delta), 1))

    def test_kernel_scan_example(self):
        # subgroup generated by (1,0) in (2,4): characters with first coeff 0
        G = FiniteAbelianGroup((2, 4))
        from iwalambda.groups import subgroup_generated

        D = subgroup_generated(G, [(1, 0)])
        ind = induce_trivial(G, D)
        assert sorted(chi.coeffs for chi in ind.support()) == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_class_function_values(self):
        # definitional check: the induced virtual character, evaluated as an
        # exact sum of roots of unity (reduced mod the cyclotomic polynomial),
        # takes the value [Delta : D] on D and 0 elsewhere
        from functools import lru_cache

        def polydiv_exact(num, den):  # den monic, ascending coefficients
            num = list(num)
            out = [0] * (len(num) - len(den) + 1)
            for k in range(len(out) - 1, -1, -1):
                c = num[k + len(den) - 1]
                out[k] = c
                if c:
                    for j, dj in enumerate(den):
                        num[k + j] -= c * dj
            assert all(x == 0 for x in num[: len(den) - 1])
            return out

        @lru_cache(maxsize=None)
        def cyclotomic(e):
            poly = [-1] + [0] * (e - 1) + [1]
            for d in range(1, e):
                if e % d == 0:
                    poly = polydiv_exact(poly, cyclotomic(d))
            return tuple(poly)

        def root_sum(values, e):  # sum of zeta_e^v, as a vector mod Phi_e
            vec = [0] * e
            for v in values:
                vec[v % e] += 1
            phi = cyclotomic(e)
            deg = len(phi) - 1
            for k in range(e - 1, deg - 1, -1):
                c = vec[k]
                if c:
                    for j in range(len(phi)):
                        vec[k - deg + j] -= c * phi[j]
            return vec[:deg]

        for F in (field_spec(3, 15), field_spec(3, 33)):
            e = F.delta.exponent
            for D in all_subgroups(F.delta):
                ind = induce_trivial(F.delta, D)
                index = F.delta.order // D.order
                for g in F.delta.elements():
                    vals = [chi.value_at(g) for chi in ind.support()]
                    want = [index if g in D else 0] + [0] * (len(cyclotomic(e)) - 2)
                    assert root_sum(vals, e) == want, (D.order, g.coords)

    def test_frobenius_reciprocity_vs_restriction(self):
        # <Ind_D 1, phi> computed three ways: inner product, kernel scan,
        # and multiplicity of the unit character in the restriction
        for ell, m, gens in ((3, 15, ()), (3, 33, ()), (3, 15, (4,))):
            F = field_spec(ell, m, gens)
            chars = all_ladic_chars(F.delta, ell, F.tau_bar)
            for D in all_subgroups(F.delta):
                ind = induce_trivial(F.delta, D)
                for phi in chars:
                    v = VirtualChar.from_ladic(phi)
                    lhs = inner_product(ind, v)
                    res = restrict(v, D)
                    assert lhs == res.multiplicity(trivial_char(res.group))
                    assert lhs == (phi.degree if phi.rep.is_trivial_on(D.elements) else 0)


    @settings(derandomize=True, max_examples=200)
    @given(st.sampled_from(CHAINS))
    def test_pullback_matches_kernel_scan(self, chain):
        G = FiniteAbelianGroup(chain)
        for D in all_subgroups(G):
            ind = induce_trivial(G, D)
            assert ind == induce_trivial_by_scan(G, D)
            assert len(ind.support()) == G.order // D.order

    def test_pullback_of_subgroup_from_its_elements(self):
        # every element as a generator: the same lattice, so the same pull-back
        G = FiniteAbelianGroup((2, 4))
        ref = subgroup_generated(G, [(0, 1)])
        D = subgroup_generated(G, ref.elements)
        assert D == ref
        ind = induce_trivial(G, D)
        assert ind == induce_trivial_by_scan(G, D)
        assert sorted(chi.coeffs for chi in ind.support()) == [(0, 0), (1, 0)]

    def test_other_group_rejected(self):
        G = FiniteAbelianGroup((2, 4))
        with pytest.raises(ValueError, match="different group"):
            induce_trivial(FiniteAbelianGroup((8,)), subgroup_generated(G, G.basis()))


class TestRestrict:
    def test_identity_cases(self):
        F = field_spec(3, 15)
        one = VirtualChar.one(F.delta)
        x = restrict(one, subgroup_generated(F.delta, []))
        assert x == VirtualChar.one(x.group)
        full = subgroup_generated(F.delta, F.delta.basis())
        x = restrict(one, full)
        assert x.multiplicity(trivial_char(x.group)) == 1

    def test_regular_restricts_to_scaled_regular(self):
        F = field_spec(3, 15)
        reg = VirtualChar(F.delta, {chi: 1 for chi in all_abs_chars(F.delta)})
        for D in all_subgroups(F.delta):
            res = restrict(reg, D)
            index = F.delta.order // D.order
            assert all(res.multiplicity(c) == index for c in all_abs_chars(res.group))


class TestTeichmuller:
    def test_conductor_3(self):
        F = field_spec(3, 3)
        om = teichmuller(F)
        assert om.rep.coeffs == (1,) and om.parity == IMAGINARY

    def test_kernel_mod_15(self):
        F = field_spec(3, 15)
        om = teichmuller(F)
        fixed = [a for a in range(1, 15) if a % 3 and a % 5 and om.rep.value_at(F.delta_element(a)) == 0]
        assert fixed == [1, 4, 7, 13]
        # omega has order ell - 1 = 2 (its coefficient vector does, in the dual)
        assert GroupElement(F.delta, om.rep.coeffs).order() == 2
        e = F.delta.exponent
        assert om.rep.value_at(F.tau_bar) == e // 2

    def test_imaginary_everywhere(self):
        for ell, m, gens in ((3, 15, ()), (3, 33, ()), (5, 5, ()), (5, 35, ()), (7, 7, ()), (3, 15, (4,))):
            F = field_spec(ell, m, gens)
            om = teichmuller(F)
            e = F.delta.exponent
            assert om.rep.value_at(F.tau_bar) == e // 2  # omega(tau) = -1
            assert om.degree == 1

    def test_requires_mu_ell(self):
        # H = <2> mod 15 contains 2 != 1 mod 3, so K loses the cube roots
        F = field_spec(3, 15, (2,))
        assert not F.contains_mu_ell
        entries = (
            teichmuller,
            teichmuller_coeffs,
            lambda F: mirror(VirtualChar.one(F.delta), F),
            lambda F: defect_character(F, [7]),
        )
        for fn in entries:
            with pytest.raises(FieldError, match="^field does not contain ell-th roots of unity$"):
                fn(F)

    @settings(derandomize=True, max_examples=100)
    @given(st.sampled_from(PROPERTY_FIELDS), st.lists(st.integers(1, 10**4), max_size=3))
    def test_mu_ell_flag_read_off_generators(self, key, raw):
        ell, m, gens = key
        F = FieldSpec(ell, m, gens + tuple(h for h in raw if gcd(h, m) == 1))
        assert F.contains_mu_ell == contains_mu_ell_by_scan(F)


class TestMirror:
    def test_one_and_omega_swap(self):
        F = field_spec(3, 15)
        one = VirtualChar.one(F.delta)
        om = VirtualChar.from_ladic(teichmuller(F))
        assert mirror(one, F) == om
        assert mirror(om, F) == one

    def test_involution_random(self):
        rng = random.Random(9)
        for ell, m in ((3, 15), (3, 33), (5, 35)):
            F = field_spec(ell, m)
            for _ in range(15):
                x = stable_random_char(F, rng)
                assert x.is_frobenius_stable(ell)
                assert mirror(mirror(x, F), F) == x

    def test_parity_swap(self):
        for ell, m in ((3, 15), (3, 33), (5, 35)):
            F = field_spec(ell, m)
            omega = teichmuller(F).rep
            for phi in all_ladic_chars(F.delta, ell, F.tau_bar):
                starred = mirror_by_products(phi.rep, omega)
                assert {phi.parity, parity_of_value(starred.value_at(F.tau_bar), F.delta.exponent)} == {REAL, IMAGINARY}

    def test_group_checked_on_every_input(self):
        F = field_spec(3, 15)
        G = FiniteAbelianGroup((2, 2))
        for x in (VirtualChar.zero(G), VirtualChar.one(G), VirtualChar(G, {AbsChar(G, (1, 1)): 1})):
            with pytest.raises(ValueError, match="characters of different groups"):
                mirror(x, F)


# the property fields and three larger ones, up to |Delta| = 1280
TABLE_FIELDS = PROPERTY_FIELDS + ((3, 255, ()), (3, 561, ()), (3, 2805, ()))


class TestCharTable:
    """The indexed lists against the set walk and the character products."""

    @settings(derandomize=True, max_examples=200)
    @given(st.sampled_from(CHAINS))
    def test_orbits_and_parities_match_the_walk(self, chain):
        G = FiniteAbelianGroup(chain)
        involutions = [g for g in G.elements() if (g + g).is_identity]
        for ell in (3, 5, 7, 11):
            if G.order % ell == 0:
                continue
            for tau in involutions:
                assert all_ladic_chars(G, ell, tau) == all_ladic_chars_by_walk(G, ell, tau), (chain, ell, tau)

    @settings(derandomize=True, max_examples=50)
    @given(st.sampled_from(TABLE_FIELDS))
    def test_mirror_list_matches_products(self, key):
        F = field_spec(*key)
        table = char_table(F)
        omega, e = teichmuller(F).rep, F.delta.exponent
        for i, chi in enumerate(table.chars):
            j = table.mirror[i]
            starred = mirror_by_products(chi, omega)
            assert table.chars[j] == starred
            assert table.mirror[j] == i
            assert table.mirror[table.frobenius[i]] == table.frobenius[j]
            assert table.odd[j] == 1 - table.odd[i]
            assert parity_of_value(starred.value_at(F.tau_bar), e) != parity_of_value(chi.value_at(F.tau_bar), e)
            assert mirror(VirtualChar(F.delta, {chi: 1}), F) == VirtualChar(F.delta, {starred: 1})

    def test_one_shared_character_per_vector(self):
        F = field_spec(3, 165)
        table = char_table(F)
        assert [chi.coeffs for chi in table.chars] == [chi.coeffs for chi in all_abs_chars(F.delta)]
        assert all(table.index[chi.coeffs] == i for i, chi in enumerate(table.chars))
        assert all(member is table.chars[table.index[member.coeffs]] for phi in ladic_chars_of(F) for member in phi.orbit)
        assert teichmuller(F).rep is table.chars[table.omega]

    def test_ell_dividing_the_order_has_no_orbits(self):
        F = field_spec(3, 9)
        table = char_table(F)
        assert table.orbits is None and table.orbit_of is None
        with pytest.raises(FieldError, match="ell divides group order"):
            table.ladic_chars()
        assert teichmuller(F).degree == 1

    def test_no_mirror_list_without_mu_ell(self):
        F = field_spec(3, 15, (2,))
        table = char_table(F)
        assert table.omega is None and table.mirror is None
        assert [phi.parity for phi in table.ladic_chars()] == [phi.parity for phi in all_ladic_chars_by_walk(F.delta, 3, F.tau_bar)]


class TestParitySplit:
    def test_conjugation_checked_alike_by_both_entries(self):
        # Delta of m = 15 is Z/2 x Z/4; the other Delta, of m = 33, is Z/2 x Z/10
        F, other = field_spec(3, 15), field_spec(3, 33)
        entries = (
            lambda tau: all_ladic_chars(F.delta, 3, tau),
            lambda tau: parity_split(VirtualChar.one(F.delta), tau),
        )
        cases = (
            (F.delta_element(2), FieldError, "tau_bar must square to the identity"),
            (other.tau_bar, ValueError, "tau_bar lives in a different group"),
            (other.delta_element(2), ValueError, "tau_bar lives in a different group"),
        )
        for tau, error, message in cases:
            assert (tau + tau).is_identity == (tau is other.tau_bar)
            for entry in entries:
                with pytest.raises(error, match=f"^{message}$") as raised:
                    entry(tau)
                assert type(raised.value) is error

    def test_one_and_omega(self):
        F = field_spec(3, 3)
        one = VirtualChar.one(F.delta)
        om = VirtualChar.from_ladic(teichmuller(F))
        re, im = parity_split(one, F.tau_bar)
        assert re == one and im.is_zero
        re, im = parity_split(om, F.tau_bar)
        assert re.is_zero and im == om

    def test_regular_halves(self):
        F = field_spec(3, 15)
        reg = VirtualChar(F.delta, {chi: 1 for chi in all_abs_chars(F.delta)})
        re, im = parity_split(reg, F.tau_bar)
        assert len(re.support()) == 4 and len(im.support()) == 4
        assert re + im == reg
        assert inner_product(re, im) == 0

    def test_direct_sum_random(self):
        F = field_spec(3, 33)
        rng = random.Random(10)
        for _ in range(20):
            x = stable_random_char(F, rng)
            re, im = parity_split(x, F.tau_bar)
            assert re + im == x
            assert inner_product(re, im) == 0


def test_virtual_char_frobenius_stability_flag():
    F = field_spec(3, 15)
    deg2 = next(c for c in all_ladic_chars(F.delta, 3, F.tau_bar) if c.degree == 2)
    partial = VirtualChar(F.delta, {deg2.orbit[0]: 1})  # half an orbit
    assert not partial.is_frobenius_stable(3)
    assert VirtualChar.from_ladic(deg2).is_frobenius_stable(3)
