import math
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwalambda.characters import AbsChar, all_abs_chars
from iwalambda.errors import FieldError, ScaleError
from iwalambda.groups import (
    FiniteAbelianGroup,
    all_subgroups,
    quotient,
    subgroup_generated,
    trivial_subgroup,
    unit_group,
)
from oracles import CHAINS, group_order_census, unit_order_census


class TestUnitGroup:
    def test_examples(self):
        assert unit_group(3).group.invariant_factors == (2,)
        assert unit_group(15).group.invariant_factors == (2, 4)
        assert unit_group(9).group.invariant_factors == (6,)

    def test_structure_matches_order_census(self):
        # the abstract group and (Z/m)* must have identical element-order counts
        for m in (3, 8, 9, 15, 16, 21, 24, 33, 35, 45, 99, 120, 200, 255):
            U = unit_group(m)
            assert group_order_census(U.group) == unit_order_census(m), m

    def test_bijections_exhaustive(self):
        for m in (3, 9, 15, 16, 40, 99, 256, 1000):
            U = unit_group(m)
            for el in U.group.elements():
                assert U.dlog(U.residue_of(el)) == el
            units = [a for a in range(1, m) if math.gcd(a, m) == 1]
            assert len(units) == U.group.order
            for a in units:
                assert U.residue_of(U.dlog(a)) == a
        # large moduli, sampled; 2^16 has two generators in one block
        rng = random.Random(11)
        for m in (98403, 99999, 65536):
            U = unit_group(m)
            units = [a for a in (rng.randrange(1, m) for _ in range(1500)) if math.gcd(a, m) == 1]
            for a, b in zip(units, reversed(units)):
                assert U.residue_of(U.dlog(a)) == a
                assert U.dlog(a * b) == U.dlog(a) + U.dlog(b)

    def test_conductor_cap(self):
        with pytest.raises(ScaleError, match="conductor too large"):
            unit_group(10**5 + 1)

    def test_conductor_below_two(self):
        for m in (1, 0, -3):
            with pytest.raises(FieldError, match="conductor must be at least 2"):
                unit_group(m)

    def test_non_unit_dlog(self):
        with pytest.raises(ValueError, match="not a unit"):
            unit_group(15).dlog(5)


class TestSubgroups:
    def test_generated_examples(self):
        G = FiniteAbelianGroup((2, 4))
        assert trivial_subgroup(G).order == 1
        assert subgroup_generated(G, [(1, 0)]).order == 2
        assert subgroup_generated(G, [(0, 1)]).order == 4

    def test_out_of_range_coordinates_reduce(self):
        G = FiniteAbelianGroup((2, 4))
        assert G.element((3, 7)).coords == (1, 3)

    def test_idempotent(self):
        G = FiniteAbelianGroup((2, 4, 4))
        rng = random.Random(5)
        for _ in range(20):
            gens = [G.element([rng.randrange(d) for d in G.invariant_factors]) for _ in range(2)]
            H = subgroup_generated(G, gens)
            H2 = subgroup_generated(G, list(H.elements))
            assert H == H2

    def test_structure_bijects(self):
        G = FiniteAbelianGroup((2, 4))
        for H in all_subgroups(G):
            T, to_parent, from_parent = H.as_group()
            assert T.order == H.order
            images = {to_parent(t).coords for t in T.elements()}
            assert images == {e.coords for e in H.elements}
            for t in T.elements():
                assert from_parent[to_parent(t).coords] == t

    def test_all_subgroups_of_2_4(self):
        # Z/2 x Z/4 has 8 subgroups
        assert [s.order for s in all_subgroups(FiniteAbelianGroup((2, 4)))] == [1, 2, 2, 2, 4, 4, 4, 8]


class TestQuotient:
    def test_trivial_and_full(self):
        G = FiniteAbelianGroup((2, 4))
        assert quotient(G, trivial_subgroup(G)).group.invariant_factors == (2, 4)
        full = subgroup_generated(G, [(1, 0), (0, 1)])
        assert quotient(G, full).group.invariant_factors == ()

    def test_unit_group_quotient_example(self):
        U = unit_group(15)
        H = subgroup_generated(U.group, [U.dlog(4)])
        assert H.order == 2
        Q = quotient(U.group, H)
        assert Q.group.order == 4

    def test_order_multiplicativity_and_kernel(self):
        rng = random.Random(6)
        for factors in ((2, 4), (3, 9), (2, 2, 4), (12,)):
            G = FiniteAbelianGroup(factors)
            for _ in range(6):
                gens = [
                    G.element([rng.randrange(d) for d in G.invariant_factors])
                    for _ in range(rng.randint(0, 2))
                ]
                H = subgroup_generated(G, gens)
                Q = quotient(G, H)
                assert H.order * Q.group.order == G.order
                kernel = {g.coords for g in G.elements() if Q.project(g).is_identity}
                assert kernel == {h.coords for h in H.elements}
                for q in Q.group.elements():
                    assert Q.project(Q.section(q)) == q

    def test_large_subgroup_under_1gib(self):
        # |H| = 16664: the reduction sees a 2 x 16666 matrix and must stay
        # linear in its width
        child = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from iwalambda.groups import quotient, subgroup_generated, unit_group
            U = unit_group(99987)
            H = subgroup_generated(U.group, [U.dlog(2)])
            Q = quotient(U.group, H)
            assert H.order == 16664, H.order
            assert Q.group.invariant_factors == (4,), Q.group
            assert U.group.order == H.order * Q.group.order
            assert all(Q.project(h).is_identity for h in H)
        """)
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_projection_is_homomorphism(self):
        G = FiniteAbelianGroup((2, 4))
        H = subgroup_generated(G, [(1, 2)])
        Q = quotient(G, H)
        for a in G.elements():
            for b in G.elements():
                assert Q.project(a + b) == Q.project(a) + Q.project(b)


def test_invariant_factor_validation():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((4, 2))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1, 2))
    assert FiniteAbelianGroup(()).order == 1
    assert FiniteAbelianGroup(()).exponent == 1


def test_element_order():
    G = FiniteAbelianGroup((2, 4))
    assert G.element((1, 2)).order() == 2
    assert G.element((1, 1)).order() == 4
    assert G.identity().order() == 1


def test_quotient_by_handbuilt_subgroup():
    # quotient must key off the element list, not stored generator data
    from iwalambda.groups import Subgroup

    G = FiniteAbelianGroup((2, 4))
    ref = subgroup_generated(G, [(0, 1)])
    frankenstein = Subgroup(G, [], ref.elements)  # no generators recorded
    Q = quotient(G, frankenstein)
    assert Q.group.order == 2
    kernel = {g.coords for g in G.elements() if Q.project(g).is_identity}
    assert kernel == {e.coords for e in ref.elements}


def test_invariant_factors_are_a_tuple_of_ints():
    G = FiniteAbelianGroup([2, 6])
    assert G.invariant_factors == (2, 6) and type(G.invariant_factors) is tuple
    assert G == FiniteAbelianGroup((2, 6))
    assert hash(G) == hash(FiniteAbelianGroup((2, 6)))
    assert FiniteAbelianGroup(d for d in (3, 3)) == FiniteAbelianGroup((3, 3))


class TestPresentation:
    """Quotient, as_group and AbsChar.from_values on every subgroup of
    every group of rank <= 3 and order <= 24."""

    def test_chain_census(self):
        assert len(CHAINS) == len(set(CHAINS)) == 36
        assert {(2, 2, 6), (2, 12), (24,), ()} <= set(CHAINS)

    @settings(derandomize=True, max_examples=200)
    @given(st.sampled_from(CHAINS))
    def test_every_subgroup(self, chain):
        G = FiniteAbelianGroup(chain)
        for H in all_subgroups(G):
            T, to_parent, from_parent = H.as_group()
            assert T.order == H.order
            assert {to_parent(t).coords for t in T.elements()} == {h.coords for h in H}
            for t in T.elements():
                assert from_parent[to_parent(t).coords] == t
            Q = quotient(G, H)
            assert Q.group.order * H.order == G.order
            for q in Q.group.elements():
                assert Q.project(Q.section(q)) == q
        for chi in all_abs_chars(G):
            assert AbsChar.from_values(G, [chi.value_at(b) for b in G.basis()]) == chi

    @settings(derandomize=True, max_examples=200)
    @given(st.sampled_from([c for c in CHAINS if c]))
    def test_value_of_too_large_an_order(self, chain):
        G = FiniteAbelianGroup(chain)
        # 1 in Z/2e has order 2e, above every d_i
        with pytest.raises(AssertionError, match="too large an order"):
            AbsChar.from_values(G, [1] * G.rank, 2 * G.exponent)
        if chain[0] < G.exponent:
            # 1 in Z/e on the first basis element, whose order d_1 is smaller
            with pytest.raises(AssertionError, match="too large an order"):
                AbsChar.from_values(G, [1] + [0] * (G.rank - 1))
