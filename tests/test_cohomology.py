import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwalambda.cohomology import (
    AmbiguousInput,
    FiniteGammaModule,
    _power_and_norm,
    ambiguous_valuation,
    herbrand_quotient,
    quotient_module,
    stable_submodule,
    tate_h0,
    tate_h1,
)
from iwalambda.errors import InconsistentDataError
from iwalambda.exact import identity_matrix
from iwalambda.groups import FiniteAbelianGroup, subgroup_generated
from oracles import mat_mul, random_gamma_module, tate_by_enumeration


class TestModuleValidation:
    def test_rejects_non_automorphism(self):
        with pytest.raises(ValueError, match="automorphism"):
            FiniteGammaModule(FiniteAbelianGroup((4,)), ((2,),), 2)

    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError, match="identity"):
            FiniteGammaModule(FiniteAbelianGroup((5,)), ((2,),), 2)  # 2^2 = 4 != 1 mod 5

    def test_rejects_lattice_violation(self):
        # map sending the Z/2 generator into an odd multiple of the Z/4 one
        with pytest.raises(ValueError, match="lattice"):
            FiniteGammaModule(FiniteAbelianGroup((2, 4)), ((1, 0), (1, 1)), 2)


class TestDoubling:
    @settings(derandomize=True, max_examples=100)
    @given(st.randoms(use_true_random=False))
    def test_norm_and_power_match_iterated_products(self, rng):
        M = random_gamma_module(rng)
        d = M.module.invariant_factors

        def reduced(F):
            return [[x % di for x in row] for row, di in zip(F, d)]

        k = M.module.rank
        power, norm = identity_matrix(k), [[0] * k for _ in range(k)]
        for n in range(1, 13):
            norm = [[x + y for x, y in zip(r, s)] for r, s in zip(norm, power)]
            power = mat_mul(power, M.sigma)
            assert _power_and_norm(M.sigma, n, d) == (reduced(power), reduced(norm))
            if n == M.order_n:
                assert M.norm_matrix() == reduced(norm)

    def test_stable_submodule_at_order_10_to_the_12(self):
        # sigma swaps the two Z/3 coordinates: order 2, and 2 | 10^12
        G, swap = FiniteAbelianGroup((3, 3)), ((0, 1), (1, 0))
        small, H_small = stable_submodule(FiniteGammaModule(G, swap, 2), [(1, 0)])
        big, H_big = stable_submodule(FiniteGammaModule(G, swap, 10**12), [(1, 0)])
        assert H_big == H_small == subgroup_generated(G, [(1, 0), (0, 1)])
        assert (big.module, big.sigma) == (small.module, small.sigma)
        assert (tate_h0(big), tate_h1(big)) == (1, 1)


class TestTate:
    def test_trivial_c3_on_z3(self):
        M = FiniteGammaModule(FiniteAbelianGroup((3,)), ((1,),), 3)
        assert tate_h1(M) == 3 and tate_h0(M) == 3

    def test_trivial_c2_on_z3(self):
        M = FiniteGammaModule(FiniteAbelianGroup((3,)), ((1,),), 2)
        assert tate_h1(M) == 1 and tate_h0(M) == 1

    def test_negation_c2_on_z4(self):
        M = FiniteGammaModule(FiniteAbelianGroup((4,)), ((-1,),), 2)
        assert tate_h1(M) == 2 and tate_h0(M) == 2

    def test_matches_enumeration(self):
        rng = random.Random(30)
        for _ in range(120):
            M = random_gamma_module(rng)
            assert (tate_h0(M), tate_h1(M)) == tate_by_enumeration(M)

    @settings(derandomize=True, max_examples=150)
    @given(st.randoms(use_true_random=False))
    def test_matches_enumeration_seeded(self, rng):
        M = random_gamma_module(rng)
        assert (tate_h0(M), tate_h1(M)) == tate_by_enumeration(M)


class TestHerbrand:
    def test_examples(self):
        assert herbrand_quotient(FiniteGammaModule(FiniteAbelianGroup((3,)), ((1,),), 3)) == 1
        assert herbrand_quotient(FiniteGammaModule(FiniteAbelianGroup((4,)), ((-1,),), 2)) == 1
        assert herbrand_quotient(FiniteGammaModule(FiniteAbelianGroup((3,)), ((1,),), 2)) == Fraction(1)
        assert type(herbrand_quotient(FiniteGammaModule(FiniteAbelianGroup((3,)), ((2,),), 2))) is int

    def test_always_one_randomized(self):
        rng = random.Random(31)
        for _ in range(120):
            assert herbrand_quotient(random_gamma_module(rng)) == 1

    def test_multiplicative_on_stable_submodules(self):
        rng = random.Random(32)
        for _ in range(60):
            M = random_gamma_module(rng)
            gens = [rng.choice(list(M.module.elements())) for _ in range(rng.randint(1, 2))]
            sub, H = stable_submodule(M, gens)
            quo = quotient_module(M, H)
            assert sub.module.order * quo.module.order == M.module.order
            assert herbrand_quotient(M) == herbrand_quotient(sub) * herbrand_quotient(quo)
            # the pieces are honest modules: orders match the enumeration oracle
            assert (tate_h0(sub), tate_h1(sub)) == tate_by_enumeration(sub)
            assert (tate_h0(quo), tate_h1(quo)) == tate_by_enumeration(quo)

    def test_unstable_subgroup_rejected(self):
        # sigma swaps the two Z/3 coordinates; a single axis is not stable
        M = FiniteGammaModule(FiniteAbelianGroup((3, 3)), ((0, 1), (1, 0)), 2)
        from iwalambda.groups import subgroup_generated

        H = subgroup_generated(M.module, [(1, 0)])
        with pytest.raises(ValueError, match="stable"):
            quotient_module(M, H)


class TestAmbiguous:
    def test_examples(self):
        assert ambiguous_valuation(AmbiguousInput(0, (1,), 1, 0)) == 0
        assert ambiguous_valuation(AmbiguousInput(1, (1, 1), 1, 1)) == 1

    def test_inconsistent(self):
        with pytest.raises(InconsistentDataError):
            ambiguous_valuation(AmbiguousInput(0, (), 1, 0))

    def test_monotone_in_ramification(self):
        rng = random.Random(33)
        for _ in range(40):
            ram = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
            data = AmbiguousInput(rng.randint(1, 5), tuple(ram), rng.randint(0, 2), rng.randint(0, 1))
            try:
                v = ambiguous_valuation(data)
            except InconsistentDataError:
                continue
            bumped = list(ram)
            bumped[0] += 1
            assert ambiguous_valuation(AmbiguousInput(data.h, tuple(bumped), data.deg, data.unit_index)) == v + 1

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            AmbiguousInput(-1, (), 0, 0)
