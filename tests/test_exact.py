import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iwalambda.exact import (
    IntMatrix,
    _snf_with_transform,
    cokernel_invariants,
    crt,
    euler_phi,
    factorize,
    is_prime,
    mult_order,
    smith_normal_form,
    valuation,
)
from oracles import det_by_cofactors, determinantal_divisors, order_by_powering, valuation_by_division


class TestValuation:
    def test_examples(self):
        assert valuation(48, 3) == 1
        assert valuation(1, 5) == 0
        assert valuation(2808, 3) == 3  # 2808 = 2^3 * 3^3 * 13

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="valuation of zero"):
            valuation(0, 3)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            valuation(10, 6)

    def test_matches_division_oracle(self):
        rng = random.Random(0)
        for _ in range(200):
            x = rng.randint(1, 10**9)
            ell = rng.choice([2, 3, 5, 7, 11])
            assert valuation(x, ell) == valuation_by_division(x, ell)

    @given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda x: x != 0),
           st.integers(min_value=-10**6, max_value=10**6).filter(lambda x: x != 0),
           st.sampled_from([2, 3, 5, 7]))
    def test_multiplicative(self, x, y, ell):
        assert valuation(x * y, ell) == valuation(x, ell) + valuation(y, ell)


class TestMultOrder:
    def test_examples(self):
        assert mult_order(1, 7) == 1
        assert mult_order(2, 9) == 6
        assert mult_order(8, 9) == 2

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="not a unit"):
            mult_order(6, 9)

    def test_matches_powering_oracle(self):
        rng = random.Random(1)
        for _ in range(150):
            m = rng.randint(2, 400)
            a = rng.randint(1, m - 1)
            from math import gcd

            if gcd(a, m) != 1:
                continue
            assert mult_order(a, m) == order_by_powering(a, m)

    @given(st.integers(min_value=2, max_value=500), st.data())
    def test_lagrange(self, m, data):
        from math import gcd

        a = data.draw(st.integers(min_value=1, max_value=m - 1 if m > 2 else 1))
        if gcd(a, m) != 1:
            return
        assert euler_phi(m) % mult_order(a, m) == 0


class TestCrt:
    def test_reconstruction(self):
        assert crt([2, 3], [3, 5]) == 8
        assert crt([1, 0], [4, 9]) == 9
        assert crt([], []) == 0

    def test_noncoprime_rejected(self):
        with pytest.raises(ValueError):
            crt([0, 1], [4, 6])


class TestSmith:
    def test_examples(self):
        assert smith_normal_form([[1, 0], [0, 1]]) == (1, 1)
        assert smith_normal_form([[2, 4], [6, 8]]) == (2, 4)
        assert smith_normal_form([[0]]) == (0,)

    def test_int_matrix_carrier(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        assert m.rows == 2 and m.cols == 2
        assert smith_normal_form(m) == (2, 4)
        with pytest.raises(ValueError):
            IntMatrix(1, 2, ((1,),))

    def test_chain_and_determinant(self):
        rng = random.Random(2)
        for _ in range(60):
            n = rng.randint(1, 6)
            M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            det = det_by_cofactors(M)
            if det == 0:
                continue
            d = smith_normal_form(M)
            assert all(x > 0 for x in d)
            for i in range(n - 1):
                assert d[i + 1] % d[i] == 0
            prod = 1
            for x in d:
                prod *= x
            assert prod == abs(det)

    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-20, max_value=20), min_size=c, max_size=c),
            min_size=1, max_size=5,
        )
    ))
    def test_row_transform_contract(self, M):
        r, c = len(M), len(M[0])
        d, U, Uinv = _snf_with_transform([row[:] for row in M])
        for i in range(r):
            for j in range(r):
                assert sum(U[i][k] * Uinv[k][j] for k in range(r)) == (1 if i == j else 0)
        UM = [[sum(U[i][k] * M[k][j] for k in range(r)) for j in range(c)] for i in range(r)]
        for i in range(r):
            di = d[i] if i < len(d) else 0
            if di == 0:
                assert UM[i] == [0] * c
            else:
                assert all(x % di == 0 for x in UM[i])
        prod = 1
        for di, Di in zip(d, determinantal_divisors(M)):
            prod *= di
            assert prod == Di

    def test_cokernel_invariants(self):
        torsion, free = cokernel_invariants([[2, 0], [0, 0]])
        assert torsion == (2,) and free == 1
        torsion, free = cokernel_invariants([[1, 0], [0, 1]])
        assert torsion == () and free == 0


def test_is_prime_small():
    assert [p for p in range(60) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
    ]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_factorize_roundtrip():
    rng = random.Random(4)
    for _ in range(80):
        n = rng.randint(1, 10**7)
        prod = 1
        for p, k in factorize(n).items():
            assert is_prime(p)
            prod *= p**k
        assert prod == n
