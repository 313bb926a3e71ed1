import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iwalambda.errors import FieldError, IwalambdaError, ScaleError
from iwalambda.exact import (
    Record,
    _snf_with_transform,
    crt,
    euler_phi,
    factorize,
    hermite_normal_form,
    is_prime,
    mult_order,
    smith_normal_form,
    valuation,
)
from iwalambda.characters import AbsChar, LadicChar, VirtualChar
from iwalambda.cohomology import AmbiguousInput, FiniteGammaModule
from iwalambda.defect import BaseSymbol, LambdaExpr
from iwalambda.fields import FieldSpec
from iwalambda.groups import FiniteAbelianGroup, GroupElement, subgroup_generated, unit_group
from iwalambda.iwasawa import (
    ElementaryModuleSpec, FitParameters, LevelOrderTable, level_order, level_order_table, omega_poly,
)
from oracles import det_by_cofactors, determinantal_divisors, order_by_powering, primes_below, valuation_by_division


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

    def test_modulus_one(self):
        # x = r mod 1 holds for every x, on either side of the list
        assert crt([5, 0], [7, 1]) == 5
        assert crt([0, 1], [1, 9]) == 1
        assert crt([3], [1]) == 0

    def test_noncoprime_rejected(self):
        with pytest.raises(ValueError):
            crt([0, 1], [4, 6])

    @pytest.mark.parametrize("residues, moduli", [([1], [2, 3]), ([1, 2], [3]), ([], [5])])
    def test_one_residue_per_modulus(self, residues, moduli):
        # zip would drop the unmatched modulus or residue
        with pytest.raises(ValueError, match="one residue per modulus"):
            crt(residues, moduli)


class TestSmith:
    def test_examples(self):
        assert smith_normal_form([[1, 0], [0, 1]]) == (1, 1)
        assert smith_normal_form([[2, 4], [6, 8]]) == (2, 4)
        assert smith_normal_form([[0]]) == (0,)

    @pytest.mark.parametrize("M", [[[1, 2], [3]], [[1], [2, 3]], [[], [1]]])
    def test_ragged_rows_rejected(self, M):
        with pytest.raises(ValueError, match="equal length"):
            smith_normal_form(M)

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
        d = check_row_transform(M, len(M[0]))
        prod = 1
        for di, Di in zip(d, determinantal_divisors(M)):
            prod *= di
            assert prod == Di

    @pytest.mark.parametrize("M, c, want", [
        ([], 0, []),  # no rows
        ([[], [], []], 0, []),  # rows of width 0
        ([[0, 0, 0], [0, 0, 0]], 3, [0, 0]),
        ([[0, 0], [0, 0], [0, 0]], 2, [0, 0]),
        ([[1, 2, 3], [2, 4, 6]], 3, [1, 0]),  # rank 1, wide
        ([[2, 4], [4, 8], [6, 12]], 2, [2, 0]),  # rank 1, tall
        ([[2, 4, 6, 8], [1, 3, 5, 7], [3, 7, 11, 15]], 4, [1, 2, 0]),  # row 3 = row 1 + row 2
    ])
    def test_row_transform_edges(self, M, c, want):
        assert check_row_transform(M, c) == want


def check_row_transform(M, c):
    """Check the shapes of (d, U, U^-1) for the r x c matrix M, that U*U^-1
    = I and that row i of U*M is divisible by d_i (zero past len(d) or where
    d_i = 0); return d.  M itself must come back unchanged."""
    r = len(M)
    before = [row[:] for row in M]
    d, U, Uinv = _snf_with_transform(M)
    assert M == before
    assert len(d) == min(r, c)
    assert [len(row) for row in U] == [len(row) for row in Uinv] == [r] * r
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
    return d


class TestHermite:
    def test_examples(self):
        assert hermite_normal_form([[1, 2], [2, 0], [0, 4]]) == ((1, 2), (0, 4))
        assert hermite_normal_form([[0, -3], [2, 5]]) == ((2, 2), (0, 3))
        assert hermite_normal_form([]) == ()

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="full-rank"):
            hermite_normal_form([[1, 2], [2, 4], [3, 6]])

    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=c, max_size=6,
        )
    ))
    def test_unique_basis_of_the_row_lattice(self, M):
        c = len(M[0])
        index = determinantal_divisors(M)[-1]  # [Z^c : lattice], 0 below full rank
        if index == 0:
            with pytest.raises(ValueError):
                hermite_normal_form(M)
            return
        H = hermite_normal_form(M)
        pivots = 1
        for i, row in enumerate(H):
            assert all(x == 0 for x in row[:i]) and row[i] > 0
            assert all(0 <= H[t][i] < row[i] for t in range(i))
            pivots *= row[i]
        # every row of M reduces to zero by the triangular basis, so the
        # lattice of H contains that of M, and the two have one index
        for row in M:
            x = list(row)
            for i in range(c):
                q, r = divmod(x[i], H[i][i])
                assert r == 0
                x = [a - q * b for a, b in zip(x, H[i])]
        assert pivots == index


def test_is_prime_small():
    assert [p for p in range(60) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
    ]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_is_prime_matches_the_sieve():
    # trial division by 2..41 decides below 43^2 = 1849; 1849 and
    # 2021 = 43 * 47 are the first composites it leaves to Miller-Rabin
    assert [n for n in range(5000) if is_prime(n)] == primes_below(5000)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    # the least strong pseudoprime to the twelve prime bases 2..37
    assert not is_prime(318665857834031151167461)  # = 399165290221 * 798330580441
    assert not is_prime(3317044064679887385961980)  # the last number still answered
    # the least strong pseudoprime to the thirteen bases 2..41: past the exact range
    for n in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(ScaleError):
            is_prime(n)


def test_factorize_roundtrip():
    rng = random.Random(4)
    for _ in range(80):
        n = rng.randint(1, 10**7)
        prod = 1
        for p, k in factorize(n).items():
            assert is_prime(p)
            prod *= p**k
        assert prod == n


# ---------------------------------------------------------------------------
# the immutable value records: one sample of each, with its fields in
# declaration order

G26 = FiniteAbelianGroup((2, 6))
RECORDS = [
    (G26, ("invariant_factors",)),
    (GroupElement(G26, (1, 4)), ("group", "coords")),
    (AbsChar(G26, (1, 4)), ("group", "coeffs")),
    (LadicChar(G26, 5, (AbsChar(G26, (0, 1)), AbsChar(G26, (0, 5))), "imaginary"),
     ("group", "ell", "orbit", "parity")),
    (FiniteGammaModule(FiniteAbelianGroup((3,)), ((2,),), 2), ("module", "sigma", "order_n")),
    (AmbiguousInput(2, (1, 0), 1, 0), ("h", "ram", "deg", "unit_index")),
    (ElementaryModuleSpec(3, rho=1, polys=((3, 1),), mus=(2,)), ("ell", "rho", "polys", "mus")),
    (LevelOrderTable({1: 1, 2: 3}), ("entries",)),
    (FitParameters(1, 0, 2, -1), ("rho", "mu", "lam", "nu")),
]
record_ids = [type(x).__name__ for x, _ in RECORDS]
records = pytest.mark.parametrize("x, names", RECORDS, ids=record_ids)


def values(x, names):
    return tuple(getattr(x, n) for n in names)


class TestRecords:
    @records
    def test_hash_is_the_hash_of_the_field_tuple(self, x, names):
        if isinstance(x, LevelOrderTable):  # its field is a dict
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == hash(values(x, names))

    @records
    def test_equal_only_within_one_class(self, x, names):
        twin = type(x)(*values(x, names))
        assert twin == x and not twin != x
        for y, _ in RECORDS:
            if type(y) is not type(x):
                assert x != y and not x == y

    def test_same_fields_in_another_class_differ(self):
        assert AbsChar(G26, (1, 4)) != GroupElement(G26, (1, 4))
        assert GroupElement(G26, (1, 4)) != AbsChar(G26, (1, 4))
        assert AbsChar(G26, (1, 4)) != (G26, (1, 4))

        class Pair(Record):
            __slots__ = ("a", "b")

            def __init__(self, a, b):
                self._set_fields(a, b)

        class Twin(Record):
            __slots__ = ("a", "b")

            def __init__(self, a, b):
                self._set_fields(a, b)

        assert Pair(1, 2) == Pair(1, 2) and hash(Pair(1, 2)) == hash((1, 2))
        assert Pair(1, 2) != Twin(1, 2) and Twin(1, 2) != Pair(1, 2)
        assert Pair(1, 2) != (1, 2)

    @records
    def test_fields_cannot_be_assigned_or_deleted(self, x, names):
        for name in names:
            before = getattr(x, name)
            with pytest.raises(AttributeError):
                setattr(x, name, before)
            with pytest.raises(AttributeError):
                delattr(x, name)
            assert getattr(x, name) is before
        with pytest.raises(AttributeError):
            x.not_a_field = 1

    @records
    def test_pickle_and_deepcopy_round_trip(self, x, names):
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert type(y) is type(x) and y == x
            if not isinstance(x, LevelOrderTable):
                assert hash(y) == hash(x)

    @records
    def test_keyword_construction(self, x, names):
        assert type(x)(**dict(zip(names, values(x, names)))) == x

    def test_defaults(self):
        assert ElementaryModuleSpec(3, rho=1) == ElementaryModuleSpec(3, 1, (), ())
        assert LevelOrderTable().entries == {}
        assert LevelOrderTable() == LevelOrderTable({})

    @records
    def test_repr_names_the_class_and_its_fields(self, x, names):
        text = repr(x)
        assert text.startswith(type(x).__name__ + "(")
        for name in names:
            assert f"{name}={getattr(x, name)!r}" in text

    def test_repr_example(self):
        assert repr(FitParameters(1, 0, 2, -1)) == "FitParameters(rho=1, mu=0, lam=2, nu=-1)"
        assert repr(G26) == "FiniteAbelianGroup(invariant_factors=(2, 6))"


C3 = FiniteAbelianGroup((3,))

# (entry, the error it raises for a bad value, a call taking one integer
# input, an int that call accepts)
INTEGER_INPUTS = [
    ("conductor", FieldError, lambda v: FieldSpec(3, v), 15),
    ("subgroup generator", FieldError, lambda v: FieldSpec(3, 15, (v,)), 4),
    ("invariant factor", IwalambdaError, lambda v: FiniteAbelianGroup((3, v)), 9),
    ("rho", IwalambdaError, lambda v: ElementaryModuleSpec(3, rho=v), 1),
    ("coefficient", IwalambdaError, lambda v: ElementaryModuleSpec(3, polys=[(v, 1)]), 3),
    ("mu", IwalambdaError, lambda v: ElementaryModuleSpec(3, mus=[v]), 1),
    ("h", IwalambdaError, lambda v: AmbiguousInput(v, (1,), 1, 0), 1),
    ("ram", IwalambdaError, lambda v: AmbiguousInput(1, (v,), 1, 0), 1),
    ("deg", IwalambdaError, lambda v: AmbiguousInput(1, (1,), v, 0), 1),
    ("unit_index", IwalambdaError, lambda v: AmbiguousInput(1, (1,), 1, v), 0),
    ("sigma entry", IwalambdaError, lambda v: FiniteGammaModule(FiniteAbelianGroup((3,)), ((v,),), 2), 2),
    ("order_n", IwalambdaError, lambda v: FiniteGammaModule(FiniteAbelianGroup((3,)), ((2,),), v), 2),
    ("level", ValueError, lambda v: level_order(ElementaryModuleSpec(3, rho=1), v), 2),
    ("exponent offset", ValueError, lambda v: level_order(ElementaryModuleSpec(3, rho=1), 2, v), 1),
    ("table n_min", ValueError, lambda v: level_order_table(ElementaryModuleSpec(3, rho=1), v, 3), 1),
    ("table n_max", ValueError, lambda v: level_order_table(ElementaryModuleSpec(3, rho=1), 0, v), 3),
    ("table offset", ValueError, lambda v: level_order_table(ElementaryModuleSpec(3, rho=1), 0, 3, v), 1),
    ("table level", ValueError, lambda v: LevelOrderTable({v: 1}), 0),
    ("table order", ValueError, lambda v: LevelOrderTable({0: 1, 1: v}), 2),
    ("omega level", ValueError, lambda v: omega_poly(3, v), 1),
    ("element coordinate", ValueError, lambda v: GroupElement(C3, [v]), 1),
    ("GroupElement coordinate", ValueError, lambda v: GroupElement(C3, (v,)), 1),
    ("subgroup generator coordinate", ValueError, lambda v: subgroup_generated(C3, [[v]]), 1),
    # unit_group(15) is cached first: an untyped cache would answer 15.0 with it
    ("unit group modulus", FieldError, unit_group, 15),
    ("character coefficient", ValueError, lambda v: AbsChar(C3, (v,)), 1),
    ("multiplicity", ValueError, lambda v: VirtualChar(C3, {AbsChar(C3, (1,)): v}), 1),
    ("lambda base multiplicity", ValueError, lambda v: LambdaExpr({BaseSymbol.LAMBDA_REAL: v}, VirtualChar.zero(C3)), 1),
    ("crt residue", ValueError, lambda v: crt([v], [7]), 1),
    ("crt modulus", ValueError, lambda v: crt([1], [v]), 7),
    ("valuation argument", ValueError, lambda v: valuation(v, 3), 9),
    ("valuation prime", ValueError, lambda v: valuation(9, v), 3),
    ("mult_order unit", ValueError, lambda v: mult_order(v, 7), 2),
    ("mult_order modulus", ValueError, lambda v: mult_order(2, v), 7),
    ("smith_normal_form entry", ValueError, lambda v: smith_normal_form([[2, 0], [0, v]]), 3),
]


@pytest.mark.parametrize("entry, error, build, good", INTEGER_INPUTS, ids=[e[0] for e in INTEGER_INPUTS])
@pytest.mark.parametrize("kind", [lambda v: v + 0.5, float, str], ids=["fraction", "integral float", "str"])
def test_only_an_int_enters_the_integer_layers(entry, error, build, good, kind):
    """No int() truncation and no float or str passed through: the entry
    raises its own error class for a non-int, and accepts the int."""
    build(good)
    with pytest.raises(error, match="is not an int") as info:
        build(kind(good))
    assert type(info.value) is error
