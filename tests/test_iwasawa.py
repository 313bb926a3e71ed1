import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwalambda._kernels import snf_mod_valuations
from iwalambda.errors import IwalambdaError, ScaleError
from iwalambda.exact import smith_normal_form, valuation
from iwalambda.iwasawa import (
    ElementaryModuleSpec,
    FitParameters,
    LevelOrderTable,
    _mult_matrix_mod,
    fit_parameters,
    level_order,
    level_order_table,
    omega_poly,
    poly_level_valuation,
    poly_level_valuation_direct,
)
from oracles import (
    fit_parameters_by_elimination,
    fit_window_by_elimination,
    mult_matrix_by_division,
    poly_level_valuation_weierstrass,
)


def random_distinguished(rng, ell, max_deg=3):
    deg = rng.randint(1, max_deg)
    return tuple(ell * rng.randint(-3, 3) for _ in range(deg)) + (1,)


def random_fit_table(rng):
    """(table, ell): 4 to 6 consecutive levels of rho*n*ell^n + mu*ell^n +
    lambda*n + nu for random integer parameters, negatives included, and in
    half the draws one entry of the fit window or of the level before it
    moved by 1 or 2; redrawn until the table is nondecreasing."""
    while True:
        ell = rng.choice([3, 5, 7])
        params = FitParameters(*(rng.randint(-3, 3) for _ in range(3)), rng.randint(-9, 9))
        n0 = rng.randint(0, 3)
        levels = range(n0, n0 + rng.randint(4, 6))
        entries = {n: params.predict(ell, n) for n in levels}
        if rng.random() < 0.5:
            entries[rng.choice(levels[-5:])] += rng.choice([-2, -1, 1, 2])
        try:
            return LevelOrderTable(entries), ell
        except ValueError:
            continue


def deep_fit_table(rng):
    """(table, ell): 4 or 5 consecutive levels from n0 <= 30 of
    rho*n*ell^n + mu*ell^n + lambda*n + nu with mu up to 40 and |nu| up to
    10^6, and in half the draws one entry moved by 1 to 10^3; redrawn until
    the table is nondecreasing."""
    while True:
        ell = rng.choice([3, 5, 7, 11, 13])
        params = FitParameters(rng.randint(0, 2), rng.randint(0, 40), rng.randint(0, 20),
                               rng.randint(-10**6, 10**6))
        n0 = rng.randint(0, 30)
        levels = range(n0, n0 + rng.randint(4, 5))
        entries = {n: params.predict(ell, n) for n in levels}
        if rng.random() < 0.5:
            entries[rng.choice(levels)] += rng.choice([-1, 1]) * rng.randint(1, 10**3)
        try:
            return LevelOrderTable(entries), ell
        except ValueError:
            continue


def fit_outcome(table, ell) -> str:
    """Which of fit_parameters' cases a table falls in, read off the
    rational solution of its window."""
    sol = fit_window_by_elimination(table, ell)
    if any(x.denominator != 1 for x in sol):
        return "non-integral"
    if min(sol[:3]) < 0:
        return "negative"
    if fit_parameters_by_elimination(table, ell) is None:
        return "preceding-level mismatch"
    return "fit"


class TestOmegaPoly:
    def test_examples(self):
        assert omega_poly(3, 0) == (0, 1)
        assert omega_poly(3, 1) == (0, 3, 3, 1)
        assert omega_poly(5, 1) == (0, 5, 10, 10, 5, 1)

    def test_shape(self):
        for ell, n in ((3, 2), (5, 2), (7, 1)):
            w = omega_poly(ell, n)
            assert len(w) == ell**n + 1 and w[0] == 0 and w[-1] == 1


class TestSpecValidation:
    def test_rejects_non_distinguished(self):
        with pytest.raises(ValueError):
            ElementaryModuleSpec(3, polys=[(1, 1)])  # constant term not divisible by 3
        with pytest.raises(ValueError):
            ElementaryModuleSpec(3, polys=[(3, 2)])  # not monic
        with pytest.raises(ValueError):
            ElementaryModuleSpec(3, polys=[(1,)])  # degree 0
        with pytest.raises(ValueError):
            ElementaryModuleSpec(3, mus=[0])
        with pytest.raises(ValueError):
            ElementaryModuleSpec(4, rho=1)

    def test_invariants(self):
        spec = ElementaryModuleSpec(3, rho=2, polys=[(0, 1), (3, 3, 1)], mus=[1, 2])
        assert spec.lambda_invariant == 3
        assert spec.mu_invariant == 3


class TestLevelOrder:
    def test_examples(self):
        assert level_order(ElementaryModuleSpec(3, rho=1), 2) == 18
        assert level_order(ElementaryModuleSpec(3, polys=[(0, 1)]), 3) == 3
        assert level_order(ElementaryModuleSpec(3, mus=[1]), 2) == 9

    def test_table_entries_are_read_only(self):
        table = level_order_table(ElementaryModuleSpec(3, rho=1), 1, 5)
        with pytest.raises(TypeError):
            table.entries[5] = 0
        with pytest.raises(TypeError):
            del table.entries[1]
        assert table.entries[5] == level_order(ElementaryModuleSpec(3, rho=1), 5)
        # the table keeps a copy: the caller's dict stays its own
        source = {1: 1, 2: 3}
        copied = LevelOrderTable(source)
        source[2] = 0
        assert copied.entries[2] == 3

    def test_level_zero_is_zero(self):
        for spec in (
            ElementaryModuleSpec(3, rho=1),
            ElementaryModuleSpec(3, polys=[(3, 1)]),
            ElementaryModuleSpec(3, mus=[2]),
        ):
            assert level_order(spec, 0) == 0

    def test_scale_cap(self):
        with pytest.raises(ScaleError, match=r"^ell\^n = 729 exceeds the matrix dimension cap 250$"):
            level_order(ElementaryModuleSpec(3, polys=[(0, 1)]), 6)
        # closed-form summands are not matrix-bound
        assert level_order(ElementaryModuleSpec(3, rho=1, mus=[2]), 6) > 0

    def test_table_checks_its_deepest_level_first(self, monkeypatch):
        import iwalambda.iwasawa

        built = []
        monkeypatch.setattr(iwalambda.iwasawa, "poly_level_valuation", lambda *level: built.append(level) or 0)
        with pytest.raises(ScaleError, match=r"^ell\^n = 19683 exceeds the matrix dimension cap 250$"):
            level_order_table(ElementaryModuleSpec(3, polys=[(3, 1)]), 0, 9)
        assert built == []
        assert level_order_table(ElementaryModuleSpec(3, rho=1), 0, 9).entries[9] == 9 * 3**9

    def test_nondecreasing(self):
        rng = random.Random(20)
        for _ in range(10):
            spec = ElementaryModuleSpec(
                3,
                rho=rng.randint(0, 1),
                polys=[random_distinguished(rng, 3)],
                mus=[rng.randint(1, 2)],
            )
            values = [level_order(spec, n) for n in range(5)]
            assert values == sorted(values)


class TestDualConstruction:
    def test_poly_summand_agreement(self):
        # kernel route vs integer Smith form of the stacked relation lattice
        rng = random.Random(21)
        for ell, n_max in ((3, 3), (5, 2)):
            for _ in range(12):
                f = random_distinguished(rng, ell)
                for n in range(n_max + 1):
                    a = poly_level_valuation(f, ell, n, n)
                    b = poly_level_valuation_direct(f, ell, n, n)
                    assert a == b, (ell, f, n)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.sampled_from([(3, 3), (5, 2), (7, 1)]).flatmap(
            lambda ell_top: st.tuples(
                st.just(ell_top[0]),
                st.integers(min_value=0, max_value=ell_top[1]),
                st.integers(min_value=0, max_value=2),
                st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=5),
            )
        )
    )
    def test_poly_summand_agreement_property(self, case):
        # degrees up to 5 pass ell^n at shallow levels, so column 0 needs
        # the reduction of f mod omega_n; cap above n leaves ell^n torsion.
        # Only the kernel route reads _mult_matrix_mod: the direct route
        # reduces the Sylvester lattice of f and omega_n, and the f-side
        # oracle works in Z[T]/(f), so both check the matrix build itself.
        ell, n, extra, lower = case
        f = tuple(ell * c for c in lower) + (1,)
        cap = n + extra
        kernel = poly_level_valuation(f, ell, n, cap)
        assert kernel == poly_level_valuation_direct(f, ell, n, cap)
        assert kernel == poly_level_valuation_weierstrass(f, ell, n, cap)

    def test_mult_matrix_matches_long_division(self):
        # the valuation checks above cannot see a transposed or shifted band,
        # since those keep the Smith form; this pins every entry.  Cases per
        # level: f = omega_n (f0 = 0), omega_n plus a short tail (a wide
        # band), deg f0 = ell^n - 1 (a one-column band), deg f = 2 ell^n, and
        # random non-monic f up to that degree.  ell^n = 125 runs each case at
        # one offset (the reference costs up to 0.5 s there), the rest at all.
        rng = random.Random(23)
        for ell in (3, 5):
            for n in range(4):
                dim = ell**n
                omega = omega_poly(ell, n)
                short = [rng.randint(-9, 9) for _ in range(min(3, dim))]
                cases = [
                    omega,
                    tuple(a + b for a, b in zip(omega, short + [0] * (dim + 1))),
                    tuple(rng.randint(-20, 20) for _ in range(dim - 1)) + (rng.choice([1, -2, 7]),),
                    tuple(rng.randint(-20, 20) for _ in range(2 * dim)) + (1,),
                    tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 2 * dim + 1))),
                ]
                for i, f in enumerate(cases):
                    for offset in (i % 3,) if dim > 27 else range(3):
                        q = ell ** (n + offset)
                        assert _mult_matrix_mod(f, ell, n, q) == mult_matrix_by_division(f, ell, n, q), (
                            ell, n, offset, f)

    def test_kernel_degenerate_shapes(self):
        # no rows; rows of width 0, which have no pivot; and the cap n = 0,
        # where every valuation is already n
        assert snf_mod_valuations([], 3, 2) == []
        assert snf_mod_valuations([[], []], 3, 2) == [2, 2]
        assert snf_mod_valuations([], 3, 0) == []
        assert snf_mod_valuations([[1, 2], [3, 9]], 3, 0) == [0, 0]

    def test_kernel_matches_integer_smith_form(self):
        # small entries; entries far outside [0, ell^n) (+-k ell^n + r, up to
        # 10^6); small entries mixed with exact multiples of ell^n; tuple
        # rows; and non-square shapes up to 10 x 10, tall and wide, with a
        # zero or a repeated column, so that pivoted columns are searched
        # again as zeros and rows are left once every column is pivoted.
        # The kernel copies its argument and must leave it as it was
        rng = random.Random(22)
        for draw in range(200):
            kind = draw % 5
            ell = rng.choice([3, 5])
            n = rng.randint(0, 4)
            q = ell**n
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            if kind == 4:
                nrows, ncols = sorted(rng.sample(range(1, 11), 2))
                if draw % 10 == 4:
                    nrows, ncols = ncols, nrows

            def entry():
                if kind == 1:
                    k = rng.randint(0, 10**6 // q)
                    return rng.choice([-1, 1]) * k * q + rng.randint(-q + 1, q - 1)
                if kind == 2 and rng.random() < 0.5:
                    return rng.choice([-1, 1]) * q * rng.choice([1, ell, 10**4])
                if kind == 4:
                    return ell ** rng.randint(0, 2) * rng.randint(-9, 9)
                return rng.randint(-50, 50)

            rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
            if kind == 4:
                j, k = rng.sample(range(ncols), 2) if ncols > 1 else (0, 0)
                for r in rows:
                    r[j] = r[k] if j != k and draw % 20 < 10 else 0
            arg = [tuple(r) for r in rows] if kind == 3 else [r[:] for r in rows]
            before = [tuple(r) for r in arg]
            a = snf_mod_valuations(arg, ell, n)
            assert [tuple(r) for r in arg] == before
            assert all(type(r) is (tuple if kind == 3 else list) for r in arg)
            d = smith_normal_form(rows)
            expect = sorted(
                [min(valuation(x, ell), n) if x else n for x in d]
                + [n] * (len(rows) - len(d))
            )
            assert sorted(a) == expect


class TestFit:
    def test_examples(self):
        cases = [
            (ElementaryModuleSpec(3, polys=[(0, 1)]), (0, 0, 1, 0)),
            (ElementaryModuleSpec(3, mus=[1]), (0, 1, 0, 0)),
            (ElementaryModuleSpec(3, rho=1), (1, 0, 0, 0)),
        ]
        for spec, want in cases:
            fit = fit_parameters(level_order_table(spec, 1, 4), 3)
            assert (fit.rho, fit.mu, fit.lam, fit.nu) == want

    def test_not_yet_stable(self):
        # m = 2 is outside the asymptotic regime on a window touching n = 1
        spec = ElementaryModuleSpec(3, mus=[2])
        assert fit_parameters(level_order_table(spec, 1, 5), 3) is None
        assert fit_parameters(level_order_table(spec, 2, 5), 3) is not None

    def test_too_short_table(self):
        with pytest.raises(ValueError):
            fit_parameters(LevelOrderTable({0: 0, 1: 1, 2: 2}), 3)

    @pytest.mark.parametrize("ell", [4, 1, 2, 9, 1.5, 3.0, "3"])
    def test_ell_must_be_an_odd_prime(self, ell):
        # unchecked, 4 fitted (0, 0, 1, 0), 1 divided by zero and 1.5 gave floats
        table = LevelOrderTable({0: 0, 1: 1, 2: 2, 3: 3})
        assert fit_parameters(table, 3) == FitParameters(0, 0, 1, 0)
        with pytest.raises(IwalambdaError, match="odd prime"):
            fit_parameters(table, ell)

    def test_table_validation(self):
        with pytest.raises(ValueError, match="consecutive"):
            LevelOrderTable({0: 0, 2: 1})
        with pytest.raises(ValueError, match="nondecreasing"):
            LevelOrderTable({0: 3, 1: 1})
        with pytest.raises(ValueError, match="nonnegative"):
            LevelOrderTable({-4: 0, -3: 0, -2: 0, -1: 0})
        with pytest.raises(ValueError, match="nonnegative"):
            LevelOrderTable({-1: 0, 0: 0, 1: 0, 2: 0})

    def test_recovery_random(self):
        rng = random.Random(23)
        for _ in range(25):
            ell = rng.choice([3, 3, 5])
            rho = rng.randint(0, 1)
            mus = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 2)))
            polys = (
                tuple(random_distinguished(rng, 3) for _ in range(rng.randint(0, 2)))
                if ell == 3
                else ()
            )
            spec = ElementaryModuleSpec(ell, rho=rho, polys=polys, mus=mus)
            fit = fit_parameters(level_order_table(spec, 2, 5), ell)
            assert fit is not None, spec
            assert (fit.rho, fit.mu, fit.lam) == (rho, spec.mu_invariant, spec.lambda_invariant)

    def test_half_integral_solutions_rejected(self):
        # integral second differences, but mu = nu = 1/2, then rho = 1/2, lambda = 21/2
        for entries in ({n: (3**n + 1) // 2 for n in range(4)},
                        {n: n * (3**n + 1) // 2 + 10 * n for n in range(1, 5)}):
            table = LevelOrderTable(entries)
            assert fit_parameters(table, 3) is None
            assert [x.denominator for x in fit_window_by_elimination(table, 3)] != [1] * 4

    def test_stability_window_rejects_transients(self):
        # doctor the level below the window: the fit must refuse it
        spec = ElementaryModuleSpec(3, polys=[(0, 1)])
        table = level_order_table(spec, 1, 5)
        broken = dict(table.entries)
        broken[1] = 0  # true x(1) = 1
        assert fit_parameters(LevelOrderTable(broken), 3) is None

    def test_exponent_offset(self):
        # offset k shifts the fitted mu by k * rho and nothing else
        rng = random.Random(24)
        for _ in range(10):
            spec = ElementaryModuleSpec(
                3,
                rho=rng.randint(0, 1),
                polys=[random_distinguished(rng, 3)] if rng.random() < 0.5 else (),
                mus=tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 1))),
            )
            f0 = fit_parameters(level_order_table(spec, 2, 5, exponent_offset=0), 3)
            f1 = fit_parameters(level_order_table(spec, 2, 5, exponent_offset=1), 3)
            assert f0 is not None and f1 is not None
            assert (f1.rho, f1.lam) == (f0.rho, f0.lam)
            assert f1.mu == f0.mu + f0.rho


class TestFitOracle:
    """Second differences in fit_parameters against Gauss-Jordan over Fractions."""

    @settings(derandomize=True, max_examples=300)
    @given(st.randoms(use_true_random=False))
    def test_cramer_matches_elimination(self, rng):
        table, ell = random_fit_table(rng)
        assert fit_parameters(table, ell) == fit_parameters_by_elimination(table, ell)

    @settings(derandomize=True, max_examples=300)
    @given(st.randoms(use_true_random=False))
    def test_deep_window_matches_elimination(self, rng):
        # windows up to level 33 at ell = 13, out of level_order's reach
        table, ell = deep_fit_table(rng)
        assert fit_parameters(table, ell) == fit_parameters_by_elimination(table, ell)

    def test_draws_reach_every_case(self):
        rng = random.Random(25)
        seen = Counter()
        for _ in range(400):
            table, ell = random_fit_table(rng)
            assert fit_parameters(table, ell) == fit_parameters_by_elimination(table, ell)
            seen[fit_outcome(table, ell)] += 1
        assert set(seen) == {"fit", "non-integral", "negative", "preceding-level mismatch"}, seen
        assert min(seen.values()) >= 10, seen
