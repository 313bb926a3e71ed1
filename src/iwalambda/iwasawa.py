"""Order tables of elementary Lambda-modules and parameter fitting.

An elementary module is Lambda^rho plus quotients by distinguished
polynomials f_i and by ell^{m_j}.  For each level n the module of
coinvariants mod omega_n = (1+T)^(ell^n) - 1 is cut to exponent ell^n
(optionally ell^(n+k)); the ell-valuation x(n) of its order grows like
rho*n*ell^n + mu*ell^n + lambda*n + nu once n clears the transient
regime, and fit_parameters recovers the four parameters from a window
of consecutive levels.

The polynomial summands need the elementary divisors of multiplication
by f on the lattice Z[T]/(omega_n); capping at exponent ell^N means the
reduction can run entirely over Z/ell^N, which is what the reduction
kernel does.  An independent construction (integer Smith form of the
stacked relation lattice) is exposed for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from ._kernels import snf_mod_valuations
from .errors import ScaleError
from .exact import is_prime, smith_normal_form, valuation

# Matrices are ell^n-dimensional; this cap admits 3^5 and 5^3 so that a
# fit window in the stable regime exists for mu-exponents up to 2 at ell=3.
MATRIX_DIM_CAP = 250


@dataclass(frozen=True)
class ElementaryModuleSpec:
    """rho free summands, distinguished polynomials, and ell-power exponents.

    Polynomials are coefficient tuples in ascending degree order, monic,
    with every lower coefficient divisible by ell (strictly distinguished;
    general power series are out of scope, Weierstrass preparation is the
    caller's business).
    """

    ell: int
    rho: int = 0
    polys: tuple[tuple[int, ...], ...] = ()
    mus: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.ell == 2 or not is_prime(self.ell):
            raise ValueError("ell must be an odd prime")
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        object.__setattr__(self, "polys", tuple(tuple(int(c) for c in f) for f in self.polys))
        object.__setattr__(self, "mus", tuple(int(m) for m in self.mus))
        for f in self.polys:
            if len(f) < 2 or f[-1] != 1:
                raise ValueError("polynomials must be monic of degree >= 1")
            if any(c % self.ell for c in f[:-1]):
                raise ValueError("non-leading coefficients must be divisible by ell")
        if any(m < 1 for m in self.mus):
            raise ValueError("ell-power exponents must be positive")

    @property
    def lambda_invariant(self) -> int:
        return sum(len(f) - 1 for f in self.polys)

    @property
    def mu_invariant(self) -> int:
        return sum(self.mus)


def omega_poly(ell: int, n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of (1+T)^(ell^n) - 1; degree ell^n, no constant."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    d = ell**n
    return tuple(comb(d, k) if k else 0 for k in range(d + 1))


def _poly_mod_omega(f: tuple[int, ...], ell: int, n: int) -> list[int]:
    """Reduce f modulo omega_n (monic), returning dim = ell^n coefficients."""
    dim = ell**n
    omega = omega_poly(ell, n)
    work = list(f)
    for k in range(len(work) - 1, dim - 1, -1):
        c = work[k]
        if c:
            for j in range(dim + 1):
                work[k - dim + j] -= c * omega[j]
    work = work[:dim]
    return work + [0] * (dim - len(work))


def _mult_matrix_mod(f: tuple[int, ...], ell: int, n: int, q: int | None) -> list[list[int]]:
    """Matrix of multiplication by f on Z[T]/(omega_n), entries mod q
    (exact integers when q is None)."""
    dim = ell**n
    omega = omega_poly(ell, n)
    red = lambda x: x % q if q is not None else x
    # T^dim = -sum_{1<=j<dim} C(dim, j) T^j  (mod omega_n)
    fold = [0] + [red(-omega[j]) for j in range(1, dim)]
    col = [red(c) for c in _poly_mod_omega(f, ell, n)]
    cols = [col]
    for _ in range(dim - 1):
        prev = cols[-1]
        top = prev[-1]
        nxt = [0] + prev[:-1]
        if top:
            nxt = [red(a + top * b) for a, b in zip(nxt, fold)]
        cols.append(nxt)
    return [[cols[j][i] for j in range(dim)] for i in range(dim)]


def poly_level_valuations(f: tuple[int, ...], ell: int, n: int, cap: int) -> list[int]:
    """min(v_i, cap) over the elementary divisors of coker(mult by f), via
    the mod-ell^cap kernel."""
    q = ell**cap
    return snf_mod_valuations(_mult_matrix_mod(f, ell, n, q), ell, cap)


def poly_level_valuation_direct(f: tuple[int, ...], ell: int, n: int, cap: int) -> int:
    """Independent construction: integer Smith form of the full relation
    lattice (columns f*T^j mod omega_n together with ell^cap times the
    basis); returns the summed ell-valuation of the divisors."""
    dim = ell**n
    q = ell**cap
    mult = _mult_matrix_mod(f, ell, n, None)
    rows = [mult[i] + [q if j == i else 0 for j in range(dim)] for i in range(dim)]
    return sum(valuation(d, ell) for d in smith_normal_form(rows) if d != 0)


def level_order(spec: ElementaryModuleSpec, n: int, exponent_offset: int = 0) -> int:
    """x(n): ell-valuation of the exponent-ell^(n+k) quotient of the level-n
    coinvariants (k = exponent_offset, default 0).

    Free part: rho*(n+k)*ell^n.  Each Lambda/ell^m: ell^n*min(m, n+k).
    Each Lambda/f: the capped divisor valuations of the multiplication
    lattice.  Polynomial summands build an ell^n-dimensional matrix, so
    they are subject to the dimension cap.
    """
    if n < 0 or exponent_offset < 0:
        raise ValueError("level and exponent offset must be nonnegative")
    ell = spec.ell
    dim = ell**n
    cap = n + exponent_offset
    total = spec.rho * cap * dim
    for m in spec.mus:
        total += dim * min(m, cap)
    if spec.polys:
        if dim > MATRIX_DIM_CAP:
            raise ScaleError("scale exceeded")
        for f in spec.polys:
            total += sum(poly_level_valuations(f, ell, n, cap))
    return total


@dataclass(frozen=True)
class LevelOrderTable:
    """Map n -> x(n) on consecutive levels; x is nondecreasing."""

    entries: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", dict(self.entries))
        ns = sorted(self.entries)
        if ns and ns != list(range(ns[0], ns[0] + len(ns))):
            raise ValueError("levels must be consecutive")
        for a, b in zip(ns, ns[1:]):
            if self.entries[b] < self.entries[a]:
                raise ValueError("x(n) must be nondecreasing")

    def levels(self) -> list[int]:
        return sorted(self.entries)


def level_order_table(
    spec: ElementaryModuleSpec, n_min: int, n_max: int, exponent_offset: int = 0
) -> LevelOrderTable:
    return LevelOrderTable(
        {n: level_order(spec, n, exponent_offset) for n in range(n_min, n_max + 1)}
    )


@dataclass(frozen=True)
class FitParameters:
    rho: int
    mu: int
    lam: int
    nu: int

    def predict(self, ell: int, n: int) -> int:
        return self.rho * n * ell**n + self.mu * ell**n + self.lam * n + self.nu


def fit_parameters(table: LevelOrderTable, ell: int) -> FitParameters | None:
    """Solve x(n) = rho*n*ell^n + mu*ell^n + lambda*n + nu on the last four
    levels; None means "not yet stable".

    The solution must be integral with rho, mu, lambda >= 0, and must also
    reproduce the level preceding the window when the table has one.
    """
    ns = table.levels()
    if len(ns) < 4:
        raise ValueError("table must contain at least 4 consecutive levels")
    window = ns[-4:]
    A = [[Fraction(n * ell**n), Fraction(ell**n), Fraction(n), Fraction(1)] for n in window]
    b = [Fraction(table.entries[n]) for n in window]
    # Gaussian elimination over Q
    for col in range(4):
        piv = next((i for i in range(col, 4) if A[i][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        b[col] *= inv
        for i in range(4):
            if i != col and A[i][col] != 0:
                f = A[i][col]
                A[i] = [x - f * y for x, y in zip(A[i], A[col])]
                b[i] -= f * b[col]
    sol = b
    if any(x.denominator != 1 for x in sol):
        return None
    rho, mu, lam, nu = (int(x) for x in sol)
    if rho < 0 or mu < 0 or lam < 0:
        return None
    fitted = FitParameters(rho, mu, lam, nu)
    prev = window[0] - 1
    if prev in table.entries and fitted.predict(ell, prev) != table.entries[prev]:
        return None
    return fitted
