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
Sylvester lattice of f and omega_n, which shares no code with the
multiplication matrix) is exposed for cross-checking.
"""

from __future__ import annotations

from math import comb
from types import MappingProxyType

from ._kernels import snf_mod_valuations
from .errors import IwalambdaError, ScaleError
from .exact import Record, diagonal_matrix, require_ints, require_odd_prime, smith_normal_form, transpose, valuation

# Matrices are ell^n-dimensional; this cap admits 3^5 and 5^3 so that a
# fit window in the stable regime exists for mu-exponents up to 2 at ell=3.
MATRIX_DIM_CAP = 250


class ElementaryModuleSpec(Record):
    """rho free summands, distinguished polynomials, and ell-power exponents.

    Polynomials are coefficient tuples in ascending degree order, monic,
    with every lower coefficient divisible by ell (strictly distinguished;
    general power series are out of scope, Weierstrass preparation is the
    caller's business).
    """

    __slots__ = ("ell", "rho", "polys", "mus")

    def __init__(self, ell: int, rho: int = 0, polys: tuple[tuple[int, ...], ...] = (),
                 mus: tuple[int, ...] = ()):
        require_odd_prime(IwalambdaError, ell)
        polys = tuple(map(tuple, polys))
        mus = tuple(mus)
        require_ints(IwalambdaError, "rho, coefficient or mu", rho, *(c for f in polys for c in f), *mus)
        if rho < 0:
            raise IwalambdaError("rho must be nonnegative")
        for f in polys:
            if len(f) < 2 or f[-1] != 1:
                raise IwalambdaError("polynomials must be monic of degree >= 1")
            if any(c % ell for c in f[:-1]):
                raise IwalambdaError("non-leading coefficients must be divisible by ell")
        if any(m < 1 for m in mus):
            raise IwalambdaError("ell-power exponents must be positive")
        self._set_fields(ell, rho, polys, mus)

    @property
    def lambda_invariant(self) -> int:
        return sum(len(f) - 1 for f in self.polys)

    @property
    def mu_invariant(self) -> int:
        return sum(self.mus)


def omega_poly(ell: int, n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of (1+T)^(ell^n) - 1; degree ell^n, no constant."""
    require_ints(ValueError, "ell or level", ell, n)
    if n < 0:
        raise ValueError("level must be nonnegative")
    d = ell**n
    return tuple(comb(d, k) if k else 0 for k in range(d + 1))


def _mult_matrix_mod(f: tuple[int, ...], ell: int, n: int, q: int) -> list[list[int]]:
    """Matrix of multiplication by f on Z[T]/(omega_n), entries mod q.

    Entry (i, j) is the T^i coefficient of T^j * f0, f0 = f mod omega_n.
    While T^j * f0 has degree below dim, column j is f0 moved down j rows,
    so the first dim - deg f0 columns are a band, f0[i - j]; only the last
    deg f0 columns wrap around omega_n and take a multiply-by-T step each.
    """
    dim = ell**n
    omega = omega_poly(ell, n)
    # T^dim = -sum_{1<=j<dim} C(dim, j) T^j  (mod omega_n)
    fold = [0] + [-omega[j] % q for j in range(1, dim)]

    def times_t(col: list[int]) -> list[int]:
        top = col[-1]
        nxt = [0] + col[:-1]
        return [(a + top * b) % q for a, b in zip(nxt, fold)] if top else nxt

    # f0 (column 0) by Horner over f's coefficients
    f0 = [0] * dim
    for c in reversed(f):
        f0 = times_t(f0)
        f0[0] = (f0[0] + c) % q
    deg = dim - 1  # deg f0, taken as 0 when f0 = 0
    while deg and not f0[deg]:
        deg -= 1
    band = dim - deg
    # row i of the band is f0[i], f0[i-1], ..., a window of reversed f0
    padded = [0] * (band - 1) + f0[deg::-1] + [0] * (band - 1)
    rows = [padded[s:s + band] for s in range(dim - 1, -1, -1)]
    col = [0] * (band - 1) + f0[:deg + 1]  # column band - 1
    tail = []
    for _ in range(deg):
        col = times_t(col)
        tail.append(col)
    for row, entries in zip(rows, zip(*tail)):
        row.extend(entries)
    return rows


def poly_level_valuation(f: tuple[int, ...], ell: int, n: int, cap: int) -> int:
    """The capped order: the sum of min(v_i, cap) over the elementary
    divisors of coker(mult by f), via the mod-ell^cap kernel."""
    q = ell**cap
    return sum(snf_mod_valuations(_mult_matrix_mod(f, ell, n, q), ell, cap))


def poly_level_valuation_direct(f: tuple[int, ...], ell: int, n: int, cap: int) -> int:
    """Independent construction: integer Smith form of the Sylvester lattice.

    Z[T]/(f, omega_n) is Z^N (N = ell^n + deg f, the polynomials of degree
    < N) modulo the shifts T^j f (j < ell^n) and T^i omega_n (i < deg f);
    omega_n is monic, so these span every element of the ideal of degree
    < N and nothing is reduced.  Stacked beside ell^cap times the basis,
    the summed ell-valuation of the divisors is the capped order.
    """
    dim = ell**n
    deg = len(f) - 1
    size = dim + deg
    omega = omega_poly(ell, n)
    shifts = [[0] * j + list(f) + [0] * (dim - 1 - j) for j in range(dim)]
    shifts += [[0] * i + list(omega) + [0] * (deg - 1 - i) for i in range(deg)]
    rows = [r + s for r, s in zip(transpose(shifts), diagonal_matrix([ell**cap] * size))]
    return sum(valuation(d, ell) for d in smith_normal_form(rows) if d != 0)


def _require_matrix_dim(spec: ElementaryModuleSpec, n: int) -> None:
    """ScaleError if level n of spec builds a matrix past MATRIX_DIM_CAP."""
    if spec.polys and spec.ell**n > MATRIX_DIM_CAP:
        raise ScaleError(f"ell^n = {spec.ell**n} exceeds the matrix dimension cap {MATRIX_DIM_CAP}")


def level_order(spec: ElementaryModuleSpec, n: int, exponent_offset: int = 0) -> int:
    """x(n): ell-valuation of the exponent-ell^(n+k) quotient of the level-n
    coinvariants (k = exponent_offset, default 0).

    Free part: rho*(n+k)*ell^n.  Each Lambda/ell^m: ell^n*min(m, n+k).
    Each Lambda/f: the capped divisor valuations of the multiplication
    lattice.  Polynomial summands build an ell^n-dimensional matrix, so
    they are subject to the dimension cap.
    """
    require_ints(ValueError, "level or exponent offset", n, exponent_offset)
    if n < 0 or exponent_offset < 0:
        raise ValueError("level and exponent offset must be nonnegative")
    _require_matrix_dim(spec, n)
    ell = spec.ell
    dim = ell**n
    cap = n + exponent_offset
    total = spec.rho * cap * dim
    for m in spec.mus:
        total += dim * min(m, cap)
    for f in spec.polys:
        total += poly_level_valuation(f, ell, n, cap)
    return total


class LevelOrderTable(Record):
    """Map n -> x(n) on consecutive nonnegative levels; x is nondecreasing.

    entries is a read-only view of a private copy, so the checks below
    hold for the table's whole life.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: dict[int, int] | None = None):
        entries = dict(entries or {})
        require_ints(ValueError, "level or order", *entries, *entries.values())
        ns = sorted(entries)
        if ns and ns[0] < 0:
            raise ValueError("levels must be nonnegative")
        if ns and ns != list(range(ns[0], ns[0] + len(ns))):
            raise ValueError("levels must be consecutive")
        for a, b in zip(ns, ns[1:]):
            if entries[b] < entries[a]:
                raise ValueError("x(n) must be nondecreasing")
        object.__setattr__(self, "entries", MappingProxyType(entries))

    def __reduce__(self):
        return type(self), (dict(self.entries),)

    def levels(self) -> list[int]:
        return sorted(self.entries)


def level_order_table(
    spec: ElementaryModuleSpec, n_min: int, n_max: int, exponent_offset: int = 0
) -> LevelOrderTable:
    """x(n) for n_min <= n <= n_max; the deepest level's scale is checked
    before any level is computed."""
    require_ints(ValueError, "level or exponent offset", n_min, n_max, exponent_offset)
    _require_matrix_dim(spec, n_max)
    return LevelOrderTable(
        {n: level_order(spec, n, exponent_offset) for n in range(n_min, n_max + 1)}
    )


class FitParameters(Record):
    __slots__ = ("rho", "mu", "lam", "nu")

    def __init__(self, rho: int, mu: int, lam: int, nu: int):
        require_ints(ValueError, "fit parameter", rho, mu, lam, nu)
        self._set_fields(rho, mu, lam, nu)

    def predict(self, ell: int, n: int) -> int:
        return self.rho * n * ell**n + self.mu * ell**n + self.lam * n + self.nu


def fit_parameters(table: LevelOrderTable, ell: int) -> FitParameters | None:
    """Solve x(n) = rho*n*ell^n + mu*ell^n + lambda*n + nu on the last four
    levels; None means "not yet stable".

    The second difference x(n+2) - 2x(n+1) + x(n) removes lambda*n + nu and
    equals ell^n (ell-1) w(n) with w(n) = rho (n(ell-1) + 2 ell) + mu (ell-1),
    so w at the first two window levels gives rho and mu, and the first two
    values then give lambda and nu.  A nonzero remainder in any division
    means the (unique) rational solution is not integral.  The solution
    must also have rho, mu, lambda >= 0 and reproduce the level preceding
    the window when the table has one.
    """
    require_odd_prime(IwalambdaError, ell)
    ns = table.levels()
    if len(ns) < 4:
        raise ValueError("table must contain at least 4 consecutive levels")
    n0 = ns[-4]
    x0, x1, x2, x3 = (table.entries[n] for n in ns[-4:])
    d = ell - 1
    w0, r0 = divmod(x2 - 2 * x1 + x0, ell**n0 * d)
    w1, r1 = divmod(x3 - 2 * x2 + x1, ell ** (n0 + 1) * d)
    rho, r2 = divmod(w1 - w0, d)
    mu, r3 = divmod(w0 - rho * (n0 * d + 2 * ell), d)
    if r0 or r1 or r2 or r3:
        return None
    # x(n) - (rho n + mu) ell^n = lambda n + nu at n0 and n0 + 1
    y0 = x0 - (rho * n0 + mu) * ell**n0
    y1 = x1 - (rho * (n0 + 1) + mu) * ell ** (n0 + 1)
    lam = y1 - y0
    nu = y0 - lam * n0
    if rho < 0 or mu < 0 or lam < 0:
        return None
    fitted = FitParameters(rho, mu, lam, nu)
    prev = n0 - 1
    if prev in table.entries and fitted.predict(ell, prev) != table.entries[prev]:
        return None
    return fitted
