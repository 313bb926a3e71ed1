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

from math import comb

from ._kernels import snf_mod_valuations
from .errors import ScaleError
from .exact import Record, is_prime, smith_normal_form, valuation

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
        if ell == 2 or not is_prime(ell):
            raise ValueError("ell must be an odd prime")
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        polys = tuple(tuple(int(c) for c in f) for f in polys)
        mus = tuple(int(m) for m in mus)
        for f in polys:
            if len(f) < 2 or f[-1] != 1:
                raise ValueError("polynomials must be monic of degree >= 1")
            if any(c % ell for c in f[:-1]):
                raise ValueError("non-leading coefficients must be divisible by ell")
        if any(m < 1 for m in mus):
            raise ValueError("ell-power exponents must be positive")
        self._set_fields(ell, rho, polys, mus)

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


class LevelOrderTable(Record):
    """Map n -> x(n) on consecutive levels; x is nondecreasing."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[int, int] | None = None):
        entries = dict(entries or {})
        ns = sorted(entries)
        if ns and ns != list(range(ns[0], ns[0] + len(ns))):
            raise ValueError("levels must be consecutive")
        for a, b in zip(ns, ns[1:]):
            if entries[b] < entries[a]:
                raise ValueError("x(n) must be nondecreasing")
        object.__setattr__(self, "entries", entries)

    def levels(self) -> list[int]:
        return sorted(self.entries)


def level_order_table(
    spec: ElementaryModuleSpec, n_min: int, n_max: int, exponent_offset: int = 0
) -> LevelOrderTable:
    return LevelOrderTable(
        {n: level_order(spec, n, exponent_offset) for n in range(n_min, n_max + 1)}
    )


class FitParameters(Record):
    __slots__ = ("rho", "mu", "lam", "nu")

    def __init__(self, rho: int, mu: int, lam: int, nu: int):
        self._set_fields(rho, mu, lam, nu)

    def predict(self, ell: int, n: int) -> int:
        return self.rho * n * ell**n + self.mu * ell**n + self.lam * n + self.nu


def _det(M: list[list[int]]) -> int:
    """Determinant by cofactor expansion along the first row (4 x 4 here)."""
    if len(M) == 1:
        return M[0][0]
    return sum(
        (-1) ** j * M[0][j] * _det([row[:j] + row[j + 1 :] for row in M[1:]])
        for j in range(len(M))
        if M[0][j]
    )


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
    A = [[n * ell**n, ell**n, n, 1] for n in window]
    b = [table.entries[n] for n in window]
    # Cramer's rule over Z: x_i = det(A with column i replaced by b) / det(A)
    det = _det(A)
    if det == 0:
        return None
    sol = []
    for i in range(4):
        num = _det([row[:i] + [y] + row[i + 1 :] for row, y in zip(A, b)])
        if num % det != 0:
            return None
        sol.append(num // det)
    rho, mu, lam, nu = sol
    if rho < 0 or mu < 0 or lam < 0:
        return None
    fitted = FitParameters(rho, mu, lam, nu)
    prev = window[0] - 1
    if prev in table.entries and fitted.predict(ell, prev) != table.entries[prev]:
        return None
    return fitted
