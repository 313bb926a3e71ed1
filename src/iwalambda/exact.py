"""Exact integer utilities shared by every other module.

Everything here is arbitrary-precision integer arithmetic: valuations,
multiplicative orders, CRT, factorization helpers, and Smith normal form
over Z with its unimodular row transform and that transform's inverse.
No floating point is used anywhere in the package.  Record is the
immutable value type the other layers build on.
"""

from __future__ import annotations

from math import gcd
from operator import attrgetter


# ---------------------------------------------------------------------------
# immutable value records

class Record:
    """Immutable record whose fields are its __slots__, in declaration order.

    A subclass lists its fields in __slots__ and sets them in its own
    __init__ through _set_fields (or object.__setattr__); afterwards
    assigning or deleting a field raises AttributeError.  Equality holds
    only within one class and compares the field tuples, the hash is the
    hash of that tuple (as a frozen dataclass's is), and pickle and copy
    rebuild the record through __init__.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        cls._astuple = staticmethod(get if len(cls.__slots__) > 1 else lambda self: (get(self),))

    def _set_fields(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return type(self), self._astuple(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._astuple(self)))
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# primes and factorization

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (the 12-base set is exact below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine at the scales used here."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, k in factorize(n).items():
        phi *= (p - 1) * p ** (k - 1)
    return phi


# ---------------------------------------------------------------------------
# valuations and orders

def valuation(x: int, ell: int) -> int:
    """Largest k with ell**k dividing x, by repeated division.

    Raises for x = 0 (the valuation of zero is undefined here; callers that
    want the "infinite" convention handle 0 themselves).
    """
    if x == 0:
        raise ValueError("valuation of zero undefined")
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    x = abs(x)
    k = 0
    while x % ell == 0:
        x //= ell
        k += 1
    return k


def mult_order(a: int, m: int) -> int:
    """Least k >= 1 with a**k = 1 mod m.

    Computed by stripping primes from phi(m); the brute-force powering
    oracle lives in the tests.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    a %= m
    if gcd(a, m) != 1:
        raise ValueError("not a unit")
    e = euler_phi(m)
    for q in factorize(e):
        while e % q == 0 and pow(a, e // q, m) == 1:
            e //= q
    return e


def crt(residues: list[int], moduli: list[int]) -> int:
    """Solve x = r_i mod m_i for pairwise coprime moduli; result mod prod."""
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        if gcd(m, mi) != 1:
            raise ValueError("moduli must be pairwise coprime")
        # x + m*t = r (mod mi)
        t = (r - x) * pow(m, -1, mi) % mi if mi > 1 else 0
        x += m * t
        m *= mi
    return x % m


# ---------------------------------------------------------------------------
# integer matrices and Smith normal form

class IntMatrix(Record):
    """Dense integer matrix, row-major, exact entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry shape does not match declared dimensions")
        self._set_fields(rows, cols, entries)

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "IntMatrix":
        n = len(rows)
        m = len(rows[0]) if rows else 0
        return cls(n, m, tuple(tuple(int(x) for x in r) for r in rows))

    def to_rows(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


def diagonal_matrix(d) -> list[list[int]]:
    n = len(d)
    return [[d[i] if j == i else 0 for j in range(n)] for i in range(n)]


def identity_matrix(n: int) -> list[list[int]]:
    return diagonal_matrix([1] * n)


def transpose(rows) -> list[list[int]]:
    return [list(col) for col in zip(*rows)]


def _nearest_div(a: int, b: int) -> int:
    """Quotient with remainder in [-b/2, b/2) for b > 0; keeps entries small."""
    return (a + (b >> 1)) // b


def _snf_with_transform(rows: list[list[int]]) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Smith reduction over Z with the row transform: returns (d, U, U^-1).

    U is unimodular and U*M*V = diag(d) for a unimodular V that is never
    built, so row i of U*M is divisible by d_i, and zero when d_i = 0 or
    i >= len(d).  d has length min(r, c), is nonnegative, and satisfies
    d_i | d_{i+1} (zeros, meaning free cokernel factors, come last).
    U^-1 follows U through the inverse of each row operation, at O(r) per
    operation.  Any pivot strategy is fine by contract; this one
    re-selects the least-|value| entry of the minor each round and reduces
    with nearest-integer division, which keeps coefficient growth tame at
    desk scale.
    """
    a = [list(r) for r in rows]
    r = len(a)
    c = len(a[0]) if a else 0
    U = identity_matrix(r)
    Uinv = identity_matrix(r)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]
        for row in Uinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        # row_dst -= q * row_src; its inverse is col_src += q * col_dst
        ad, asrc = a[dst], a[src]
        for k in range(c):
            ad[k] -= q * asrc[k]
        ud, usrc = U[dst], U[src]
        for k in range(r):
            ud[k] -= q * usrc[k]
        for row in Uinv:
            row[src] += q * row[dst]

    def addmul_col(dst, src, q):
        for row in a:
            row[dst] -= q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        U[i] = [-x for x in U[i]]
        for row in Uinv:
            row[i] = -row[i]

    t = 0
    size = min(r, c)
    while t < size:
        while True:
            # re-select the least-|value| nonzero pivot in the minor; any
            # nonzero division remainder strictly shrinks this minimum, so
            # the round count is logarithmic in the smallest entry
            best = None
            for i in range(t, r):
                for j in range(t, c):
                    x = a[i][j]
                    if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best != (t, t):
                if best[0] != t:
                    swap_rows(t, best[0])
                if best[1] != t:
                    swap_cols(t, best[1])
            if a[t][t] < 0:
                negate_row(t)
            p = a[t][t]
            dirty = False
            for i in range(r):
                if i != t and a[i][t] != 0:
                    addmul_row(i, t, _nearest_div(a[i][t], p))
                    if a[i][t] != 0:
                        dirty = True
            if dirty:
                continue
            for j in range(c):
                if j != t and a[t][j] != 0:
                    addmul_col(j, t, _nearest_div(a[t][j], p))
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole remaining minor for the chain
            stained = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if a[i][j] % p != 0:
                        stained = i
                        break
                if stained is not None:
                    break
            if stained is None:
                break
            addmul_row(t, stained, -1)  # pull the offending row up, re-reduce
        if a[t][t] == 0:
            break  # minor is zero: trailing divisors stay 0
        t += 1

    d = [a[i][i] for i in range(size)]
    return d, U, Uinv


def smith_normal_form(m: IntMatrix | list[list[int]]) -> tuple[int, ...]:
    """Elementary divisors d_1 | d_2 | ... of an integer matrix.

    The tuple has min(rows, cols) entries; trailing zeros are free cokernel
    factors.  The cokernel of M is the direct sum of Z/d_i plus one Z per
    row beyond the rank.
    """
    rows = m.to_rows() if isinstance(m, IntMatrix) else [list(r) for r in m]
    if not rows or not rows[0]:
        return ()
    d, _, _ = _snf_with_transform(rows)
    for i in range(len(d) - 1):
        if d[i + 1] != 0 and (d[i] == 0 or d[i + 1] % d[i] != 0):
            raise AssertionError("divisor chain violated (reduction bug)")
    return tuple(d)

