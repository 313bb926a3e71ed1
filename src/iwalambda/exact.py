"""Exact integer utilities shared by every other module.

Everything here is arbitrary-precision integer arithmetic: valuations,
multiplicative orders, CRT, factorization helpers, the Hermite normal
form of a lattice with back-substitution against it, and Smith normal form
over Z with its unimodular row transform and that transform's inverse.
No floating point is used anywhere in the package.  Record is the
immutable value type the other layers build on.
"""

from __future__ import annotations

from math import gcd
from operator import attrgetter

from .errors import ScaleError


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


def require_ints(error: type[ValueError], what: str, *values) -> None:
    """Raise error unless every value is an int: 1.5 is not truncated to 1,
    and neither 7.0 nor "7" stands for 7."""
    for value in values:
        if not isinstance(value, int):
            raise error(f"{what}: {value!r} is not an int")


# ---------------------------------------------------------------------------
# primes and factorization

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of _MR_BASES (about 3.3e24)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the 13 prime bases 2..41, exact below
    3317044064679887385961981; ScaleError at and above that bound.  Only an
    int can be prime: 7.0 is not."""
    if not isinstance(n, int) or n < 2:
        return False
    if n >= _MR_EXACT_BELOW:
        raise ScaleError(f"primality test is exact only below {_MR_EXACT_BELOW}")
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 43 * 43:  # a composite this small has a prime factor up to 41
        return True
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


def require_odd_prime(error: type[ValueError], ell) -> None:
    """Raise error unless ell is an odd prime int; past is_prime's bound, ScaleError."""
    if ell == 2 or not is_prime(ell):
        raise error("ell must be an odd prime")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine at the scales used here."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    # candidates 2, 3, then 6k - 1 and 6k + 1 (steps 1, 2, then 2, 4, 2, 4, ...)
    p, step = 2, 1
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p, step = p + step, 2 if p < 5 else 6 - step
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
    require_ints(ValueError, "valuation argument", x, ell)
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
    require_ints(ValueError, "mult_order argument", a, m)
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
    require_ints(ValueError, "residue or modulus", *residues, *moduli)
    if len(residues) != len(moduli):
        raise ValueError("one residue per modulus")
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        if gcd(m, mi) != 1:
            raise ValueError("moduli must be pairwise coprime")
        # x + m*t = r (mod mi)
        t = (r - x) * pow(m, -1, mi) % mi
        x += m * t
        m *= mi
    return x % m


# ---------------------------------------------------------------------------
# integer matrices and Smith normal form

def diagonal_matrix(d) -> list[list[int]]:
    n = len(d)
    return [[d[i] if j == i else 0 for j in range(n)] for i in range(n)]


def identity_matrix(n: int) -> list[list[int]]:
    return diagonal_matrix([1] * n)


def transpose(rows) -> list[list[int]]:
    return [list(col) for col in zip(*rows)]


def hermite_normal_form(rows) -> tuple[tuple[int, ...], ...]:
    """The unique basis of the full-rank lattice of Z^k that rows span, as
    its row Hermite normal form: upper triangular with positive pivots, each
    entry above a pivot in [0, pivot) (Cohen, ch. 2.4).  Column by column,
    Euclid on the rows not yet chosen leaves one nonzero there: the pivot row.
    """
    rest = [list(r) for r in rows]
    basis = []
    for j in range(len(rest[0]) if rest else 0):
        while len(live := [r for r in rest if r[j]]) > 1:
            p = min(live, key=lambda r: abs(r[j]))
            for r in live:
                if r is not p:
                    r[:] = [a - r[j] // p[j] * b for a, b in zip(r, p)]
        if not live:
            raise ValueError("the rows do not span a full-rank lattice")
        rest.remove(live[0])  # no other row equals it: that row would be live
        basis.append(live[0] if live[0][j] > 0 else [-x for x in live[0]])
    for i, p in enumerate(basis):
        for r in basis[:i]:
            r[:] = [a - r[i] // p[i] * b for a, b in zip(r, p)]
    return tuple(map(tuple, basis))


def _hermite_coordinates(basis, x) -> list[int] | None:
    """The y with y*basis = x for a Hermite basis, by back-substitution that
    divides exactly at each pivot; None when x is off the lattice."""
    x, y = list(x), []
    for i, b in enumerate(basis):
        q, rem = divmod(x[i], b[i])
        if rem:
            return None
        x = [u - q * v for u, v in zip(x, b)]
        y.append(q)
    return y


def _snf_with_transform(rows: list[list[int]]) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Smith reduction over Z with the row transform: returns (d, U, U^-1).

    U is unimodular and U*M*V = diag(d) for a unimodular V that is never
    built, so row i of U*M is divisible by d_i, and zero when d_i = 0 or
    i >= len(d).  d has length min(r, c), is nonnegative, and satisfies
    d_i | d_{i+1} (zeros, meaning free cokernel factors, come last).
    Row operations act on the augmented rows [M | I], whose right block ends
    as U, and U^-1 follows through each one's inverse column operation.  Any
    pivot strategy is fine by contract; this one re-selects the least-|value|
    entry of the minor each round and reduces with nearest-integer division,
    which keeps coefficient growth tame at desk scale.
    """
    r = len(rows)
    c = len(rows[0]) if rows else 0
    a = [list(row) + e for row, e in zip(rows, identity_matrix(r))]
    Uinv = identity_matrix(r)

    def addmul_row(dst, src, q):
        # row_dst -= q * row_src; its inverse is col_src += q * col_dst
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        for row in Uinv:
            row[src] += q * row[dst]

    t = 0
    while t < min(r, c):
        # re-select the least-|value| nonzero pivot in the minor, first in
        # row-major order; any nonzero division remainder strictly shrinks
        # this minimum, so the round count is logarithmic in the smallest entry
        best, least = None, 0
        for i in range(t, r):
            row = a[i]
            for j in range(t, c):
                if row[j] and (best is None or abs(row[j]) < least):
                    best, least = (i, j), abs(row[j])
        if best is None:
            break  # minor is zero: trailing divisors stay 0
        # move the pivot to (t, t), negating its row if the pivot is negative
        i, j = best
        s = 1 if a[i][j] > 0 else -1
        a[i], a[t] = a[t], [s * x for x in a[i]]
        for row in Uinv:
            row[i], row[t] = row[t], s * row[i]
        for row in a:
            row[t], row[j] = row[j], row[t]
        p, h = a[t][t], a[t][t] >> 1
        for i in range(r):
            if i != t and a[i][t]:
                addmul_row(i, t, (a[i][t] + h) // p)  # remainder in [-p/2, p/2)
        if any(a[i][t] for i in range(r) if i != t):
            continue
        # column t is now zero off row t, so the column operations that clear
        # row t change only row t: each entry becomes its remainder
        a[t][t + 1:c] = [(x + h) % p - h for x in a[t][t + 1:c]]
        if any(a[t][t + 1:c]):
            continue
        # pivot must divide the whole remaining minor for the chain
        for i in range(t + 1, r):
            if any(x % p for x in a[i][t + 1:c]):
                addmul_row(t, i, -1)  # pull the offending row up, re-reduce
                break
        else:
            t += 1

    return [a[i][i] for i in range(min(r, c))], [row[c:] for row in a], Uinv


def smith_normal_form(m: list[list[int]]) -> tuple[int, ...]:
    """Elementary divisors d_1 | d_2 | ... of an integer matrix.

    The tuple has min(rows, cols) entries; trailing zeros are free cokernel
    factors.  The cokernel of M is the direct sum of Z/d_i plus one Z per
    row beyond the rank.  Rows of unequal length raise ValueError.
    """
    if any(len(row) != len(m[0]) for row in m):
        raise ValueError("matrix rows must have equal length")
    for row in m:
        require_ints(ValueError, "matrix entry", *row)
    d, _, _ = _snf_with_transform(m)
    for i in range(len(d) - 1):
        if d[i + 1] != 0 and (d[i] == 0 or d[i + 1] % d[i] != 0):
            raise AssertionError("divisor chain violated (reduction bug)")
    return tuple(d)

