"""The reduction kernel.

The hot loop of the whole package is the elementary-divisor reduction of
an integer matrix over Z/ell^n (a chain ring, so valuation-pivot Gaussian
elimination is a complete algorithm).  Only rows are deleted: a pivot's
column is exactly 0 in every other row after its elimination, so no
column is ever moved.  It is plain Python with no dependencies; BACKEND
names it for benchmark records.
"""

from __future__ import annotations

from itertools import chain

BACKEND = "python"


def snf_mod_valuations(rows: list[list[int]], ell: int, n: int) -> list[int]:
    """Valuations of the elementary divisors of coker(M) tensored with Z/ell^n.

    Returns one value in [0, n] per matrix row, ascending.  A row without a
    pivot (free or deeply divisible direction) reports n.  Equivalently the
    result is [min(v_i, n)] over the divisors d_i of the integer Smith form,
    with v(0) treated as n.

    Entries may be any integers and rows may be tuples; the rows are copied,
    not reduced, and the caller's rows are left as they were.  No answer
    depends on an entry's residue class beyond mod q = ell^n: the pivot
    search tests divisibility by a power of ell dividing q, the pivot is
    read mod q, and every row the elimination touches is rewritten mod q.
    """
    if n < 0:
        raise ValueError("cap exponent must be nonnegative")
    q = ell**n
    a = [list(row) for row in rows]
    vals: list[int] = []
    vmin = 0
    start = 0
    powers = [ell**k for k in range(n + 1)]
    while a and vmin < n:
        # find a pivot of least valuation; valuations of the minor never
        # drop below the previous pivot's, so the scan resumes at vmin.
        # The rows are searched from start, where the last pivot row was
        # (the next row once it is deleted), wrapping round to row 0: on a
        # banded multiplication matrix the next unit is almost always in the
        # row after the last pivot.  Every row is read before vmin moves up,
        # so any entry found has the least valuation.
        piv = None
        while vmin < n and piv is None:
            stop = powers[vmin + 1]
            for i in chain(range(start, len(a)), range(start)):
                for j, x in enumerate(a[i]):
                    if x and x % stop:
                        piv = (i, j)
                        break
                if piv:
                    break
            if piv is None:
                vmin += 1
        if piv is None:
            break
        pr, pc = piv
        pivot_row = a[pr]
        pv = powers[vmin]
        qv = powers[n - vmin]
        u = (pivot_row[pc] % q) // pv
        uinv = pow(u, -1, qv)
        for i, row in enumerate(a):
            if i == pr:
                continue
            b = row[pc]
            if b:
                f = (b // pv) * uinv % qv
                a[i] = [(x - f * y) % q for x, y in zip(row, pivot_row)]
        # the pivot column is now 0 in every other row (b = ell^v b' and
        # u*uinv = 1 mod ell^(n-v) give b - f*pivot = 0 mod q; an untouched
        # row had b = 0), and column ops clearing the pivot row touch no
        # other row, so dropping the row is exact; the search skips the zeros
        del a[pr]
        start = pr
        vals.append(vmin)
    vals.extend([n] * (len(rows) - len(vals)))
    return vals
