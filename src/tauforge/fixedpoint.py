"""Fixed-point integers for the oracle's high-precision arithmetic.

to_fixed turns an mpf into an integer at a given number of fraction bits;
the hp orbit-sum kernel and qr_solve both work in such integers, at the
working precision plus 64 guard bits.  qr_solve is the least-squares
solver of the refits, a Householder QR on Python ints; complex_qr_solve
solves a complex system through its real embedding.
"""

from __future__ import annotations

from math import isqrt
from operator import mul

from mpmath import mp, mpc, mpf


def to_fixed(x, shift: int) -> int:
    """floor(x * 2^shift + 1/2), exactly, for an mpf x."""
    sign, man, exp, _ = x._mpf_
    v = -man if sign else man
    e = exp + shift
    return v << e if e >= 0 else (v + (1 << (-e - 1))) >> -e


def qr_solve(rows, rhs_columns) -> list[list]:
    """Least-squares x with rows @ x = b, one x per column b of rhs_columns.

    rows is an m x n real matrix (a list of rows of mpf), m >= n, and each
    right-hand side a list of m mpf.  Every column of the matrix and every
    right-hand side is scaled by its own power of two to integers below
    2^(mp.prec + 64), as in the oracle's hp orbit-sum kernel.
    The Householder reduction then runs on Python ints: dot products are
    exact, and each update of an element is rounded once.  Back-substitution
    runs in mpf at the working precision.  Raises ValueError if m < n, or
    if a column has (almost) nothing left after the reflections before it
    (the remaining norm is at most 2^(-prec/2) of the column's scale), as
    for a pool of identical frames.
    """
    m, n = len(rows), len(rows[0])
    if m < n:
        raise ValueError("cannot solve underdetermined system")
    shift = mp.prec + 64
    half = 1 << (shift - 1)
    singular = 1 << (2 * shift - mp.prec)  # squared-norm floor in scaled units
    cols, exps = [], []
    for col in list(zip(*rows)) + [tuple(b) for b in rhs_columns]:
        top = max((x._mpf_[2] + x._mpf_[3] for x in col if x), default=0)
        exps.append(shift - top)
        cols.append([to_fixed(x, shift - top) for x in col])

    diag = []
    for j in range(n):
        x = cols[j][j:]
        sq = sum(map(mul, x, x))
        if sq <= singular:
            raise ValueError("matrix is numerically singular")
        alpha = -isqrt(sq) if x[0] >= 0 else isqrt(sq)
        v = [x[0] - alpha] + x[1:]
        vv = sum(map(mul, v, v))
        diag.append(alpha)
        for col in cols[j + 1:]:
            tail = col[j:]
            # f = round(2 (v.tail) / (v.v) * 2^shift): the reflection is
            # tail -= f v / 2^shift
            f = ((sum(map(mul, v, tail)) << (shift + 2)) + vv) // (2 * vv)
            col[j:] = [c - ((f * vk + half) >> shift) for c, vk in zip(tail, v)]

    r = [[mpf(cols[k][j]) for k in range(j + 1, n)] for j in range(n)]
    out = []
    for qb, e in zip(cols[n:], exps[n:]):
        y = [mpf(0)] * n
        for j in reversed(range(n)):
            acc = mpf(qb[j]) - mp.fsum(map(mul, r[j], y[j + 1:]))
            y[j] = acc / diag[j]
        out.append([mp.ldexp(yk, exps[k] - e) for k, yk in enumerate(y)])
    return out


def complex_qr_solve(rows, rhs_columns) -> list[list]:
    """qr_solve for complex rows and right-hand sides, as mpc solutions.

    Solves the real system [[Re, -Im], [Im, Re]] in the unknowns
    (Re c, Im c), whose least-squares solution is the complex one.
    """
    rows_re = [[mp.re(v) for v in row] for row in rows]
    rows_im = [[mp.im(v) for v in row] for row in rows]
    real_rows = []
    for re, im in zip(rows_re, rows_im):
        real_rows += [re + [-v for v in im], im + re]
    real_rhs = [[part(v) for v in b for part in (mp.re, mp.im)] for b in rhs_columns]
    n = len(rows[0])
    sols = qr_solve(real_rows, real_rhs)
    return [[mpc(x[k], x[k + n]) for k in range(n)] for x in sols]
