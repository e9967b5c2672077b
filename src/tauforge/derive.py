"""Derivation of the operator by evaluation over finite fields.

Write z_k = e^{i y_k / M}, where the integer rows u of an orbit's `ints`
are M = `scale` times its y vectors.  Every chain-rule quantity is then a
Laurent polynomial in z, with g_k the metric weights:

    tau_a          = sum_u z^u
    J_ak           = sum_u u_k z^u               (M/i times d tau_a / dy_k)
    A_ij           = -(1/M^2) sum_k g_k J_ik J_jk
    B_i, nu^0 part = -(1/M^2) sum_u (sum_k g_k u_k^2) z^u
    B_i, nu^1 part = -(1/M^2) sum_alpha (W_alpha + 1)/(W_alpha - 1)
                                        sum_k g_k (M alpha)_k J_ik

with W_alpha = z^{M alpha} over the positive roots.  The factors of i pair
up, so the identities hold over F_p for any prime p, at every z in
(F_p^*)^n with no W_alpha = 1; complex taus (A2) need no special case.

At random such points each entry is solved mod p for its coefficients
over every monomial within its weighted-degree bound; all entries of one
bound are right-hand sides of one Gauss-Jordan elimination.  31-bit
primes are combined by CRT, and every coefficient is rebuilt by Wang's
rational reconstruction, until a fresh prime confirms the whole operator.

The result is certified three ways.  The fresh prime must reproduce every
reconstructed coefficient.  Each point beyond the number of unknowns
tests the fitted entry against the chain rule, and a wrong entry passes
such a point with probability at most deg/p (Schwartz-Zippel, deg the
degree of the cleared difference in z).  `derive` then checks the tables
against the high-precision numeric oracle (`verify_tables`).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .exactpoly import MultiPoly, NuLinear, weighted_monomials
from .operator import AlgebraicOperator, build_operator
from .rootsys import RootSystem, characteristic_vector, orbit_rows

# below 2^31, so the product of two residues fits in an int64
PRIMES = tuple(2**31 - d for d in (1, 19, 61, 69, 85, 99, 105, 151))
# the points are drawn from this seed; the derived tables do not depend on it
POINT_SEED = 2009
# points beyond the largest basis, each one more check of every entry
EXTRA_POINTS = 4


def _power(base: np.ndarray, e: int, p: int) -> np.ndarray:
    """base ** e mod p, elementwise, for e >= 0."""
    out = np.ones_like(base)
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _laurent(z: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    """z^u mod p for every point z (row of z) and every integer row u."""
    out = np.ones((len(z), len(rows)), dtype=np.int64)
    for k in range(z.shape[1]):
        lo, hi = int(rows[:, k].min()), int(rows[:, k].max())
        # table[:, e - lo] = z_k^e for lo <= e <= hi; z^(p-1) = 1 on F_p^*
        table = np.empty((len(z), hi - lo + 1), dtype=np.int64)
        table[:, 0] = _power(z[:, k], lo % (p - 1), p)
        for t in range(1, hi - lo + 1):
            table[:, t] = table[:, t - 1] * z[:, k] % p
        out = out * table[:, rows[:, k] - lo] % p
    return out


def _chain_rule_mod(sysr: RootSystem, p: int, count: int, rng):
    """(tau, entries) mod p at `count` random points.

    tau is (count, rank); entries maps A11 .. B<rank> to its values, one
    column for an A entry, two for a B entry (its nu^0 part and its nu^1
    slope).  A point with some W_alpha = 1 is redrawn.
    """
    rank = sysr.rank
    # z stands for one scale M, which every orbit of a supported system shares
    scale, orbits = orbit_rows(sysr.kind)
    # the metric weights are small integers (1 and 2)
    g = np.array([int(x) for x in sysr.metric_weights], dtype=np.int64)
    roots = np.array(
        [[int(c * scale) for c in sysr.y_rep(r)] for r in sysr.positive_roots],
        dtype=np.int64,
    )
    z = rng.integers(1, p, size=(count, sysr.y_dim))
    w = _laurent(z, roots, p)
    while (hit := (w == 1).any(axis=1)).any():
        z[hit] = rng.integers(1, p, size=(int(hit.sum()), sysr.y_dim))
        w = _laurent(z, roots, p)
    cot = (w + 1) * _power((w - 1) % p, p - 2, p) % p
    c = -pow(scale * scale, -1, p) % p
    tau, jac, entries = [], [], {}
    for a, ints in enumerate(orbits):
        zu = _laurent(z, ints, p)
        j = zu @ ints % p
        tau.append(zu.sum(axis=1) % p)
        jac.append(j)
        base = zu @ (ints**2 @ g) % p
        slope = (cot * (j @ (roots * g).T % p) % p).sum(axis=1) % p
        entries[f"B{a + 1}"] = np.stack([base, slope], axis=1) * c % p
    for i in range(rank):
        for k in range(i, rank):
            value = (jac[i] * jac[k] % p) @ g % p
            entries[f"A{i + 1}{k + 1}"] = value[:, None] * c % p
    return np.stack(tau, axis=1), entries


def _gauss_jordan(values: np.ndarray, rhs: np.ndarray, p: int):
    """(x, inconsistent) with values x = rhs mod p, column by column.

    values has more rows than columns; x is None if they are of lower
    rank.  inconsistent flags each right-hand side that no x satisfies.
    """
    n = values.shape[1]
    aug = np.concatenate([values, rhs], axis=1) % p
    for c in range(n):
        nonzero = np.flatnonzero(aug[c:, c])
        if not len(nonzero):
            return None, None
        r = c + nonzero[0]
        aug[[c, r]] = aug[[r, c]]
        aug[c] = aug[c] * pow(int(aug[c, c]), -1, p) % p
        factors = aug[:, c].copy()
        factors[c] = 0
        aug = (aug - np.outer(factors, aug[c])) % p
    return aug[:n, n:], aug[n:, n:].any(axis=0)


def _solve_prime(sysr: RootSystem, p: int, rng, bounds: dict, bases: dict) -> dict:
    """entry name -> coefficient residues mod p, per monomial its parts.

    bounds maps each entry to its weighted-degree bound, bases each bound
    to its monomials.  A rank-deficient system draws more points.  Raises
    ValueError naming the first entry that no polynomial within its bound
    fits.
    """
    size = max(len(b) for b in bases.values())
    top = max(max(e) for b in bases.values() for e in b)
    for count in range(size + EXTRA_POINTS, 4 * size + EXTRA_POINTS + 1, size):
        tau, entries = _chain_rule_mod(sysr, p, count, rng)
        powers = [np.ones_like(tau)]
        for _ in range(top):
            powers.append(powers[-1] * tau % p)
        solved = {}
        for bound, basis in bases.items():
            values = np.ones((count, len(basis)), dtype=np.int64)
            for m, exp in enumerate(basis):
                for k, e in enumerate(exp):
                    values[:, m] = values[:, m] * powers[e][:, k] % p
            names = [name for name, b in bounds.items() if b == bound]
            x, inconsistent = _gauss_jordan(
                values, np.concatenate([entries[name] for name in names], axis=1), p
            )
            if x is None:
                break
            k = 0
            for name in names:
                parts = entries[name].shape[1]
                if inconsistent[k : k + parts].any():
                    raise ValueError(
                        f"{name}: no polynomial of weighted degree <= {bound} "
                        f"matches the chain rule mod {p}"
                    )
                solved[name] = x[:, k : k + parts].ravel().tolist()
                k += parts
        else:
            return solved
    raise ValueError(f"the points mod {p} leave a basis rank-deficient")


def _rational(r: int, m: int) -> Fraction | None:
    """Wang's reconstruction: a/b = r mod m with a^2, b^2 <= m/2, or None."""
    r0, r1, t0, t1 = m, r % m, 0, 1
    while 2 * r1 * r1 > m:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 == 0 or 2 * t1 * t1 > m:
        return None
    value = Fraction(r1, t1)
    return value if value.denominator == abs(t1) else None


def _agrees(values: list | None, residues: list, p: int) -> bool:
    """Do the rebuilt rationals (None where none was found) reduce to the residues?"""
    return values is not None and all(
        v is not None
        and v.denominator % p
        and v.numerator * pow(v.denominator, -1, p) % p == r
        for v, r in zip(values, residues)
    )


def derive_operator(sysr: RootSystem) -> AlgebraicOperator:
    """A and B from first principles, exact, for rank <= 2 systems.

    See the module docstring.  Raises ValueError naming an entry whose
    coefficients no fresh prime confirms within PRIMES.
    """
    if sysr.rank > 2:
        raise ValueError("derivation is limited to rank <= 2")
    rank = sysr.rank
    cv = characteristic_vector(sysr)
    bounds = {
        f"A{i + 1}{j + 1}": cv[i] + cv[j] for i in range(rank) for j in range(i, rank)
    } | {f"B{i + 1}": cv[i] for i in range(rank)}
    # canonical (weighted degree, exponent) order, the order of the tables
    bases = {
        bound: sorted(
            weighted_monomials(cv, bound),
            key=lambda e: (sum(c * x for c, x in zip(cv, e)), e),
        )
        for bound in sorted(set(bounds.values()))
    }
    rng = np.random.default_rng(POINT_SEED)
    modulus, crt, rebuilt = 1, {}, {}
    for p in PRIMES:
        solved = _solve_prime(sysr, p, rng, bounds, bases)
        culprit = next(
            (name for name in bounds if not _agrees(rebuilt.get(name), solved[name], p)),
            None,
        )
        if culprit is None:
            break
        # fold p into the CRT residues, then rebuild every coefficient
        inv = pow(modulus, -1, p)
        for name, residues in solved.items():
            old = crt.get(name, [0] * len(residues))
            crt[name] = [x + modulus * ((r - x) * inv % p) for x, r in zip(old, residues)]
        modulus *= p
        rebuilt = {name: [_rational(x, modulus) for x in xs] for name, xs in crt.items()}
    else:
        raise ValueError(
            f"{culprit}: no rational reconstruction is confirmed at a fresh prime "
            f"within {len(PRIMES)} primes"
        )

    polys = {}
    for name, bound in bounds.items():
        # per monomial its nu^0 coefficient, and for B its nu^1 slope
        basis, values = bases[bound], rebuilt[name]
        parts = len(values) // len(basis)
        coefs = zip(*[values[k::parts] for k in range(parts)])
        polys[name] = MultiPoly(
            rank, {exp: NuLinear(*c) for exp, c in zip(basis, coefs) if any(c)}
        )
    return build_operator(sysr, polys, "derived")
