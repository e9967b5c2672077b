"""Derivation of the operator by evaluation over finite fields.

Write z_k = e^{i y_k / M}, where the integer rows u of an orbit's `ints`
are M = `scale` times its y vectors.  The metric is then a Laurent
polynomial in z, with g_k the metric weights:

    tau_a = sum_u z^u
    J_ak  = sum_u u_k z^u               (M/i times d tau_a / dy_k)
    A_ij  = -(1/M^2) sum_k g_k J_ik J_jk

The factors of i pair up, so this holds over F_p for any prime p, at
every z in (F_p^*)^n.  At random such points each A entry is solved mod p
over every monomial within its weighted-degree bound, one Gauss-Jordan
elimination per bound.  31-bit primes are combined by CRT, and Wang's
rational reconstruction rebuilds every coefficient, until a fresh prime
confirms them all.

B is the gauge of A.  The operator is the Laplace-Beltrami operator of
the flat metric A, gauged by prod_alpha |sin(alpha.y/2)|^nu
(Olshanetsky-Perelomov).  Its sqrt(g) is the inverse Weyl denominator,
since that denominator is the Jacobian of the invariants (K. Saito), and
the flat Laplacian takes tau_i to -d_i^2 tau_i, d_i = |w_i|.  So
`_gauge` builds each B exactly, its nu^0 law and degree bound holding
by construction:

    B_i = -d_i^2 tau_i + 2 nu (sum_j d A_ij / d tau_j + d_i^2 tau_i)

The fresh prime and the extra points certify A: a wrong entry passes a
point beyond the number of unknowns with probability at most deg/p
(Schwartz-Zippel, deg the degree of the cleared difference in z).  The
hp oracle check that `derive` runs (`verify_tables`) certifies B: it
reads B through the ground state's cotangent sums, never this identity.
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


def _laurent(z: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    """z^u mod p for every point z (row of z) and every integer row u."""
    out = np.ones((len(z), len(rows)), dtype=np.int64)
    for k in range(z.shape[1]):
        lo, hi = int(rows[:, k].min()), int(rows[:, k].max())
        # table[:, e - lo] = z_k^e for lo <= e <= hi
        table = np.empty((len(z), hi - lo + 1), dtype=np.int64)
        table[:, 0] = [pow(int(x), lo, p) for x in z[:, k]]
        for t in range(1, hi - lo + 1):
            table[:, t] = table[:, t - 1] * z[:, k] % p
        out = out * table[:, rows[:, k] - lo] % p
    return out


def _chain_rule_mod(sysr: RootSystem, p: int, count: int, rng):
    """(tau, entries) mod p at `count` random points.

    tau is (count, rank); entries maps A11 .. A<rank><rank> to its values,
    one column of `count`.
    """
    rank = sysr.rank
    # z stands for one scale M, which every orbit of a supported system shares
    scale, orbits = orbit_rows(sysr.kind)
    # the metric weights are small integers (1 and 2)
    g = np.array([int(x) for x in sysr.metric_weights], dtype=np.int64)
    z = rng.integers(1, p, size=(count, sysr.y_dim))
    c = -pow(scale * scale, -1, p) % p
    tau, jac = [], []
    for ints in orbits:
        zu = _laurent(z, ints, p)
        tau.append(zu.sum(axis=1) % p)
        jac.append(zu @ ints % p)
    entries = {
        f"A{i + 1}{k + 1}": (jac[i] * jac[k] % p) @ g % p * c % p
        for i in range(rank)
        for k in range(i, rank)
    }
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
    """A entry name -> its coefficient residues mod p, one per monomial.

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
                values, np.stack([entries[name] for name in names], axis=1), p
            )
            if x is None:
                break
            for k, name in enumerate(names):
                if inconsistent[k]:
                    raise ValueError(
                        f"{name}: no polynomial of weighted degree <= {bound} "
                        f"matches the chain rule mod {p}"
                    )
                solved[name] = x[:, k].tolist()
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


def _table_order(cv, exps) -> list:
    """exps in the tables' canonical (weighted degree, exponent) order."""
    return sorted(exps, key=lambda e: (sum(c * x for c, x in zip(cv, e)), e))


def _gauge(sysr: RootSystem, A) -> list[MultiPoly]:
    """B_1 .. B_rank of the metric rows A, each its terms in table order:
    B_i = -d_i^2 tau_i + 2 nu (sum_j d A_ij / d tau_j + d_i^2 tau_i)."""
    rank, cv = sysr.rank, characteristic_vector(sysr)
    out = []
    for i, row in enumerate(A):
        d2_tau = MultiPoly.variable(rank, i + 1).scale(sysr.weight_lengths_sq[i])
        half_slope = sum((a.partial_derivative(j + 1) for j, a in enumerate(row)), d2_tau)
        b = half_slope.scale(2) * MultiPoly.constant(rank, NuLinear.of(0, 1)) - d2_tau
        out.append(MultiPoly(rank, {e: b.terms[e] for e in _table_order(cv, b.terms)}))
    return out


def derive_operator(sysr: RootSystem) -> AlgebraicOperator:
    """A from first principles and each B its gauge, exact, for rank <= 2.

    See the module docstring.  Raises ValueError naming an A entry whose
    coefficients no fresh prime confirms within PRIMES.
    """
    if sysr.rank > 2:
        raise ValueError("derivation is limited to rank <= 2")
    rank = sysr.rank
    cv = characteristic_vector(sysr)
    bounds = {
        f"A{i + 1}{j + 1}": cv[i] + cv[j] for i in range(rank) for j in range(i, rank)
    }
    bases = {
        bound: _table_order(cv, weighted_monomials(cv, bound))
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

    polys = {
        name: MultiPoly(rank, {e: NuLinear(c) for e, c in zip(bases[b], rebuilt[name]) if c})
        for name, b in bounds.items()
    }
    A = [[polys[f"A{min(i, j) + 1}{max(i, j) + 1}"] for j in range(rank)]
         for i in range(rank)]
    B = {f"B{i + 1}": b for i, b in enumerate(_gauge(sysr, A))}
    return build_operator(sysr, polys | B, "derived")
