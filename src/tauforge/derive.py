"""Exact small-rank derivations of the algebraic operator.

For rank <= 2 the whole pipeline behind the big tables can be re-run
symbolically: expand the orbit sums as exponential sums on the weight
lattice, push the Laplacian and the ground-state cotangent terms through,
and reduce everything back to polynomials in the invariants by triangular
dominance recursion.  A1 has a two-line closed form to compare against;
A2 and G2 certify the numeric oracle at the exact rational level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactpoly import MultiPoly, NuLinear
from .operator import AlgebraicOperator
from .rootsys import (
    RootSystem,
    Vec,
    _orbit_elements,
    build_system,
    characteristic_vector,
    deformed_weyl_vector,
    vdot,
    vscale,
    vsub,
    weight_exponents,
    weyl_orbit,
)


class ExpSum:
    """Finite exponential sum sum_u c_u e^{i u.y} on the weight lattice.

    Keys are exact ambient vectors, values exact rationals; the zero
    coefficient is never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[Vec, Fraction] = {
            k: v for k, v in (terms or {}).items() if v
        }

    @staticmethod
    def orbit(vectors) -> "ExpSum":
        return ExpSum({tuple(v): Fraction(1) for v in vectors})

    def add_term(self, vec: Vec, coef) -> None:
        c = self.terms.get(vec, Fraction(0)) + coef
        if c:
            self.terms[vec] = c
        else:
            self.terms.pop(vec, None)

    def __sub__(self, other: "ExpSum") -> "ExpSum":
        out = ExpSum(self.terms)
        for k, v in other.terms.items():
            out.add_term(k, -v)
        return out

    def scaled(self, c) -> "ExpSum":
        return ExpSum({k: c * v for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, ExpSum) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"ExpSum({len(self.terms)} terms)"


def exp_product(s: ExpSum, t: ExpSum) -> ExpSum:
    """Exact convolution on the weight lattice."""
    out = ExpSum()
    for u, cu in s.terms.items():
        for v, cv in t.terms.items():
            out.add_term(tuple(a + b for a, b in zip(u, v, strict=True)), cu * cv)
    return out


@dataclass(frozen=True)
class TauPolynomialOf:
    """The orbit sum m_lambda written as a polynomial in the invariants."""

    weight: Vec
    poly: MultiPoly


@lru_cache(maxsize=None)
def _rho_hat(kind: str) -> Vec:
    return deformed_weyl_vector(build_system(kind)).root_sum


@lru_cache(maxsize=None)
def _tau_exp(kind: str, index: int) -> ExpSum:
    sysr = build_system(kind)
    return ExpSum.orbit(weyl_orbit(sysr, index).elements)


def _dominant_peak(sysr: RootSystem, s: ExpSum) -> tuple[Vec, Fraction]:
    """Highest remaining weight; it must be dominant for a Weyl invariant."""
    rho = _rho_hat(sysr.kind)
    lam = max(s.terms, key=lambda u: (vdot(u, rho), u))
    for alpha in sysr.simple_roots:
        if vdot(lam, alpha) < 0:
            raise ValueError(
                f"non-dominant residue {lam}: input sum is not Weyl-invariant"
            )
    return lam, s.terms[lam]


@lru_cache(maxsize=None)
def _orbit_sum_memo(kind: str, lam: Vec) -> MultiPoly:
    sysr = build_system(kind)
    p = weight_exponents(sysr, lam)
    rank = sysr.rank
    prod = ExpSum({tuple(Fraction(0) for _ in lam): Fraction(1)})
    poly = MultiPoly.constant(rank, 1)
    for a, pa in enumerate(p):
        for _ in range(pa):
            prod = exp_product(prod, _tau_exp(kind, a + 1))
            poly = poly * MultiPoly.variable(rank, a + 1)
    residue = prod - ExpSum.orbit(_orbit_elements(lam, sysr.simple_roots))
    while not residue.is_zero():
        mu, c = _dominant_peak(sysr, residue)
        residue = residue - ExpSum.orbit(
            _orbit_elements(mu, sysr.simple_roots)
        ).scaled(c)
        poly = poly - _orbit_sum_memo(kind, mu).scale(c)
    return poly


def orbit_sum_to_tau(sysr: RootSystem, lam) -> TauPolynomialOf:
    """m_lambda as a polynomial in tau, by triangular dominance recursion.

    The leading monomial is tau^p with unit coefficient for lam = sum p_a
    w_a; everything else comes from strictly lower orbits, so expanding
    the result back into exponential sums reproduces m_lambda exactly.
    """
    key = tuple(Fraction(c) for c in lam)
    return TauPolynomialOf(weight=key, poly=_orbit_sum_memo(sysr.kind, key))


def reduce_exp_sum(sysr: RootSystem, s: ExpSum) -> MultiPoly:
    """Write a Weyl-invariant exponential sum as a polynomial in tau."""
    poly = MultiPoly.zero(sysr.rank)
    residue = ExpSum(s.terms)
    while not residue.is_zero():
        lam, c = _dominant_peak(sysr, residue)
        residue = residue - ExpSum.orbit(
            _orbit_elements(lam, sysr.simple_roots)
        ).scaled(c)
        poly = poly + _orbit_sum_memo(sysr.kind, lam).scale(c)
    return poly


def derive_operator(sysr: RootSystem) -> AlgebraicOperator:
    """A and B from first principles, exact, for rank <= 2 systems.

    A_ij collects -(u.v) e^{u+v} over the two orbits.  The nu-free part
    of B_i is the Laplacian -|u|^2 e^u; the nu part pairs each orbit
    element u of positive height m = <u, alpha_check> with its mirror
    s_alpha(u), which turns the cotangent factor into the finite
    geometric sum e^u + e^{s_alpha u} + 2 sum_{t=1}^{m-1} e^{u - t alpha}.
    """
    if sysr.rank > 2:
        raise ValueError("symbolic derivation is limited to rank <= 2")
    rank = sysr.rank
    orbits = [weyl_orbit(sysr, a + 1).elements for a in range(rank)]

    a_entries: dict[tuple[int, int], MultiPoly] = {}
    for i in range(rank):
        for j in range(i, rank):
            s = ExpSum()
            for u in orbits[i]:
                for v in orbits[j]:
                    s.add_term(
                        tuple(a + b for a, b in zip(u, v, strict=True)),
                        -vdot(u, v),
                    )
            a_entries[(i, j)] = reduce_exp_sum(sysr, s)

    b_list = []
    for i in range(rank):
        lap = ExpSum()
        for u in orbits[i]:
            lap.add_term(tuple(u), -vdot(u, u))
        cot = ExpSum()
        for alpha in sysr.positive_roots:
            asq = vdot(alpha, alpha)
            for u in orbits[i]:
                au = vdot(alpha, u)
                m = 2 * au / asq
                if m <= 0:
                    continue
                m = int(m)
                cot.add_term(tuple(u), -au)
                cot.add_term(tuple(vsub(u, vscale(m, alpha))), -au)
                for t in range(1, m):
                    cot.add_term(tuple(vsub(u, vscale(t, alpha))), -2 * au)
        b_list.append(
            reduce_exp_sum(sysr, lap)
            + reduce_exp_sum(sysr, cot) * MultiPoly.constant(rank, NuLinear.of(0, 1))
        )

    full = tuple(
        tuple(a_entries[(min(i, j), max(i, j))] for j in range(rank))
        for i in range(rank)
    )
    return AlgebraicOperator(
        system=sysr,
        cv=characteristic_vector(sysr),
        A=full,
        B=tuple(b_list),
        variant="derived",
    )
