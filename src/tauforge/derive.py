"""Derivation of the operator by exact Weyl orbit-sum algebra.

The orbit sums tau_a = sum_{u in O_a} e^{i(u, x)} and the metric

    A_ab = -sum_{u in O_a, v in O_b} (u, v) e^{i(u + v, x)}

are W-invariant, so each is fixed by its coefficients at the dominant
weights lambda.  A_ab's is -sum (lambda - v, v) over the v in O_b with
lambda - v in O_a.  tau^p's is c_p(lambda) = sum_{v in O_k}
c_{p - e_k}(dom(lambda - v)) for any p_k > 0, dom(mu) being the dominant
weight of mu's orbit; it is 1 at sum_a p_a w_a and vanishes off the
weights below that in dominance (Bourbaki, Lie Groups and Lie Algebras
VI 3; Heckman-Opdam, Compositio Math. 64, 1987).  So each A entry
follows by exact back substitution: its remaining weight of greatest
height, the pairing with rho = sum_a w_a, names its next monomial and
that monomial's coefficient.  The weights are read as orbit rows,
`scale` times their y vectors, so each coefficient is an integer over
scale^2.

B is the gauge of A (`_gauge`).  The operator is the Laplace-Beltrami
operator of the flat metric A, gauged by prod_alpha |sin(alpha.y/2)|^nu
(Olshanetsky-Perelomov); its sqrt(g) is the inverse Weyl denominator,
the Jacobian of the invariants (K. Saito), and the flat Laplacian takes
tau_i to -|w_i|^2 tau_i.  So each B is exact, its nu^0 law and degree
bound holding by construction.  The hp oracle check that `derive` runs
(`verify_tables`) certifies B: it reads B through the ground state's
cotangent sums, never this identity.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .exactpoly import MultiPoly, NuLinear, grade, table_order
from .operator import AlgebraicOperator, build_operator, table_slots
from .rootsys import RootSystem, characteristic_vector, orbit_rows


class _OrbitAlgebra:
    """One system's W-invariant exponential sums, as dominant row -> coefficient maps."""

    def __init__(self, sysr: RootSystem):
        self.cv = characteristic_vector(sysr)
        # the simple roots, metric and Dynkin labels of sysr.ints share the
        # orbit rows' y coordinates and scale
        self.roots = sysr.ints
        _, orbits = orbit_rows(sysr.kind)
        self.orbits = [[tuple(u) for u in ints.tolist()] for ints in orbits]
        self._dom = {}
        self.tops = [self.dom(rows[0]) for rows in self.orbits]
        self.rho = tuple(map(sum, zip(*self.tops)))
        self._powers = {(0,) * len(self.cv): {(0,) * len(self.rho): 1}}

    def dom(self, u: tuple) -> tuple:
        """The dominant row of u's orbit: u reflected at its first negative
        label until no label is negative."""
        d = self._dom.get(u)
        if d is None:
            d = u
            while neg := [(l, s) for l, s in zip(self.roots.labels(d), self.roots.simple_roots)
                          if l < 0]:
                l, s = neg[0]
                d = tuple(x - l * y for x, y in zip(d, s))
            self._dom[u] = d
        return d

    def power(self, p: tuple[int, ...]) -> dict:
        """tau^p's coefficient c_p at each dominant row of its support."""
        if p not in self._powers:
            k = next(k for k, e in enumerate(p) if e)
            prev, orbit = self.power(p[:k] + (p[k] - 1,) + p[k + 1:]), self.orbits[k]
            support = {self.dom(tuple(map(add, mu, v))) for mu in prev for v in orbit}
            self._powers[p] = {
                lam: sum(prev.get(self.dom(tuple(map(sub, lam, v))), 0) for v in orbit)
                for lam in support
            }
        return self._powers[p]

    def a_entry(self, name: str, a: int, b: int, bound: int) -> MultiPoly:
        """A_ab, zero-based a and b, as a polynomial in the tau, its terms in
        table order.  Raises ValueError naming `name` if a monomial above
        the weighted-degree bound is needed."""
        members, orbit = set(self.orbits[a]), self.orbits[b]
        rest = {}
        for lam in {self.dom(tuple(map(add, self.tops[a], v))) for v in orbit}:
            if c := -sum(
                self.roots.dot(u, v) for v in orbit if (u := tuple(map(sub, lam, v))) in members
            ):
                rest[lam] = Fraction(c, self.roots.scale**2)
        terms = {}
        while rest:
            lam = max(rest, key=lambda mu: self.roots.dot(mu, self.rho))
            p = self.roots.labels(lam)
            if grade(self.cv, p) > bound:
                raise ValueError(f"{name}: no polynomial of weighted degree <= {bound} "
                                 f"holds its leading monomial tau^{p}")
            c = terms[p] = rest[lam]
            for mu, n in self.power(p).items():
                rest[mu] = rest.get(mu, 0) - c * n
            rest = {mu: r for mu, r in rest.items() if r}
        return MultiPoly(len(self.cv), {p: NuLinear(terms[p]) for p in table_order(self.cv, terms)})


def _gauge(sysr: RootSystem, A) -> list[MultiPoly]:
    """B_1 .. B_rank of the metric rows A, each its terms in table order:
    B_i = -d_i^2 tau_i + 2 nu (sum_j d A_ij / d tau_j + d_i^2 tau_i)."""
    rank, cv = sysr.rank, characteristic_vector(sysr)
    out = []
    for i, row in enumerate(A):
        d2_tau = MultiPoly.variable(rank, i + 1).scale(sysr.weight_lengths_sq[i])
        half_slope = sum((a.partial_derivative(j + 1) for j, a in enumerate(row)), d2_tau)
        b = half_slope.scale(2) * MultiPoly.constant(rank, NuLinear.of(0, 1)) - d2_tau
        out.append(MultiPoly(rank, {e: b.terms[e] for e in table_order(cv, b.terms)}))
    return out


def derive_operator(sysr: RootSystem) -> AlgebraicOperator:
    """A from first principles and each B its gauge, exact, for rank <= 2.

    See the module docstring.  Raises ValueError naming an A entry that
    needs a monomial above its weighted-degree bound.
    """
    if sysr.rank > 2:
        raise ValueError("derivation is limited to rank <= 2")
    rank, algebra = sysr.rank, _OrbitAlgebra(sysr)
    polys = {
        name: algebra.a_entry(name, i, j, bound)
        for name, i, j, bound in table_slots(algebra.cv)
        if j is not None
    }
    A = [[polys[f"A{min(i, j) + 1}{max(i, j) + 1}"] for j in range(rank)]
         for i in range(rank)]
    B = {f"B{i + 1}": b for i, b in enumerate(_gauge(sysr, A))}
    return build_operator(sysr, polys | B, "derived")
