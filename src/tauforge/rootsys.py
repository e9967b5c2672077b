"""Root systems, Weyl orbits, and weight geometry.

E7 is realized in 8 coordinates on the hyperplane x7 = -x8; the small
systems A1, A2, G2 live in their usual 2- and 3-coordinate ambient
spaces.  All vectors are exact (tuples of Fraction), so orbit
generation and dominance tests need no tolerances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable

Vec = tuple[Fraction, ...]

HALF = Fraction(1, 2)


def vec(*coords) -> Vec:
    return tuple(Fraction(c) for c in coords)


def vdot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c, v: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in v)


def reflect(v: Vec, root: Vec) -> Vec:
    """Reflection of v in the hyperplane orthogonal to root."""
    rr = vdot(root, root)
    if rr == 0:
        raise ValueError("cannot reflect in a zero root")
    return vsub(v, vscale(2 * vdot(v, root) / rr, root))


@dataclass(frozen=True)
class WeylOrbit:
    generator_weight: Vec
    elements: tuple[Vec, ...]
    size: int


@dataclass(frozen=True)
class DeformedWeylVector:
    # rho = nu * root_sum; only the nu-free sum is stored.
    root_sum: Vec
    rho_sq_over_nu_sq: Fraction


@dataclass(frozen=True)
class RootSystem:
    kind: str
    ambient_dim: int
    y_dim: int
    positive_roots: tuple[Vec, ...]
    simple_roots: tuple[Vec, ...]
    fundamental_weights: tuple[Vec, ...]
    weight_lengths_sq: tuple[Fraction, ...]
    metric_weights: tuple[Fraction, ...]
    has_minus_one: bool

    @property
    def rank(self) -> int:
        return len(self.fundamental_weights)

    def y_rep(self, v: Vec) -> Vec:
        """Coordinates of a hyperplane vector in the reduced y variables.

        For E7 the last coordinate is dropped (it is minus the seventh);
        the metric_weights make the reduced dot product agree with the
        ambient one.  Small systems are returned unchanged.
        """
        if self.y_dim == self.ambient_dim:
            return v
        if v[-1] != -v[-2]:
            raise ValueError(f"vector {v} is not in the x7 = -x8 hyperplane")
        return v[:-1]

    def dot_y(self, u: Vec, v: Vec) -> Fraction:
        """Weighted dot product of two y-representations."""
        return sum(
            (g * a * b for g, a, b in zip(self.metric_weights, u, v, strict=True)),
            Fraction(0),
        )


def _e7_positive_roots() -> list[Vec]:
    zero = Fraction(0)
    one = Fraction(1)
    roots: list[Vec] = []
    for i in range(1, 6):
        for j in range(i):
            for sj in (one, -one):
                r = [zero] * 8
                r[i] = one
                r[j] = sj
                roots.append(tuple(r))
    roots.append(vec(0, 0, 0, 0, 0, 0, 1, -1))
    for signs in product((HALF, -HALF), repeat=6):
        if sum(1 for s in signs if s > 0) % 2 == 1:
            roots.append(signs + (HALF, -HALF))
    return roots


def _project_weight(w: Vec) -> Vec:
    """Project onto the hyperplane orthogonal to e7 + e8."""
    direction = vec(0, 0, 0, 0, 0, 0, 1, 1)
    return vsub(w, vscale(vdot(w, direction) / 2, direction))


# Orbit generators of the seven E7 invariants, before projection.
_E7_TABLE_WEIGHTS = (
    vec(0, 0, 0, 0, 0, 1, -1, 0),
    vec(0, 0, 0, 0, 0, 0, -2, 0),
    (HALF, HALF, HALF, HALF, HALF, HALF, Fraction(-2), Fraction(0)),
    vec(0, 0, 0, 0, 1, 1, -2, 0),
    (-HALF, HALF, HALF, HALF, HALF, HALF, Fraction(-3), Fraction(0)),
    vec(0, 0, 0, 1, 1, 1, -3, 0),
    vec(0, 0, 1, 1, 1, 1, -4, 0),
)


def _dual_basis(weights: tuple[Vec, ...]) -> tuple[Vec, ...]:
    """Vectors g_b in span(weights) with w_a . g_b = delta_ab."""
    n = len(weights)
    gram = [[vdot(weights[a], weights[b]) for b in range(n)] for a in range(n)]
    inv = _mat_inv(gram)
    return tuple(
        tuple(
            sum((inv[b][c] * weights[c][k] for c in range(n)), Fraction(0))
            for k in range(len(weights[0]))
        )
        for b in range(n)
    )


def _mat_inv(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


@lru_cache(maxsize=None)
def build_system(kind: str) -> RootSystem:
    """Construct one of the supported root systems: E7, A1, A2, G2."""
    kind = kind.upper()
    if kind == "E7":
        roots = _e7_positive_roots()
        direction = vec(0, 0, 0, 0, 0, 0, 1, 1)
        assert len(roots) == 63
        assert all(vdot(r, r) == 2 for r in roots)
        assert all(vdot(r, direction) == 0 for r in roots)
        weights = tuple(_project_weight(w) for w in _E7_TABLE_WEIGHTS)
        simple = _dual_basis(weights)
        # Every dual-basis vector must itself be a root (up to sign),
        # which certifies that the table weights are a simultaneous
        # system of fundamental weights.
        root_set = set(roots) | {vscale(-1, r) for r in roots}
        assert all(g in root_set for g in simple)
        metric = (Fraction(1),) * 6 + (Fraction(2),)
        lengths = tuple(vdot(w, w) for w in weights)
        return RootSystem(
            kind="E7",
            ambient_dim=8,
            y_dim=7,
            positive_roots=tuple(roots),
            simple_roots=simple,
            fundamental_weights=weights,
            weight_lengths_sq=lengths,
            metric_weights=metric,
            has_minus_one=True,
        )
    if kind == "A1":
        root = vec(1, -1)
        w = (HALF, -HALF)
        return RootSystem(
            kind="A1",
            ambient_dim=2,
            y_dim=2,
            positive_roots=(root,),
            simple_roots=(root,),
            fundamental_weights=(w,),
            weight_lengths_sq=(vdot(w, w),),
            metric_weights=(Fraction(1), Fraction(1)),
            has_minus_one=True,
        )
    if kind == "A2":
        a1 = vec(1, -1, 0)
        a2 = vec(0, 1, -1)
        w1 = (Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3))
        w2 = (Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3))
        return RootSystem(
            kind="A2",
            ambient_dim=3,
            y_dim=3,
            positive_roots=(a1, a2, vadd(a1, a2)),
            simple_roots=(a1, a2),
            fundamental_weights=(w1, w2),
            weight_lengths_sq=(vdot(w1, w1), vdot(w2, w2)),
            metric_weights=(Fraction(1),) * 3,
            has_minus_one=False,
        )
    if kind == "G2":
        a1 = vec(1, -1, 0)
        a2 = vec(-1, 2, -1)
        positive = (
            a1,
            a2,
            vadd(a1, a2),
            vadd(vscale(2, a1), a2),
            vadd(vscale(3, a1), a2),
            vadd(vscale(3, a1), vscale(2, a2)),
        )
        w1 = vadd(vscale(2, a1), a2)
        w2 = vadd(vscale(3, a1), vscale(2, a2))
        return RootSystem(
            kind="G2",
            ambient_dim=3,
            y_dim=3,
            positive_roots=positive,
            simple_roots=(a1, a2),
            fundamental_weights=(w1, w2),
            weight_lengths_sq=(vdot(w1, w1), vdot(w2, w2)),
            metric_weights=(Fraction(1),) * 3,
            has_minus_one=True,
        )
    raise ValueError(f"unsupported root system kind: {kind}")


def _orbit_elements(weight: Vec, simple: tuple[Vec, ...]) -> list[Vec]:
    """Breadth-first closure of a weight under the simple reflections.

    Coordinates are rescaled to integers so set membership is cheap;
    the scale is the lcm of all coordinate denominators in play.
    """
    scale = math.lcm(*(c.denominator for v in (weight,) + simple for c in v))
    w0 = tuple(int(c * scale) for c in weight)
    gens = []
    for s in simple:
        si = tuple(int(c * scale) for c in s)
        gens.append((si, sum(x * x for x in si)))
    seen = {w0}
    frontier = [w0]
    while frontier:
        nxt = []
        for v in frontier:
            for s, ss in gens:
                num = 2 * sum(a * b for a, b in zip(v, s))
                m, rem = divmod(num, ss)
                assert rem == 0, "weight not in the lattice of the simple system"
                img = tuple(a - m * b for a, b in zip(v, s))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return [tuple(Fraction(c, scale) for c in v) for v in sorted(seen)]


@lru_cache(maxsize=None)
def _orbit_cached(kind: str, weight_index: int) -> WeylOrbit:
    sys = build_system(kind)
    w = sys.fundamental_weights[weight_index - 1]
    elems = _orbit_elements(w, sys.simple_roots)
    return WeylOrbit(generator_weight=w, elements=tuple(elems), size=len(elems))


def weyl_orbit(sys: RootSystem, weight_index: int) -> WeylOrbit:
    """Weyl orbit of the weight_index-th fundamental weight (1-based)."""
    if not 1 <= weight_index <= sys.rank:
        raise ValueError(f"weight index {weight_index} out of range 1..{sys.rank}")
    return _orbit_cached(sys.kind, weight_index)


def deformed_weyl_vector(sys: RootSystem) -> DeformedWeylVector:
    total = sys.positive_roots[0]
    for r in sys.positive_roots[1:]:
        total = vadd(total, r)
    return DeformedWeylVector(root_sum=total, rho_sq_over_nu_sq=vdot(total, total))


def dominant_representative(sys: RootSystem, v: Vec) -> Vec:
    """The unique orbit element pairing non-negatively with every simple root."""
    while True:
        for s in sys.simple_roots:
            if vdot(v, s) < 0:
                v = reflect(v, s)
                break
        else:
            return v


def simple_root_coords(sys: RootSystem, v: Vec) -> tuple[Fraction, ...]:
    """Coordinates of v (in the root span) over the simple-root basis."""
    inv = _simple_gram_inv(sys)
    rhs = [vdot(v, s) for s in sys.simple_roots]
    return tuple(
        sum((inv[a][b] * rhs[b] for b in range(sys.rank)), Fraction(0))
        for a in range(sys.rank)
    )


@lru_cache(maxsize=None)
def _simple_gram_inv(sys: RootSystem):
    gram = [[vdot(a, b) for b in sys.simple_roots] for a in sys.simple_roots]
    return _mat_inv(gram)


def dominance_leq(sys: RootSystem, mu: Vec, lam: Vec) -> bool:
    """True when lam - mu is a non-negative combination of simple roots."""
    diff = vsub(lam, mu)
    coords = simple_root_coords(sys, diff)
    if any(c < 0 for c in coords):
        return False
    # Reject vectors with a component off the root span.
    recon = (Fraction(0),) * sys.ambient_dim
    for c, s in zip(coords, sys.simple_roots):
        recon = vadd(recon, vscale(c, s))
    return recon == diff


@lru_cache(maxsize=None)
def integer_weight_coords(sys: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Simple-root coordinates of the fundamental weights, scaled to integers.

    Row a is D * simple_root_coords(w_a), where D > 0 is the common
    denominator of all rows (2 for E7).  The coordinates are linear, so
    sum q_a w_a <= sum p_a w_a in the dominance order exactly when
    sum q_a row_a <= sum p_a row_a componentwise: the same answer as
    dominance_leq, in integer arithmetic.
    """
    coords = []
    for w in sys.fundamental_weights:
        c = simple_root_coords(sys, w)
        recon = (Fraction(0),) * sys.ambient_dim
        for x, s in zip(c, sys.simple_roots):
            recon = vadd(recon, vscale(x, s))
        # dominance_leq rejects off-span differences; a weight off the
        # root span would make the integer test disagree with it
        if recon != w:
            raise ValueError(f"fundamental weight {w} is not in the root span")
        coords.append(c)
    scale = math.lcm(*(x.denominator for c in coords for x in c))
    return tuple(tuple(int(x * scale) for x in c) for c in coords)


def weight_exponents(sys: RootSystem, lam: Vec) -> tuple[int, ...]:
    """Exponents p with lam = sum p_a w_a.

    Raises if p is not in Z>=0^rank, or if lam has a component off the span
    of the fundamental weights (the coroot pairings cannot see it).
    """
    p = []
    for s in sys.simple_roots:
        c = 2 * vdot(lam, s) / vdot(s, s)
        if c.denominator != 1 or c < 0:
            raise ValueError(f"{lam} is not in the non-negative weight cone")
        p.append(int(c))
    rebuilt = (Fraction(0),) * len(lam)
    for pa, w in zip(p, sys.fundamental_weights):
        rebuilt = vadd(rebuilt, vscale(pa, w))
    if rebuilt != tuple(lam):
        raise ValueError(f"{lam} is not in the span of the fundamental weights")
    return tuple(p)


def highest_root(sys: RootSystem) -> Vec:
    """The unique root that is dominant for the chosen simple system."""
    candidates = []
    for r in sys.positive_roots:
        for cand in (r, vscale(-1, r)):
            if all(vdot(cand, s) >= 0 for s in sys.simple_roots):
                candidates.append(cand)
    # Dominant roots are the highest root and, for non-simply-laced
    # systems, the highest short root; take the dominance-maximal one.
    top = candidates[0]
    for c in candidates[1:]:
        if dominance_leq(sys, top, c):
            top = c
    return top


def characteristic_vector(sys: RootSystem) -> tuple[int, ...]:
    """Pairings of the fundamental weights with the highest coroot."""
    theta = highest_root(sys)
    tt = vdot(theta, theta)
    out = []
    for w in sys.fundamental_weights:
        p = 2 * vdot(w, theta) / tt
        assert p.denominator == 1 and p > 0
        out.append(int(p))
    return tuple(out)


def orbit_export_json(sys: RootSystem, weight_index: int) -> str:
    orbit = weyl_orbit(sys, weight_index)
    payload = {
        "system": sys.kind,
        "weight_index": weight_index,
        "size": orbit.size,
        "elements": [[str(c) for c in v] for v in orbit.elements],
    }
    return json.dumps(payload, sort_keys=True)
