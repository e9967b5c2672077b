"""Root systems, Weyl orbits, and weight geometry.

E7 is realized in 8 coordinates on the hyperplane x7 = -x8; the small
systems A1, A2, G2 live in their usual 2- and 3-coordinate ambient
spaces.  Roots and weights are exact (tuples of Fraction), so dominance
tests need no tolerances.  All of a system's Weyl orbits are walked at
once in int64 layers of Dynkin labels, and each is kept as one read-only
integer array.  numpy is imported only where an array is built, so the
exact algebra (systems, dominance, characteristic vectors) runs without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

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


def vcombo(coeffs, vecs: tuple[Vec, ...]) -> Vec:
    """sum_i coeffs[i] vecs[i], exact."""
    return tuple(sum((c * v[k] for c, v in zip(coeffs, vecs)), Fraction(0))
                 for k in range(len(vecs[0])))


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only: cached arrays are shared by every later caller."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class WeylOrbit:
    """A Weyl orbit as one integer array.

    Row r of `ints` is element r in the y coordinates times `scale`; rows
    are sorted.
    """

    generator_weight: Vec
    scale: int
    ints: np.ndarray

    @property
    def size(self) -> int:
        return len(self.ints)


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

    @cached_property
    def root_halves(self) -> np.ndarray:
        """|alpha|^2 / 2 per positive root: 1 if simply laced, 1 or 3 on G2.

        Small integers, so these doubles are exact at any precision.
        """
        import numpy as np

        return _read_only(np.array([float(vdot(r, r) / 2) for r in self.positive_roots]))

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


def _labels(v: Vec, simple: tuple[Vec, ...]) -> list[Fraction]:
    """Dynkin labels 2 (v, alpha_i) / (alpha_i, alpha_i) of v."""
    return [2 * vdot(v, s) / vdot(s, s) for s in simple]


def _orbit_walk(weights: tuple[Vec, ...], simple: tuple[Vec, ...], rep) -> tuple[int, list]:
    """(scale, per weight its orbit's rows): row r is scale * rep(element r), sorted.

    scale is the lcm of the denominators of every rep(weight) and rep(alpha_i).
    All orbits walk together, a layer at a time, as int64 rows (orbit, Dynkin
    labels l, scale * rep(element)); s_i subtracts l_i times (0, the labels of
    alpha_i, scale * rep(alpha_i)).  From the dominant element the walk applies
    s_i only where l_i > 0, which lowers it, so a layer needs deduplicating only
    within itself; exact mixed-radix codes of (orbit, coordinates) do that, and
    at the end put each orbit's rows in lexicographic order.
    """
    import numpy as np

    vecs = [rep(w) for w in weights] + [rep(s) for s in simple]
    scale = math.lcm(*(c.denominator for v in vecs for c in v))
    rank = len(simple)
    steps = [[int(c) for c in _labels(a, simple)] + [int(c * scale) for c in rep(a)]
             for a in simple]
    starts = []
    for k, weight in enumerate(weights):
        labels = _labels(weight, simple)
        assert all(c.denominator == 1 for c in labels), "weight not in the weight lattice"
        row = tuple(int(c) for c in labels) + tuple(int(c * scale) for c in rep(weight))
        while neg := [i for i in range(rank) if row[i] < 0]:
            row = tuple([x - row[neg[0]] * s for x, s in zip(row, steps[neg[0]])])
        starts.append((k,) + row)
    step = np.array([[0] + s for s in steps], dtype=np.int64)
    layer, layers = np.array(starts, dtype=np.int64), []
    while len(layer):
        layers.append(layer := layer[_sorted_firsts(layer[:, rank + 1:], layer[:, 0])])
        live = [(i, layer[layer[:, i + 1] > 0]) for i in range(rank)]
        layer = np.concatenate([m - m[:, [i + 1]] * step[i] for i, m in live])
    # sorted one orbit at a time: freeing one array of every row would raise
    # glibc's mmap threshold above any later temporary and the process peak
    orbits = []
    for k in range(len(weights)):
        rows = np.concatenate([m[m[:, 0] == k, rank + 1:] for m in layers])
        orbits.append(rows[_sorted_firsts(rows)])
    return scale, orbits


def _sorted_firsts(coords: np.ndarray, orbit=0) -> np.ndarray:
    """Index of each distinct (orbit, coordinates) row, in lexicographic order."""
    import numpy as np

    bound = int(np.abs(coords).max())
    radix, dim = 2 * bound + 1, coords.shape[1]
    if (int(np.max(orbit)) + 1) * radix**dim >= 2**63:
        raise ValueError("orbit rows too large for int64 codes")
    code = orbit * radix**dim + (bound + coords) @ radix ** np.arange(dim - 1, -1, -1)
    return np.unique(code, return_index=True)[1]


@lru_cache(maxsize=None)
def _orbits(kind: str) -> tuple[WeylOrbit, ...]:
    sys = build_system(kind)
    weights = sys.fundamental_weights
    scale, rows = _orbit_walk(weights, sys.simple_roots, sys.y_rep)
    return tuple(WeylOrbit(w, scale, _read_only(m)) for w, m in zip(weights, rows))


def weyl_orbit(sys: RootSystem, weight_index: int) -> WeylOrbit:
    """Weyl orbit of the weight_index-th fundamental weight (1-based)."""
    if not 1 <= weight_index <= sys.rank:
        raise ValueError(f"weight index {weight_index} out of range 1..{sys.rank}")
    return _orbits(sys.kind)[weight_index - 1]


@lru_cache(maxsize=None)
def orbit_rows(kind: str) -> tuple[int, tuple]:
    """(scale, per orbit its integer rows u): the y vectors are u / scale."""
    sys = build_system(kind)
    orbits = [weyl_orbit(sys, a + 1) for a in range(sys.rank)]
    # every orbit of a supported system has the same scale (2 for E7)
    (scale,) = {o.scale for o in orbits}
    return scale, tuple(o.ints for o in orbits)


def deformed_weyl_vector(sys: RootSystem) -> DeformedWeylVector:
    total = vcombo([1] * len(sys.positive_roots), sys.positive_roots)
    return DeformedWeylVector(root_sum=total, rho_sq_over_nu_sq=vdot(total, total))


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
    # the second test rejects vectors with a component off the root span
    return all(c >= 0 for c in coords) and vcombo(coords, sys.simple_roots) == diff


@lru_cache(maxsize=None)
def integer_weight_coords(sys: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Simple-root coordinates of the fundamental weights, scaled to integers.

    Row a is D * simple_root_coords(w_a), where D > 0 is the common
    denominator of all rows (2 for E7).  The coordinates are linear, so
    sum q_a w_a <= sum p_a w_a in the dominance order exactly when
    sum q_a row_a <= sum p_a row_a componentwise: the same answer as
    dominance_leq, in integer arithmetic.
    """
    coords = [simple_root_coords(sys, w) for w in sys.fundamental_weights]
    for c, w in zip(coords, sys.fundamental_weights):
        # dominance_leq rejects off-span differences; a weight off the
        # root span would make the integer test disagree with it
        if vcombo(c, sys.simple_roots) != w:
            raise ValueError(f"fundamental weight {w} is not in the root span")
    scale = math.lcm(*(x.denominator for c in coords for x in c))
    return tuple(tuple(int(x * scale) for x in c) for c in coords)


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


@lru_cache(maxsize=None)
def characteristic_vector(sys: RootSystem) -> tuple[int, ...]:
    """Pairings of the fundamental weights with the highest coroot."""
    theta = highest_root(sys)
    out = [_labels(w, (theta,))[0] for w in sys.fundamental_weights]
    assert all(p.denominator == 1 and p > 0 for p in out)
    return tuple(int(p) for p in out)
