"""Root systems, Weyl orbits, and weight geometry.

E7 is realized in 8 coordinates on the hyperplane x7 = -x8; the small
systems A1, A2, G2 live in their usual 2- and 3-coordinate ambient
spaces.  Each system is built once in integers (`IntegerRoots`: roots
and weights times 2 for E7, 3 for A2, in the y coordinates), where E7's
certification and simple roots, the highest root, the characteristic
vector and the integer weight coordinates are computed, so dominance
tests need no tolerances.  The `RootSystem` fields hold the same vectors
as exact tuples of Fraction; `dominance_leq` and `simple_root_coords`
compute on those and are the tests' references.  All of a system's
Weyl orbits are walked at once in int64 layers of Dynkin labels, and
each is kept as one read-only integer array.  numpy is imported only
where an array is built, so the exact algebra runs without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

Vec = tuple[Fraction, ...]
Row = tuple[int, ...]


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


def _solve(m: list[list[int]], rhs: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(d, x) with m x = d rhs and d = |det m| > 0, for a nonsingular integer m,
    by fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968):
    each division by the previous pivot is exact, so x is an integer matrix."""
    n = len(m)
    a = [list(r) + list(b) for r, b in zip(m, rhs)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            raise ValueError("singular Gram matrix")
        a[k], a[piv] = a[piv], a[k]
        p = a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = p
    sign = 1 if prev > 0 else -1
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


@dataclass(frozen=True)
class IntegerRoots:
    """A system's roots and weights in the y coordinates times `scale`, as
    ints, the orbit rows' scale; `dot` is scale^2 times the exact pairing."""

    scale: int
    metric: Row
    positive_roots: tuple[Row, ...]
    simple_roots: tuple[Row, ...]
    weights: tuple[Row, ...]

    def dot(self, u: Row, v: Row) -> int:
        return sum(g * a * b for g, a, b in zip(self.metric, u, v))

    @cached_property
    def norms(self) -> Row:
        return tuple(self.dot(s, s) for s in self.simple_roots)

    def labels(self, u: Row) -> Row:
        """Dynkin labels 2 (u, alpha_i) / (alpha_i, alpha_i) of a weight-lattice row u."""
        return tuple(2 * self.dot(u, s) // n for s, n in zip(self.simple_roots, self.norms))

    @cached_property
    def highest_root(self) -> tuple[int, int]:
        """(sign, k): sign times positive root k is the highest root, the
        longest dominant root (G2's other one is the highest short root)."""
        return max(
            ((sign, k) for k, r in enumerate(self.positive_roots) for sign in (1, -1)
             if all(sign * self.dot(r, s) >= 0 for s in self.simple_roots)),
            key=lambda c: self.dot(self.positive_roots[c[1]], self.positive_roots[c[1]]),
        )


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
    # the same roots and weights in integers, where the exact algebra runs
    ints: IntegerRoots = field(compare=False, repr=False)

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


def _e7_positive_roots() -> list[Row]:
    """The 63 positive roots of E7 in the 8 ambient coordinates, times 2."""
    roots = [tuple(2 * (k == i) + 2 * s * (k == j) for k in range(8))
             for i in range(1, 6) for j in range(i) for s in (1, -1)]
    roots.append((0, 0, 0, 0, 0, 0, 2, -2))
    return roots + [s + (1, -1) for s in product((1, -1), repeat=6) if s.count(1) % 2]


def _project_weight(w: Row) -> Row:
    """w projected onto the hyperplane orthogonal to e7 + e8, both times 2."""
    half, odd = divmod(w[6] - w[7], 2)
    if odd:
        raise ValueError(f"table weight {w} projects off the half-integer lattice")
    return w[:6] + (half, -half)


# Orbit generators of the seven E7 invariants, before projection, times 2.
_E7_TABLE_WEIGHTS = (
    (0, 0, 0, 0, 0, 2, -2, 0),
    (0, 0, 0, 0, 0, 0, -4, 0),
    (1, 1, 1, 1, 1, 1, -4, 0),
    (0, 0, 0, 0, 2, 2, -4, 0),
    (-1, 1, 1, 1, 1, 1, -6, 0),
    (0, 0, 0, 2, 2, 2, -6, 0),
    (0, 0, 2, 2, 2, 2, -8, 0),
)


def _e7() -> RootSystem:
    """E7 from its roots and table weights, in integers times 2, certified."""
    roots = _e7_positive_roots()
    if len(roots) != 63:
        raise ValueError(f"E7 needs 63 positive roots, got {len(roots)}")
    if any(sum(c * c for c in r) != 8 for r in roots):
        raise ValueError("an E7 root does not have length^2 2")
    if any(r[6] + r[7] for r in roots):
        raise ValueError("an E7 root is off the x7 = -x8 hyperplane")
    weights = [_project_weight(w) for w in _E7_TABLE_WEIGHTS]
    # The dual basis g_b of the weights, w_a . g_b = delta_ab, times 2 is
    # 4 M^-1 W, M the Gram matrix of the rows W of the doubled weights.
    # Every g_b must itself be a root (up to sign), which certifies that
    # the table weights are a simultaneous system of fundamental weights.
    gram = [[sum(a * b for a, b in zip(u, v)) for v in weights] for u in weights]
    d, dual = _solve(gram, [[4 * c for c in w] for w in weights])
    simple = [tuple(c // d for c in g) for g in dual]
    root_set = set(roots) | {tuple(-c for c in r) for r in roots}
    if any(c % d for g in dual for c in g) or not root_set.issuperset(simple):
        raise ValueError("the E7 table weights are not a system of fundamental weights")
    return _system("E7", 2, roots, simple, weights, True, metric=(1,) * 6 + (2,))


def _system(kind, scale, roots, simple, weights, has_minus_one, metric=None) -> RootSystem:
    """The RootSystem of these integer ambient rows over scale; the y
    coordinates are the first len(metric) of them, all if metric is None."""
    y_dim = len(metric) if metric else len(roots[0])
    ints = IntegerRoots(scale, metric or (1,) * y_dim,
                        *(tuple(v[:y_dim] for v in rows) for rows in (roots, simple, weights)))

    def exact(rows):
        return tuple(tuple(Fraction(c, scale) for c in v) for v in rows)

    return RootSystem(
        kind=kind,
        ambient_dim=len(roots[0]),
        y_dim=y_dim,
        positive_roots=exact(roots),
        simple_roots=exact(simple),
        fundamental_weights=exact(weights),
        weight_lengths_sq=tuple(Fraction(ints.dot(w, w), scale**2) for w in ints.weights),
        metric_weights=tuple(map(Fraction, ints.metric)),
        has_minus_one=has_minus_one,
        ints=ints,
    )


def _combos(a1: Row, a2: Row, pairs) -> list[Row]:
    """p a1 + q a2 for each (p, q) in pairs."""
    return [tuple(p * x + q * y for x, y in zip(a1, a2)) for p, q in pairs]


@lru_cache(maxsize=None)
def build_system(kind: str) -> RootSystem:
    """Construct one of the supported root systems: E7, A1, A2, G2."""
    kind = kind.upper()
    if kind == "E7":
        return _e7()
    if kind == "A1":
        # times 2: the weight is (1/2, -1/2)
        return _system("A1", 2, [(2, -2)], [(2, -2)], [(1, -1)], True)
    if kind == "A2":
        # times 3: the weights are (2, -1, -1) / 3 and (1, 1, -2) / 3
        a1, a2 = (3, -3, 0), (0, 3, -3)
        return _system("A2", 3, _combos(a1, a2, [(1, 0), (0, 1), (1, 1)]), [a1, a2],
                       [(2, -1, -1), (1, 1, -2)], False)
    if kind == "G2":
        a1, a2 = (1, -1, 0), (-1, 2, -1)
        positive = _combos(a1, a2, [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)])
        return _system("G2", 1, positive, [a1, a2], _combos(a1, a2, [(2, 1), (3, 2)]), True)
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
        if any(c.denominator != 1 for c in labels):
            raise ValueError(f"weight {weight} is not in the weight lattice")
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
    dominance_leq, in integer arithmetic.  Solved on sys.ints, as d times
    the coordinates over their common divisor with d.
    """
    ints = sys.ints
    simple = ints.simple_roots
    gram = [[ints.dot(a, b) for b in simple] for a in simple]
    d, cols = _solve(gram, [[ints.dot(w, s) for w in ints.weights] for s in simple])
    rows = list(zip(*cols))
    for row, w, exact in zip(rows, ints.weights, sys.fundamental_weights):
        # dominance_leq rejects off-span differences; a weight off the
        # root span would make the integer test disagree with it
        if [sum(map(math.prod, zip(row, c))) for c in zip(*simple)] != [d * x for x in w]:
            raise ValueError(f"fundamental weight {exact} is not in the root span")
    g = math.gcd(d, *(x for row in rows for x in row))
    return tuple(tuple(x // g for x in row) for row in rows)


def highest_root(sys: RootSystem) -> Vec:
    """The unique root that is dominant for the chosen simple system."""
    sign, k = sys.ints.highest_root
    return vscale(sign, sys.positive_roots[k])


@lru_cache(maxsize=None)
def characteristic_vector(sys: RootSystem) -> tuple[int, ...]:
    """Pairings of the fundamental weights with the highest coroot."""
    ints = sys.ints
    sign, k = ints.highest_root
    theta = tuple(sign * c for c in ints.positive_roots[k])
    out = [divmod(2 * ints.dot(w, theta), ints.dot(theta, theta)) for w in ints.weights]
    if any(r or q <= 0 for q, r in out):
        raise ValueError(f"{sys.kind}: a weight's pairing with the highest coroot "
                         "is not a positive integer")
    return tuple(q for q, _ in out)
