"""Flatness of the contravariant metric defined by the A table.

The second-order part A_ij(tau) of the operator is a contravariant metric
on the invariant coordinates.  Its partial derivatives are polynomial and
taken exactly; only the inversion and the curvature assembly run in
floating arithmetic, so the Riemann residual measures truncation, not
formula error.  Points are always tau(y) images of clearance samples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from operator import attrgetter

import numpy as np
from mpmath import mp, mpc, mpf

from .exactpoly import (
    ZERO,
    MultiPoly,
    NuLinear,
    compile_poly,
    eval_compiled,
    product_powers,
    top_exponents,
)
from .operator import AlgebraicOperator, build_operator
from .oracle import (
    SamplePoint,
    _converter,
    _is_mp,
    _map_sample_points,
    _rejection_sample,
    hp_digits,
    tau_numeric,
)
from .rootsys import RootSystem, _read_only

COND_LIMIT = 1e14
# half-width of the box of flatness samples around the scaled chart center
SPREAD = 0.05


class SingularMetricError(ValueError):
    """A(tau) is numerically singular at the requested point."""


def chart_center(sysr: RootSystem, beta: float = 1.0) -> tuple:
    """The y giving every positive root the phase pi * height / h.

    det(dtau/dy) is proportional to the product of the positive-root
    sines, so the invariants chart degenerates near every reflection
    wall and near y = 0.  Solving for equal simple-root phases 2*pi/h
    (h the Coxeter number) keeps all sine factors at sin(pi/h) or more,
    which is the best-conditioned region the chart has.
    """
    simple = [sysr.y_rep(r) for r in sysr.simple_roots]
    h = 2 * len(sysr.positive_roots) / len(simple)
    mat = np.array([[float(c) for c in r] for r in simple])
    target = np.full(len(simple), 2 * np.pi / (float(beta) * h))
    y, *_ = np.linalg.lstsq(mat, target, rcond=None)
    return tuple(float(v) for v in y)


def flatness_sample_points(
    sysr: RootSystem,
    count: int,
    seed: int = 11,
    beta: float = 1.0,
    precision: str = "double",
    digits: int = hp_digits(),
) -> list[SamplePoint]:
    """Clearance samples jittered around the chart center.

    The small box used for table verification sits close to y = 0, where
    every jacobian row degenerates to a multiple of the same vector and
    A(tau(y)) is numerically rank one.  Curvature needs an invertible
    metric, so points are drawn around chart_center instead, and each
    frame records its condition number.  The radial factor in [0.8, 1]
    spreads the samples toward the region where the orbit sums are of
    genuine size while the chart is still invertible in double precision.
    Raises SamplingError after MAX_REJECTED_DRAWS rejections in a row.
    """
    center = np.array(chart_center(sysr, beta=beta))

    def draw(rng, accepted):
        # stratified radii: every run walks the full band from the center
        # down to the t = 0.8 shell instead of leaving coverage to chance
        radial = 1.0 - 0.2 * accepted / max(count - 1, 1)
        return radial * center + rng.uniform(-SPREAD, SPREAD, sysr.y_dim) / float(beta)

    return _rejection_sample(sysr, count, seed, float(beta), precision, digits, draw)


def with_coefficient(
    op: AlgebraicOperator, i: int, j: int, exponents, value
) -> AlgebraicOperator:
    """Copy of op with one monomial coefficient of A_ij (1-based) replaced.

    Used to inject single-coefficient faults when probing how sharply the
    flatness residual reacts to a wrong table entry.
    """
    exp = tuple(exponents)
    entry = op.A[i - 1][j - 1]
    old = entry.terms.get(exp, ZERO)
    if old.c1:
        raise ValueError("A entries are nu-free; refusing to perturb")
    delta = MultiPoly(op.rank, {exp: NuLinear(Fraction(value) - old.c0)})
    return build_operator(
        op.system, {f"A{i}{j}": entry + delta}, op.variant + "+fault", base=op
    )


def sabotaged(op: AlgebraicOperator) -> AlgebraicOperator:
    """The stock fault: A_11's tau_1^2 coefficient lowered by 1/2 (E7: -3/2 to -2)."""
    exp = (2,) + (0,) * (op.rank - 1)
    old = op.A[0][0].terms.get(exp, ZERO).c0
    return with_coefficient(op, 1, 1, exp, old - Fraction(1, 2))


@dataclass(frozen=True)
class MetricFrame:
    tau: tuple
    A: tuple
    A_inv: tuple
    cond: float
    christoffel: tuple | None = None


class _MetricPolys:
    """A and its first and second tau-derivatives, compiled once per operator.

    Coefficients are converted once by exactpoly.compile_poly, to float or
    to mpf at the current precision.  Entries with the same term list (A_ij
    and A_ji, mixed partials in either order, the many zero second
    derivatives) share one compiled form, so each distinct polynomial is
    evaluated once per point.
    The integer arrays A[i, j], dA[k, i, j] and d2A_distinct index the
    values returned by values(tau).
    """

    def __init__(self, op: AlgebraicOperator, hp: bool):
        r = op.rank
        self.terms: list = []
        index: dict = {}
        conv = _converter(hp)
        # A is nu-free, so compiling at nu = 0 adds an exact zero
        nu0 = mpf(0) if hp else 0.0

        def add(poly: MultiPoly) -> int:
            key = tuple(poly.terms.items())
            at = index.get(key)
            if at is None:
                at = index[key] = len(self.terms)
                self.terms.append(compile_poly(poly, conv, nu0))
            return at

        rr = range(r)
        self.A = np.array([[add(op.A[i][j]) for j in rr] for i in rr])
        dA = [[[op.A[i][j].partial_derivative(k + 1) for j in rr] for i in rr] for k in rr]
        self.dA = np.array([[[add(p) for p in row] for row in plane] for plane in dA])
        d2A = np.array([
            [[[add(dA[k][i][j].partial_derivative(l + 1)) for j in rr] for i in rr]
             for l in rr]
            for k in rr
        ]).reshape(r * r, r, r)
        # d2A_distinct holds each distinct matrix d2A[k][l] once (mixed
        # partials come in equal pairs); d2A_slot[k, l] is its position
        _, first, slot = np.unique(
            d2A.reshape(r * r, r * r), axis=0, return_index=True, return_inverse=True
        )
        self.d2A_distinct = d2A[first]
        self.d2A_slot = slot.reshape(r, r)
        self.top = top_exponents(self.terms, r)

    def values(self, tau) -> list:
        """Every compiled polynomial at tau, on repeated-product powers."""
        powers = product_powers(tau, self.top)
        return [eval_compiled(terms, powers, tau) for terms in self.terms]


def _invert(mat, hp: bool):
    if hp:
        m = mp.matrix(mat)
        try:
            inv = m**-1
        except ZeroDivisionError as exc:
            raise SingularMetricError(str(exc)) from exc
        n = m.rows
        cond = float(mp.mnorm(m, 1) * mp.mnorm(inv, 1))
        return [[inv[i, j] for j in range(n)] for i in range(n)], cond
    # complex for A2, whose orbit sums are complex at real y
    arr = np.array(mat)
    diag = np.abs(np.diag(arr))
    if not np.all(diag > 0):
        raise SingularMetricError("zero diagonal entry in A")
    # diagonal equilibration: the scaled condition number is what limits
    # the inversion accuracy, and it is far below the raw one when the
    # tau scales are uneven
    d = np.sqrt(diag)
    scaled = arr / d[:, None] / d[None, :]
    cond = float(np.linalg.cond(scaled))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMetricError(f"equilibrated condition number {cond:.3e}")
    inv = np.linalg.inv(scaled) / d[:, None] / d[None, :]
    return inv.tolist(), cond


# the exponent of every exact zero of an _HpArray: a sum aligns to its
# other operand, and 0 << n costs nothing
_ZERO_EXP = 1 << 40
_bit_length = np.frompyfunc(int.bit_length, 1, 1)


@lru_cache(maxsize=None)
def _round_by(width: int) -> tuple:
    """Object arrays over s < width of s, 2**(s-1) - 1 and 1, all 0 at s = 0.

    The constants of rounding off s bits; width is a power of two, so a
    process holds a few tables, the widest about twice a product's s.
    """
    s = range(width)
    return tuple(_read_only(np.array(list(t), dtype=object)) for t in (
        s, ((1 << k >> 1) - (k > 0) for k in s), (int(k > 0) for k in s)))


def _round(man, exp) -> tuple:
    """(man, exp) rounded to mp.prec bits, to nearest with ties to even.

    Rounding off s = bitlen(man) - prec > 0 bits gives (man + 2**(s-1) - 1
    + bit s of man) >> s; >> is a floor, so negative mantissas need no
    branch.  This is the value libmp's normalize rounds to.
    """
    bits = _bit_length(man).astype(np.int64)
    s = np.maximum(bits - mp.prec, 0)
    shift, half, odd = (t[s] for t in _round_by(1 << int(s.max(initial=0)).bit_length()))
    man = (man + half + ((man >> shift) & odd)) >> shift
    return man, np.where(bits == 0, _ZERO_EXP, exp + s)


def _add(a: tuple, b: tuple, sub: bool = False) -> tuple:
    """a + b (a - b with sub) of (man, exp) pairs, formed exactly, rounded once."""
    (ma, ea), (mb, eb) = a, b
    e = np.minimum(ea, eb)
    ma, mb = ma << (ea - e), mb << (eb - e)
    return _round(ma - mb if sub else ma + mb, e)


def _add_products(a: tuple, b: tuple, sub: bool = False) -> tuple:
    """_add of two exact products as libmp.mpf_add adds them in mpc_mul.

    When the normalized exponents differ by more than 100 and the smaller
    operand lies more than prec + 4 bits below the larger, libmp adds a
    sticky unit prec + 4 bits below the larger's last bit in its place.
    That is the nearest value for operands of at most prec bits, but an
    exact product has up to 2 prec, so the rule is kept here.
    """
    ops = [a, (-b[0], b[1]) if sub else b]
    nonzero = (ops[0][0] != 0) & (ops[1][0] != 0)
    ends = [e + _bit_length(m & -m).astype(np.int64) - 1 for m, e in ops]
    tops = [e + _bit_length(m).astype(np.int64) for m, e in ops]
    cut = mp.prec + 4
    for big, small in ((0, 1), (1, 0)):
        far = nonzero & (ends[big] - ends[small] > 100) & (tops[big] - tops[small] > cut)
        if far.any():
            m, e = ops[small]
            sign = (m > 0).astype(int) - (m < 0)
            ops[small] = np.where(far, sign, m).astype(object), np.where(far, ends[big] - cut, e)
    return _add(*ops)


class _HpArray:
    """An array of mpf values, or of mpc values, held exactly.

    `parts` holds one pair (man, exp) for mpf values and a real and an
    imaginary pair for mpc: a numpy object array of signed Python-int
    mantissas and an int64 array of exponents, value man * 2**exp; an exact
    zero has exponent _ZERO_EXP.  Every +, - and * forms its exact result
    and rounds it once at mp.prec, to nearest with ties to even, as
    libmp.mpf_add, mpf_sub and mpf_mul round, so each value keeps the bits
    of the mpf operators; a complex product rounds ac - bd and ad + bc once
    each, as libmp.mpc_mul does.  Negation and halving (0.5 * x) are
    exact.  Indexing, transposes and broadcasting act as in numpy.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        self.parts = parts

    @classmethod
    def of(cls, values, real: bool) -> "_HpArray":
        """The nested lists of mpf and mpc `values`, as mpc unless real.

        As with np.array, a list of _HpArray of one shape stacks them.
        """
        if isinstance(values[0], _HpArray):
            return cls(tuple((np.stack([v.parts[p][0] for v in values]),
                              np.stack([v.parts[p][1] for v in values]))
                             for p in range(len(values[0].parts))))
        values = np.array(values, dtype=object)
        parts = ("real",) if real else ("real", "imag")
        return cls(tuple(_split(np.frompyfunc(attrgetter(p), 1, 1)(values)) for p in parts))

    def _map(self, f) -> "_HpArray":
        return _HpArray(tuple((np.asarray(f(m)), np.asarray(f(e))) for m, e in self.parts))

    def __getitem__(self, key) -> "_HpArray":
        return self._map(lambda a: a[key])

    def transpose(self, *axes) -> "_HpArray":
        return self._map(lambda a: a.transpose(*axes))

    @property
    def T(self) -> "_HpArray":
        return self._map(lambda a: a.T)

    @property
    def shape(self) -> tuple:
        return self.parts[0][1].shape

    def __neg__(self) -> "_HpArray":
        return _HpArray(tuple((-m, e) for m, e in self.parts))

    def __add__(self, other: "_HpArray", sub: bool = False) -> "_HpArray":
        return _HpArray(tuple(_add(a, b, sub) for a, b in zip(self.parts, other.parts)))

    def __sub__(self, other: "_HpArray") -> "_HpArray":
        return self.__add__(other, sub=True)

    def __radd__(self, other) -> "_HpArray":
        if other != 0:
            return NotImplemented
        return self  # sum()'s start: adding an exact zero changes no value

    def __mul__(self, other: "_HpArray") -> "_HpArray":
        def exact(x, y):
            return x[0] * y[0], x[1] + y[1]

        if len(self.parts) == 1:
            return _HpArray((_round(*exact(self.parts[0], other.parts[0])),))
        (a, b), (c, d) = self.parts, other.parts
        return _HpArray((_add_products(exact(a, c), exact(b, d), sub=True),
                         _add_products(exact(a, d), exact(b, c))))

    def __rmul__(self, other) -> "_HpArray":
        if other != 0.5:
            return NotImplemented
        return _HpArray(tuple((m, e - 1) for m, e in self.parts))  # exact halving

    def values(self) -> np.ndarray:
        """An object array of the mpf or mpc values."""
        parts = [np.asarray(_mpf_of(m, e)) for m, e in self.parts]
        return parts[0] if len(parts) == 1 else np.asarray(_mpc_of(*parts))

    def tolist(self) -> list:
        return self.values().tolist()

    @property
    def flat(self):
        return self.values().flat


_mpf_of = np.frompyfunc(lambda man, exp: mpf((man, exp)), 2, 1)
_mpc_of = np.frompyfunc(mpc, 2, 1)


def _split(values: np.ndarray) -> tuple:
    """(man, exp) arrays of an object array of mpf values."""
    raw = [v._mpf_ for v in values.flat]
    man = np.array([-m if sign else m for sign, m, _, _ in raw], dtype=object)
    exp = np.array([e if m else _ZERO_EXP for _, m, e, _ in raw], dtype=np.int64)
    return man.reshape(values.shape), exp.reshape(values.shape)


def _mm(X, Y):
    """Matrix products over the last two axes, with numpy broadcasting.

    Each entry is 0 + X[i,0] Y[0,j] + X[i,1] Y[1,j] + ... in that order,
    the order of sum() over m, so every arithmetic gives the bits of the
    scalar loop.
    """
    return sum(X[..., :, m, None] * Y[..., None, m, :] for m in range(X.shape[-1]))


def _bracket(T):
    """out[j, k, m] = T[j, m, k] + T[k, m, j] - T[m, j, k]."""
    return (T.transpose(0, 2, 1) + T.transpose(2, 0, 1)) - T.transpose(1, 2, 0)


def _curvature(op: AlgebraicOperator, tau_point, metric: _MetricPolys | None = None):
    """(riemann_max_normalized, bianchi_max_normalized, frame).

    frame holds A, its inverse and condition number, and the Christoffel
    symbols at tau_point; SingularMetricError if A vanishes there or cannot
    be inverted.  `metric` is op compiled in the arithmetic of tau_point;
    pass it to reuse one compilation across points.  One body serves every
    arithmetic: doubles run on float64 arrays, or (A2) on arrays of Python
    complex, and mpf and mpc points on _HpArray, whose every operation
    rounds as the mpf and mpc operators do.  Every sum runs over m in order
    from zero, which keeps the bits of the scalar formulas in the comments.
    """
    r = op.rank
    tau = tuple(tau_point)
    hp = _is_mp(tau)
    if metric is None:
        metric = _MetricPolys(op, hp)
    vals = metric.values(tau)
    A = [[vals[x] for x in row] for row in metric.A]
    if all(all(abs(v) < 1e-12 for v in row) for row in A):
        raise SingularMetricError("metric vanishes at this point")
    A_inv, cond = _invert(A, hp)
    frame = MetricFrame(tau, tuple(map(tuple, A)), tuple(map(tuple, A_inv)), cond)
    real = all(isinstance(v, (float, mpf)) for v in vals)
    if hp:
        array = partial(_HpArray.of, real=real)
    else:
        array = partial(np.array, dtype=float if real else object)
    vals, g = array(vals), array(frame.A_inv)
    A, dA = vals[metric.A], vals[metric.dA]

    # dg[k] = -g dA[k] g
    gdA = _mm(g, dA)
    dg = -_mm(gdA, g)
    # Gamma^i_{jk} = 1/2 sum_m A^{im} bracket[j, k, m] with
    # bracket[j, k, m] = d_j g_{mk} + d_k g_{mj} - d_m g_{jk}
    bracket = _bracket(dg)
    gamma = 0.5 * sum(A[:, None, None, m] * bracket[None, :, :, m] for m in range(r))
    norm = 1 + max(map(abs, gamma.flat)) ** 2

    # g d2A g, once per distinct second-derivative matrix
    gd2Ag = _mm(_mm(g, vals[metric.d2A_distinct]), g)
    dgamma = []
    for l in range(r):
        # d2g[k] = d_l d_k g = -(dg[k] dA[l] g + g d2A[l, k] g + g dA[l] dg[k])
        d2g = -((_mm(_mm(dg, dA[l]), g) + gd2Ag[metric.d2A_slot[l]]) + _mm(gdA[l], dg))
        # dGamma[l, i, j, k] = d_l Gamma^i_{jk}
        #   = 1/2 sum_m (dA[l, i, m] bracket[j, k, m] + A[i, m] d_l bracket[j, k, m])
        dbracket = _bracket(d2g)
        dgamma.append(0.5 * sum(
            dA[l, :, None, None, m] * bracket[None, :, :, m]
            + A[:, None, None, m] * dbracket[None, :, :, m]
            for m in range(r)
        ))
    dgamma = array(dgamma)

    # R[i, j, p] = R^i_{jkl} for the p-th pair k < l:
    #   dGamma[k, i, l, j] - dGamma[l, i, k, j]
    #   + sum_m (Gamma^i_{km} Gamma^m_{lj} - Gamma^i_{lm} Gamma^m_{kj}).
    # Swapping k and l negates every rounded term (rounding to nearest is
    # symmetric), so R^i_{jlk} is exactly -R^i_{jkl} and R^i_{jkk} zero
    k, l = np.array(list(combinations(range(r), 2)), dtype=int).reshape(-1, 2).T
    R = (dgamma[k, :, l].transpose(1, 2, 0) - dgamma[l, :, k].transpose(1, 2, 0)) + sum(
        gamma[:, None, k, m] * gamma[m, l].T[None] - gamma[:, None, l, m] * gamma[m, k].T[None]
        for m in range(r)
    )
    # the first Bianchi identity R^i_{jkl} + R^i_{klj} + R^i_{ljk} = 0 for
    # j < k < l, with R^i_{klj} = -R^i_{kjl}
    pair = np.zeros((r, r), dtype=int)
    pair[k, l] = range(len(k))
    j, k, l = np.array(list(combinations(range(r), 3)), dtype=int).reshape(-1, 3).T
    bianchi = (R[:, j, pair[k, l]] - R[:, k, pair[j, l]]) + R[:, l, pair[j, k]]
    riemann_max, bianchi_max = (max(map(abs, x.flat), default=0.0) for x in (R, bianchi))
    return (
        float(riemann_max / norm),
        float(bianchi_max / norm),
        replace(frame, christoffel=tuple(tuple(map(tuple, plane)) for plane in gamma.tolist())),
    )


def hp_tol(digits: int) -> float:
    """The default hp flatness tolerance at `digits` working digits.

    A flat E7 metric's hp residual is about 10^(8 - digits) at the worst
    default sample (cond(A) ~ 2e11), so the tolerance is 10^(20 - digits),
    twelve orders above it, held between 1e-30 (50 digits and above) and
    double's 1e-6 (26 digits and below).
    """
    return float(f"1e-{min(30, max(6, digits - 20))}")


def flatness_report(
    op: AlgebraicOperator,
    points: int = 10,
    seed: int = 11,
    beta: float = 1.0,
    precision: str = "double",
    tol: float | None = None,
    digits: int = hp_digits(),
) -> dict:
    """Riemann residuals at tau(y) images of chart-centered samples.

    hp points are rounded at `digits` and run at `digits`.  A large
    system's hp points, and its double points from
    oracle.FORK_MIN_DOUBLE_POINTS points on, run on every CPU (see
    oracle._map_sample_points).  The default tol is 1e-6 in double and
    hp_tol(digits) at hp.
    """
    if tol is None:
        tol = 1e-6 if precision == "double" else hp_tol(digits)
    sysr = op.system
    pts = flatness_sample_points(
        sysr, points, seed=seed, beta=beta, precision=precision, digits=digits,
    )
    hp = precision == "hp"
    dps = digits if hp else mp.dps
    with mp.workdps(dps):
        metric = _MetricPolys(op, hp)

    def point_row(pt) -> tuple:
        """(cond, riemann, bianchi) at the tau image of pt."""
        with mp.workdps(dps):
            tau = tau_numeric(sysr, pt)
            r, b, frame = _curvature(op, tau, metric)
        return frame.cond, r, b

    rows = []
    worst = 0.0
    per_point = _map_sample_points(point_row, sysr, pts)
    for idx, (cond, r, b) in enumerate(per_point):
        rows.append(
            {
                "index": idx,
                "cond": cond,
                "riemann_max_normalized": r,
                "bianchi_max_normalized": b,
            }
        )
        worst = max(worst, r)
    return {
        "schema": "tauforge.flatness/1",
        "system": sysr.kind,
        "variant": op.variant,
        "precision": precision,
        "seed": seed,
        "beta": beta,
        "points": rows,
        "max_riemann_normalized": worst,
        "tol": tol,
        "all_pass": worst < tol,
    }
