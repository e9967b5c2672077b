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
from itertools import chain, combinations, repeat

import numpy as np
from mpmath import mp, mpc, mpf
from mpmath import libmp

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
from .rootsys import RootSystem

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


def _mm(X, Y):
    """Matrix products over the last two axes, with numpy broadcasting.

    Each entry is 0 + X[i,0] Y[0,j] + X[i,1] Y[1,j] + ... in that order,
    the order of sum() over m, so float64 and complex arrays give the bits
    of the scalar loop.
    """
    return sum(X[..., :, m, None] * Y[..., None, m, :] for m in range(X.shape[-1]))


def _bracket(T):
    """out[j, k, m] = T[j, m, k] + T[k, m, j] - T[m, j, k]."""
    return (T.transpose(0, 2, 1) + T.transpose(2, 0, 1)) - T.transpose(1, 2, 0)


def _curvature_mp(metric: _MetricPolys, vals: list, frame: MetricFrame) -> tuple:
    """_curvature on nested lists of _mpf_ tuples, or of _mpc_ pairs for A2.

    They are combined by the functions the mpf and mpc operators call, at
    the context's precision and rounding, each sum over m from zero as in
    _curvature, so every value keeps its bits.  Products with an exact-zero
    factor are skipped, and so is the first addition to zero: adding an
    exact zero returns a value rounded at prec unchanged.
    """
    cplx = any(isinstance(v, mpc) for v in chain(vals, *frame.A_inv))
    ops = ("mul", "add", "sub", "neg", "shift")  # libmp.mpf_mul or libmp.mpc_mul, ...
    mul, add, sub, neg, shift = (getattr(libmp, ("mpc_" if cplx else "mpf_") + f) for f in ops)
    prec, rnd = mp._prec_rounding  # what the mpf and mpc operators read
    zero, wrap = ((libmp.fzero,) * 2, mp.make_mpc) if cplx else (libmp.fzero, mp.make_mpf)
    R = range(len(frame.A_inv))

    def raw(v):
        return v._mpc_ if isinstance(v, mpc) else (v._mpf_, libmp.fzero) if cplx else v._mpf_

    def total(terms):
        acc = zero
        for t in terms:
            acc = t if acc == zero else add(acc, t, prec, rnd)
        return acc

    def dot(xs, ys):
        return total(mul(x, y, prec, rnd) for x, y in zip(xs, ys) if x != zero != y)

    def mm(X, Y):
        cols = list(zip(*Y))
        return [[dot(row, col) for col in cols] for row in X]

    def bracket(T):  # out[j][k][m] = T[j][m][k] + T[k][m][j] - T[m][j][k]
        return [[[sub(add(T[j][m][k], T[k][m][j], prec, rnd), T[m][j][k], prec, rnd)
                  for m in R] for k in R] for j in R]

    def largest(values):
        return max(chain((mpf(0),), map(abs, map(wrap, values))))

    vals = [raw(v) for v in vals]
    A = [[vals[x] for x in row] for row in metric.A.tolist()]
    dA, d2A = ([[[vals[x] for x in row] for row in m] for m in index.tolist()]
               for index in (metric.dA, metric.d2A_distinct))
    g = [[raw(v) for v in row] for row in frame.A_inv]
    gdA = [mm(g, m) for m in dA]
    dg = [[[neg(v) for v in row] for row in mm(m, g)] for m in gdA]
    br = bracket(dg)
    gamma = [[[shift(dot(Ai, b), -1) for b in brj] for brj in br] for Ai in A]
    norm = 1 + largest(chain.from_iterable(chain.from_iterable(gamma))) ** 2
    gd2Ag = [mm(mm(g, m), g) for m in d2A]
    dgamma = []
    for l, slots in enumerate(metric.d2A_slot.tolist()):
        dbr = bracket([
            [[neg(add(add(a, b, prec, rnd), c, prec, rnd)) for a, b, c in zip(*rows)]
             for rows in zip(mm(mm(dg[k], dA[l]), g), gd2Ag[slot], mm(gdA[l], dg[k]))]
            for k, slot in enumerate(slots)
        ])
        # each m term dA[l, i, m] br[j, k, m] + A[i, m] dbr[j, k, m] is summed first
        dgamma.append([[[shift(total(
            add(mul(x, y, prec, rnd), mul(u, v, prec, rnd), prec, rnd) if x != zero != y
            else mul(u, v, prec, rnd) for x, y, u, v in zip(dAli, brj[k], Ai, dbrj[k])
        ), -1) for k in R] for brj, dbrj in zip(br, dbr)] for dAli, Ai in zip(dA[l], A)])

    # R^i_{jkl} is computed for k < l only: swapping k and l negates every
    # rounded term of its formula (rounding to nearest is symmetric), so
    # R^i_{jlk} is exactly neg(R^i_{jkl}) and R^i_{jkk} exactly zero
    pairs = list(combinations(R, 2))
    riemann, bianchi = [], []
    for i, Gi in enumerate(gamma):
        Ri = []
        for j in R:
            # P[k][l][m] = Gamma^i_{km} Gamma^m_{lj}; the second product of
            # the quadratic term, Gamma^i_{lm} Gamma^m_{kj}, is P[l][k][m]
            P = [[[mul(x, gamma[m][l][j], prec, rnd) for m, x in enumerate(Gik)]
                  if l != k else None for l in R] for k, Gik in enumerate(Gi)]
            Rij = [[zero] * len(R) for _ in R]
            for k, l in pairs:
                Rij[k][l] = add(sub(dgamma[k][i][l][j], dgamma[l][i][k][j], prec, rnd),
                                total(map(sub, P[k][l], P[l][k], repeat(prec), repeat(rnd))),
                                prec, rnd)
                Rij[l][k] = neg(Rij[k][l])
                riemann.append(Rij[k][l])
            Ri.append(Rij)
        bianchi.extend(add(add(Ri[j][k][l], Ri[k][l][j], prec, rnd), Ri[l][j][k], prec, rnd)
                       for j, k, l in combinations(R, 3))
    riemann_max, bianchi_max = largest(riemann), largest(bianchi)
    frame = replace(frame, christoffel=tuple(tuple(tuple(map(wrap, r)) for r in p) for p in gamma))
    return float(riemann_max / norm), float(bianchi_max / norm), frame


def _curvature(op: AlgebraicOperator, tau_point, metric: _MetricPolys | None = None):
    """(riemann_max_normalized, bianchi_max_normalized, frame).

    frame holds A, its inverse and condition number, and the Christoffel
    symbols at tau_point; SingularMetricError if A vanishes there or cannot
    be inverted.  `metric` is op compiled in the arithmetic of tau_point;
    pass it to reuse one compilation across points.  mpf and mpc points go
    to _curvature_mp; doubles run on numpy arrays, float64 or (A2) complex
    objects.  Every sum runs over m in order from zero, which keeps the
    bits of the scalar formulas in the comments.
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
    if hp:
        return _curvature_mp(metric, vals, frame)
    dtype = float if all(isinstance(v, float) for v in vals) else object
    vals = np.array(vals, dtype=dtype)
    A, dA = vals[metric.A], vals[metric.dA]
    g = np.array(frame.A_inv, dtype=dtype)

    # dg[k] = -g dA[k] g
    gdA = _mm(g, dA)
    dg = -_mm(gdA, g)
    # Gamma^i_{jk} = 1/2 sum_m A^{im} bracket[j, k, m] with
    # bracket[j, k, m] = d_j g_{mk} + d_k g_{mj} - d_m g_{jk}
    bracket = _bracket(dg)
    gamma = 0.5 * sum(A[:, None, None, m] * bracket[None, :, :, m] for m in range(r))
    norm = 1 + max(abs(v) for v in gamma.flat) ** 2

    # g d2A g, once per distinct second-derivative matrix
    gd2Ag = _mm(_mm(g, vals[metric.d2A_distinct]), g)
    dgamma = []
    for l in range(r):
        # d2g[l, k] = d_l d_k g = -(dg[k] dA[l] g + g d2A[l, k] g + g dA[l] dg[k])
        t1 = _mm(_mm(dg, dA[l]), g)
        t3 = _mm(gdA[l], dg)
        d2g = -((t1 + gd2Ag[metric.d2A_slot[l]]) + t3)
        # dGamma[l, i, j, k] = d_l Gamma^i_{jk}
        #   = 1/2 sum_m (dA[l, i, m] bracket[j, k, m] + A[i, m] d_l bracket[j, k, m])
        dbracket = _bracket(d2g)
        dgamma.append(0.5 * sum(
            dA[l, :, None, None, m] * bracket[None, :, :, m]
            + A[:, None, None, m] * dbracket[None, :, :, m]
            for m in range(r)
        ))
    dgamma = np.array(dgamma, dtype=dtype)

    # R^i_{jkl} = dGamma[k, i, l, j] - dGamma[l, i, k, j]
    #   + sum_m (Gamma^i_{km} Gamma^m_{lj} - Gamma^i_{lm} Gamma^m_{kj}),
    # one i at a time; the first Bianchi identity R^i_{jkl} + R^i_{klj}
    # + R^i_{ljk} = 0 is checked for j < k < l
    j, k, l = np.array(list(combinations(range(r), 3)), dtype=int).reshape(-1, 3).T
    riemann_max = bianchi_max = 0.0
    for i in range(r):
        acc = sum(
            gamma[i, None, :, None, m] * gamma[m].T[:, None, :]
            - gamma[i, None, None, :, m] * gamma[m].T[:, :, None]
            for m in range(r)
        )
        d = dgamma[:, i]
        R = (d.transpose(2, 0, 1) - d.transpose(2, 1, 0)) + acc
        riemann_max = max(chain((riemann_max,), np.abs(R).flat))
        bianchi = (R[j, k, l] + R[k, l, j]) + R[l, j, k]
        bianchi_max = max(chain((bianchi_max,), np.abs(bianchi).flat))
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
