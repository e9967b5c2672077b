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
from itertools import chain, combinations

import numpy as np
from mpmath import mp, mpc, mpf

from .exactpoly import MultiPoly
from .operator import AlgebraicOperator
from .oracle import (
    SamplePoint,
    _compile_poly,
    _rejection_sample,
    hp_digits,
    tau_numeric,
)
from .rootsys import RootSystem

COND_LIMIT = 1e14


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
    spread: float = 0.05,
    precision: str = "double",
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
        return radial * center + rng.uniform(-spread, spread, sysr.y_dim) / float(beta)

    return _rejection_sample(sysr, count, seed, float(beta), 0.0, precision, draw)


def with_coefficient(
    op: AlgebraicOperator, i: int, j: int, exponents, value
) -> AlgebraicOperator:
    """Copy of op with one monomial coefficient of A_ij (1-based) replaced.

    Used to inject single-coefficient faults when probing how sharply the
    flatness residual reacts to a wrong table entry.
    """
    exp = tuple(exponents)
    entry = op.A[i - 1][j - 1]
    old = entry.terms.get(exp)
    old_c = old.c0 if old is not None else Fraction(0)
    if old is not None and old.c1:
        raise ValueError("A entries are nu-free; refusing to perturb")
    mono = MultiPoly.constant(op.rank, Fraction(value) - old_c)
    for axis, p in enumerate(exp):
        if p:
            mono = mono * MultiPoly.variable(op.rank, axis + 1) ** p
    fixed = entry + mono
    rows = [list(r) for r in op.A]
    rows[i - 1][j - 1] = fixed
    if i != j:
        rows[j - 1][i - 1] = fixed
    return replace(op, A=tuple(tuple(r) for r in rows), variant=op.variant + "+fault")


def sabotaged(op: AlgebraicOperator) -> AlgebraicOperator:
    """The stock fault: A_11 tau_1^2 coefficient moved to -2."""
    exp = tuple(2 if k == 0 else 0 for k in range(op.rank))
    return with_coefficient(op, 1, 1, exp, Fraction(-2))


@dataclass(frozen=True)
class MetricFrame:
    tau: tuple
    A: tuple
    A_inv: tuple
    cond: float
    dA: tuple | None = None
    christoffel: tuple | None = None
    riemann_max: float | None = None


class _MetricPolys:
    """A and its first and second tau-derivatives, compiled once per operator.

    Coefficients are converted once by oracle._compile_poly, to float or to
    mpf at the current precision.  Entries with the same term list (A_ij
    and A_ji, mixed partials in either order, the many zero second
    derivatives) share one compiled form, so each distinct polynomial is
    evaluated once per point.
    The integer arrays A[i, j], dA[k, i, j] and d2A_distinct index the
    values returned by values(tau).
    """

    def __init__(self, op: AlgebraicOperator, hp: bool, derivatives: bool = True):
        r = op.rank
        self.hp = hp
        self.terms: list = []
        self.max_exp = [0] * r
        index: dict = {}
        # A is nu-free, so compiling at nu = 0 adds an exact zero
        nu0 = mpf(0) if hp else 0.0

        def add(poly: MultiPoly) -> int:
            key = tuple(poly.terms.items())
            at = index.get(key)
            if at is None:
                at = index[key] = len(self.terms)
                self.terms.append(_compile_poly(poly, nu0, hp))
                self.max_exp = [max(col) for col in zip(self.max_exp, *dict(key))]
            return at

        rr = range(r)
        self.A = np.array([[add(op.A[i][j]) for j in rr] for i in rr])
        if not derivatives:
            return
        dA = [[[op.A[i][j].partial_derivative(k + 1) for j in rr] for i in rr] for k in rr]
        self.dA = np.array([[[add(p) for p in row] for row in plane] for plane in dA])
        d2A = np.array(
            [
                [[[add(dA[k][i][j].partial_derivative(l + 1)) for j in rr] for i in rr] for l in rr]
                for k in rr
            ]
        ).reshape(r * r, r, r)
        # d2A_distinct holds each distinct matrix d2A[k][l] once (mixed
        # partials come in equal pairs); d2A_slot[k, l] is its position
        _, first, slot = np.unique(
            d2A.reshape(r * r, r * r), axis=0, return_index=True, return_inverse=True
        )
        self.d2A_distinct = d2A[first]
        self.d2A_slot = slot.reshape(r, r)

    def values(self, tau) -> list:
        """Every compiled polynomial at tau: a sum from zero, term by term."""
        one, zero = (mpf(1), mpf(0)) if self.hp else (1.0, 0.0)
        powers = []
        for t, top in zip(tau, self.max_exp):
            row = [one, t]
            for _ in range(2, top + 1):
                row.append(row[-1] * t)
            powers.append(row)
        out = []
        for terms in self.terms:
            total = zero
            for c, pairs in terms:
                m = c
                for i, p in pairs:
                    m = m * powers[i][p]
                total += m
            out.append(total)
        return out


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


def _is_mp(tau) -> bool:
    """True for tau points in mpmath arithmetic, real (mpf) or complex (mpc)."""
    return isinstance(tau[0], (mpf, mpc))


def _metric_frame(tau: tuple, A: list, hp: bool) -> MetricFrame:
    if all(all(abs(v) < 1e-12 for v in row) for row in A):
        raise SingularMetricError("metric vanishes at this point")
    A_inv, cond = _invert(A, hp)
    return MetricFrame(
        tau=tau,
        A=tuple(tuple(row) for row in A),
        A_inv=tuple(tuple(row) for row in A_inv),
        cond=cond,
    )


def metric_at(op: AlgebraicOperator, tau_point) -> MetricFrame:
    """Evaluate and invert the contravariant metric at a tau point."""
    tau = tuple(tau_point)
    hp = _is_mp(tau)
    metric = _MetricPolys(op, hp, derivatives=False)
    vals = metric.values(tau)
    return _metric_frame(tau, [[vals[x] for x in row] for row in metric.A], hp)


def _mm(X, Y):
    """Matrix products over the last two axes, with numpy broadcasting.

    Each entry is 0 + X[i,0] Y[0,j] + X[i,1] Y[1,j] + ... in that order,
    the order of sum() over m, so float64 and object (mpf) arrays give the
    bits of the scalar loop.
    """
    acc = 0
    for m in range(X.shape[-1]):
        acc = acc + X[..., :, m, None] * Y[..., None, m, :]
    return acc


def _bracket(T):
    """out[j, k, m] = T[j, m, k] + T[k, m, j] - T[m, j, k]."""
    return (T.transpose(0, 2, 1) + T.transpose(2, 0, 1)) - T.transpose(1, 2, 0)


def _curvature(op: AlgebraicOperator, tau_point, metric: _MetricPolys | None = None):
    """(riemann_max_normalized, bianchi_max_normalized, frame).

    `metric` is op compiled in the arithmetic of tau_point; pass it to
    reuse one compilation across points.  Tensors are numpy arrays: float64
    for real doubles, and objects for mpf (or complex) values, so numpy
    applies the scalar operators element by element.  Every sum runs over
    m in order from zero, which keeps the bits of the scalar formulas in
    the comments.  Rank-4 tensors other than dGamma are built one leading
    index at a time, which bounds the memory of the mpf objects.
    """
    r = op.rank
    tau = tuple(tau_point)
    hp = _is_mp(tau)
    if metric is None:
        metric = _MetricPolys(op, hp)
    vals = metric.values(tau)
    frame = _metric_frame(tau, [[vals[x] for x in row] for row in metric.A], hp)
    dtype = float if all(isinstance(v, float) for v in vals) else object
    vals = np.array(vals, dtype=dtype)
    A = vals[metric.A]
    dA = vals[metric.dA]
    g = np.array(frame.A_inv, dtype=dtype)
    half = mpf("0.5") if hp else 0.5
    zero = mpf(0) if hp else 0.0

    # dg[k] = -g dA[k] g
    gdA = _mm(g, dA)
    dg = -_mm(gdA, g)
    # Gamma^i_{jk} = 1/2 sum_m A^{im} bracket[j, k, m] with
    # bracket[j, k, m] = d_j g_{mk} + d_k g_{mj} - d_m g_{jk}
    bracket = _bracket(dg)
    acc = 0
    for m in range(r):
        acc = acc + A[:, None, None, m] * bracket[None, :, :, m]
    gamma = np.multiply(half, acc)
    gamma_max = max(abs(v) for v in gamma.flat)
    norm = 1 + gamma_max**2

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
        acc = 0
        for m in range(r):
            acc = acc + (
                dA[l, :, None, None, m] * bracket[None, :, :, m]
                + A[:, None, None, m] * dbracket[None, :, :, m]
            )
        dgamma.append(np.multiply(half, acc))
    dgamma = np.array(dgamma, dtype=dtype)

    # R^i_{jkl} = dGamma[k, i, l, j] - dGamma[l, i, k, j]
    #   + sum_m (Gamma^i_{km} Gamma^m_{lj} - Gamma^i_{lm} Gamma^m_{kj}),
    # one i at a time; the first Bianchi identity R^i_{jkl} + R^i_{klj}
    # + R^i_{ljk} = 0 is checked for j < k < l
    j, k, l = np.array(list(combinations(range(r), 3)), dtype=int).reshape(-1, 3).T
    riemann_max = bianchi_max = zero
    for i in range(r):
        acc = 0
        for m in range(r):
            acc = acc + (
                gamma[i, None, :, None, m] * gamma[m].T[:, None, :]
                - gamma[i, None, None, :, m] * gamma[m].T[:, :, None]
            )
        d = dgamma[:, i]
        R = (d.transpose(2, 0, 1) - d.transpose(2, 1, 0)) + acc
        riemann_max = max(chain((riemann_max,), np.abs(R).flat))
        bianchi = (R[j, k, l] + R[k, l, j]) + R[l, j, k]
        bianchi_max = max(chain((bianchi_max,), np.abs(bianchi).flat))
    return (
        float(riemann_max / norm),
        float(bianchi_max / norm),
        MetricFrame(
            tau=frame.tau,
            A=frame.A,
            A_inv=frame.A_inv,
            cond=frame.cond,
            christoffel=tuple(
                tuple(tuple(row) for row in plane) for plane in gamma.tolist()
            ),
            riemann_max=float(riemann_max / norm),
        ),
    )


def riemann_at(op: AlgebraicOperator, tau_point) -> float:
    """max |R^i_jkl| / (1 + max |Gamma|^2) at the point."""
    return _curvature(op, tau_point)[0]


def bianchi_at(op: AlgebraicOperator, tau_point) -> float:
    return _curvature(op, tau_point)[1]


def flatness_report(
    op: AlgebraicOperator,
    points: int = 10,
    seed: int = 11,
    beta: float = 1.0,
    precision: str = "double",
    tol: float | None = None,
    spread: float = 0.05,
) -> dict:
    """Riemann residuals at tau(y) images of chart-centered samples."""
    if tol is None:
        tol = 1e-6 if precision == "double" else 1e-30
    sysr = op.system
    pts = flatness_sample_points(
        sysr, points, seed=seed, beta=beta, spread=spread, precision=precision
    )
    rows = []
    worst = 0.0
    dps = hp_digits() if precision == "hp" else mp.dps
    metric = None
    for idx, pt in enumerate(pts):
        with mp.workdps(dps):
            tau = tau_numeric(sysr, pt)
            if metric is None:
                metric = _MetricPolys(op, _is_mp(tau))
            r, b, frame = _curvature(op, tau, metric)
        rows.append(
            {
                "index": idx,
                "cond": frame.cond,
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
