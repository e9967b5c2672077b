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
from functools import lru_cache

import numpy as np
from mpmath import mp, mpf

from .exactpoly import MultiPoly
from .operator import AlgebraicOperator, stored_data_report
from .oracle import CLEARANCE, SamplePoint, clearance, hp_digits, tau_numeric
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
    """
    center = np.array(chart_center(sysr, beta=beta))
    rng = np.random.default_rng(seed)
    out: list[SamplePoint] = []
    dps = hp_digits()
    while len(out) < count:
        # stratified radii: every run walks the full band from the center
        # down to the t = 0.8 shell instead of leaving coverage to chance
        radial = 1.0 - 0.2 * len(out) / max(count - 1, 1)
        u = radial * center + rng.uniform(-spread, spread, sysr.y_dim) / float(beta)
        cand = SamplePoint(y=tuple(float(v) for v in u), beta=float(beta), nu=0.0)
        if clearance(sysr, cand) <= CLEARANCE:
            continue
        if precision == "hp":
            with mp.workdps(dps):
                cand = SamplePoint(
                    y=tuple(mpf(str(v)) for v in u), beta=float(beta), nu=0.0
                )
        out.append(cand)
    return out


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
    new = replace(
        op,
        A=tuple(tuple(r) for r in rows),
        variant=op.variant + "+fault",
    )
    object.__setattr__(new, "violations", stored_data_report(new))
    return new


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


@lru_cache(maxsize=None)
def _dA_polys(op: AlgebraicOperator):
    """dA[k][i][j] = dA_ij/dtau_k, exact."""
    r = op.rank
    return tuple(
        tuple(tuple(op.A[i][j].partial_derivative(k + 1) for j in range(r)) for i in range(r))
        for k in range(r)
    )


@lru_cache(maxsize=None)
def _d2A_polys(op: AlgebraicOperator):
    """d2A[k][l][i][j] = d^2 A_ij / dtau_k dtau_l, exact."""
    r = op.rank
    dA = _dA_polys(op)
    return tuple(
        tuple(
            tuple(tuple(dA[k][i][j].partial_derivative(l + 1) for j in range(r)) for i in range(r))
            for l in range(r)
        )
        for k in range(r)
    )


def _power_table(tau, polys_max_exp):
    powers = []
    for i, t in enumerate(tau):
        row = [1 if not isinstance(t, mpf) else mpf(1), t]
        for _ in range(2, polys_max_exp[i] + 1):
            row.append(row[-1] * t)
        powers.append(row)
    return powers


class _PointEvaluator:
    """Evaluates many nu-free polynomials at one tau point, sharing powers."""

    def __init__(self, tau):
        self.tau = tau
        self.hp = isinstance(tau[0], mpf)
        self.powers = [[mpf(1) if self.hp else 1.0, t] for t in tau]
        self._coef_cache: dict = {}

    def _power(self, i, p):
        row = self.powers[i]
        while len(row) <= p:
            row.append(row[-1] * self.tau[i])
        return row[p]

    def __call__(self, poly: MultiPoly):
        total = mpf(0) if self.hp else 0.0
        for exp, coef in poly.terms.items():
            key = coef.c0
            c = self._coef_cache.get(key)
            if c is None:
                c = (
                    mpf(key.numerator) / key.denominator
                    if self.hp
                    else float(key)
                )
                self._coef_cache[key] = c
            m = c
            for i, p in enumerate(exp):
                if p:
                    m = m * self._power(i, p)
            total += m
        return total


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
    arr = np.array(mat, dtype=float)
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


def metric_at(op: AlgebraicOperator, tau_point) -> MetricFrame:
    """Evaluate and invert the contravariant metric at a tau point."""
    r = op.rank
    ev = _PointEvaluator(tuple(tau_point))
    A = [[ev(op.A[i][j]) for j in range(r)] for i in range(r)]
    if all(all(abs(v) < 1e-12 for v in row) for row in A):
        raise SingularMetricError("metric vanishes at this point")
    A_inv, cond = _invert(A, ev.hp)
    return MetricFrame(
        tau=tuple(tau_point),
        A=tuple(tuple(row) for row in A),
        A_inv=tuple(tuple(row) for row in A_inv),
        cond=cond,
    )


def _curvature(op: AlgebraicOperator, tau_point):
    """(riemann_max_normalized, bianchi_max_normalized, frame)."""
    r = op.rank
    frame = metric_at(op, tau_point)
    ev = _PointEvaluator(frame.tau)
    hp = ev.hp
    A = [list(row) for row in frame.A]
    g = [list(row) for row in frame.A_inv]

    dA_p = _dA_polys(op)
    d2A_p = _d2A_polys(op)
    dA = [[[ev(dA_p[k][i][j]) for j in range(r)] for i in range(r)] for k in range(r)]
    d2A = [
        [[[ev(d2A_p[k][l][i][j]) for j in range(r)] for i in range(r)] for l in range(r)]
        for k in range(r)
    ]

    def mat_mul(X, Y):
        return [
            [sum(X[i][m] * Y[m][j] for m in range(r)) for j in range(r)]
            for i in range(r)
        ]

    # dg = -g dA g ; d2g = -(dg dA g + g d2A g + g dA dg)
    dg = [mat_mul(mat_mul(g, dA[k]), g) for k in range(r)]
    dg = [[[-v for v in row] for row in m] for m in dg]
    d2g = []
    for k in range(r):
        row_k = []
        for l in range(r):
            t1 = mat_mul(mat_mul(dg[l], dA[k]), g)
            t2 = mat_mul(mat_mul(g, d2A[k][l]), g)
            t3 = mat_mul(mat_mul(g, dA[k]), dg[l])
            row_k.append(
                [
                    [-(t1[i][j] + t2[i][j] + t3[i][j]) for j in range(r)]
                    for i in range(r)
                ]
            )
        d2g.append(row_k)

    # Gamma^i_{jk} = 1/2 A^{im} (d_j g_{mk} + d_k g_{mj} - d_m g_{jk})
    half = mpf("0.5") if hp else 0.5
    gamma = [
        [
            [
                half
                * sum(
                    A[i][m] * (dg[j][m][k] + dg[k][m][j] - dg[m][j][k])
                    for m in range(r)
                )
                for k in range(r)
            ]
            for j in range(r)
        ]
        for i in range(r)
    ]
    # dGamma[l][i][j][k] = d_l Gamma^i_{jk}
    dgamma = [
        [
            [
                [
                    half
                    * sum(
                        dA[l][i][m] * (dg[j][m][k] + dg[k][m][j] - dg[m][j][k])
                        + A[i][m]
                        * (d2g[l][j][m][k] + d2g[l][k][m][j] - d2g[l][m][j][k])
                        for m in range(r)
                    )
                    for k in range(r)
                ]
                for j in range(r)
            ]
            for i in range(r)
        ]
        for l in range(r)
    ]

    gamma_max = max(
        abs(gamma[i][j][k]) for i in range(r) for j in range(r) for k in range(r)
    )
    norm = 1 + gamma_max**2
    riemann_max = mpf(0) if hp else 0.0
    bianchi_max = mpf(0) if hp else 0.0
    for i in range(r):
        for j in range(r):
            for k in range(r):
                for l in range(r):
                    rijkl = (
                        dgamma[k][i][l][j]
                        - dgamma[l][i][k][j]
                        + sum(
                            gamma[i][k][m] * gamma[m][l][j]
                            - gamma[i][l][m] * gamma[m][k][j]
                            for m in range(r)
                        )
                    )
                    riemann_max = max(riemann_max, abs(rijkl))
    # first Bianchi: R^i_{jkl} + R^i_{klj} + R^i_{ljk} = 0
    def rcomp(i, j, k, l):
        return (
            dgamma[k][i][l][j]
            - dgamma[l][i][k][j]
            + sum(
                gamma[i][k][m] * gamma[m][l][j] - gamma[i][l][m] * gamma[m][k][j]
                for m in range(r)
            )
        )

    for i in range(r):
        for j in range(r):
            for k in range(j + 1, r):
                for l in range(k + 1, r):
                    b = rcomp(i, j, k, l) + rcomp(i, k, l, j) + rcomp(i, l, j, k)
                    bianchi_max = max(bianchi_max, abs(b))
    return (
        float(riemann_max / norm),
        float(bianchi_max / norm),
        MetricFrame(
            tau=frame.tau,
            A=frame.A,
            A_inv=frame.A_inv,
            cond=frame.cond,
            christoffel=tuple(
                tuple(tuple(row) for row in plane) for plane in gamma
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
    for idx, pt in enumerate(pts):
        with mp.workdps(dps):
            tau = tau_numeric(sysr, pt)
            r, b, frame = _curvature(op, tau)
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
