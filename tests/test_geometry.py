import math

import numpy as np
import pytest
from mpmath import mp, mpf

from tauforge.derive import derive_operator
from tauforge.geometry import (
    SingularMetricError,
    _curvature,
    _invert,
    bianchi_at,
    chart_center,
    flatness_report,
    flatness_sample_points,
    metric_at,
    riemann_at,
    sabotaged,
    with_coefficient,
)
from tauforge.oracle import SamplePoint, SamplingError, clearance, tau_numeric
from tauforge.operator import e7_operator
from tauforge.rootsys import build_system, weyl_orbit

E7 = build_system("E7")


def test_chart_center_equalizes_simple_root_phases():
    y = chart_center(E7)
    roots = np.array([[float(c) for c in E7.y_rep(r)] for r in E7.positive_roots])
    # root heights run 1..17, every phase is a multiple of pi/18 (up to the
    # sign convention of the stored root list)
    steps = np.abs(roots @ np.array(y) / 2) / (math.pi / 18)
    assert np.allclose(steps, np.round(steps), atol=1e-9)
    assert abs(steps.min() - 1) < 1e-9
    assert abs(steps.max() - 17) < 1e-9
    assert abs(clearance(E7, SamplePoint(y=y)) - math.sin(math.pi / 18)) < 1e-9


def test_chart_center_scales_with_beta():
    c1 = chart_center(E7, 1.0)
    c2 = chart_center(E7, 2.0)
    assert max(abs(a / 2 - b) for a, b in zip(c1, c2)) < 1e-12


def test_sample_points_are_deterministic():
    a = flatness_sample_points(E7, 5, seed=11)
    b = flatness_sample_points(E7, 5, seed=11)
    assert [p.y for p in a] == [p.y for p in b]
    assert all(clearance(E7, p) > 1e-3 for p in a)


def test_metric_at_the_chart_center_is_well_conditioned():
    can = e7_operator("canonical")
    tau = tau_numeric(E7, SamplePoint(y=chart_center(E7)))
    frame = metric_at(can, tau)
    assert frame.cond < 1e7
    A = np.array(frame.A)
    assert np.allclose(A, A.T)
    assert np.allclose(A @ np.array(frame.A_inv), np.eye(7), atol=1e-7)


def test_metric_vanishes_at_the_orbit_size_point():
    # tau(0) is the vector of orbit sizes and every A entry vanishes there
    can = e7_operator("canonical")
    sizes = tuple(weyl_orbit(E7, a).size for a in range(1, 8))
    with pytest.raises(SingularMetricError):
        metric_at(can, sizes)


def test_metric_rejects_ill_conditioned_points():
    can = e7_operator("canonical")
    tau = tau_numeric(E7, SamplePoint(y=tuple(0.05 * v for v in chart_center(E7))))
    with pytest.raises(SingularMetricError):
        metric_at(can, tau)


def test_canonical_tables_are_flat_in_double_precision():
    rep = flatness_report(e7_operator("canonical"), points=10, seed=11)
    assert rep["all_pass"]
    assert rep["max_riemann_normalized"] < 1e-6
    assert all(row["bianchi_max_normalized"] < 1e-6 for row in rep["points"])


def test_flatness_sharpens_by_ten_orders_at_high_precision():
    can = e7_operator("canonical")
    double = flatness_report(can, points=3, seed=11)
    hp = flatness_report(can, points=3, seed=11, precision="hp")
    assert hp["max_riemann_normalized"] < 1e-30
    assert hp["max_riemann_normalized"] < 1e-10 * double["max_riemann_normalized"]


def test_raw_tables_are_not_flat():
    # the uncorrected tables carry a genuine curvature signal
    rep = flatness_report(e7_operator("raw"), points=4, seed=11)
    assert rep["max_riemann_normalized"] > 1e-3


def test_single_coefficient_fault_is_detected():
    bad = sabotaged(e7_operator("canonical"))
    assert bad.variant == "canonical+fault"
    rep = flatness_report(bad, points=10, seed=11)
    assert not rep["all_pass"]
    assert rep["max_riemann_normalized"] > 1e-3


def test_with_coefficient_is_symmetric_and_guarded():
    can = e7_operator("canonical")
    exp = (1, 0, 0, 0, 0, 0, 1)
    bad = with_coefficient(can, 1, 7, exp, -4)
    assert bad.a_entry(1, 7) == bad.a_entry(7, 1)
    assert bad.a_entry(1, 7).terms[exp].c0 == -4


def test_faulted_copy_reports_its_own_violations():
    can = e7_operator("canonical")
    assert can.violations == ()
    assert sabotaged(can).violations == (
        "A11: coefficient of tau_1tau_1 is -2, leading law needs -3/2",
    )


def test_rank_one_metric_is_exactly_flat():
    op = derive_operator(build_system("A1"))
    assert riemann_at(op, (0.3,)) == 0.0
    assert bianchi_at(op, (0.3,)) == 0.0


# Reference copy of the curvature assembly as it was before the per-operator
# compilation and the one-pass Riemann tensor: lru-cached exact derivatives,
# a per-point evaluator with its own coefficient cache, every matrix product
# and Christoffel bracket formed where it is used, and the Bianchi check
# recomputing each Riemann component.  The live code must match it bit for bit.


def _ref_dA_polys(op):
    r = op.rank
    return tuple(
        tuple(tuple(op.A[i][j].partial_derivative(k + 1) for j in range(r)) for i in range(r))
        for k in range(r)
    )


def _ref_d2A_polys(op, dA):
    r = op.rank
    return tuple(
        tuple(
            tuple(tuple(dA[k][i][j].partial_derivative(l + 1) for j in range(r)) for i in range(r))
            for l in range(r)
        )
        for k in range(r)
    )


class _RefPointEvaluator:
    def __init__(self, tau):
        self.tau = tau
        self.hp = isinstance(tau[0], mpf)
        self.powers = [[mpf(1) if self.hp else 1.0, t] for t in tau]
        self._coef_cache = {}

    def _power(self, i, p):
        row = self.powers[i]
        while len(row) <= p:
            row.append(row[-1] * self.tau[i])
        return row[p]

    def __call__(self, poly):
        total = mpf(0) if self.hp else 0.0
        for exp, coef in poly.terms.items():
            key = coef.c0
            c = self._coef_cache.get(key)
            if c is None:
                c = mpf(key.numerator) / key.denominator if self.hp else float(key)
                self._coef_cache[key] = c
            m = c
            for i, p in enumerate(exp):
                if p:
                    m = m * self._power(i, p)
            total += m
        return total


def _ref_metric_at(op, tau_point):
    r = op.rank
    ev = _RefPointEvaluator(tuple(tau_point))
    A = [[ev(op.A[i][j]) for j in range(r)] for i in range(r)]
    if all(all(abs(v) < 1e-12 for v in row) for row in A):
        raise SingularMetricError("metric vanishes at this point")
    A_inv, cond = _invert(A, ev.hp)
    return tuple(tau_point), A, A_inv, cond


def _ref_curvature(op, tau_point):
    r = op.rank
    tau, A, g, cond = _ref_metric_at(op, tau_point)
    ev = _RefPointEvaluator(tau)
    hp = ev.hp
    dA_p = _ref_dA_polys(op)
    d2A_p = _ref_d2A_polys(op, dA_p)
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
                [[-(t1[i][j] + t2[i][j] + t3[i][j]) for j in range(r)] for i in range(r)]
            )
        d2g.append(row_k)
    half = mpf("0.5") if hp else 0.5
    R = range(r)
    gamma = [
        [
            [
                half * sum(A[i][m] * (dg[j][m][k] + dg[k][m][j] - dg[m][j][k]) for m in R)
                for k in R
            ]
            for j in R
        ]
        for i in R
    ]
    dgamma = [
        [
            [
                [
                    half
                    * sum(
                        dA[l][i][m] * (dg[j][m][k] + dg[k][m][j] - dg[m][j][k])
                        + A[i][m] * (d2g[l][j][m][k] + d2g[l][k][m][j] - d2g[l][m][j][k])
                        for m in R
                    )
                    for k in R
                ]
                for j in R
            ]
            for i in R
        ]
        for l in R
    ]
    gamma_max = max(abs(gamma[i][j][k]) for i in R for j in R for k in R)
    norm = 1 + gamma_max**2

    def rcomp(i, j, k, l):
        return (
            dgamma[k][i][l][j]
            - dgamma[l][i][k][j]
            + sum(
                gamma[i][k][m] * gamma[m][l][j] - gamma[i][l][m] * gamma[m][k][j]
                for m in R
            )
        )

    riemann_max = mpf(0) if hp else 0.0
    for i in R:
        for j in R:
            for k in R:
                for l in R:
                    riemann_max = max(riemann_max, abs(rcomp(i, j, k, l)))
    bianchi_max = mpf(0) if hp else 0.0
    for i in R:
        for j in R:
            for k in range(j + 1, r):
                for l in range(k + 1, r):
                    b = rcomp(i, j, k, l) + rcomp(i, k, l, j) + rcomp(i, l, j, k)
                    bianchi_max = max(bianchi_max, abs(b))
    return (
        float(riemann_max / norm),
        float(bianchi_max / norm),
        tau,
        A,
        g,
        cond,
        tuple(tuple(tuple(row) for row in plane) for plane in gamma),
    )


def _frame_fields(result):
    r, b, frame = result
    return (r, b, frame.tau, [list(row) for row in frame.A],
            [list(row) for row in frame.A_inv], frame.cond, frame.christoffel)


@pytest.mark.parametrize("variant", ["raw", "canonical", "sabotaged"])
def test_curvature_matches_the_two_pass_reference_bit_for_bit(variant, monkeypatch):
    # sample_points rounds hp coordinates at hp_digits(); pin its default
    monkeypatch.delenv("TAUFORGE_PRECISION", raising=False)
    op = e7_operator("canonical" if variant == "sabotaged" else variant)
    if variant == "sabotaged":
        op = sabotaged(op)
    for pt in flatness_sample_points(E7, 2, seed=11):
        tau = tau_numeric(E7, pt)
        assert _frame_fields(_curvature(op, tau)) == _ref_curvature(op, tau)
    with mp.workdps(50):
        pt = flatness_sample_points(E7, 1, seed=11, precision="hp")[0]
        tau = tau_numeric(E7, pt)
        assert _frame_fields(_curvature(op, tau)) == _ref_curvature(op, tau)


@pytest.mark.parametrize("kind", ["A2", "G2"])
def test_derived_curvature_matches_the_reference_bit_for_bit(kind):
    op = derive_operator(build_system(kind))
    sysr = op.system
    points = [tau_numeric(sysr, pt) for pt in flatness_sample_points(sysr, 2, seed=11)]
    # real tau points as well: the A2 invariants are complex at real y
    for point in (("0.3", "1.7"), ("-2.25", "0.125")):
        points += [tuple(float(v) for v in point), tuple(mpf(v) for v in point)]
    for tau in points:
        with mp.workdps(50):
            assert _frame_fields(_curvature(op, tau)) == _ref_curvature(op, tau)


def test_flatness_sampler_gives_up_when_no_point_clears(monkeypatch):
    monkeypatch.setattr("tauforge.oracle.clearance", lambda sysr, point: 0.0)
    with pytest.raises(SamplingError, match="100000 draws in a row at beta=1.0"):
        flatness_sample_points(E7, 2, seed=11)
