import math
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import libmp, mp, mpc, mpf

from tauforge.derive import derive_operator
from tauforge.exactpoly import MultiPoly
from tauforge.geometry import (
    SingularMetricError,
    _HpArray,
    _MetricPolys,
    _curvature,
    _invert,
    chart_center,
    flatness_report,
    flatness_sample_points,
    hp_tol,
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
    frame = _curvature(can, tau)[2]
    assert frame.cond < 1e7
    A = np.array(frame.A)
    assert np.allclose(A, A.T)
    assert np.allclose(A @ np.array(frame.A_inv), np.eye(7), atol=1e-7)


def test_metric_vanishes_at_the_orbit_size_point():
    # tau(0) is the vector of orbit sizes and every A entry vanishes there
    can = e7_operator("canonical")
    sizes = tuple(weyl_orbit(E7, a).size for a in range(1, 8))
    with pytest.raises(SingularMetricError):
        _curvature(can, sizes)


def test_metric_rejects_ill_conditioned_points():
    can = e7_operator("canonical")
    tau = tau_numeric(E7, SamplePoint(y=tuple(0.05 * v for v in chart_center(E7))))
    with pytest.raises(SingularMetricError):
        _curvature(can, tau)


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


def test_the_hp_flatness_tolerance_follows_the_working_digits():
    assert [hp_tol(d) for d in (15, 26, 27, 30, 49, 50, 60, 1000)] == [
        1e-6, 1e-6, 1e-7, 1e-10, 1e-29, 1e-30, 1e-30, 1e-30,
    ]
    rep = flatness_report(e7_operator("canonical"), points=2, seed=11,
                          precision="hp", digits=20)
    assert rep["tol"] == 1e-6 and rep["all_pass"]


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


@pytest.mark.parametrize("variant", ["raw", "canonical", "A2", "G2"])
def test_sabotaged_adds_the_stock_fault_term_for_term(variant):
    if variant in ("A2", "G2"):
        op = derive_operator(build_system(variant))
    else:
        op = e7_operator(variant)
    bad = sabotaged(op)
    # the stock fault as first written: -1/2 tau_1^2 added to A11
    want = op.A[0][0] + (MultiPoly.variable(op.rank, 1) ** 2).scale(Fraction(-1, 2))
    assert list(bad.A[0][0].terms.items()) == list(want.terms.items())
    assert bad.variant == op.variant + "+fault"
    assert bad.B == op.B
    assert [
        [bad.A[i][j] for j in range(op.rank) if (i, j) != (0, 0)] for i in range(op.rank)
    ] == [[op.A[i][j] for j in range(op.rank) if (i, j) != (0, 0)] for i in range(op.rank)]


def test_faulted_copy_reports_its_own_violations():
    can = e7_operator("canonical")
    assert can.violations == ()
    assert sabotaged(can).violations == (
        "A11: coefficient of tau_1tau_1 is -2, leading law needs -3/2",
    )


def test_rank_one_metric_is_exactly_flat():
    op = derive_operator(build_system("A1"))
    assert _curvature(op, (0.3,))[:2] == (0.0, 0.0)


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
        self.hp = isinstance(tau[0], (mpf, mpc))
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
def test_curvature_matches_the_two_pass_reference_bit_for_bit(variant):
    op = e7_operator("canonical" if variant == "sabotaged" else variant)
    if variant == "sabotaged":
        op = sabotaged(op)
    for pt in flatness_sample_points(E7, 2, seed=11):
        tau = tau_numeric(E7, pt)
        assert _frame_fields(_curvature(op, tau)) == _ref_curvature(op, tau)
    # the hp kernel reads its precision from the context, so check more than one
    for digits in (15, 50, 60):
        with mp.workdps(digits):
            pt = flatness_sample_points(
                E7, 1, seed=11, precision="hp", digits=digits
            )[0]
            tau = tau_numeric(E7, pt)
            assert _frame_fields(_curvature(op, tau)) == _ref_curvature(op, tau)


@pytest.mark.parametrize("kind", ["A2", "G2"])
def test_derived_curvature_matches_the_reference_bit_for_bit(kind):
    op = derive_operator(build_system(kind))
    sysr = op.system
    points = [tau_numeric(sysr, pt) for pt in flatness_sample_points(sysr, 2, seed=11)]
    # the hp flatness samples: mpf taus for G2, mpc taus for A2
    with mp.workdps(50):
        points += [
            tau_numeric(sysr, pt)
            for pt in flatness_sample_points(sysr, 2, seed=11, precision="hp", digits=50)
        ]
    assert isinstance(points[-1][0], mpc if kind == "A2" else mpf)
    # real tau points as well: the A2 invariants are complex at real y
    for point in (("0.3", "1.7"), ("-2.25", "0.125")):
        points += [tuple(float(v) for v in point), tuple(mpf(v) for v in point)]
    for tau in points:
        with mp.workdps(50):
            assert _frame_fields(_curvature(op, tau)) == _ref_curvature(op, tau)


def _mpf(man, exp=0):
    return mp.make_mpf(libmp.from_man_exp(man, exp))


def _kernel_operands(prec):
    """(x, y) pairs of mpf at prec bits for the kernel's edge cases."""
    top = 1 << prec
    pairs = [
        # sums of prec + 1 bits whose last bit is a tie: M * 2 + 1 rounds
        # down to M * 2 for even M and up to M * 2 + 2 for odd M
        (_mpf(top - 2, 1), _mpf(1)),
        (_mpf(top - 3, 1), _mpf(1)),
        (_mpf(-(top - 2), 1), _mpf(-1)),
        # products 3 (2^prec - 2) and 3 (2^prec - 6): ties down and up
        (_mpf(3), _mpf(top - 2)),
        (_mpf(3), _mpf(top - 6)),
        (_mpf(-3), _mpf(top - 6)),
        # (2^prec - 1) * 2 + 1 carries to 2^(prec+1); a product of 2 prec bits
        (_mpf(top - 1, 1), _mpf(1)),
        (_mpf(top - 1), _mpf(top - 1)),
        # cancellation to an exact zero, zero and negative operands
        (_mpf(top - 5, -7), _mpf(top - 5, -7)),
        (_mpf(0), _mpf(-(top - 5), 3)),
        (_mpf(-(top - 5), 3), _mpf(0)),
        (_mpf(0), _mpf(0)),
        (_mpf(-11, -3), _mpf(-13, 40)),
    ]
    # exponent gaps over 100 bits, both ways round: libmp's mpf_add takes
    # its sticky-bit branch where the smaller value lies prec + 4 bits down
    for gap in (101, 150, prec + 3, prec + 5, prec + 40, 2 * prec + 7):
        for sign in (1, -1):
            big, small = _mpf(top - 1), _mpf(sign * (top // 3 | 1), -gap)
            pairs += [(big, small), (small, big), (_mpf(1), small)]
    return pairs


@pytest.mark.parametrize("digits", [15, 50, 70])
def test_hp_kernel_rounds_as_libmp_does(digits):
    with mp.workdps(digits):
        prec, rnd = mp._prec_rounding
        pairs = _kernel_operands(prec)
        xs, ys = (_HpArray.of([p[k] for p in pairs], real=True) for k in (0, 1))
        for got, op in ((xs * ys, libmp.mpf_mul), (xs + ys, libmp.mpf_add),
                        (xs - ys, libmp.mpf_sub)):
            want = [op(x._mpf_, y._mpf_, prec, rnd) for x, y in pairs]
            assert [v._mpf_ for v in got.tolist()] == want
        assert [v._mpf_ for v in (-xs).tolist()] == [libmp.mpf_neg(x._mpf_) for x, _ in pairs]
        assert [v._mpf_ for v in (0.5 * xs).tolist()] == [
            libmp.mpf_shift(x._mpf_, -1) for x, _ in pairs]

        # mpc: the pairs' values in every real and imaginary slot, plus
        # products whose exact terms ac and bd lie over prec + 4 bits apart,
        # with their lowest bits prec + 5 or more apart, or 91 to 110
        vals = [v for p in pairs for v in p]
        zs = [mpc(a, b) for a, b in zip(vals, vals[3:] + vals[:3])]
        ws = [mpc(a, b) for a, b in zip(vals[7:] + vals[:7], vals)]
        rng = random.Random(digits)

        def odd(bits):
            return rng.getrandbits(bits) | 1 << (bits - 1) | 1

        for _ in range(300):
            a, b, c, d = (odd(prec) for _ in range(4))
            zs.append(mpc(_mpf(a), _mpf(b, -rng.randint(prec + 5, prec + 12))))
            ws.append(mpc(_mpf(c), _mpf(-d)))
        for _ in range(600):
            gap = rng.randint(91, 110)
            zs.append(mpc(_mpf(odd(prec)), _mpf(odd(gap - 8), -gap)))
            ws.append(mpc(_mpf(odd(prec)), _mpf(odd(prec))))
        z, w = (_HpArray.of(v, real=False) for v in (zs, ws))
        for got, op in ((z * w, libmp.mpc_mul), (z + w, libmp.mpc_add)):
            want = [op(x._mpc_, y._mpc_, prec, rnd) for x, y in zip(zs, ws)]
            assert [v._mpc_ for v in got.tolist()] == want
        if digits > 15:
            # the draws do reach the case where libmp's sticky bit is not
            # the exactly rounded value
            exact = [libmp.mpf_sub(libmp.mpf_mul(x.real._mpf_, y.real._mpf_),
                                   libmp.mpf_mul(x.imag._mpf_, y.imag._mpf_))
                     for x, y in zip(zs, ws)]
            assert any(libmp.mpf_pos(e, prec, rnd) != v._mpc_[0]
                       for e, v in zip(exact, (z * w).tolist()))


def _ref_metric_values(metric, tau):
    """_MetricPolys.values before it moved to the shared term loop: powers
    by repeated products up to each coordinate's top exponent, and every
    compiled polynomial summed from zero, term by term."""
    one, zero = (mpf(1), mpf(0)) if isinstance(tau[0], (mpf, mpc)) else (1.0, 0.0)
    top = [0] * len(tau)
    for terms in metric.terms:
        for _, pairs in terms:
            for i, p in pairs:
                top[i] = max(top[i], p)
    powers = []
    for t, n in zip(tau, top):
        row = [one, t]
        for _ in range(2, n + 1):
            row.append(row[-1] * t)
        powers.append(row)
    out = []
    for terms in metric.terms:
        total = zero
        for c, pairs in terms:
            m = c
            for i, p in pairs:
                m = m * powers[i][p]
            total += m
        out.append(total)
    return out


@pytest.mark.parametrize(
    "kind,digits",
    [("E7", None), ("E7", 50), ("E7", 70), ("A2", None), ("A2", 50), ("G2", None), ("G2", 50)],
)
def test_metric_values_match_the_repeated_product_reference_bit_for_bit(kind, digits):
    # digits None is double precision; A2's taus are complex, so its two
    # cases are complex doubles and mpc
    op = e7_operator("canonical") if kind == "E7" else derive_operator(build_system(kind))
    sysr = op.system
    precision = "double" if digits is None else "hp"
    with mp.workdps(digits or mp.dps):
        metric = _MetricPolys(op, precision == "hp")
        for pt in flatness_sample_points(sysr, 2, seed=11, precision=precision,
                                         digits=digits or 50):
            tau = tau_numeric(sysr, pt)
            got, want = metric.values(tau), _ref_metric_values(metric, tau)
            assert len(got) == len(want) == len(metric.terms)
            for terms, g, w in zip(metric.terms, got, want):
                # an empty sum is zero in either form: the reference's 0.0
                # or mpf(0), the shared loop's 0 * tau[0]
                assert repr(g) == repr(w) if terms else g == w == 0


def test_flatness_sampler_gives_up_when_no_point_clears(monkeypatch):
    monkeypatch.setattr("tauforge.oracle.clearance", lambda sysr, point: 0.0)
    with pytest.raises(SamplingError, match="100000 draws in a row at beta=1.0"):
        flatness_sample_points(E7, 2, seed=11)
