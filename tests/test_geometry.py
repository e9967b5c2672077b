import math

import numpy as np
import pytest

from tauforge.derive import derive_operator
from tauforge.geometry import (
    SingularMetricError,
    bianchi_at,
    chart_center,
    flatness_report,
    flatness_sample_points,
    metric_at,
    riemann_at,
    sabotaged,
    with_coefficient,
)
from tauforge.oracle import SamplePoint, clearance, tau_numeric
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
