import hashlib
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from tauforge.operator import e7_operator
from tauforge.oracle import (
    CancellationError,
    ClearanceError,
    FramePool,
    SamplePoint,
    build_frame,
    chain_rule_oracle,
    clearance,
    fit_entry,
    ground_state_energy,
    ground_state_residual,
    hp_digits,
    sample_points,
    tau_numeric,
    verify_tables,
    with_entry,
    _build_hp_plan,
    _geom_hp,
    _orbit_vectors,
    _root_mp,
)
from tauforge.rootsys import build_system

E7 = build_system("E7")


def test_sample_points_are_deterministic_and_cleared():
    a = sample_points(E7, 6, seed=3)
    b = sample_points(E7, 6, seed=3)
    assert a == b
    assert all(clearance(E7, p) > 1e-3 for p in a)


def test_tau_is_weyl_invariant_under_a_coordinate_swap():
    # x1 - x2 is a root, so swapping the first two coordinates is in W
    pt = sample_points(E7, 1, seed=9)[0]
    swapped = SamplePoint(y=(pt.y[1], pt.y[0]) + pt.y[2:], beta=pt.beta, nu=pt.nu)
    t1 = tau_numeric(E7, pt)
    t2 = tau_numeric(E7, swapped)
    assert max(abs(a - b) / (1 + abs(a)) for a, b in zip(t1, t2)) < 1e-12


def test_oracle_is_independent_of_beta_rescaling():
    # phases depend on beta*y only, and A, B carry an explicit 1/beta^2
    pt = sample_points(E7, 1, seed=5, beta=1.9, nu=0.7)[0]
    unit = SamplePoint(
        y=tuple(1.9 * v for v in pt.y), beta=1.0, nu=0.7
    )
    A1, B1 = chain_rule_oracle(E7, pt)
    A2, B2 = chain_rule_oracle(E7, unit)
    for i in range(7):
        assert abs(B1[i] - B2[i]) / (1 + abs(B1[i])) < 1e-11
        for j in range(7):
            assert abs(A1[i][j] - A2[i][j]) / (1 + abs(A1[i][j])) < 1e-11


def test_numeric_b_is_affine_in_nu():
    y = sample_points(E7, 1, seed=21)[0].y
    vals = []
    for nu in (0.0, 1.0, 2.0):
        _, B = chain_rule_oracle(E7, SamplePoint(y=y, nu=nu))
        vals.append(B)
    for b0, b1, b2 in zip(*vals):
        scale = 1 + abs(b0) + abs(b2)
        assert abs((b2 - b1) - (b1 - b0)) / scale < 1e-10


def _geom_hp_direct(sysr, y, beta):
    """Reference for _geom_hp: one mpmath cos_sin per orbit element."""
    gw = [mpf(g.numerator) / g.denominator for g in sysr.metric_weights[: sysr.y_dim]]
    taus, jacs, laps = [], [], []
    dim = sysr.y_dim
    for vecs in _orbit_vectors(sysr.kind):
        M = [[mpf(c.numerator) / c.denominator for c in v] for v in vecs]
        cs = [mp.cos_sin(beta * sum(w[k] * y[k] for k in range(dim))) for w in M]
        size = len(M)
        sin_sum = sum(s for c, s in cs)
        if sysr.has_minus_one:
            if abs(sin_sum) / size > mpf("1e-10"):
                raise CancellationError("orbit sine sum did not cancel")
            taus.append(sum(c for c, s in cs))
            jacs.append(
                [-beta * sum(w[k] * s for w, (c, s) in zip(M, cs)) for k in range(dim)]
            )
            laps.append(
                -beta**2
                * sum(
                    sum(g * wk**2 for g, wk in zip(gw, w)) * c
                    for w, (c, s) in zip(M, cs)
                )
            )
        else:
            taus.append(sum(c for c, s in cs) + 1j * sin_sum)
            jacs.append(
                [
                    -beta * sum(w[k] * s for w, (c, s) in zip(M, cs))
                    + 1j * beta * sum(w[k] * c for w, (c, s) in zip(M, cs))
                    for k in range(dim)
                ]
            )
            laps.append(
                -beta**2
                * sum(
                    sum(g * wk**2 for g, wk in zip(gw, w)) * (c + 1j * s)
                    for w, (c, s) in zip(M, cs)
                )
            )
    cotg = [mpf(0)] * dim
    for r in _root_mp(sysr.kind, mp.dps):
        c, s = mp.cos_sin(beta * sum(r[k] * y[k] for k in range(dim)) / 2)
        ct = (beta / 2) * c / s
        for k in range(dim):
            cotg[k] += ct * r[k]
    return taus, jacs, laps, cotg


def test_hp_fast_path_agrees_with_direct_summation():
    # E7, A1 and G2 take the paired path, A2 the complex one
    for kind in ("E7", "A1", "A2", "G2"):
        sysr = build_system(kind)
        for dps in (50, 70):
            with mp.workdps(dps):
                y = tuple(mp.mpf(str(v)) for v in sample_points(sysr, 1, seed=13)[0].y)
                fast = _geom_hp(sysr, y, mp.mpf(1))
                direct = _geom_hp_direct(sysr, y, mp.mpf(1))
                worst = mp.mpf(0)
                for f, d in zip(fast, direct):
                    fa = np.array(f, dtype=object).ravel()
                    da = np.array(d, dtype=object).ravel()
                    assert len(fa) == len(da)
                    for a, b in zip(fa, da):
                        worst = max(worst, abs(a - b) / (1 + abs(a)))
                assert worst < mp.mpf(10) ** (5 - dps), (kind, dps, worst)


# sha256 of repr(_geom_hp(E7, y, 1)) at the first seed-23 hp sample point,
# recorded from the kernel that multiplied out every orbit element in full
# (no pairing, no shared prefixes); the fixed-point products must not change.
@pytest.mark.parametrize(
    "dps,digest",
    [
        (50, "daed92e3536aaaf6810bdd321de90637f47703bba3a7b92e1d0d6826a1201a0d"),
        (70, "2d12a0f64f6252201792fe08dbbb53598c04f0dcd223d4f8b720bedf61996645"),
    ],
)
def test_hp_kernel_golden_bits(monkeypatch, dps, digest):
    # sample_points rounds hp coordinates at hp_digits(); pin its default
    monkeypatch.delenv("TAUFORGE_PRECISION", raising=False)
    with mp.workdps(dps):
        y = sample_points(E7, 1, seed=23, precision="hp")[0].y
        got = hashlib.sha256(repr(_geom_hp(E7, y, mp.mpf(1))).encode()).hexdigest()
    assert got == digest


def test_hp_plan_rejects_an_orbit_not_closed_under_negation():
    closed = ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)))
    lopsided = ((Fraction(1, 2), Fraction(1)), (Fraction(-1, 2), Fraction(0)))
    plan = _build_hp_plan((closed,), [1, 1], paired=True)
    assert [len(rows) for rows in plan.orbits] == [1]
    with pytest.raises(CancellationError):
        _build_hp_plan((closed, lopsided), [1, 1], paired=True)
    plan = _build_hp_plan((closed, lopsided), [1, 1], paired=False)
    assert plan.scale == 2 and plan.max_u == (2, 2)
    assert [len(rows) for rows in plan.orbits] == [2, 2]


def test_ground_state_energy_closed_form():
    assert ground_state_energy(E7, 2.0, 0.5) == 399.0 / 4 * 4.0 * 0.25
    assert ground_state_energy(build_system("A1"), 1.0, 1.0) == 0.25


@pytest.mark.parametrize("beta,nu", [(1.0, 0.5), (2.0, 1.7), (1.0, 3.0)])
def test_ground_state_residual_double(beta, nu):
    for pt in sample_points(E7, 5, seed=40, beta=beta, nu=nu):
        assert ground_state_residual(E7, pt) < 1e-8


def test_verify_tables_canonical_passes():
    rep = verify_tables(e7_operator("canonical"), samples=8, seed=77)
    assert rep["all_pass"]
    assert rep["discrepant"] == []
    assert rep["nu_linearity_max_residual"] < 1e-9


def test_verify_tables_raw_flags_the_known_entries():
    rep = verify_tables(e7_operator("raw"), samples=8, seed=77)
    assert rep["discrepant"] == ["A17", "B1", "B2", "B3", "B4", "B5", "B6", "B7"]
    failing = {e["entry"] for e in rep["entries"] if not e["pass"]}
    assert failing == set(rep["discrepant"])


def test_fit_recovers_a_b_entry_from_the_oracle():
    raw = e7_operator("raw")
    pool = FramePool(E7, 12, seed=23)
    fit = fit_entry(raw, "B1", pool=pool)
    assert fit.ok
    assert fit.residual < 1e-30
    assert fit.poly == e7_operator("canonical").b_entry(1)
    patched = with_entry(raw, "B1", fit.poly)
    assert patched.variant == "raw+fit"
    assert patched.b_entry(1) == fit.poly


def test_fit_rejects_an_undersized_pool():
    pool = FramePool(E7, 6, seed=23)
    with pytest.raises(ValueError):
        fit_entry(e7_operator("raw"), "B1", pool=pool)


def test_clearance_guard():
    with pytest.raises(ClearanceError):
        chain_rule_oracle(E7, SamplePoint(y=(0.0,) * 7))
    with pytest.raises(ClearanceError):
        ground_state_residual(E7, SamplePoint(y=(0.0,) * 7))


def test_frame_shapes():
    pt = sample_points(E7, 1, seed=2)[0]
    fr = build_frame(E7, pt)
    assert len(fr.tau) == 7
    assert len(fr.jac) == 7 and all(len(r) == 7 for r in fr.jac)
    assert len(fr.lap_tau) == 7
    assert len(fr.grad_logpsi) == 7


def test_precision_env_override(monkeypatch):
    monkeypatch.setenv("TAUFORGE_PRECISION", "72")
    assert hp_digits() == 72
