"""End-to-end acceptance checks, one test and one printed verdict line each.

Every numeric tolerance and runtime bound is stated inline; the verdict
line for criterion k reads  [criterion k] PASS/FAIL <label> <detail>.
"""

import time
from fractions import Fraction

import pytest

from tauforge.derive import derive_operator
from tauforge.exactpoly import MultiPoly, NuLinear
from tauforge.geometry import flatness_report, sabotaged
from tauforge.operator import (
    E7_CV,
    WP_PARAM_NAMES,
    apply,
    e7_operator,
    enumerate_flag_basis,
    flag_degree_check,
    spectrum,
    weighted_projective_check,
)
from tauforge.oracle import (
    FramePool,
    fit_entry,
    ground_state_energy,
    ground_state_residual,
    sample_points,
    verify_tables,
)
from tauforge.rootsys import build_system, deformed_weyl_vector, weyl_orbit

E7 = build_system("E7")


def _verdict(num, label, ok, detail, elapsed, limit):
    line = (
        f"[criterion {num}] {'PASS' if ok else 'FAIL'} {label}: "
        f"{detail} ({elapsed:.1f}s, limit {limit:.0f}s)"
    )
    print(line, flush=True)
    assert ok and elapsed < limit, line


def test_criterion_01_orbit_table():
    t0 = time.monotonic()
    sizes = tuple(weyl_orbit(E7, a).size for a in range(1, 8))
    lengths = E7.weight_lengths_sq
    ok = sizes == (56, 126, 576, 756, 2016, 4032, 10080) and lengths == (
        Fraction(3, 2),
        Fraction(2),
        Fraction(7, 2),
        Fraction(4),
        Fraction(6),
        Fraction(15, 2),
        Fraction(12),
    )
    _verdict(
        1, "orbit table", ok,
        f"sizes {sizes}", time.monotonic() - t0, 5,
    )


def test_criterion_02_ground_state():
    t0 = time.monotonic()
    worst = 0.0
    for beta in (1.0, 2.0):
        for nu in (0.5, 1.7, 3.0):
            for pt in sample_points(E7, 100, seed=777, beta=beta):
                worst = max(worst, ground_state_residual(E7, pt, nu))
    energy_ok = ground_state_energy(E7, 2.0, 3.0) == 399.0 / 4 * 4.0 * 9.0
    rho_ok = deformed_weyl_vector(E7).rho_sq_over_nu_sq == 798
    ok = worst < 1e-8 and energy_ok and rho_ok
    _verdict(
        2, "ground state", ok,
        f"max residual {worst:.2e} at 100 samples x 6 sweeps, "
        f"E0 law and rho^2/nu^2 = 798 exact",
        time.monotonic() - t0, 30,
    )


def test_criterion_03_table_verification():
    t0 = time.monotonic()
    raw = e7_operator("raw")
    rep = verify_tables(raw, samples=50, seed=20240, tol=1e-6)
    if rep["all_pass"]:
        hp = verify_tables(
            raw, samples=50, seed=20240, tol=1e-30, precision="hp"
        )
        ok = hp["all_pass"]
        detail = "all 35 entries match the oracle in double and hp"
    else:
        pool = FramePool(E7, 104, seed=23)
        fits = {w: fit_entry(raw, w, pool=pool) for w in rep["discrepant"]}
        ok = rep["discrepant"] == [
            "A17", "B1", "B2", "B3", "B4", "B5", "B6", "B7",
        ] and all(f.ok for f in fits.values())
        worst_fit = max(f.residual for f in fits.values())
        detail = (
            f"discrepant {rep['discrepant']} with refit residual "
            f"{worst_fit:.2e} < 1e-30"
        )
    _verdict(3, "table verification", ok, detail, time.monotonic() - t0, 300)


def test_criterion_04_point_zero_identity():
    t0 = time.monotonic()
    op = e7_operator("canonical")
    tau0 = tuple(Fraction(weyl_orbit(E7, a).size) for a in range(1, 8))
    a_ok = all(
        op.a_entry(i, j).evaluate(tau0) == 0
        for i in range(1, 8)
        for j in range(i, 8)
    )
    expected_b = [
        -E7.weight_lengths_sq[i] * weyl_orbit(E7, i + 1).size for i in range(7)
    ]
    b_vals = [op.b_entry(i + 1).evaluate(tau0, 0) for i in range(7)]
    ok = a_ok and b_vals == expected_b and b_vals[0] == -84
    _verdict(
        4, "point-zero identity", ok,
        f"A(tau(0)) = 0 and B(nu=0) = {[str(v) for v in b_vals]}",
        time.monotonic() - t0, 1,
    )


def test_criterion_05_flag_preservation():
    t0 = time.monotonic()
    ok = True
    for variant in ("raw", "canonical"):
        op = e7_operator(variant)
        ok = ok and flag_degree_check(op)["ok"]
        basis = enumerate_flag_basis("E7", 3)
        for mono in basis.monomials:
            m = MultiPoly(7, {mono: NuLinear.of(1)})
            img = apply(op, m)
            wd = img.weighted_degree(E7_CV)
            ok = ok and (img.is_zero() or wd <= 3)
    _verdict(
        5, "flag preservation", ok,
        "degree bounds hold and h(P3) lies in P3 for both variants",
        time.monotonic() - t0, 60,
    )


def test_criterion_06_structure_laws():
    t0 = time.monotonic()
    op = e7_operator("canonical")
    w = [E7.y_rep(v) for v in E7.fundamental_weights]
    a_ok = True
    for i in range(1, 8):
        for j in range(i, 8):
            exp = tuple(
                (1 if k in (i - 1, j - 1) else 0) + (1 if i == j == k + 1 else 0)
                for k in range(7)
            )
            coef = op.a_entry(i, j).terms.get(exp, NuLinear())
            a_ok = a_ok and coef == NuLinear.of(-E7.dot_y(w[i - 1], w[j - 1]))
    b_ok = True
    for variant in ("raw", "canonical"):
        for i in range(1, 8):
            nu_free = MultiPoly(
                7,
                {
                    e: NuLinear.of(c.c0)
                    for e, c in e7_operator(variant).b_entry(i).terms.items()
                },
            )
            d2 = E7.weight_lengths_sq[i - 1]
            b_ok = b_ok and nu_free == MultiPoly.variable(7, i).scale(-d2)
    _verdict(
        6, "structure laws", a_ok and b_ok,
        "A leading coefficients equal -(w_i.w_j); B_i(nu=0) = -d_i^2 tau_i",
        time.monotonic() - t0, 1,
    )


def test_criterion_07_spectrum():
    t0 = time.monotonic()
    raw = e7_operator("raw")
    w = [E7.y_rep(v) for v in E7.fundamental_weights]
    ok = True
    for n in (1, 2, 3):
        s = spectrum(raw, n)
        ok = ok and s.certificate == "dominance-triangular"
        free = sorted(s.at(0))
        expected = sorted(
            -E7.dot_y(lam, lam)
            for lam in (
                tuple(
                    sum(p * w[a][k] for a, p in enumerate(mono))
                    for k in range(7)
                )
                for mono in s.basis.monomials
            )
        )
        ok = ok and free == expected
    p1 = spectrum(raw, 1).eigenvalues
    ok = ok and p1 == (
        NuLinear.of(0),
        NuLinear.of(Fraction(-3, 2), Fraction(27, 2)),  # -(3/2)(1 - 9 nu)
    )
    _verdict(
        7, "spectrum", ok,
        "affine eigenvalues on P1..P3, free multiset -(lambda,lambda), "
        "P1 = {0, -(3/2)(1-9nu)}",
        time.monotonic() - t0, 60,
    )


def test_criterion_08_flatness():
    t0 = time.monotonic()
    can = e7_operator("canonical")
    dbl = flatness_report(can, points=10, seed=11)
    hp = flatness_report(can, points=10, seed=11, precision="hp")
    fault = flatness_report(sabotaged(can), points=10, seed=11)
    ok = (
        dbl["max_riemann_normalized"] < 1e-6
        and hp["max_riemann_normalized"] < 1e-30
        and fault["max_riemann_normalized"] > 1e-3
    )
    _verdict(
        8, "flatness", ok,
        f"max Riemann {dbl['max_riemann_normalized']:.2e} double / "
        f"{hp['max_riemann_normalized']:.2e} hp; "
        f"fault raises it to {fault['max_riemann_normalized']:.2e}",
        time.monotonic() - t0, 120,
    )


def test_criterion_09_hidden_invariance():
    t0 = time.monotonic()
    import numpy as np

    rng = np.random.default_rng(5)
    ok = True
    for _ in range(3):
        params = {
            name: Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5)))
            for name in WP_PARAM_NAMES
        }
        rep = weighted_projective_check(params, 6, mode="sequential")
        ok = ok and rep["ok"] and rep["det"] == "1"
        ok = ok and rep["unit_triangular_lines"]
    _verdict(
        9, "hidden invariance", ok,
        "3 random rational substitutions: unit triangular on P6, det 1",
        time.monotonic() - t0, 120,
    )


def test_criterion_10_methodology_closure():
    t0 = time.monotonic()
    a1 = derive_operator(build_system("A1"))
    t = MultiPoly.variable(1, 1)
    a1_ok = a1.a_entry(1, 1) == MultiPoly.constant(1, 2) - (t * t).scale(
        Fraction(1, 2)
    ) and a1.b_entry(1) == t * MultiPoly.constant(
        1, NuLinear.of(Fraction(-1, 2), -1)
    )
    residuals = {}
    for kind in ("A2", "G2"):
        op = derive_operator(build_system(kind))
        rep = verify_tables(
            op, samples=20, seed=77, tol=1e-10, precision="hp"
        )
        residuals[kind] = max(e["max_rel_residual"] for e in rep["entries"])
    ok = a1_ok and all(r < 1e-10 for r in residuals.values())
    _verdict(
        10, "methodology closure", ok,
        f"A1 closed form exact; oracle residuals "
        f"A2 {residuals['A2']:.1e}, G2 {residuals['G2']:.1e}",
        time.monotonic() - t0, 60,
    )
