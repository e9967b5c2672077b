import dataclasses
import hashlib
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import matrix, mp, mpf
from mpmath import qr_solve as mp_qr_solve

from tauforge import oracle
from tauforge.cli import SYSTEMS
from tauforge.derive import derive_operator
from tauforge.exactpoly import MultiPoly, compile_poly, eval_compiled, top_exponents
from tauforge.geometry import sabotaged
from tauforge.fixedpoint import complex_qr_solve, qr_solve, to_fixed
from tauforge.operator import build_operator, e7_operator
from tauforge.oracle import (
    CancellationError,
    ClearanceError,
    FORK_MIN_DOUBLE_POINTS,
    FORK_MIN_ORBIT_ROWS,
    HELD_OUT_FRAMES,
    FramePool,
    NumericFrame,
    SamplePoint,
    SamplingError,
    build_frame,
    chain_rule_oracle,
    clearance,
    fit_entry,
    ground_state_energy,
    ground_state_residual,
    sample_points,
    tau_numeric,
    verify_tables,
    _build_hp_plan,
    _converter,
    _fit_plan,
    _geom_double,
    _powers,
    _rho_sq,
    _geom_hp,
    _grouped_sums,
    _hp_plan,
    _root_mp,
    _map_points,
    _trie_step,
)
from tauforge.rootsys import build_system, deformed_weyl_vector, orbit_rows

E7 = build_system("E7")


def test_sample_points_are_deterministic_and_cleared():
    a = sample_points(E7, 6, seed=3)
    b = sample_points(E7, 6, seed=3)
    assert a == b
    assert all(clearance(E7, p) > 1e-3 for p in a)


def test_tau_is_weyl_invariant_under_a_coordinate_swap():
    # x1 - x2 is a root, so swapping the first two coordinates is in W
    pt = sample_points(E7, 1, seed=9)[0]
    swapped = SamplePoint(y=(pt.y[1], pt.y[0]) + pt.y[2:], beta=pt.beta)
    t1 = tau_numeric(E7, pt)
    t2 = tau_numeric(E7, swapped)
    assert max(abs(a - b) / (1 + abs(a)) for a, b in zip(t1, t2)) < 1e-12


def test_oracle_is_independent_of_beta_rescaling():
    # phases depend on beta*y only, and A, B carry an explicit 1/beta^2
    pt = sample_points(E7, 1, seed=5, beta=1.9)[0]
    unit = SamplePoint(y=tuple(1.9 * v for v in pt.y), beta=1.0)
    A1, B1 = chain_rule_oracle(E7, pt, 0.7)
    A2, B2 = chain_rule_oracle(E7, unit, 0.7)
    for i in range(7):
        assert abs(B1[i] - B2[i]) / (1 + abs(B1[i])) < 1e-11
        for j in range(7):
            assert abs(A1[i][j] - A2[i][j]) / (1 + abs(A1[i][j])) < 1e-11


def test_numeric_b_is_affine_in_nu():
    y = sample_points(E7, 1, seed=21)[0].y
    vals = []
    for nu in (0.0, 1.0, 2.0):
        _, B = chain_rule_oracle(E7, SamplePoint(y=y), nu)
        vals.append(B)
    for b0, b1, b2 in zip(*vals):
        scale = 1 + abs(b0) + abs(b2)
        assert abs((b2 - b1) - (b1 - b0)) / scale < 1e-10


def test_hp_oracle_reads_nu_as_its_decimal_value():
    # 0.7 is no binary fraction: an hp B takes mpf("0.7"), as verify-tables
    # does, and not the binary float's mpf(0.7)
    with mp.workdps(50):
        pt = sample_points(E7, 1, seed=21, precision="hp")[0]
        _, B = chain_rule_oracle(E7, pt, 0.7)
        frame = build_frame(E7, pt)
        gw = oracle._metric_weights("E7", True)
        for i, got in enumerate(B):
            base, slope = oracle._oracle_ab(frame, gw, mpf(1), ("B", i, None))
            assert got == base + mpf("0.7") * slope
            assert got != base + mpf(0.7) * slope


def _geom_hp_direct(sysr, y, beta):
    """Reference for _geom_hp: one mpmath cos_sin per orbit element."""
    gw = [mpf(g.numerator) / g.denominator for g in sysr.metric_weights[: sysr.y_dim]]
    taus, jacs, laps = [], [], []
    dim = sysr.y_dim
    scale, ints = orbit_rows(sysr.kind)
    for rows in ints:
        M = [[mpf(c) / scale for c in u] for u in rows.tolist()]
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


def _geom_hp_stack(sysr, y, beta):
    """Reference for _geom_hp: the walk over orbit elements sorted by their
    nonzero (k, u_k) lists, sharing prefix products through a stack.

    Each row's factors are multiplied in k order, each product rounded as
    the kernel rounds its half-row products, and tau, J and the Laplacian
    are summed row by row.  The kernel multiplies its two half-row products
    exactly instead, so its sums differ from these by a few units of
    2^-shift, 64 bits below the working precision, and every output must
    round to the same mpf: the kernel's, bit for bit.
    """
    dim = sysr.y_dim
    gws = [int(g) for g in sysr.metric_weights[:dim]]
    scale, ints = orbit_rows(sysr.kind)
    paired = sysr.has_minus_one
    max_u = [0] * dim
    orbits = []
    for m in ints:
        us = set(map(tuple, m.tolist()))
        if paired and any(tuple(-uk for uk in u) not in us for u in us):
            raise CancellationError("orbit is not closed under negation")
        rows, prev = [], ()
        for nz in sorted(tuple((k, uk) for k, uk in enumerate(u) if uk) for u in us):
            for k, uk in nz:
                max_u[k] = max(max_u[k], abs(uk))
            if paired and nz[0][1] < 0:
                continue
            share = 0
            while share < min(len(nz), len(prev)) and nz[share] == prev[share]:
                share += 1
            w2num = sum(gws[k] * uk * uk for k, uk in nz)
            rows.append((share, nz[share:], nz, w2num))
            prev = nz
        orbits.append(rows)

    shift = mp.prec + 64
    half = 1 << (shift - 1)
    with mp.workprec(shift + 16):
        theta = [beta * yk / scale for yk in y]
        table = []
        for k in range(dim):
            row = {}
            for u in range(-max_u[k], max_u[k] + 1):
                c, s = mp.cos_sin(u * theta[k])
                row[u] = (to_fixed(c, shift), to_fixed(s, shift))
            table.append(row)

    stack = [(1 << shift, 0)] * (dim + 1)
    to_mpf = lambda acc, down: mp.ldexp(mpf(int(acc)), -shift) / down
    taus, jacs, laps = [], [], []
    for rows in orbits:
        tau_c = tau_s = lap_c = lap_s = 0
        jac_c = [0] * dim
        jac_s = [0] * dim
        for depth, tail, nz, w2num in rows:
            fc, fs = stack[depth]
            for k, uk in tail:
                c, s = table[k][uk]
                fc, fs = (
                    (fc * c - fs * s + half) >> shift,
                    (fc * s + fs * c + half) >> shift,
                )
                depth += 1
                stack[depth] = (fc, fs)
            tau_c += fc
            lap_c += w2num * fc
            for k, uk in nz:
                jac_s[k] += uk * fs
            if not paired:
                tau_s += fs
                lap_s += w2num * fs
                for k, uk in nz:
                    jac_c[k] += uk * fc
        if paired:
            taus.append(to_mpf(2 * tau_c, 1))
            jacs.append([-beta * to_mpf(2 * jac_s[k], scale) for k in range(dim)])
            laps.append(-(beta**2) * to_mpf(2 * lap_c, scale**2))
        else:
            taus.append(to_mpf(tau_c, 1) + 1j * to_mpf(tau_s, 1))
            jacs.append(
                [
                    -beta * to_mpf(jac_s[k], scale)
                    + 1j * beta * to_mpf(jac_c[k], scale)
                    for k in range(dim)
                ]
            )
            laps.append(
                -(beta**2)
                * (to_mpf(lap_c, scale**2) + 1j * to_mpf(lap_s, scale**2))
            )
    cotg = [mpf(0)] * dim
    for r in _root_mp(sysr.kind, mp.dps):
        c, s = mp.cos_sin(beta * sum(r[k] * y[k] for k in range(dim)) / 2)
        ct = (beta / 2) * c / s
        for k in range(dim):
            cotg[k] += ct * r[k]
    return taus, jacs, laps, cotg


@pytest.mark.parametrize("dps", [15, 50, 70, 90])
@pytest.mark.parametrize("kind", ["E7", "A1", "A2", "G2"])
def test_hp_kernel_matches_the_stack_walk_bit_for_bit(kind, dps):
    # E7, A1 and G2 take the paired path, A2 the complex one
    sysr = build_system(kind)
    with mp.workdps(dps):
        points = sample_points(sysr, 3, seed=41, precision="hp", digits=dps)
        for point, beta in zip(points, ("1", "1", "1.3")):
            beta = mpf(beta)
            got = _geom_hp(sysr, point.y, beta)
            want = _geom_hp_stack(sysr, point.y, beta)
            assert [repr(v) for v in got] == [repr(v) for v in want]


@pytest.mark.parametrize("dps", [50, 70])
def test_hp_kernel_matches_the_stack_walk_at_ten_e7_points(dps):
    # ten seed-23 points, alternating beta 1 and 1.3: a rounding tie that
    # fell differently in the half-row split would show as a repr change
    with mp.workdps(dps):
        points = sample_points(E7, 10, seed=23, precision="hp", digits=dps)
        for i, point in enumerate(points):
            beta = mpf("1.3" if i % 2 else "1")
            got = _geom_hp(E7, point.y, beta)
            want = _geom_hp_stack(E7, point.y, beta)
            assert [repr(v) for v in got] == [repr(v) for v in want], (dps, i)


# sha256 of repr(tuple(_geom_hp(E7, y, 1))) at the first seed-23 hp sample point,
# recorded from the kernel that multiplied out every orbit element in full
# (no pairing, no shared prefixes); the fixed-point products must not change.
@pytest.mark.parametrize(
    "dps,digest",
    [
        (50, "daed92e3536aaaf6810bdd321de90637f47703bba3a7b92e1d0d6826a1201a0d"),
        (70, "2d12a0f64f6252201792fe08dbbb53598c04f0dcd223d4f8b720bedf61996645"),
    ],
)
def test_hp_kernel_golden_bits(dps, digest):
    # sample_points rounds hp coordinates at 50 digits by default
    with mp.workdps(dps):
        y = sample_points(E7, 1, seed=23, precision="hp")[0].y
        frame = tuple(_geom_hp(E7, y, mp.mpf(1)))
        got = hashlib.sha256(repr(frame).encode()).hexdigest()
    assert got == digest


def _kept_sizes(plan):
    """The number of kept rows of each orbit."""
    group_rows = np.diff(np.append(plan.group_starts, len(plan.rows_u2)))
    return np.add.reduceat(group_rows, plan.orbit_starts).tolist()


def test_hp_plan_rejects_an_orbit_not_closed_under_negation():
    # integer rows at scale 2: closed is {(1, 0), (-1, 0)}, lopsided is
    # {(1/2, 1), (-1, 1/2)}; both have one sum_k g_k u_k^2
    closed = np.array([[2, 0], [-2, 0]])
    lopsided = np.array([[1, 2], [-2, 1]])
    plan = _build_hp_plan(2, (closed,), [1, 1], paired=True)
    assert _kept_sizes(plan) == [1]
    with pytest.raises(CancellationError):
        _build_hp_plan(2, (closed, lopsided), [1, 1], paired=True)
    plan = _build_hp_plan(2, (closed, lopsided), [1, 1], paired=False)
    assert plan.scale == 2
    assert _kept_sizes(plan) == [2, 2]
    assert plan.w2 == (4, 5)


def test_hp_plan_rejects_an_orbit_whose_weighted_norm_varies():
    # the square {(+-1, 0), (0, +-1)} at scale 2 has one norm under equal
    # weights and two under g = (1, 2)
    square = np.array([[2, 0], [-2, 0], [0, 2], [0, -2]])
    plan = _build_hp_plan(2, (square,), [1, 1], paired=True)
    assert plan.w2 == (4,)
    with pytest.raises(ValueError, match="not constant"):
        _build_hp_plan(2, (square,), [1, 2], paired=True)


def test_hp_plan_rejects_rows_whose_codes_overflow_int64():
    # radix 2 * 1000 + 1 over 7 coordinates needs 77 bits
    wide = np.array([[1000] * 7, [-1000] * 7])
    with pytest.raises(ValueError, match="too large"):
        _build_hp_plan(2, (wide,), [1] * 7, paired=True)
    _build_hp_plan(2, (wide // 100,), [1] * 7, paired=True)


def _half_rows(plan):
    """Per half, its distinct half-rows u1 or u2, rebuilt from their factors."""
    widths = plan.u1s.shape[1], len(plan.grads)
    halves = []
    for factors, k0, width in zip(plan.factors, (0, widths[0]), widths):
        assert factors.shape[1] == width + 1
        rows = []
        for f in factors.tolist():
            # the factors (k, u_k) in k order, then the factor 1, len(keys)
            n = sum(i < len(plan.keys) for i in f)
            assert f[n:] == [len(plan.keys)] * (width + 1 - n)
            ks = [plan.keys[i][0] for i in f[:n]]
            assert ks == sorted(set(ks)) and all(k0 <= k < k0 + width for k in ks)
            u = [0] * width
            for i in f[:n]:
                k, x = plan.keys[i]
                u[k - k0] = x
            rows.append(u)
        halves.append(rows)
    return halves


def _plan_rows(plan):
    """Per kept row in plan order, (orbit, group, the row u rebuilt from (u1, u2))."""
    group_rows = np.diff(np.append(plan.group_starts, len(plan.rows_u2)))
    groups = np.repeat(np.arange(len(plan.group_starts)), group_rows)
    orbit_groups = np.diff(np.append(plan.orbit_starts, len(plan.group_starts)))
    orbit_of_group = np.repeat(np.arange(len(plan.orbit_starts)), orbit_groups)
    u1, u2 = _half_rows(plan)
    return [
        (int(orbit_of_group[g]), int(g), u1[plan.group_u1[g]] + u2[i])
        for g, i in zip(groups.tolist(), plan.rows_u2.tolist())
    ]


def test_e7_hp_plan_puts_each_kept_row_in_one_orbit_u1_group():
    plan = _hp_plan("E7")
    assert plan.paired and plan.scale == 2 and plan.u1s.shape[1] == 3
    assert [len(f) for f in plan.factors] == [170, 1_301]
    assert len(plan.group_starts) == 409
    assert _kept_sizes(plan) == [28, 63, 288, 378, 1008, 2016, 5040]
    rows = _plan_rows(plan)
    assert len(rows) == 8_821
    # a group is one (orbit, u1), and u1s holds its entries; the kept rows,
    # rebuilt from (u1, u2), are each orbit's rows whose first nonzero entry
    # is positive, once each
    assert len({(a, g) for a, g, _ in rows}) == len({(a, tuple(u[:3])) for a, _, u in rows})
    assert len({g for _, g, _ in rows}) == 409
    assert {(g, tuple(u[:3])) for _, g, u in rows} == set(enumerate(map(tuple, plan.u1s.tolist())))
    u1, u2 = _half_rows(plan)
    assert len(set(map(tuple, u1))) == 170 and len(set(map(tuple, u2))) == 1_301
    _, ints = orbit_rows("E7")
    gws = [int(g) for g in E7.metric_weights[: E7.y_dim]]
    for a, (m, w2) in enumerate(zip(ints, plan.w2)):
        got = [tuple(u) for b, _, u in rows if b == a]
        assert len(set(got)) == len(got)
        assert set(got) == {tuple(u) for u in m.tolist() if next(x for x in u if x) > 0}
        assert {sum(g * x * x for g, x in zip(gws, u)) for u in m.tolist()} == {w2}


_SIGNED_400 = st.integers(-(1 << 400) + 1, (1 << 400) - 1)


@given(_SIGNED_400, _SIGNED_400, _SIGNED_400, _SIGNED_400, st.integers(1, 400))
@example(0, 0, 0, 0, 1)
@example(-1, -1, -1, -1, 1)
@example(-(1 << 399), 1 << 399, (1 << 400) - 1, -(1 << 400) + 1, 400)
@settings(max_examples=300, deadline=None)
def test_the_three_product_trie_step_is_the_four_product_one(pc, ps, c, s, shift):
    half = 1 << (shift - 1)
    want = ((pc * c - ps * s + half) >> shift, (pc * s + ps * c + half) >> shift)
    arr = lambda v: np.array([v], dtype=object)
    got = _trie_step(arr(pc), arr(ps), arr(c), arr(c + s), arr(s - c), shift)
    assert (got[0][0], got[1][0]) == want


def _random_ints(rng, size):
    """size random Python ints of up to 320 bits, as an object array."""
    return np.array(
        [int(rng.integers(-3, 4)) * (1 << int(rng.integers(0, 320))) + int(rng.integers(-1000, 1000))
         for _ in range(size)],
        dtype=object,
    )


@pytest.mark.parametrize("kind", ["E7", "A1", "A2", "G2"])
def test_each_nonzero_gradient_entry_falls_in_exactly_one_group(kind):
    # a first-half u_k is constant on a group and read from u1s; a
    # second-half one is grouped row by row
    plan, dim = _hp_plan(kind), build_system(kind).y_dim
    split = plan.u1s.shape[1]
    rows = _plan_rows(plan)
    assert split == dim // 2 and len(plan.grads) == dim - split
    assert all(u[:split] == plan.u1s[g].tolist() for _, g, u in rows)
    for k, (index, starts, values, groups, group_starts) in enumerate(plan.grads, split):
        want = {(g, i): u[k] for (_, g, u), i in zip(rows, plan.rows_u2.tolist()) if u[k]}
        group_ends = np.append(starts[1:], len(index))
        group_of = np.repeat(groups, np.diff(np.append(group_starts, len(starts))))
        got = []
        for lo, hi, value, g in zip(starts, group_ends, values, group_of):
            assert lo < hi and value != 0
            got += [((int(g), i), value) for i in index[lo:hi].tolist()]
        assert len(got) == len(want) == len(dict(got))
        assert dict(got) == want


@pytest.mark.parametrize("kind", ["E7", "A1", "A2", "G2"])
def test_grouped_gradient_sums_equal_the_row_matmul(kind):
    # sum_u g1[u1] g2[u2] and sum_u u_k g1[u1] g2[u2] per orbit, assembled
    # as _geom_hp assembles them, against the kept rows' products times [1, u]
    plan = _hp_plan(kind)
    rows = _plan_rows(plan)
    rng = np.random.default_rng(19)
    orbit_sums = lambda v: np.add.reduceat(v, plan.orbit_starts, axis=0)
    for _ in range(2):
        g1, g2 = (_random_ints(rng, len(f)) for f in plan.factors)
        a = g1[plan.group_u1]
        f = a * np.add.reduceat(g2[plan.rows_u2], plan.group_starts)
        h = [_grouped_sums(group, g2, len(a)) for group in plan.grads]
        got = orbit_sums(np.column_stack([f, f[:, None] * plan.u1s] + [a * x for x in h]))
        for orbit, row in enumerate(got):
            kept = [(g, i, u) for (b, g, u), i in zip(rows, plan.rows_u2) if b == orbit]
            x = np.array([g1[plan.group_u1[g]] * g2[i] for g, i, _ in kept], dtype=object)
            U = np.array([[1] + u for _, _, u in kept], dtype=object)
            assert row.tolist() == (x @ U).tolist()


# sha256 of repr(tuple(_geom_double(sysr, y, beta))) at the first sample point of
# each (seed, beta), recorded from the frames built on the Fraction orbits
# (numpy 2.4, x86-64 Linux); the integer orbit rows must not move a bit
GOLDEN_DOUBLE = {
    ("E7", 7, 1.0): "c27c9eb94b5b7b804cc86d232acaa2b22aeb3fcb75b6e14a1c0d80a2a57f5db7",
    ("E7", 31, 1.3): "c1473808fb1aff6fc27ab23901716c0bf1d841f87bed6fb6f03ee73064cd955f",
    ("A1", 7, 1.0): "24e08b96dfdefe50cf7e78df5a0bf66206be461510fb1242a522ba47bac2ceaa",
    ("A1", 31, 1.3): "85b71d0d2a42c09cd098fd8b4229e10b386436e6ea35a76b271caf9f9ae909a7",
    ("A2", 7, 1.0): "9f9bbadebe920a03fc839c2d7dd4955ef0048457e04d307a0dca3afabb7d5542",
    ("A2", 31, 1.3): "b72248843381ec82a12006ba7a15f799cc991284c1991c604b4b32a3ca003cf0",
    ("G2", 7, 1.0): "791bd4492ac02b429be9f523b0b137d98adb953594eb5a913b01a4c797e1b0fe",
    ("G2", 31, 1.3): "9d856939468f3a093a4f376e8265db15c6b8f21b383397a66b9a7273b1185587",
}


@pytest.mark.parametrize("key,digest", GOLDEN_DOUBLE.items(), ids=str)
def test_double_frame_golden_bits(key, digest):
    kind, seed, beta = key
    sysr = build_system(kind)
    y = sample_points(sysr, 1, seed=seed, beta=beta)[0].y
    got = tuple(_geom_double(sysr, np.array(y), beta))
    assert hashlib.sha256(repr(got).encode()).hexdigest() == digest


def test_verify_tables_rejects_a_repeated_nu():
    op = e7_operator("canonical")
    with pytest.raises(ValueError, match="nu values must be distinct, got 0.0,0.0,1.0"):
        verify_tables(op, samples=3, nu_list=[0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="must be distinct"):
        verify_tables(op, samples=3, nu_list=[0.5, 2.5, 0.5], precision="hp")


def test_an_entry_with_no_residual_reports_zero():
    # at this one hp point the B2 residual is exactly zero
    rep = verify_tables(e7_operator("canonical"), samples=1, precision="hp")
    (b2,) = [row for row in rep["entries"] if row["entry"] == "B2"]
    assert b2 == {"entry": "B2", "max_rel_residual": 0.0, "pass": True}
    assert rep["all_pass"]


def test_ground_state_energy_closed_form():
    assert ground_state_energy(E7, 2.0, 0.5) == 399.0 / 4 * 4.0 * 0.25
    assert ground_state_energy(build_system("A1"), 1.0, 1.0) == 0.25


@pytest.mark.parametrize("beta,nu", [(1.0, 0.5), (2.0, 1.7), (1.0, 3.0)])
def test_ground_state_residual_double(beta, nu):
    for pt in sample_points(E7, 5, seed=40, beta=beta):
        assert ground_state_residual(E7, pt, nu) < 1e-8


def test_verify_tables_canonical_passes():
    rep = verify_tables(e7_operator("canonical"), samples=8, seed=77)
    assert rep["all_pass"]
    assert rep["discrepant"] == []


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
    patched = build_operator(E7, {"B1": fit.poly}, "raw+fit", base=raw)
    assert patched.b_entry(1) == fit.poly


def test_a_modified_copy_reports_its_own_violations():
    can = e7_operator("canonical")
    tau1 = MultiPoly.variable(7, 1)
    broken = build_operator(E7, {"A11": can.A[0][0] + tau1 * tau1}, "canonical+fit", base=can)
    assert broken.violations == (
        "A11: coefficient of tau_1tau_1 is -1/2, leading law needs -3/2",
    )
    # any copy recomputes them from its own tables
    assert dataclasses.replace(broken, A=can.A).violations == ()


@pytest.mark.parametrize("kind", ["E7", "A2"])
def test_pool_frames_are_build_frame_frames_at_a_non_dyadic_beta(kind):
    # 1.3 is no binary fraction, so mpf(1.3) and mpf("1.3") differ in their
    # last bits: the refit must see the frames verify-tables sees
    sysr = build_system(kind)
    pool = FramePool(sysr, HELD_OUT_FRAMES + 1, seed=23, beta=1.3)
    with pool.workdps():
        pts = sample_points(sysr, HELD_OUT_FRAMES + 1, seed=23, beta=1.3,
                            precision="hp", digits=pool.dps)
        assert pool.beta == mpf("1.3")
        assert pool.frames == [build_frame(sysr, pt) for pt in pts]


def test_fit_rejects_an_undersized_pool():
    pool = FramePool(E7, 6, seed=23)
    with pytest.raises(ValueError):
        fit_entry(e7_operator("raw"), "B1", pool=pool)


def test_a2_refit_rejects_coefficients_with_an_imaginary_part():
    # turning every jacobian by e^{i pi/4} multiplies A11 by i, so its least
    # squares coefficients are i times the true ones: real parts zero, and
    # imaginary parts far above the reconstruction bound
    a2 = build_system("A2")
    op = derive_operator(a2)
    pool = FramePool(a2, 24, seed=23)
    with mp.workdps(pool.dps + 20):
        turn = mp.expjpi(mpf(1) / 4)
        pool.frames = [
            NumericFrame(taus, [[turn * v for v in row] for row in jacs], laps, cot)
            for taus, jacs, laps, cot in pool.frames
        ]
    fit = fit_entry(op, "A11", pool=pool)
    assert not fit.reconstructed and fit.poly is None
    assert fit.max_denominator == 4
    # A11 = 2 tau_2 - (2/3) tau_1^2; in basis order tau_2 comes first
    miss = fit.first_miss
    assert (miss["exp"], miss["nu_pow"], miss["part"]) == ([0, 1], 0, "imaginary")
    assert miss["value"].endswith(" + 2.0j)")
    assert miss["value"] == fit.raw_coefficients[1]
    assert fit_entry(op, "A11", pool=FramePool(a2, 24, seed=23)).ok


def _ref_monomial_row(basis, taus):
    """fit_entry's design row before it moved to the shared term loop: `**`
    powers of the exponents the basis uses, and each monomial a product
    from mpf(1) in coordinate order."""
    pw = [{e: t**e for e in es} for t, es in zip(taus, [set(col) for col in zip(*basis)])]
    row = []
    for p in basis:
        m = mpf(1)
        for k, e in enumerate(p):
            if e:
                m *= pw[k][e]
        row.append(m)
    return row


@pytest.mark.parametrize(
    "kind,which,count,digits",
    [("E7", "B2", 14, 50), ("E7", "B2", 14, 70), ("A2", "A11", 24, 50), ("G2", "A11", 20, 50)],
)
def test_fit_design_rows_match_the_reference_bit_for_bit(monkeypatch, kind, which, count, digits):
    op = e7_operator("raw") if kind == "E7" else derive_operator(build_system(kind))
    sysr = op.system
    pool = FramePool(sysr, count, seed=23, digits=digits)
    # the rows reach the solver as its first argument; A2's frames are mpc
    name = "qr_solve" if sysr.has_minus_one else "complex_qr_solve"
    solve, seen = getattr(oracle, name), []
    monkeypatch.setattr(oracle, name, lambda rows, rhs: seen.append(rows) or solve(rows, rhs))
    assert fit_entry(op, which, pool=pool).ok
    plan = _fit_plan(op, which)
    basis, frames = plan[3], plan[-1]
    with pool.workdps():
        want = [_ref_monomial_row(basis, frame[0]) for frame in pool.frames[:frames]]
        (got,) = seen
        assert got == want
        assert repr(got) == repr(want)


def test_qr_solve_recovers_small_rationals_for_several_right_hand_sides():
    # a consistent overdetermined integer system: every solution is rebuilt
    # exactly by the fit's reconstruction with denominators up to 4
    rng = np.random.default_rng(8)
    a = rng.integers(-9, 10, size=(14, 6)).tolist()
    xs = [[Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 5))) for _ in range(6)]
          for _ in range(3)]
    with mp.workdps(60):
        rows = [[mpf(v) for v in row] for row in a]
        rhs = [
            [mpf(b.numerator) / b.denominator
             for b in (sum(c * x for c, x in zip(row, xk)) for row in a)]
            for xk in xs
        ]
        sols = qr_solve(rows, rhs)
        for sol, xk in zip(sols, xs):
            assert [Fraction(mp.nstr(c, 40)).limit_denominator(4) for c in sol] == xk
            assert max(abs(c - mpf(x.numerator) / x.denominator)
                       for c, x in zip(sol, xk)) < mpf(10) ** -50


def test_complex_qr_solve_matches_mpmath_on_an_a2_system():
    a2 = build_system("A2")
    op = derive_operator(a2)
    basis = _fit_plan(op, "A11")[3]
    pool = FramePool(a2, 24, seed=23)
    with mp.workdps(pool.dps + 20):
        rows = [
            [mp.fprod(t**e for t, e in zip(frame[0], p)) for p in basis]
            for frame in pool.frames[:20]
        ]
        # a right-hand side with a complex least-squares solution and a
        # nonzero residual: (1 + 2i) A11 + tau_1^3, outside the basis
        rhs = [
            (1 + 2j) * sum(a * a for a in frame[1][0]) + frame[0][0] ** 3
            for frame in pool.frames[:20]
        ]
        (ours,) = complex_qr_solve(rows, [rhs])
        theirs, _ = mp_qr_solve(matrix(rows), matrix(rhs))
        assert max(abs(c - theirs[k]) for k, c in enumerate(ours)) < mpf(10) ** -60


def test_qr_solve_rejects_an_underdetermined_system():
    rows = [[mpf(1), mpf(2), mpf(3)], [mpf(4), mpf(5), mpf(6)]]
    with pytest.raises(ValueError, match="underdetermined"):
        qr_solve(rows, [[mpf(1), mpf(2)]])


def test_fit_on_a_pool_of_identical_frames_is_singular():
    pool = FramePool(E7, 5, seed=23, fit_frames=1)
    pool.frames = [pool.frames[0]] * 14
    pool.fit_frames = 10
    with pytest.raises(ValueError, match="matrix is numerically singular"):
        fit_entry(e7_operator("raw"), "B1", pool=pool)


def test_clearance_guard():
    with pytest.raises(ClearanceError):
        chain_rule_oracle(E7, SamplePoint(y=(0.0,) * 7), 0.5)
    with pytest.raises(ClearanceError):
        ground_state_residual(E7, SamplePoint(y=(0.0,) * 7), 0.5)


def test_frame_shapes():
    pt = sample_points(E7, 1, seed=2)[0]
    fr = build_frame(E7, pt)
    assert len(fr.tau) == 7
    assert len(fr.jac) == 7 and all(len(r) == 7 for r in fr.jac)
    assert len(fr.lap_tau) == 7
    assert len(fr.cot) == 7


def _ref_eval_poly(poly, tau, nu):
    """The table evaluator before compilation: each coefficient converted
    and each tau power raised per term, at every point.  The compiled path
    must match it bit for bit."""
    use_mp = isinstance(tau[0], (mpf, mp.mpc))
    total = None
    for exp, coef in poly.terms.items():
        if use_mp:
            c = mpf(coef.c0.numerator) / coef.c0.denominator + (
                mpf(coef.c1.numerator) / coef.c1.denominator
            ) * nu
        else:
            c = float(coef.c0) + float(coef.c1) * nu
        m = c
        for e, t in zip(exp, tau):
            if e:
                m = m * t**e
        total = m if total is None else total + m
    if total is None:
        return 0 * tau[0]
    return total


def _table_polys(op):
    r = op.rank
    return [op.A[i][j] for i in range(r) for j in range(i, r)] + list(op.B)


@pytest.mark.parametrize("variant", ["raw", "canonical", "sabotaged", "A2", "G2"])
def test_compiled_tables_match_the_per_term_reference_bit_for_bit(variant):
    if variant in ("A2", "G2"):
        op = derive_operator(build_system(variant))
    else:
        op = e7_operator("canonical" if variant == "sabotaged" else variant)
        if variant == "sabotaged":
            op = sabotaged(op)
    sysr = op.system
    polys = _table_polys(op)
    for precision in ("double", "hp"):
        with mp.workdps(50):
            hp = precision == "hp"
            nus = (
                [mpf(0), mpf("0.5"), mpf("2.5")] if hp else [0.0, 0.5, 2.5, -0.0]
            )
            for nu in nus:
                compiled = [compile_poly(p, _converter(hp), nu) for p in polys]
                top = top_exponents(compiled, op.rank)
                for pt in sample_points(sysr, 2, seed=31, precision=precision):
                    taus = tau_numeric(sysr, pt)
                    pw = _powers(taus, top)
                    for poly, terms in zip(polys, compiled):
                        got = eval_compiled(terms, pw, taus)
                        want = _ref_eval_poly(poly, taus, nu)
                        assert got == want and type(got) is type(want)


def test_zero_poly_evaluates_to_zero_in_the_frame_arithmetic():
    taus = (np.float64(0.5), np.float64(2.0))
    got = eval_compiled(compile_poly(MultiPoly.zero(2), float, 0.0), [[], []], taus)
    assert got == 0 and type(got) is np.float64


def test_cached_rho_sq_matches_the_sum_of_positive_roots():
    for kind in ("E7", "A1", "A2", "G2"):
        sysr = build_system(kind)
        assert _rho_sq(kind) == deformed_weyl_vector(sysr).rho_sq_over_nu_sq
        assert ground_state_energy(sysr, 1.5, 0.7) == (
            1.5**2 * 0.7**2 * float(deformed_weyl_vector(sysr).rho_sq_over_nu_sq) / 8
        )


def test_sample_points_give_up_when_no_point_clears():
    with pytest.raises(SamplingError, match="100000 draws in a row at beta=1e-09"):
        sample_points(E7, 2, beta=1e-9)


def test_the_rejection_bound_counts_draws_in_a_row(monkeypatch):
    # 40 rejections, one acceptance, 40 rejections, one acceptance: under a
    # bound of 50 in a row that completes; 50 straight rejections do not
    draws = []

    def scripted(sysr, point):
        draws.append(point)
        return 1.0 if len(draws) in (41, 82) else 0.0

    monkeypatch.setattr("tauforge.oracle.MAX_REJECTED_DRAWS", 50)
    monkeypatch.setattr("tauforge.oracle.clearance", scripted)
    assert len(sample_points(E7, 2)) == 2
    assert len(draws) == 82
    draws.clear()
    monkeypatch.setattr(
        "tauforge.oracle.clearance", lambda sysr, point: draws.append(point) or 0.0
    )
    with pytest.raises(SamplingError):
        sample_points(E7, 1, beta=2.0)
    assert len(draws) == 50


def _pin_cpus(monkeypatch, cpus: int) -> list:
    """Pretend `cpus` CPUs; returns the list that collects every fork's pid."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", counted)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("count", [0, 1, 2, 5])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_map_points_returns_the_serial_list(monkeypatch, cpus, count):
    forks = _pin_cpus(monkeypatch, cpus)

    def fn(x):
        with mp.workdps(40):
            return x, mp.sqrt(mpf(x) + 2), [float(x) / 3]

    items = list(range(count))
    got = _map_points(fn, items)
    assert got == [fn(x) for x in items]
    assert [repr(v) for v in got] == [repr(fn(x)) for x in items]
    # one process per CPU or per item, this one included
    assert len(forks) == max(min(cpus, count) - 1, 0)
    _no_child_left()


class _TwoArgError(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


@pytest.mark.parametrize(
    "failing,want",
    [
        ({5, 3}, (ValueError, "bad 3")),  # this process holds 5, a child 3
        ({2, 4}, (ValueError, "bad 2")),  # this process holds 2, a child 4
        ({4}, (SamplingError, "bad 4")),  # a child's, and not a builtin
        ({1}, (RuntimeError, "_TwoArgError: 1/x")),  # does not unpickle
    ],
)
def test_map_points_raises_the_error_of_the_lowest_failing_index(
    monkeypatch, failing, want
):
    forks = _pin_cpus(monkeypatch, 3)
    kind, message = want

    def fn(x):
        if x in failing:
            if kind is RuntimeError:
                raise _TwoArgError(x, "x")
            raise kind(f"bad {x}")
        return x

    # three processes: children take 0, 3 and 1, 4; this process takes 2, 5
    with pytest.raises(kind) as exc:
        _map_points(fn, range(6))
    assert type(exc.value) is kind
    assert str(exc.value) == message
    assert len(forks) == 2
    _no_child_left()


def test_map_points_runs_a_share_it_cannot_fork_itself(monkeypatch):
    _pin_cpus(monkeypatch, 3)
    forks = []

    def no_fork():
        forks.append(1)
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _map_points(lambda x: x * x, range(7)) == [x * x for x in range(7)]
    assert len(forks) == 2
    _no_child_left()


def test_map_points_kills_its_children_on_an_interrupt(monkeypatch):
    forks = _pin_cpus(monkeypatch, 3)

    # this process takes item 2 of 5 on 3 CPUs; the children sleep
    def fn(x):
        if x == 2:
            raise KeyboardInterrupt
        time.sleep(60)
        return x

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _map_points(fn, range(5))
    assert time.perf_counter() - start < 30
    assert len(forks) == 2
    _no_child_left()


def test_slow_rank_two_hp_points_stay_in_process(monkeypatch, capsys):
    # whether points fork depends on the system, not on how long a point
    # takes: even at 50 ms a point, a rank-2 hp loop runs in this process
    from tauforge.cli import main

    forks = _pin_cpus(monkeypatch, 3)
    geom_hp = oracle._geom_hp

    def slow(*args):
        time.sleep(0.05)
        return geom_hp(*args)

    monkeypatch.setattr(oracle, "_geom_hp", slow)
    for argv in (
        ["derive", "--system", "A2"],
        ["derive", "--system", "G2"],
        ["fit", "--system", "A2", "--entries", "A11"],
        ["flatness", "--system", "G2", "--precision", "hp", "--points", "3"],
    ):
        assert main(argv) == 0
    capsys.readouterr()
    assert forks == []


def test_the_fork_bound_is_far_from_every_system():
    # every supported system's orbit-row total is 10x below the bound or
    # 10x above it, so no system sits near the fork decision
    rows = {kind: sum(map(len, orbit_rows(kind)[1])) for kind in SYSTEMS}
    assert rows == {"E7": 17_642, "A1": 2, "A2": 6, "G2": 12}
    for n in rows.values():
        assert n * 10 <= FORK_MIN_ORBIT_ROWS or n >= 10 * FORK_MIN_ORBIT_ROWS


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-tables", "--precision", "hp", "--samples", "3"],
        ["flatness", "--precision", "hp", "--points", "3"],
        ["fit", "--entries", "A11"],
    ],
)
def test_e7_hp_points_fork_once_on_two_cpus(monkeypatch, capsys, argv):
    from tauforge.cli import main

    forks = _pin_cpus(monkeypatch, 2)
    main(argv)
    capsys.readouterr()
    assert len(forks) == 1
    _no_child_left()


@pytest.mark.parametrize(
    "argv,want",
    [
        (["verify-tables", "--samples", str(FORK_MIN_DOUBLE_POINTS)], 1),
        (["flatness", "--points", str(FORK_MIN_DOUBLE_POINTS), "--fault"], 1),
        (["verify-tables", "--samples", str(FORK_MIN_DOUBLE_POINTS - 1)], 0),
        (["flatness", "--points", "10"], 0),
        # its 20-point double screen stays here; only the hp pool forks
        (["fit", "--entries", "discrepant"], 1),
    ],
)
def test_e7_double_point_lists_fork_from_the_bound_on_two_cpus(
    monkeypatch, capsys, argv, want
):
    from tauforge.cli import main

    forks = _pin_cpus(monkeypatch, 2)
    main(argv)
    capsys.readouterr()
    assert len(forks) == want
    _no_child_left()


def _ref_double_worst(op, samples: int) -> dict:
    """verify_tables' double report residuals, entry -> max over the default
    points, nus and beta, as its per-point loop computed them before the
    oracle's checks shared one residual loop: the frame, each entry's
    chain-rule value and |got - ref| / (1 + |ref|) of its compiled entry."""
    sysr, rank = op.system, op.rank
    gw = oracle._metric_weights(sysr.kind, False)
    nus = [float(nu) for nu in oracle.DEFAULT_NU_LIST]
    checks = [
        (f"A{i+1}{j+1}", ("A", i, j), [compile_poly(op.A[i][j], float, 0.0)])
        for i in range(rank) for j in range(i, rank)
    ] + [
        (f"B{i+1}", ("B", i, None), [compile_poly(op.B[i], float, nu) for nu in nus])
        for i in range(rank)
    ]
    top = top_exponents([terms for *_, row in checks for terms in row], rank)
    worst = dict.fromkeys([name for name, *_ in checks], 0.0)
    for pt in sample_points(sysr, samples, seed=20240):
        frame = oracle.build_frame(sysr, pt)
        taus = frame[0]
        pw = [[t**e for e in range(n + 1)] for t, n in zip(taus, top)]
        for name, entry, row in checks:
            ref = oracle._oracle_ab(frame, gw, 1.0, entry)
            wants = [ref] if entry[0] == "A" else [ref[0] + nu * ref[1] for nu in nus]
            for terms, want in zip(row, wants):
                got = eval_compiled(terms, pw, taus)
                worst[name] = max(worst[name], float(abs(got - want) / (1 + abs(want))))
    return worst


@pytest.mark.parametrize("samples,cpus,forks", [(20, 1, 0), (50, 2, 1)])
def test_double_verify_tables_residuals_match_the_reference_bit_for_bit(
    monkeypatch, samples, cpus, forks
):
    # no golden digest covers a double verify-tables report, so its residual
    # bits are pinned here, in one process and forked
    op = e7_operator("raw")
    forked = _pin_cpus(monkeypatch, cpus)
    rep = verify_tables(op, samples=samples)
    assert len(forked) == forks
    _no_child_left()
    got = {row["entry"]: row["max_rel_residual"] for row in rep["entries"]}
    want = _ref_double_worst(op, samples)
    assert got == want
    assert repr(got) == repr(want)
    assert rep["discrepant"] == ["A17", "B1", "B2", "B3", "B4", "B5", "B6", "B7"]


def test_a_forked_frame_pool_equals_the_one_cpu_pool(monkeypatch):
    forks = _pin_cpus(monkeypatch, 1)
    serial = FramePool(E7, 12, fit_frames=4)
    assert forks == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forked = FramePool(E7, 12, fit_frames=4)
    assert len(forks) == 1
    assert len(forked.frames) == 4 + HELD_OUT_FRAMES
    assert forked.frames == serial.frames
    assert repr(forked.frames) == repr(serial.frames)
    _no_child_left()
