"""Numeric verification of the tables by an independent chain rule.

Everything here goes through the change of variables y -> tau(y) done
numerically: build the orbit sums, their gradients and Laplacians at a
sample point, and compare

    A_num_ij = (1/b^2) sum_k g_k (dtau_i/dy_k)(dtau_j/dy_k)
    B_num_i  = (1/b^2) [D tau_i + 2 sum_k g_k (d_k log Psi0)(d_k tau_i)]

against the evaluated table entries.  The metric weights g_k and the
Laplacian D = sum_k g_k d_k^2 come from resolving the hyperplane
constraint into the reduced y coordinates; log Psi0 is the nu-weighted sum
of the positive-root sine logs.  Double precision screens entries at 1e-6,
high precision pins them at 1e-30 and below, and fit_entry rebuilds any
entry from scratch by least squares plus rational reconstruction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp, mpf, matrix, qr_solve

from .exactpoly import MultiPoly, NuLinear, weighted_monomials
from .operator import AlgebraicOperator, stored_data_report
from .rootsys import RootSystem, build_system, deformed_weyl_vector, weyl_orbit

DEFAULT_NU_LIST = (Fraction(0), Fraction(1, 2), Fraction(5, 2))
DEFAULT_BETA_LIST = (1.0,)
CLEARANCE = 1e-3


class CancellationError(ValueError):
    """Imaginary parts of a real system's orbit sums failed to cancel."""


class ClearanceError(ValueError):
    """A sample point sits too close to a root hyperplane."""


def hp_digits() -> int:
    return int(os.environ.get("TAUFORGE_PRECISION", "50"))


@dataclass(frozen=True)
class SamplePoint:
    y: tuple
    beta: float = 1.0
    nu: float = 0.5

    @property
    def g(self):
        return self.nu * (self.nu - 1)


@dataclass(frozen=True)
class NumericFrame:
    tau: tuple
    jac: tuple
    lap_tau: tuple
    grad_logpsi: tuple


@dataclass(frozen=True)
class FitResult:
    entry: str
    poly: MultiPoly | None
    residual: float
    reconstructed: bool
    raw_coefficients: tuple = ()

    @property
    def ok(self) -> bool:
        return self.reconstructed and self.residual < 1e-30


# ---------------------------------------------------------------------------
# cached geometry data


@lru_cache(maxsize=None)
def _orbit_vectors(kind: str) -> tuple:
    """Per fundamental weight: the orbit's y-representative vectors, exact."""
    sysr = build_system(kind)
    return tuple(
        tuple(sysr.y_rep(v) for v in weyl_orbit(sysr, a + 1).elements)
        for a in range(sysr.rank)
    )


@lru_cache(maxsize=None)
def _root_vectors(kind: str) -> tuple:
    sysr = build_system(kind)
    return tuple(sysr.y_rep(r) for r in sysr.positive_roots)


@lru_cache(maxsize=None)
def _orbit_arrays(kind: str) -> list[np.ndarray]:
    return [np.array(m, dtype=float) for m in _orbit_vectors(kind)]


@lru_cache(maxsize=None)
def _root_array(kind: str) -> np.ndarray:
    return np.array(_root_vectors(kind), dtype=float)


@lru_cache(maxsize=None)
def _root_mp(kind: str, dps: int) -> list:
    with mp.workdps(dps):
        return [
            [mpf(c.numerator) / c.denominator for c in r] for r in _root_vectors(kind)
        ]


def _metric(sysr: RootSystem) -> list:
    return [float(g) for g in sysr.metric_weights[: sysr.y_dim]]


# ---------------------------------------------------------------------------
# sampling


def clearance(sysr: RootSystem, point: SamplePoint) -> float:
    """min over positive roots of |sin(beta (alpha.y)/2)|."""
    y = np.array([float(v) for v in point.y])
    th = float(point.beta) * (_root_array(sysr.kind) @ y) / 2
    return float(np.abs(np.sin(th)).min())


def sample_points(
    sysr: RootSystem,
    count: int,
    seed: int = 0,
    beta: float = 1.0,
    nu: float = 0.5,
    precision: str = "double",
) -> list[SamplePoint]:
    """Uniform draws from [0.05, 0.35]^d, rejection-resampled for clearance."""
    rng = np.random.default_rng(seed)
    out: list[SamplePoint] = []
    dps = hp_digits()
    while len(out) < count:
        u = rng.uniform(0.05, 0.35, sysr.y_dim)
        cand = SamplePoint(y=tuple(float(v) for v in u), beta=beta, nu=nu)
        if clearance(sysr, cand) <= CLEARANCE:
            continue
        if precision == "hp":
            with mp.workdps(dps):
                cand = SamplePoint(
                    y=tuple(mpf(str(v)) for v in u), beta=beta, nu=nu
                )
        out.append(cand)
    return out


def _require_clearance(sysr: RootSystem, point: SamplePoint) -> None:
    c = clearance(sysr, point)
    if c <= CLEARANCE:
        raise ClearanceError(f"clearance {c:.2e} <= {CLEARANCE}")


# ---------------------------------------------------------------------------
# frames


def _is_hp(point: SamplePoint) -> bool:
    return isinstance(point.y[0], mpf)


def _geom_double(sysr: RootSystem, y_arr: np.ndarray, beta: float):
    """tau, jac, lap per orbit plus the unit cot gradient, double precision.

    Returns complex sums for systems whose Weyl group lacks -1; otherwise
    asserts the imaginary parts cancel and returns reals.
    """
    gw = np.array(_metric(sysr))
    taus, jacs, laps = [], [], []
    for M in _orbit_arrays(sysr.kind):
        ph = beta * (M @ y_arr)
        c, s = np.cos(ph), np.sin(ph)
        w2 = (M * M * gw).sum(axis=1)
        size = M.shape[0]
        if sysr.has_minus_one:
            if np.abs(s.sum()) / size > 1e-10:
                raise CancellationError(
                    f"orbit sine sum {s.sum():.2e} did not cancel"
                )
            taus.append(c.sum())
            jacs.append(-beta * (s @ M))
            laps.append(-beta**2 * (w2 * c).sum())
        else:
            taus.append(c.sum() + 1j * s.sum())
            jacs.append(-beta * (s @ M) + 1j * beta * (c @ M))
            laps.append(-beta**2 * ((w2 * c).sum() + 1j * (w2 * s).sum()))
    with np.errstate(divide="ignore", invalid="ignore"):
        th = beta * (_root_array(sysr.kind) @ y_arr) / 2
        cotg = (beta / 2) * ((np.cos(th) / np.sin(th)) @ _root_array(sysr.kind))
    return taus, jacs, laps, cotg


try:
    from gmpy2 import mpz as _mpz
except ImportError:
    _mpz = int


@dataclass(frozen=True)
class _HpPlan:
    """The hp kernel's walk over the orbits, built once per system.

    Vectors are scaled by `scale` to integers u.  Each orbit's rows
    (share, tail, nz, w2num) are sorted by their nonzero (k, u_k) list nz;
    the first `share` factors of a row are those of the row before it, so
    only `tail` is multiplied in.  w2num = sum_k g_k u_k^2.  When `paired`,
    only rows whose first nonzero u_k is positive are kept: each stands
    for itself and its negative.
    """

    scale: int
    max_u: tuple
    paired: bool
    orbits: tuple


def _build_hp_plan(vecs, gws, paired: bool) -> _HpPlan:
    """Plan for orbit vectors `vecs` (exact rationals) and metric weights `gws`.

    With `paired`, raises CancellationError unless every orbit is closed
    under negation.
    """
    from math import lcm

    scale = lcm(*(c.denominator for m in vecs for v in m for c in v))
    max_u = [0] * len(gws)
    orbits = []
    for m in vecs:
        us = {tuple(int(c * scale) for c in v) for v in m}
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
        orbits.append(tuple(rows))
    return _HpPlan(scale, tuple(max_u), paired, tuple(orbits))


@lru_cache(maxsize=None)
def _hp_plan(kind: str) -> _HpPlan:
    sysr = build_system(kind)
    gws = [int(g) for g in sysr.metric_weights[: sysr.y_dim]]
    return _build_hp_plan(_orbit_vectors(kind), gws, sysr.has_minus_one)


def _geom_hp(sysr: RootSystem, y, beta):
    """Fixed-point evaluation of the orbit sums at the current mp precision.

    Phase factors e^{i beta u.y / M} are products of per-coordinate roots
    e^{i beta y_k / M} raised to small integer powers, computed in integer
    arithmetic with 64 guard bits and accumulated exactly over the orbit.
    The walk follows _hp_plan: rows share prefix products through a stack,
    and for systems containing -1 the row of -u is the conjugate of the row
    of u, so the sums over half the orbit are doubled.
    """
    dim = sysr.y_dim
    plan = _hp_plan(sysr.kind)
    scale = plan.scale
    shift = mp.prec + 64
    half = 1 << (shift - 1)

    with mp.workprec(shift + 16):
        theta = [beta * yk / scale for yk in y]
        table = []
        for k in range(dim):
            row = {}
            for u in range(-plan.max_u[k], plan.max_u[k] + 1):
                c, s = mp.cos_sin(u * theta[k])
                row[u] = (
                    _mpz(int(mp.floor(mp.ldexp(c, shift) + mpf(1) / 2))),
                    _mpz(int(mp.floor(mp.ldexp(s, shift) + mpf(1) / 2))),
                )
            table.append(row)

    zero = _mpz(0)
    stack = [(_mpz(1 << shift), zero)] * (dim + 1)
    full = not plan.paired
    to_mpf = lambda acc, down: mp.ldexp(mpf(int(acc)), -shift) / down
    taus, jacs, laps = [], [], []
    for rows in plan.orbits:
        tau_c = tau_s = lap_c = lap_s = zero
        jac_c = [zero] * dim
        jac_s = [zero] * dim
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
            if full:
                tau_s += fs
                lap_s += w2num * fs
                for k, uk in nz:
                    jac_c[k] += uk * fc
        if plan.paired:
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


def _geom(sysr: RootSystem, point: SamplePoint):
    if _is_hp(point):
        return _geom_hp(sysr, point.y, mpf(str(point.beta)))
    return _geom_double(
        sysr, np.array([float(v) for v in point.y]), float(point.beta)
    )


def tau_numeric(sysr: RootSystem, point: SamplePoint) -> tuple:
    """The orbit sums tau_a(y); real for systems containing -1."""
    taus, _, _, _ = _geom(sysr, point)
    return tuple(taus)


def build_frame(sysr: RootSystem, point: SamplePoint) -> NumericFrame:
    taus, jacs, laps, cotg = _geom(sysr, point)
    nu = point.nu
    return NumericFrame(
        tau=tuple(taus),
        jac=tuple(tuple(row) for row in jacs),
        lap_tau=tuple(laps),
        grad_logpsi=tuple(nu * c for c in cotg),
    )


def chain_rule_oracle(sysr: RootSystem, point: SamplePoint):
    """(A_num, B_num) at the point, normalized by 1/beta^2."""
    _require_clearance(sysr, point)
    taus, jacs, laps, cotg = _geom(sysr, point)
    gw = (
        [mpf(g.numerator) / g.denominator for g in sysr.metric_weights[: sysr.y_dim]]
        if _is_hp(point)
        else _metric(sysr)
    )
    beta = mpf(str(point.beta)) if _is_hp(point) else float(point.beta)
    nu = point.nu
    rank = sysr.rank
    b2 = beta**2
    A = [[None] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            v = sum(g * a * b for g, a, b in zip(gw, jacs[i], jacs[j])) / b2
            A[i][j] = A[j][i] = v
    B = []
    for i in range(rank):
        grad = 2 * nu * sum(g * c * jk for g, c, jk in zip(gw, cotg, jacs[i]))
        B.append((laps[i] + grad) / b2)
    return A, B


def ground_state_energy(sysr: RootSystem, beta, nu):
    """E0 = beta^2 rho^2 / 8 with rho = nu * (sum of positive roots)."""
    rho2 = deformed_weyl_vector(sysr).rho_sq_over_nu_sq
    return beta**2 * nu**2 * float(rho2) / 8


def ground_state_residual(sysr: RootSystem, point: SamplePoint):
    """Relative defect of (H Psi0)/Psi0 against the closed-form energy.

    (H Psi0)/Psi0 = -1/2 [D log Psi0 + sum_k g_k (d_k log Psi0)^2] + V
    with V = nu(nu-1) (beta^2/4) sum over positive roots of 1/sin^2.
    """
    _require_clearance(sysr, point)
    hp = _is_hp(point)
    nu = mpf(str(point.nu)) if hp else float(point.nu)
    beta = mpf(str(point.beta)) if hp else float(point.beta)
    if nu == 0:
        return 0.0
    if hp:
        roots = _root_mp(sysr.kind, mp.dps)
        gw = [mpf(g.numerator) / g.denominator for g in sysr.metric_weights[: sysr.y_dim]]
    else:
        roots = _root_array(sysr.kind)
        gw = _metric(sysr)
    dim = sysr.y_dim
    y = point.y
    inv_sin2 = 0 if hp else 0.0
    grad = [mpf(0)] * dim if hp else np.zeros(dim)
    if hp:
        for r in roots:
            c, s = mp.cos_sin(beta * sum(r[k] * y[k] for k in range(dim)) / 2)
            inv_sin2 += 1 / s**2
            ct = (beta / 2) * c / s
            for k in range(dim):
                grad[k] += nu * ct * r[k]
        d_log = -nu * (beta**2 / 2) * inv_sin2
        quad = sum(g * v**2 for g, v in zip(gw, grad))
    else:
        y_arr = np.array([float(v) for v in y])
        th = beta * (roots @ y_arr) / 2
        s = np.sin(th)
        inv_sin2 = (1 / s**2).sum()
        grad = nu * (beta / 2) * ((np.cos(th) / s) @ roots)
        d_log = -nu * (beta**2 / 2) * inv_sin2
        quad = float((np.array(gw) * grad * grad).sum())
    v_pot = nu * (nu - 1) * (beta**2 / 4) * inv_sin2
    lhs = -(d_log + quad) / 2 + v_pot
    rho2 = deformed_weyl_vector(sysr).rho_sq_over_nu_sq
    rho2 = mpf(rho2.numerator) / rho2.denominator if hp else float(rho2)
    e0 = beta**2 * nu**2 * rho2 / 8
    return abs(lhs - e0) / (abs(e0) + 1)


# ---------------------------------------------------------------------------
# table verification


def _eval_poly(poly: MultiPoly, tau, nu):
    """Evaluate in whatever arithmetic the frame carries."""
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


def verify_tables(
    op: AlgebraicOperator,
    samples: int = 50,
    seed: int = 20240,
    tol: float = 1e-6,
    nu_list=None,
    beta_list=None,
    precision: str = "double",
) -> dict:
    """Compare every table entry against the chain-rule oracle.

    Returns a JSON-ready report; reproducible for a fixed seed.  B entries
    are checked at every nu in nu_list, and the numeric B is additionally
    confirmed affine in nu via a three-value linear fit.
    """
    sysr = op.system
    nu_list = list(nu_list) if nu_list else [float(x) for x in DEFAULT_NU_LIST]
    beta_list = list(beta_list) if beta_list else list(DEFAULT_BETA_LIST)
    rank = op.rank
    worst: dict[str, float] = {}
    nu_lin_worst = 0.0
    dps = hp_digits()

    def note(entry: str, rel) -> None:
        r = float(rel)
        if r > worst.get(entry, 0.0):
            worst[entry] = r

    for beta in beta_list:
        pts = sample_points(
            sysr, samples, seed=seed, beta=beta, nu=0.0, precision=precision
        )
        for pt in pts:
            with mp.workdps(dps):
                taus, jacs, laps, cotg = _geom(sysr, pt)
                gw = (
                    [
                        mpf(g.numerator) / g.denominator
                        for g in sysr.metric_weights[: sysr.y_dim]
                    ]
                    if precision == "hp"
                    else _metric(sysr)
                )
                bv = mpf(str(beta)) if precision == "hp" else float(beta)
                b2 = bv**2
                for i in range(rank):
                    for j in range(i, rank):
                        ref = sum(g * a * b for g, a, b in zip(gw, jacs[i], jacs[j])) / b2
                        got = _eval_poly(op.A[i][j], taus, 0 * bv)
                        note(f"A{i+1}{j+1}", abs(got - ref) / (1 + abs(ref)))
                    base = laps[i] / b2
                    slope = (
                        2 * sum(g * c * jk for g, c, jk in zip(gw, cotg, jacs[i])) / b2
                    )
                    bvals = []
                    for nu in nu_list:
                        nub = mpf(str(nu)) if precision == "hp" else float(nu)
                        ref = base + nub * slope
                        got = _eval_poly(op.B[i], taus, nub)
                        note(f"B{i+1}", abs(got - ref) / (1 + abs(ref)))
                        bvals.append((nub, ref))
                    if len(bvals) >= 3:
                        (n0, v0), (n1, v1), (n2, v2) = bvals[:3]
                        pred = v0 + (v1 - v0) * (n2 - n0) / (n1 - n0)
                        rel = abs(pred - v2) / (1 + abs(v2))
                        nu_lin_worst = max(nu_lin_worst, float(rel))

    entries = []
    discrepant = []
    for i in range(rank):
        for j in range(i, rank):
            key = f"A{i+1}{j+1}"
            ok = worst[key] < tol
            entries.append(
                {"entry": key, "max_rel_residual": worst[key], "pass": ok}
            )
            if not ok:
                discrepant.append(key)
    for i in range(rank):
        key = f"B{i+1}"
        ok = worst[key] < tol
        entries.append({"entry": key, "max_rel_residual": worst[key], "pass": ok})
        if not ok:
            discrepant.append(key)
    return {
        "schema": "tauforge.verify-tables/1",
        "system": sysr.kind,
        "variant": op.variant,
        "precision": precision,
        "samples": samples,
        "seed": seed,
        "tol": tol,
        "nu_list": [float(x) for x in nu_list],
        "beta_list": [float(x) for x in beta_list],
        "nu_linearity_max_residual": nu_lin_worst,
        "entries": entries,
        "discrepant": discrepant,
        "all_pass": not discrepant,
    }


# ---------------------------------------------------------------------------
# refitting


def _entry_indices(which: str, rank: int) -> tuple[str, int, int | None]:
    """Zero-based ("A", i, j) or ("B", i, None) for an id such as A17 or B3."""
    key = which.strip().upper()
    digits = key[1:]
    if digits.isdecimal():
        if key[0] == "A" and len(digits) == 2:
            i, j = int(digits[0]) - 1, int(digits[1]) - 1
            if 0 <= i < rank and 0 <= j < rank:
                return "A", i, j
        if key[0] == "B" and 0 < int(digits) <= rank:
            return "B", int(digits) - 1, None
    raise ValueError(f"bad entry id {which!r} for rank {rank}")


class FramePool:
    """Shared high-precision frames so several fits reuse the geometry."""

    def __init__(self, sysr: RootSystem, count: int, seed: int = 23, beta=1, dps: int | None = None):
        self.sysr = sysr
        self.dps = dps or max(hp_digits(), 50)
        with mp.workdps(self.dps + 20):
            pts = sample_points(
                sysr, count, seed=seed, beta=float(beta), nu=0.0, precision="hp"
            )
            self.beta = mpf(beta)
            self.frames = [_geom_hp(sysr, p.y, self.beta) for p in pts]


def fit_entry(
    op: AlgebraicOperator,
    which: str,
    samples: int | None = None,
    precision_digits: int | None = None,
    seed: int = 23,
    pool: FramePool | None = None,
) -> FitResult:
    """Rebuild a table entry from the oracle by exact-targeted least squares.

    Fits over all monomials within the entry's weighted-degree bound (with
    independent nu^0/nu^1 coefficients for B), reconstructs rationals with
    denominators <= 4, and reports the residual at held-out points.
    """
    sysr = op.system
    cv = op.cv
    kind_, i, j = _entry_indices(which, op.rank)
    bound = cv[i] + cv[j] if kind_ == "A" else cv[i]
    basis = weighted_monomials(cv, bound)
    unknowns = len(basis) * (1 if kind_ == "A" else 2)
    needed = samples or 2 * len(basis) + 8
    dps = precision_digits or max(hp_digits(), 50)
    fit_nus = (Fraction(1, 2), Fraction(5, 2))

    with mp.workdps(dps + 20):
        if pool is None:
            pool = FramePool(sysr, needed + 8, seed=seed, dps=dps)
        want_frames = needed if kind_ == "A" else (needed + 1) // 2
        if len(pool.frames) < want_frames + 4:
            raise ValueError("frame pool too small for this entry")
        gw = [
            mpf(g.numerator) / g.denominator
            for g in sysr.metric_weights[: sysr.y_dim]
        ]
        b2 = pool.beta**2

        def monomial_row(taus):
            row = []
            for p in basis:
                m = mpf(1)
                for e, t in zip(p, taus):
                    if e:
                        m *= t**e
                row.append(m)
            return row

        def oracle_value(frame, nu):
            taus, jacs, laps, cotg = frame
            if kind_ == "A":
                return sum(g * a * b for g, a, b in zip(gw, jacs[i], jacs[j])) / b2
            grad = 2 * nu * sum(g * c * jk for g, c, jk in zip(gw, cotg, jacs[i]))
            return (laps[i] + grad) / b2

        rows, rhs = [], []
        for frame in pool.frames[:want_frames]:
            taus = frame[0]
            mono = monomial_row(taus)
            if kind_ == "A":
                rows.append(mono)
                rhs.append(oracle_value(frame, mpf(0)))
            else:
                for nu in fit_nus:
                    nub = mpf(nu.numerator) / nu.denominator
                    rows.append(mono + [nub * m for m in mono])
                    rhs.append(oracle_value(frame, nub))
        sol, _ = qr_solve(matrix(rows), matrix(rhs))

        coeffs = [sol[k] for k in range(len(sol))]
        terms = {}
        reconstructed = True
        for idx, p in enumerate(basis):
            c0 = coeffs[idx]
            c1 = coeffs[idx + len(basis)] if kind_ == "B" else mpf(0)
            pair = []
            for c in (c0, c1):
                fr = Fraction(mp.nstr(c, min(dps - 5, 40))).limit_denominator(4)
                if abs(c - mpf(fr.numerator) / fr.denominator) > mpf(10) ** -(dps - 15):
                    reconstructed = False
                pair.append(fr)
            if pair[0] or pair[1]:
                terms[p] = NuLinear(pair[0], pair[1])
        poly = MultiPoly(sysr.rank, terms) if reconstructed else None

        worst = mpf(0)
        if reconstructed:
            for frame in pool.frames[-4:]:
                taus = frame[0]
                for nu in fit_nus if kind_ == "B" else (Fraction(0),):
                    nub = mpf(nu.numerator) / nu.denominator
                    ref = oracle_value(frame, nub)
                    got = _eval_poly(poly, taus, nub)
                    worst = max(worst, abs(got - ref) / (1 + abs(ref)))
        return FitResult(
            entry=which.upper(),
            poly=poly,
            residual=float(worst) if reconstructed else float("inf"),
            reconstructed=reconstructed,
            raw_coefficients=tuple(mp.nstr(c, 30) for c in coeffs)
            if not reconstructed
            else (),
        )


def with_entry(op: AlgebraicOperator, which: str, poly: MultiPoly) -> AlgebraicOperator:
    """A copy of the operator with one table entry replaced."""
    kind_, i, j = _entry_indices(which, op.rank)
    A = [list(row) for row in op.A]
    B = list(op.B)
    if kind_ == "A":
        A[i][j] = A[j][i] = poly
    else:
        B[i] = poly
    new = AlgebraicOperator(
        system=op.system,
        cv=op.cv,
        A=tuple(tuple(r) for r in A),
        B=tuple(B),
        variant=f"{op.variant}+fit",
    )
    object.__setattr__(new, "violations", stored_data_report(new))
    return new
