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
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp, mpf, matrix, qr_solve

from .exactpoly import MultiPoly, NuLinear, weighted_monomials
from .operator import AlgebraicOperator
from .rootsys import RootSystem, build_system, deformed_weyl_vector, weyl_orbit

DEFAULT_NU_LIST = (Fraction(0), Fraction(1, 2), Fraction(5, 2))
DEFAULT_BETA_LIST = (1.0,)
CLEARANCE = 1e-3
# consecutive rejected draws after which a sampler gives up; at beta = 1
# about two E7 draws in three are accepted, and even an acceptance ratio
# of 1e-3 fails this bound with probability below 1e-40 per point
MAX_REJECTED_DRAWS = 100_000


class CancellationError(ValueError):
    """Imaginary parts of a real system's orbit sums failed to cancel."""


class ClearanceError(ValueError):
    """A sample point sits too close to a root hyperplane."""


class SamplingError(ValueError):
    """No draw clears the root walls, e.g. because beta is (nearly) zero."""


def _check_rejections(rejected: int, beta) -> None:
    """Raise SamplingError once MAX_REJECTED_DRAWS draws in a row failed."""
    if rejected >= MAX_REJECTED_DRAWS:
        raise SamplingError(
            f"no sample point cleared the root walls (clearance > {CLEARANCE})"
            f" in {MAX_REJECTED_DRAWS} draws in a row at beta={beta}"
        )


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
def _orbit_w2(kind: str) -> list[np.ndarray]:
    """Per orbit, sum_k g_k u_k^2 for each element u, in double precision."""
    gw = np.array(_metric_weights(kind, False))
    return [(M * M * gw).sum(axis=1) for M in _orbit_arrays(kind)]


@lru_cache(maxsize=None)
def _root_array(kind: str) -> np.ndarray:
    return np.array(_root_vectors(kind), dtype=float)


@lru_cache(maxsize=None)
def _root_mp(kind: str, dps: int) -> list:
    with mp.workdps(dps):
        return [
            [mpf(c.numerator) / c.denominator for c in r] for r in _root_vectors(kind)
        ]


@lru_cache(maxsize=None)
def _metric_weights(kind: str, hp: bool) -> tuple:
    """The metric weights g_k of the y coordinates, as floats or as mpf.

    The weights are small integers (1 and 2), so their mpf values are exact
    at every precision.
    """
    sysr = build_system(kind)
    conv = (lambda q: mpf(q.numerator) / q.denominator) if hp else float
    return tuple(conv(g) for g in sysr.metric_weights[: sysr.y_dim])


@lru_cache(maxsize=None)
def _rho_sq(kind: str) -> Fraction:
    """rho^2 / nu^2, the squared norm of the sum of positive roots."""
    return deformed_weyl_vector(build_system(kind)).rho_sq_over_nu_sq


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
    """Uniform draws from [0.05, 0.35]^d, rejection-resampled for clearance.

    Raises SamplingError after MAX_REJECTED_DRAWS rejections in a row.
    """
    return _rejection_sample(
        sysr, count, seed, beta, nu, precision,
        lambda rng, accepted: rng.uniform(0.05, 0.35, sysr.y_dim),
    )


def _rejection_sample(sysr, count, seed, beta, nu, precision, draw) -> list[SamplePoint]:
    """`count` points that clear the root walls, in draw order.

    draw(rng, accepted) gives the next candidate y from the seeded rng and
    the number of points accepted so far.  hp points carry the same y as
    mpf.  Raises SamplingError after MAX_REJECTED_DRAWS rejections in a row.
    """
    rng = np.random.default_rng(seed)
    out: list[SamplePoint] = []
    dps = hp_digits()
    rejected = 0
    while len(out) < count:
        u = draw(rng, len(out))
        cand = SamplePoint(y=tuple(float(v) for v in u), beta=beta, nu=nu)
        if clearance(sysr, cand) <= CLEARANCE:
            rejected += 1
            _check_rejections(rejected, beta)
            continue
        rejected = 0
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
    taus, jacs, laps = [], [], []
    for M, w2 in zip(_orbit_arrays(sysr.kind), _orbit_w2(sysr.kind)):
        ph = beta * (M @ y_arr)
        c, s = np.cos(ph), np.sin(ph)
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
    frame = _geom(sysr, point)
    hp = _is_hp(point)
    gw = _metric_weights(sysr.kind, hp)
    b2 = (mpf(str(point.beta)) if hp else float(point.beta)) ** 2
    rank = sysr.rank
    A = [[None] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            A[i][j] = A[j][i] = _oracle_ab(frame, gw, b2, ("A", i, j))
    B = []
    for i in range(rank):
        base, slope = _oracle_ab(frame, gw, b2, ("B", i, None))
        B.append(base + point.nu * slope)
    return A, B


def _oracle_ab(frame, gw, b2, entry):
    """The chain-rule value of one table entry at one frame.

    frame is (taus, jacs, laps, cotg) from _geom, gw the metric weights in
    the frame's arithmetic, b2 = beta^2, and entry ("A", i, j) or
    ("B", i, None) with zero-based indices.  A_ij is a number; B_i is the
    pair (base, slope) with B_i(nu) = base + nu * slope, because the
    nu-dependence of B is exactly the ground-state cotangent term.
    """
    _, jacs, laps, cotg = frame
    kind_, i, j = entry
    if kind_ == "A":
        return sum(g * a * b for g, a, b in zip(gw, jacs[i], jacs[j])) / b2
    return laps[i] / b2, 2 * sum(g * c * jk for g, c, jk in zip(gw, cotg, jacs[i])) / b2


def ground_state_energy(sysr: RootSystem, beta, nu):
    """E0 = beta^2 rho^2 / 8 with rho = nu * (sum of positive roots)."""
    return beta**2 * nu**2 * float(_rho_sq(sysr.kind)) / 8


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
    roots = _root_mp(sysr.kind, mp.dps) if hp else _root_array(sysr.kind)
    gw = _metric_weights(sysr.kind, hp)
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
    rho2 = _rho_sq(sysr.kind)
    rho2 = mpf(rho2.numerator) / rho2.denominator if hp else float(rho2)
    e0 = beta**2 * nu**2 * rho2 / 8
    return abs(lhs - e0) / (abs(e0) + 1)


# ---------------------------------------------------------------------------
# table verification


def _compile_poly(poly: MultiPoly, nu, hp: bool) -> tuple:
    """poly at coupling nu as terms (c, ((k, e), ...)), in storage order.

    c = c0 + c1 nu is formed once, in floats or in mpf at the current
    precision; the pairs list the nonzero exponents of the term.
    """
    conv = (lambda q: mpf(q.numerator) / q.denominator) if hp else float
    return tuple(
        (
            conv(coef.c0) + conv(coef.c1) * nu,
            tuple((k, e) for k, e in enumerate(exp) if e),
        )
        for exp, coef in poly.terms.items()
    )


def _exponents(compiled, dim: int) -> list[tuple]:
    """Per coordinate, the exponents that the compiled polys raise it to."""
    used = [set() for _ in range(dim)]
    for terms in compiled:
        for _, pairs in terms:
            for k, e in pairs:
                used[k].add(e)
    return [tuple(sorted(es)) for es in used]


def _powers(tau, exponents) -> list[dict]:
    """powers[k][e] = tau[k] ** e, shared by every poly evaluated at tau."""
    return [{e: t**e for e in es} for t, es in zip(tau, exponents)]


def _eval_compiled(terms, powers, tau):
    """Sum of the compiled terms at tau, in whatever arithmetic tau carries."""
    total = None
    for c, pairs in terms:
        m = c
        for k, e in pairs:
            m = m * powers[k][e]
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
    hp = precision == "hp"
    ids = [("A", i, j) for i in range(rank) for j in range(i, rank)]
    ids += [("B", i, None) for i in range(rank)]
    names = [f"A{i+1}{j+1}" if j is not None else f"B{i+1}" for _, i, j in ids]
    worst: dict[str, float] = {}
    nu_lin_worst = 0.0

    def note(entry: str, got, ref) -> None:
        r = float(abs(got - ref) / (1 + abs(ref)))
        if r > worst.get(entry, 0.0):
            worst[entry] = r

    with mp.workdps(hp_digits()):
        gw = _metric_weights(sysr.kind, hp)
        nubs = [mpf(str(nu)) if hp else float(nu) for nu in nu_list]
        # A is nu-free and compiled at nu = 0; B once per nu of the list
        compiled = [
            [_compile_poly(op.A[i][j], mpf(0) if hp else 0.0, hp)]
            if j is not None
            else [_compile_poly(op.B[i], nub, hp) for nub in nubs]
            for _, i, j in ids
        ]
        exps = _exponents([terms for row in compiled for terms in row], rank)
        for beta in beta_list:
            b2 = (mpf(str(beta)) if hp else float(beta)) ** 2
            pts = sample_points(
                sysr, samples, seed=seed, beta=beta, nu=0.0, precision=precision
            )
            for pt in pts:
                frame = _geom(sysr, pt)
                taus = frame[0]
                pw = _powers(taus, exps)
                for name, entry, row in zip(names, ids, compiled):
                    ref = _oracle_ab(frame, gw, b2, entry)
                    if entry[0] == "A":
                        note(name, _eval_compiled(row[0], pw, taus), ref)
                        continue
                    base, slope = ref
                    refs = [base + nub * slope for nub in nubs]
                    for terms, value in zip(row, refs):
                        note(name, _eval_compiled(terms, pw, taus), value)
                    if len(refs) >= 3:
                        (n0, n1, n2), (v0, v1, v2) = nubs[:3], refs[:3]
                        pred = v0 + (v1 - v0) * (n2 - n0) / (n1 - n0)
                        rel = abs(pred - v2) / (1 + abs(v2))
                        nu_lin_worst = max(nu_lin_worst, float(rel))

    entries = [
        {"entry": name, "max_rel_residual": worst[name], "pass": worst[name] < tol}
        for name in names
    ]
    discrepant = [row["entry"] for row in entries if not row["pass"]]
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


# fit_entry fits on the first frames of a pool and checks the result on
# its last HELD_OUT_FRAMES
HELD_OUT_FRAMES = 4


def _fit_plan(op: AlgebraicOperator, which: str, samples: int | None = None):
    """(kind, i, j, basis, rows, frames) for refitting one entry.

    basis holds every monomial within the entry's weighted-degree bound;
    `rows` least-squares rows (default 2 * len(basis) + 8) come from the
    first `frames` frames, two rows (two nu values) per frame for B.
    """
    kind_, i, j = _entry_indices(which, op.rank)
    bound = op.cv[i] + op.cv[j] if kind_ == "A" else op.cv[i]
    basis = weighted_monomials(op.cv, bound)
    rows = samples or 2 * len(basis) + 8
    return kind_, i, j, basis, rows, rows if kind_ == "A" else (rows + 1) // 2


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
    kind_, i, j, basis, needed, want_frames = _fit_plan(op, which, samples)
    dps = precision_digits or max(hp_digits(), 50)
    fit_nus = (Fraction(1, 2), Fraction(5, 2))

    with mp.workdps(dps + 20):
        if pool is None:
            pool = FramePool(sysr, needed + 8, seed=seed, dps=dps)
        if len(pool.frames) < want_frames + HELD_OUT_FRAMES:
            raise ValueError(
                f"frame pool too small for {which}: needs"
                f" {want_frames + HELD_OUT_FRAMES} frames, has {len(pool.frames)}"
            )
        gw = _metric_weights(sysr.kind, True)
        b2 = pool.beta**2
        entry = (kind_, i, j)
        fit_nubs = [mpf(nu.numerator) / nu.denominator for nu in fit_nus]
        basis_exps = [set(col) for col in zip(*basis)]

        def monomial_row(taus):
            pw = _powers(taus, basis_exps)
            row = []
            for p in basis:
                m = mpf(1)
                for k, e in enumerate(p):
                    if e:
                        m *= pw[k][e]
                row.append(m)
            return row

        rows, rhs = [], []
        for frame in pool.frames[:want_frames]:
            mono = monomial_row(frame[0])
            ref = _oracle_ab(frame, gw, b2, entry)
            if kind_ == "A":
                rows.append(mono)
                rhs.append(ref)
            else:
                for nub in fit_nubs:
                    rows.append(mono + [nub * m for m in mono])
                    rhs.append(ref[0] + nub * ref[1])
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
            held = [
                (nub, _compile_poly(poly, nub, True))
                for nub in (fit_nubs if kind_ == "B" else [mpf(0)])
            ]
            exps = _exponents([terms for _, terms in held], sysr.rank)
            for frame in pool.frames[-HELD_OUT_FRAMES:]:
                taus = frame[0]
                pw = _powers(taus, exps)
                ref = _oracle_ab(frame, gw, b2, entry)
                for nub, terms in held:
                    want = ref if kind_ == "A" else ref[0] + nub * ref[1]
                    got = _eval_compiled(terms, pw, taus)
                    worst = max(worst, abs(got - want) / (1 + abs(want)))
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
    return replace(
        op, A=tuple(tuple(r) for r in A), B=tuple(B), variant=f"{op.variant}+fit"
    )
