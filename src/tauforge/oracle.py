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
import pickle
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from mpmath import mp, mpc, mpf
from mpmath.libmp import fzero, ftwo, from_float, mpf_add, mpf_cos_sin, mpf_div, mpf_mul

from .exactpoly import (
    _HP_DIGITS,
    ONE,
    MultiPoly,
    NuLinear,
    compile_poly,
    eval_compiled,
    top_exponents,
    weighted_monomials,
)
from .fixedpoint import complex_qr_solve, qr_solve, to_fixed
from .operator import AlgebraicOperator, _entry_indices, table_slots
from .rootsys import (
    RootSystem,
    _read_only,
    build_system,
    characteristic_vector,
    deformed_weyl_vector,
    orbit_rows,
)

DEFAULT_NU_LIST = (Fraction(0), Fraction(1, 2), Fraction(5, 2))
DEFAULT_BETA_LIST = (1.0,)
CLEARANCE = 1e-3
# a refitted coefficient must lie within 10^-(dps-15) of a rational whose
# denominator is at most this
MAX_DENOMINATOR = 4
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


def hp_digits() -> int:
    """The default high-precision working precision, in decimal digits."""
    return _HP_DIGITS


# ---------------------------------------------------------------------------
# independent points on every CPU

# A system's sample points fork only when its Weyl orbits hold at least
# FORK_MIN_ORBIT_ROWS rows in all: every hp list, and a double list of at
# least FORK_MIN_DOUBLE_POINTS points.  On a 2-CPU x86-64 host a fork of a
# warm E7 process costs 20-30 ms, copy-on-write faults included.  Timed in
# one process on one CPU of that host, an E7 hp point (17,642 rows) costs
# 4.2-4.8 ms as a refit frame at 70 digits, 5.3-6.2 ms in hp verify-tables
# and 0.13-0.26 s in hp flatness; an A1, A2 or G2 one (at most 12 rows) 1-2 ms.
# An E7 double point costs 0.8-1.5 ms in verify-tables and 2.6-3.5 ms in
# flatness, so fit's 20-point screen and the default 10-point flatness
# gain less than a fork costs; a ground-state residual costs 0.02-0.03 ms,
# so verify-ground-state never forks.
FORK_MIN_ORBIT_ROWS = 1_000
FORK_MIN_DOUBLE_POINTS = 50


def _cpus() -> int:
    """CPUs this process may run on; 1 where fork or the affinity is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _map_sample_points(fn, sysr: RootSystem, points: list):
    """fn over points, in order: on every CPU for a large system's long lists.

    A large system has at least FORK_MIN_ORBIT_ROWS orbit rows; a long list
    is every hp list and every double one of at least FORK_MIN_DOUBLE_POINTS
    points.  Any other points run lazily here, as map runs them.
    """
    hp = bool(points) and _is_mp(points[0].y)
    if (not (hp or len(points) >= FORK_MIN_DOUBLE_POINTS)
            or sum(map(len, orbit_rows(sysr.kind)[1])) < FORK_MIN_ORBIT_ROWS):
        return map(fn, points)
    if hp:
        _hp_plan(sysr.kind)  # built once here, for every child to inherit
    return _map_points(fn, points)


def _map_points(fn, items) -> list:
    """[fn(x) for x in items], spread over one process per available CPU.

    With two CPUs and two items or more, the items are dealt out by stride
    to a forked child per extra CPU and, last share, to this process; each
    child sends its results back pickled through a pipe.  The results are
    the serial ones, in order, bit for bit; an error is the one of the
    lowest failing index, as a serial run raises it.  A child never returns
    to the caller and never touches stdio, and no child outlives the call.
    Forking is safe because a tauforge process starts no thread of its own;
    OpenBLAS stops its worker threads around a fork.
    """
    items = list(items)
    workers = min(_cpus(), len(items))
    if workers < 2:
        return [fn(x) for x in items]
    shares = [range(k, len(items), workers) for k in range(workers)]
    local = shares[-1:]
    children = {}  # pid -> read end of its pipe, None once being read
    try:
        for share in shares[:-1]:
            try:
                pid, rfd = _fork_child(fn, items, share)
            except OSError:  # no process or pipe to spare: run it here
                local.append(share)
                continue
            children[pid] = rfd
        results = {}
        failures = [_map_share(fn, items, share, results) for share in local]
        for pid in list(children):
            with os.fdopen(children[pid], "rb") as fh:
                children[pid] = None
                try:
                    got, failed = pickle.load(fh)
                except (EOFError, pickle.UnpicklingError):
                    got = None
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if got is None:
                raise ChildProcessError(
                    f"a worker process ended with wait status {status}"
                    " before sending its results"
                )
            results.update(got)
            failures.append(failed)
        failures = [f for f in failures if f is not None]
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        return [results[i] for i in range(len(items))]
    finally:
        if children:
            # only an error or an interrupt leaves children here; importing
            # signal at module level raised the peak RSS of an hp flatness
            # run by about 0.3 MiB
            import signal
        for pid, rfd in children.items():
            if rfd is not None:
                os.close(rfd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _map_share(fn, items, share, results: dict):
    """fn over items[share] into results; (index, error) at the first error."""
    for i in share:
        try:
            results[i] = fn(items[i])
        except Exception as exc:
            return i, exc
    return None


def _fork_child(fn, items, share) -> tuple[int, int]:
    """(pid, read end of its pipe) of a child running fn over items[share]."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        os.close(rfd)
        _map_child(fn, items, share, wfd)
    os.close(wfd)
    return pid, rfd


def _map_child(fn, items, share, wfd: int) -> None:
    """A forked child's whole life: its share, one pickle, then _exit."""
    code = 1
    try:
        results = {}
        failed = _map_share(fn, items, share, results)
        if failed is not None:
            i, exc = failed
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                failed = i, RuntimeError(f"{type(exc).__name__}: {exc}")
        with os.fdopen(wfd, "wb") as fh:
            pickle.dump((results, failed), fh, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


@dataclass(frozen=True)
class SamplePoint:
    y: tuple
    beta: float = 1.0


class NumericFrame(NamedTuple):
    """The orbit sums tau at a point, their y-gradients jac (a row per orbit),
    their Laplacians lap_tau, and cot, the gradient of log Psi0 divided by
    nu: numpy values in double precision, mpf in hp."""

    tau: list
    jac: list
    lap_tau: list
    cot: list


@dataclass(frozen=True)
class FitResult:
    """A refitted entry.

    A coefficient is reconstructed when it lies within the bound of a
    rational with denominator <= max_denominator.  When one does not,
    raw_coefficients holds every coefficient (the nu^0 ones, then for B
    the nu^1 ones) and first_miss names the first, in basis order, that
    failed: its monomial ("exp", "nu_pow"), its 30-digit "value", and the
    "part" ("real" or "imaginary") that missed the bound.
    """

    entry: str
    poly: MultiPoly | None
    residual: float
    reconstructed: bool
    raw_coefficients: tuple = ()
    max_denominator: int = MAX_DENOMINATOR
    first_miss: dict | None = None

    @property
    def ok(self) -> bool:
        return self.reconstructed and self.residual < 1e-30


# ---------------------------------------------------------------------------
# cached geometry data


@lru_cache(maxsize=None)
def _orbit_arrays(kind: str) -> tuple[np.ndarray, ...]:
    scale, ints = orbit_rows(kind)
    return tuple(_read_only(m / scale) for m in ints)


@lru_cache(maxsize=None)
def _orbit_w2(kind: str) -> tuple[np.ndarray, ...]:
    """Per orbit, sum_k g_k u_k^2 for each element u, in double precision."""
    gw = np.array(_metric_weights(kind, False))
    return tuple(_read_only((M * M * gw).sum(axis=1)) for M in _orbit_arrays(kind))


@lru_cache(maxsize=None)
def _root_array(kind: str) -> np.ndarray:
    sysr = build_system(kind)
    return _read_only(np.array([sysr.y_rep(r) for r in sysr.positive_roots], dtype=float))


@lru_cache(maxsize=None)
def _root_mp(kind: str, dps: int) -> list:
    # root coordinates are 0, +-1 and +-1/2, so their doubles convert exactly
    with mp.workdps(dps):
        return [[mpf(c) for c in r] for r in _root_array(kind).tolist()]


@lru_cache(maxsize=None)
def _root_terms(kind: str) -> tuple:
    """Per positive root, (k, alpha_k) for its nonzero y coordinates, each
    alpha_k as an exact _mpf_ tuple."""
    return tuple(tuple((k, from_float(r[k])) for k in np.flatnonzero(r).tolist())
                 for r in _root_array(kind).tolist())


def _converter(hp: bool):
    """Fraction -> float, or with hp -> mpf at the current precision."""
    return (lambda q: mpf(q.numerator) / q.denominator) if hp else float


def _param(x, hp: bool):
    """A float parameter (a beta, a nu or a drawn coordinate) in a check's
    arithmetic: float, or with hp the mpf of its decimal string at the
    current precision, so 0.7 is the decimal 0.7 and not its binary float."""
    return mpf(str(x)) if hp else float(x)


@lru_cache(maxsize=None)
def _metric_weights(kind: str, hp: bool) -> tuple:
    """The metric weights g_k of the y coordinates, as floats or as mpf.

    The weights are small integers (1 and 2), so their mpf values are exact
    at every precision.
    """
    sysr = build_system(kind)
    return tuple(map(_converter(hp), sysr.metric_weights))


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
    precision: str = "double",
    digits: int = hp_digits(),
) -> list[SamplePoint]:
    """Uniform draws from [0.05, 0.35]^d, rejection-resampled for clearance.

    Raises SamplingError after MAX_REJECTED_DRAWS rejections in a row.
    """
    return _rejection_sample(
        sysr, count, seed, beta, precision, digits,
        lambda rng, accepted: rng.uniform(0.05, 0.35, sysr.y_dim),
    )


def _rejection_sample(
    sysr, count, seed, beta, precision, digits, draw
) -> list[SamplePoint]:
    """`count` points that clear the root walls, in draw order.

    draw(rng, accepted) gives the next candidate y from the seeded rng and
    the number of points accepted so far.  hp points carry the same y as
    mpf, rounded at `digits`.  Raises SamplingError after
    MAX_REJECTED_DRAWS rejections in a row.
    """
    rng = np.random.default_rng(seed)
    out: list[SamplePoint] = []
    rejected = 0
    while len(out) < count:
        u = draw(rng, len(out))
        cand = SamplePoint(y=tuple(float(v) for v in u), beta=beta)
        if clearance(sysr, cand) <= CLEARANCE:
            rejected += 1
            if rejected >= MAX_REJECTED_DRAWS:
                raise SamplingError(
                    f"no sample point cleared the root walls (clearance > {CLEARANCE})"
                    f" in {MAX_REJECTED_DRAWS} draws in a row at beta={beta}"
                )
            continue
        rejected = 0
        if precision == "hp":
            with mp.workdps(digits):
                cand = SamplePoint(y=tuple(_param(v, True) for v in u), beta=beta)
        out.append(cand)
    return out


def _require_clearance(sysr: RootSystem, point: SamplePoint) -> None:
    c = clearance(sysr, point)
    if c <= CLEARANCE:
        raise ClearanceError(f"clearance {c:.2e} <= {CLEARANCE}")


# ---------------------------------------------------------------------------
# frames


def _is_mp(values) -> bool:
    """True for values in mpmath arithmetic, real (mpf) or complex (mpc)."""
    return isinstance(values[0], (mpf, mpc))


def _geom_double(sysr: RootSystem, y_arr: np.ndarray, beta: float) -> NumericFrame:
    """The frame at y_arr in double precision.

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
    return NumericFrame(taus, jacs, laps, cotg)


@dataclass(frozen=True)
class _HpPlan:
    """The hp kernel's two-block split of the orbit rows, built once per system.

    Rows u are the orbit vectors times `scale`; when `paired`, only rows whose
    first nonzero u_k is positive are kept, each standing for itself and -u.
    A kept row is (u1, u2), its first y_dim // 2 entries and the rest.
    `keys` are the factors (k, u_k != 0) in (k, u_k) order, and len(keys)
    stands for the factor 1; `angles` are the distinct (k, |u_k|) and
    key_angles each key's angle.  `tries` holds per half the prefix trie of
    its distinct half-rows' factor chains, in k order, as (firsts, steps,
    leaves): the level-1 nodes are the keys `firsts` (len(keys) for an
    empty half-row), each later level is a pair of arrays (parent, key),
    each node its parent in the level before times its key, and leaves
    gives each distinct half-row's final node, counting the nodes level
    by level.  The rows run in (orbit, u1) groups: group_u1 is each
    group's u1 (u1s its entries, as ints) and orbit_starts says where each
    orbit's groups start; w2 is each orbit's one sum_k g_k u_k^2.  Groups
    holding the same u2 rows share one set, whose sums a frame forms once:
    group_set is each group's set, rows_u2 the u2 of each set's rows, set by
    set, and set_starts where each set starts (E7: 409 groups of 8,821 rows
    share 56 sets of 1,495).  grads[j] groups, for _grouped_sums, the set
    rows whose second-half entry u_k, k = len(u1) + j, is nonzero by (set,
    u_k), indexed by their u2.
    """

    scale: int
    paired: bool
    keys: tuple
    angles: tuple
    key_angles: tuple
    tries: tuple
    group_u1: np.ndarray
    u1s: np.ndarray
    group_set: np.ndarray
    rows_u2: np.ndarray
    set_starts: np.ndarray
    orbit_starts: np.ndarray
    w2: tuple
    grads: tuple


def _build_trie(factors: np.ndarray, one: int) -> tuple:
    """(firsts, steps, leaves) of _HpPlan.tries, arrays read-only, for rows
    of key indices with `one` in place of each missing factor."""
    # keys sort by k, so a sorted row lists its factors in k order, then 1s
    factors = np.sort(np.column_stack([factors, np.full(len(factors), one)]), axis=1)
    firsts, node = np.unique(factors[:, 0], return_inverse=True)
    leaves, steps, count = node.copy(), [], len(firsts)
    for key in factors.T[1:]:
        at = np.flatnonzero(key < one)  # rows whose chain goes on
        if not len(at):
            break
        # a node is its (parent, key) pair; np.unique numbers them in order
        codes, node[at] = np.unique(node[at] * (one + 1) + key[at], return_inverse=True)
        steps.append(tuple(map(_read_only, divmod(codes, one + 1))))
        leaves[at] = count + node[at]
        count += len(codes)
    return _read_only(firsts), tuple(steps), _read_only(leaves)


def _build_hp_plan(scale: int, orbits, gws, paired: bool) -> _HpPlan:
    """Plan for integer orbit rows u (the vectors u / scale) and weights `gws`,
    its arrays read-only and built from exact mixed-radix int64 codes.

    Raises ValueError if a code could overflow or if sum_k g_k u_k^2 varies
    on an orbit and, with `paired`, CancellationError unless every orbit is
    closed under negation.
    """
    bound = max(int(np.abs(m).max()) for m in orbits)
    radix, dim = 2 * bound + 1, len(gws)
    if len(orbits) * radix**dim >= 2**63:
        raise ValueError("orbit rows too large for int64 codes")
    place = radix ** np.arange(dim - 1, -1, -1)
    kept, w2s = [], []
    for m in orbits:
        w2 = (m * m) @ np.asarray(gws)
        if (w2 != w2[0]).any():
            raise ValueError("sum_k g_k u_k^2 is not constant on an orbit")
        if paired:
            if set((bound + m) @ place) != set((bound - m) @ place):
                raise CancellationError("orbit is not closed under negation")
            m = m[m[np.arange(len(m)), (m != 0).argmax(axis=1)] > 0]
        kept.append(m[np.argsort((bound + m) @ place)])  # sorted: rows sharing a u1 adjoin
        w2s.append(int(w2[0]))
    rows = np.concatenate(kept)
    orbit = np.repeat(np.arange(len(kept)), [len(m) for m in kept])
    split = dim // 2
    code, low = (bound + rows) @ place, radix ** (dim - split)
    (_, at1, u1), (_, at2, u2) = (
        np.unique(c, return_index=True, return_inverse=True) for c in (code // low, code % low)
    )
    entry = np.arange(dim) * radix + bound + rows  # each u_k's factor (k, u_k) as a code
    # the distinct codes; np.unique without a return_* flag would import numpy.ma (1.2 MiB)
    used = np.flatnonzero(np.bincount(entry[rows != 0]))
    key_k, key_u = np.divmod(used, radix)
    key_u -= bound
    keys = tuple(zip(key_k.tolist(), key_u.tolist()))
    angle_codes, key_angles = np.unique(key_k * radix + np.abs(key_u), return_inverse=True)
    angles = tuple(divmod(c, radix) for c in angle_codes.tolist())
    one, tries = len(used), []  # `one` is the table index of the factor 1
    for at, ks in ((at1, slice(0, split)), (at2, slice(split, dim))):
        f = np.where(rows[at, ks] != 0, np.searchsorted(used, entry[at, ks]), one)
        tries.append(_build_trie(f, one))
    # each (orbit, u1) group is a run of the sorted rows, its u2 sorted
    codes, group_starts = np.unique(orbit * len(at1) + u1, return_index=True)
    sets = {}  # a group's u2 list, as bytes -> the index of its set
    group_set = [sets.setdefault(u2[a:b].tobytes(), len(sets))
                 for a, b in zip(group_starts.tolist(), group_starts[1:].tolist() + [len(rows)])]
    set_u2 = [np.frombuffer(key, u2.dtype) for key in sets]
    rows_u2 = np.concatenate(set_u2)
    row_set = np.repeat(np.arange(len(sets)), list(map(len, set_u2)))
    set_rows = rows[at2[rows_u2]]  # a row of each set row's u2, for its second-half entries
    grads = []
    for k in range(split, dim):
        nz = np.flatnonzero(set_rows[:, k])
        code = row_set[nz] * radix + bound + set_rows[nz, k]
        order = np.argsort(code, kind="stable")
        code, starts = np.unique(code[order], return_index=True)
        by_set, set_firsts = np.unique(code // radix, return_index=True)
        values = (code % radix - bound).astype(object)
        grads.append(tuple(map(_read_only, (rows_u2[nz[order]], starts, values, by_set, set_firsts))))
    u1s = rows[group_starts, :split].astype(object)
    orbit_starts = np.flatnonzero(np.diff(codes // len(at1), prepend=-1))
    set_starts = np.flatnonzero(np.diff(row_set, prepend=-1))
    arrays = codes % len(at1), u1s, np.array(group_set), rows_u2, set_starts, orbit_starts
    return _HpPlan(
        scale, paired, keys, angles, tuple(key_angles.tolist()), tuple(tries),
        *map(_read_only, arrays), tuple(w2s), tuple(grads),
    )


@lru_cache(maxsize=None)
def _hp_plan(kind: str) -> _HpPlan:
    sysr = build_system(kind)
    gws = [int(g) for g in sysr.metric_weights]
    return _build_hp_plan(*orbit_rows(kind), gws, sysr.has_minus_one)


def _trie_step(pc, ps, c, c_plus_s, s_minus_c, shift: int):
    """(re, im) of (pc + i ps)(c + i s) / 2^shift, each rounded half up.

    Three integer products per element instead of four: with t = c (pc +
    ps), pc c - ps s is t - ps (c + s) and pc s + ps c is t + pc (s - c),
    the same integers.  The object arrays pc and ps are overwritten with
    the results, so no step holds more than one spare array.
    """
    t = (pc + ps) * c
    t += 1 << (shift - 1)
    re = np.multiply(ps, c_plus_s, out=ps)
    im = np.multiply(pc, s_minus_c, out=pc)
    np.subtract(t, re, out=re)
    np.add(t, im, out=im)
    re >>= shift
    im >>= shift
    return re, im


def _grouped_sums(group, f: np.ndarray, size: int) -> np.ndarray:
    """The exact sums sum_i value_i f[index_i] per u2 row set (`size` of them),
    for one `grads` entry."""
    index, starts, values, sets, set_starts = group
    sums = np.zeros(size, dtype=object)
    by_value = np.add.reduceat(f[index], starts) * values
    sums[sets] = np.add.reduceat(by_value, set_starts)
    return sums


def _factor_table(plan: _HpPlan, y, beta, shift: int) -> np.ndarray:
    """(c, s): per key (k, u_k) of the plan, and last for the factor 1, the
    cos and sin of beta u_k y_k / scale as to_fixed integers at `shift`."""
    with mp.workprec(shift + 16):
        theta = [beta * yk / plan.scale for yk in y]
        cos_sin = [mp.cos_sin(u * theta[k]) for k, u in plan.angles]
        # -s is exact at this precision, and to_fixed(-s) can differ from
        # -to_fixed(s) at a rounding tie
        table = [(c, -s) if u < 0 else (c, s)
                 for (_, u), (c, s) in zip(plan.keys, (cos_sin[a] for a in plan.key_angles))]
    fixed = [[to_fixed(v, shift) for v in cs] for cs in table]
    return np.array(fixed + [[1 << shift, 0]], dtype=object).T


def _geom_hp(sysr: RootSystem, y, beta) -> NumericFrame:
    """The frame at y, by fixed-point orbit sums at the current mp precision.

    Phase factors e^{i beta u.y / M} are products of per-coordinate roots
    e^{i beta y_k / M} raised to small integer powers, in integer arithmetic
    with 64 guard bits.  The table of factors takes one mp.cos_sin per (k,
    |u_k|): cos and sin of -x are cos x and -sin x bit for bit, as mpmath
    flips the sine's sign before it rounds.  A row u = (u1, u2) (see
    _HpPlan) has the factor g1[u1] g2[u2], and each half-row's product is
    its trie's final node: each node is formed once, its parent times its
    factor rounded (_trie_step, on the tables c, s, c + s and s - c), so a
    half-row's factors are multiplied in k order and each step rounded.
    The g2, and the u_k g2 of each second-half k, are summed exactly once
    per u2 row set and read per (orbit, u1) group through group_set; tau,
    J = sum_u u_k f(u) and the Laplacian w2 tau are exact sums of g1 times
    those sums, at scale 2^(2 shift), each rounded once into mpf.  For
    systems containing -1 the row of -u is the conjugate of the row of u,
    so half-orbit sums double.  The cotangent sum runs the mpf operations
    of (beta / 2) cot(beta alpha.y / 2) alpha as libmp calls on _mpf_
    tuples, in the same order and rounding.
    """
    dim = sysr.y_dim
    plan = _hp_plan(sysr.kind)
    scale = plan.scale
    shift = mp.prec + 64
    tab_c, tab_s = _factor_table(plan, y, beta, shift)
    tab_p, tab_m = tab_c + tab_s, tab_s - tab_c
    halves = []
    for firsts, steps, leaves in plan.tries:  # per half, level by level (see _HpPlan)
        nc, ns = [tab_c[firsts]], [tab_s[firsts]]
        for parent, key in steps:
            c, s = _trie_step(nc[-1][parent], ns[-1][parent], tab_c[key], tab_p[key], tab_m[key],
                              shift)
            nc.append(c)
            ns.append(s)
        halves.append((np.concatenate(nc)[leaves], np.concatenate(ns)[leaves]))
    (g1c, g1s), (g2c, g2s) = halves
    a_c, a_s = g1c[plan.group_u1], g1s[plan.group_u1]
    sets = plan.group_set
    b_c, b_s = (np.add.reduceat(g[plan.rows_u2], plan.set_starts)[sets] for g in (g2c, g2s))
    f_c, f_s = a_c * b_c - a_s * b_s, a_c * b_s + a_s * b_c  # per group, sum of f(u)
    orbit_sums = lambda v: np.add.reduceat(v, plan.orbit_starts, axis=0)
    h = [[_grouped_sums(group, g, len(plan.set_starts))[sets] for g in (g2c, g2s)]
         for group in plan.grads]
    # J per orbit and k: a first-half u_k is constant on a group
    jac_s = orbit_sums(np.column_stack([f_s[:, None] * plan.u1s] + [
        a_c * h_s + a_s * h_c for h_c, h_s in h]))
    jac_c = None if plan.paired else orbit_sums(np.column_stack([f_c[:, None] * plan.u1s] + [
        a_c * h_c - a_s * h_s for h_c, h_s in h]))
    to_mpf = lambda acc, down: mp.ldexp(mpf(int(acc)), -2 * shift) / down
    cplx = lambda re, im, down: to_mpf(re, down) + 1j * to_mpf(im, down)
    taus, jacs, laps = [], [], []
    for a, (w2, tau_c, tau_s) in enumerate(zip(plan.w2, orbit_sums(f_c), orbit_sums(f_s))):
        if plan.paired:
            taus.append(to_mpf(2 * tau_c, 1))
            jacs.append([-beta * to_mpf(2 * j, scale) for j in jac_s[a]])
            laps.append(-(beta**2) * to_mpf(2 * w2 * tau_c, scale**2))
        else:
            taus.append(cplx(tau_c, tau_s, 1))
            jacs.append([-beta * to_mpf(s, scale) + 1j * beta * to_mpf(c, scale)
                         for s, c in zip(jac_s[a], jac_c[a])])
            laps.append(-(beta**2) * cplx(w2 * tau_c, w2 * tau_s, scale**2))
    prec, rnd = mp._prec_rounding
    b, ys = beta._mpf_, [v._mpf_ for v in y]
    half_b = mpf_div(b, ftwo, prec, rnd)
    cotg = [fzero] * dim
    for terms in _root_terms(sysr.kind):
        x = fzero  # sum() starts from 0
        for k, r in terms:
            x = mpf_add(x, mpf_mul(r, ys[k], prec, rnd), prec, rnd)
        c, s = mpf_cos_sin(mpf_div(mpf_mul(b, x, prec, rnd), ftwo, prec, rnd), prec, rnd)
        ct = mpf_div(mpf_mul(half_b, c, prec, rnd), s, prec, rnd)
        for k, r in terms:
            cotg[k] = mpf_add(cotg[k], mpf_mul(ct, r, prec, rnd), prec, rnd)
    return NumericFrame(taus, jacs, laps, [mp.make_mpf(v) for v in cotg])


def build_frame(sysr: RootSystem, point: SamplePoint) -> NumericFrame:
    """The frame at the point, in the point's arithmetic (double or hp)."""
    hp = _is_mp(point.y)
    beta = _param(point.beta, hp)
    if hp:
        return _geom_hp(sysr, point.y, beta)
    return _geom_double(sysr, np.array([float(v) for v in point.y]), beta)


def tau_numeric(sysr: RootSystem, point: SamplePoint) -> tuple:
    """The orbit sums tau_a(y); real for systems containing -1."""
    return tuple(build_frame(sysr, point).tau)


def chain_rule_oracle(sysr: RootSystem, point: SamplePoint, nu):
    """(A_num, B_num) at the point and coupling nu, normalized by 1/beta^2."""
    _require_clearance(sysr, point)
    frame = build_frame(sysr, point)
    hp = _is_mp(point.y)
    gw = _metric_weights(sysr.kind, hp)
    b2 = _param(point.beta, hp) ** 2
    nu = _param(nu, hp)
    rank = sysr.rank
    A = [[None] * rank for _ in range(rank)]
    B = [None] * rank
    for _, i, j, _ in table_slots(characteristic_vector(sysr)):
        if j is None:
            base, slope = _oracle_ab(frame, gw, b2, ("B", i, None))
            B[i] = base + nu * slope
        else:
            A[i][j] = A[j][i] = _oracle_ab(frame, gw, b2, ("A", i, j))
    return A, B


def _oracle_ab(frame: NumericFrame, gw, b2, entry):
    """The chain-rule value of one table entry at one frame.

    gw holds the metric weights in the frame's arithmetic, b2 = beta^2,
    and entry is ("A", i, j) or ("B", i, None) with zero-based indices.
    A_ij is a number; B_i is the pair (base, slope) with B_i(nu) = base +
    nu * slope, because the nu-dependence of B is exactly the ground-state
    cotangent term.
    """
    kind_, i, j = entry
    jac = frame.jac
    if kind_ == "A":
        return sum(g * a * b for g, a, b in zip(gw, jac[i], jac[j])) / b2
    slope = 2 * sum(g * c * jk for g, c, jk in zip(gw, frame.cot, jac[i])) / b2
    return frame.lap_tau[i] / b2, slope


def ground_state_energy(sysr: RootSystem, beta, nu):
    """E0 = beta^2 rho^2 / 8 with rho = nu * (sum of positive roots).

    rho^2 is taken in the arithmetic of beta: mpf for an mpf beta, else float.
    """
    return beta**2 * nu**2 * _converter(_is_mp([beta]))(_rho_sq(sysr.kind)) / 8


def ground_state_residual(sysr: RootSystem, point: SamplePoint, nu):
    """Relative defect of (H Psi0)/Psi0 against the closed-form energy at nu.

    (H Psi0)/Psi0 = -1/2 [D log Psi0 + sum_k g_k (d_k log Psi0)^2] + V
    with V = nu(nu-1) (beta^2/4) sum over positive roots of |alpha|^2/sin^2;
    both V and D log Psi0 weight each root's 1/sin^2 by |alpha|^2 / 2.
    """
    _require_clearance(sysr, point)
    hp = _is_mp(point.y)
    nu = _param(nu, hp)
    beta = _param(point.beta, hp)
    if nu == 0:
        return 0.0
    roots = _root_mp(sysr.kind, mp.dps) if hp else _root_array(sysr.kind)
    gw = _metric_weights(sysr.kind, hp)
    half_len2 = sysr.root_halves.tolist() if hp else sysr.root_halves
    dim = sysr.y_dim
    y = point.y
    inv_sin2 = 0 if hp else 0.0
    grad = [mpf(0)] * dim if hp else np.zeros(dim)
    if hp:
        for r, w in zip(roots, half_len2):
            c, s = mp.cos_sin(beta * sum(r[k] * y[k] for k in range(dim)) / 2)
            inv_sin2 += w / s**2
            ct = (beta / 2) * c / s
            for k in range(dim):
                grad[k] += nu * ct * r[k]
        d_log = -nu * (beta**2 / 2) * inv_sin2
        quad = sum(g * v**2 for g, v in zip(gw, grad))
    else:
        y_arr = np.array([float(v) for v in y])
        th = beta * (roots @ y_arr) / 2
        s = np.sin(th)
        inv_sin2 = (half_len2 / s**2).sum()
        grad = nu * (beta / 2) * ((np.cos(th) / s) @ roots)
        d_log = -nu * (beta**2 / 2) * inv_sin2
        quad = float((np.array(gw) * grad * grad).sum())
    v_pot = nu * (nu - 1) * (beta**2 / 4) * inv_sin2
    lhs = -(d_log + quad) / 2 + v_pot
    e0 = ground_state_energy(sysr, beta, nu)
    return abs(lhs - e0) / (abs(e0) + 1)


# ---------------------------------------------------------------------------
# table verification


def _powers(tau, top) -> list[list]:
    """powers[k][e] = tau[k] ** e for e <= top[k], for verify-tables and fit.

    These are `**` powers, not exactpoly.product_powers' repeated products:
    the two round differently, and the reports of both commands carry these
    bits.
    """
    return [[t**e for e in range(n + 1)] for t, n in zip(tau, top)]


def _residuals(frame: NumericFrame, checks, top, gw, b2) -> array:
    """|got - ref| / (1 + |ref|) at the frame, as doubles in check order.

    checks lists (entry, [(nu, compiled entry), ...]) with entry as for
    _oracle_ab; a B entry's ref is base + nu * slope.  One array('d'): a
    forked point list sends every point's residuals back at once, and a
    1000-point E7 run peaked about 4 MiB higher with (name, residual) pairs
    and 1.0 MiB higher with lists of floats.
    """
    pw = _powers(frame.tau, top)
    out = array("d")
    for entry, row in checks:
        ref = _oracle_ab(frame, gw, b2, entry)
        for nu, terms in row:
            want = ref if entry[0] == "A" else ref[0] + nu * ref[1]
            got = eval_compiled(terms, pw, frame.tau)
            out.append(float(abs(got - want) / (1 + abs(want))))
    return out


def distinct_nus(nu_list) -> list:
    """nu_list as a list; ValueError if a value repeats.

    Each nu is one more check of the B entries; a repeated value checks
    the same thing twice and overstates what the report covers.
    """
    nus = list(nu_list)
    if len(set(nus)) < len(nus):
        raise ValueError(
            "nu values must be distinct, got " + ",".join(str(float(x)) for x in nus)
        )
    return nus


def verify_tables(
    op: AlgebraicOperator,
    samples: int = 50,
    seed: int = 20240,
    tol: float = 1e-6,
    nu_list=None,
    beta_list=None,
    precision: str = "double",
    digits: int = hp_digits(),
) -> dict:
    """Compare every table entry against the chain-rule oracle.

    Returns a JSON-ready report; reproducible for a fixed seed.  B entries
    are checked at every nu in nu_list.  Raises ValueError if nu_list
    repeats a value.  hp points are rounded at `digits` and run at
    `digits`.  A large system's hp points, and its double points from
    FORK_MIN_DOUBLE_POINTS samples on, run on every CPU (see
    _map_sample_points).
    """
    sysr = op.system
    nu_list = distinct_nus(nu_list) if nu_list else [float(x) for x in DEFAULT_NU_LIST]
    beta_list = list(beta_list) if beta_list else list(DEFAULT_BETA_LIST)
    rank = op.rank
    hp = precision == "hp"
    with mp.workdps(digits):
        gw = _metric_weights(sysr.kind, hp)
        conv = _converter(hp)
        nubs = [_param(nu, hp) for nu in nu_list]
        # A is nu-free and compiled at nu = 0; B once per nu of the list
        nu0 = mpf(0) if hp else 0.0
        slots = table_slots(op.cv)
        checks = [
            (("B", i, None), [(nub, compile_poly(op.B[i], conv, nub)) for nub in nubs])
            if j is None else
            (("A", i, j), [(nu0, compile_poly(op.A[i][j], conv, nu0))])
            for _, i, j, _ in slots
        ]
        top = top_exponents([terms for _, row in checks for _, terms in row], rank)
        names = [name for name, *_ in slots]
        worst = dict.fromkeys(names, 0.0)
        # the entry of each residual: A once, B once per nu
        checked = [name for name, (_, row) in zip(names, checks) for _ in row]

        for beta in beta_list:
            b2 = _param(beta, hp) ** 2
            pts = sample_points(
                sysr, samples, seed=seed, beta=beta, precision=precision, digits=digits,
            )
            per_point = _map_sample_points(
                lambda pt: _residuals(build_frame(sysr, pt), checks, top, gw, b2),
                sysr, pts,
            )
            for notes in per_point:
                for name, r in zip(checked, notes):
                    if r > worst[name]:
                        worst[name] = r

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
        "entries": entries,
        "discrepant": discrepant,
        "all_pass": not discrepant,
    }


# ---------------------------------------------------------------------------
# refitting


# fit_entry fits on the first frames of a pool and checks the result on
# its last HELD_OUT_FRAMES
HELD_OUT_FRAMES = 4

def _fit_plan(op: AlgebraicOperator, which: str):
    """(kind, i, j, basis, frames) for refitting one entry.

    basis holds every monomial within the entry's weighted-degree bound.
    The fit reads rows = 2 * len(basis) + 8 values from its first `frames`
    frames: A one per frame, so frames = rows, and B two, its nu^0 and its
    nu^1 part, so frames = ceil(rows / 2).
    """
    kind_, i, j = _entry_indices(which, op.rank)
    # the slot of A71 is A17's
    bound = next(b for _, si, sj, b in table_slots(op.cv) if {si, sj} == {i, j})
    basis = weighted_monomials(op.cv, bound)
    rows = 2 * len(basis) + 8
    return kind_, i, j, basis, rows if kind_ == "A" else (rows + 1) // 2


class FramePool:
    """Shared high-precision frames so several fits reuse the geometry.

    The sample coordinates are rounded at `digits`.  A fit works at `dps`
    = max(digits, 50) digits, and the frames carry 20 guard digits more
    (see workdps).  All `count` points are drawn, but frames are built only
    for the first `fit_frames` (default: all but the held-out ones) and the
    last HELD_OUT_FRAMES, the only frames fit_entry reads.  A large
    system's frames are built on every CPU (see _map_sample_points).
    """

    def __init__(self, sysr: RootSystem, count: int, seed: int = 23, beta=1,
                 digits: int = hp_digits(), fit_frames: int | None = None):
        self.sysr = sysr
        self.dps = max(digits, 50)
        held = max(count - HELD_OUT_FRAMES, 0)
        self.fit_frames = held if fit_frames is None else min(fit_frames, held)
        with self.workdps():
            pts = sample_points(
                sysr, count, seed=seed, beta=float(beta), precision="hp", digits=digits,
            )
            self.beta = _param(float(beta), True)  # build_frame's beta
            self.frames = list(_map_sample_points(
                lambda p: build_frame(sysr, p), sysr, pts[: self.fit_frames] + pts[held:],
            ))

    def workdps(self):
        """The precision context the frames are built and fitted in."""
        return mp.workdps(self.dps + 20)


def fit_entry(op: AlgebraicOperator, which: str, pool: FramePool) -> FitResult:
    """Rebuild a table entry from the oracle by exact-targeted least squares.

    Fits over all monomials within the entry's weighted-degree bound (with
    independent nu^0/nu^1 coefficients for B, fitted as two right-hand
    sides of one qr_solve), reconstructs rationals with denominators <=
    MAX_DENOMINATOR, and reports the residual at held-out points.  The fit
    works at the pool's precision (see FramePool).
    """
    sysr = op.system
    kind_, i, j, basis, want_frames = _fit_plan(op, which)
    dps = pool.dps

    with pool.workdps():
        if pool.fit_frames < want_frames:
            raise ValueError(
                f"frame pool too small for {which}: needs {want_frames} fit"
                f" frames, has {pool.fit_frames}"
            )
        gw = _metric_weights(sysr.kind, True)
        b2 = pool.beta**2
        entry = (kind_, i, j)
        # B is checked at two nu values on the held-out frames
        held_nubs = [mpf(1) / 2, mpf(5) / 2]
        to_mpf = _converter(True)
        monomials = [compile_poly(MultiPoly(sysr.rank, {p: ONE}), to_mpf, 0) for p in basis]
        top = top_exponents(monomials, sysr.rank)

        # one row of basis monomials per frame; the right-hand sides are A's
        # value, or B's nu^0 part (base) and nu^1 part (slope)
        rows, rhs = [], []
        for frame in pool.frames[:want_frames]:
            pw = _powers(frame.tau, top)
            rows.append([eval_compiled(m, pw, frame.tau) for m in monomials])
            ref = _oracle_ab(frame, gw, b2, entry)
            rhs.append([ref] if kind_ == "A" else list(ref))
        # complex frames (A2) give complex systems
        solve = qr_solve if sysr.has_minus_one else complex_qr_solve
        coeffs = [c for sol in solve(rows, list(zip(*rhs))) for c in sol]
        n = len(basis)

        terms = {}
        miss = None
        bound = mpf(10) ** -(dps - 15)
        for idx, p in enumerate(basis):
            pair = []
            for nu_pow, c in enumerate(coeffs[idx::n]):
                # complex frames (A2) give mpc coefficients; a real table
                # entry needs a vanishing imaginary part
                fr = Fraction(mp.nstr(mp.re(c), min(dps - 5, 40)))
                fr = fr.limit_denominator(MAX_DENOMINATOR)
                err = abs(mp.re(c) - mpf(fr.numerator) / fr.denominator)
                if miss is None and max(err, abs(mp.im(c))) > bound:
                    miss = {
                        "exp": list(p),
                        "nu_pow": nu_pow,
                        "value": mp.nstr(c, 30),
                        "part": "real" if err > bound else "imaginary",
                    }
                pair.append(fr)
            if any(pair):
                terms[p] = NuLinear(*pair)
        reconstructed = miss is None
        poly = MultiPoly(sysr.rank, terms) if reconstructed else None

        worst = float("inf")
        if reconstructed:
            held = [
                (nub, compile_poly(poly, to_mpf, nub))
                for nub in (held_nubs if kind_ == "B" else [mpf(0)])
            ]
            top = top_exponents([terms for _, terms in held], sysr.rank)
            # rounding to float is monotone: this is the float of the mpf max
            worst = max(
                max(_residuals(frame, [(entry, held)], top, gw, b2))
                for frame in pool.frames[-HELD_OUT_FRAMES:]
            )
        return FitResult(
            entry=which.upper(),
            poly=poly,
            residual=worst,
            reconstructed=reconstructed,
            raw_coefficients=tuple(mp.nstr(c, 30) for c in coeffs)
            if not reconstructed
            else (),
            first_miss=miss,
        )
