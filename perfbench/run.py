"""Verdict benchmark for tauforge.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

A workload is a fixed list of tauforge CLI calls.  One client runs them one
after another (a closed loop), each as a fresh `python -m tauforge.cli`
process against this checkout's `src/`, and a call starts only when the
previous one has exited.  No `--jobs` flag is passed, so the CLI keeps its
default of one thread per CPU.  Fresh processes are deliberate: every CLI
user pays the cold caches and the process-wide mpmath context.

Every call's verdict is checked against its known answer, reading only the
exit code and the report's `result` block.  `--seed N` is passed as
`--seed N` to every call; without it each call keeps its own acceptance
seed (verify-tables 20240, fit 23, flatness 11, invariance 5, derive 77).

The workload list repeats while the next pass is predicted to end within
`--seconds`, and runs at least once.  With `--trace 0` the last line of
standard output is the end-to-end result: the median pass time, the median
of five set-up probes and the largest child RSS.  Times are in seconds at
reference host speed (see SpeedProbe): each child's wall time is scaled by
how fast a fixed reference burst ran beside it.  With `--trace 1` the
untraced passes are followed by one pass whose children run under
`trace_child.py`, and the last line holds the per-layer metrics.  Earlier
lines hold the run header and the detail: per-step times (`fit_s` in
PER_LAYER is `steps_s["fit"]`), failed steps and `failed_frac`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np
from mpmath import mp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0
SETUP_PROBES = 5

DISCREPANT = ["A17", "B1", "B2", "B3", "B4", "B5", "B6", "B7"]
E7_ORBIT_SIZES = [56, 126, 576, 756, 2016, 4032, 10080]
E7_CV = (1, 2, 2, 2, 3, 3, 4)
# (w_a, w_b) for the E7 fundamental weights in tauforge's labelling
E7_WEIGHT_GRAM = [
    [Fraction(v) for v in row.split()]
    for row in (
        "3/2 1 3/2 2 2 5/2 3",
        "1 2 2 2 3 3 4",
        "3/2 2 7/2 3 4 9/2 6",
        "2 2 3 4 4 5 6",
        "2 3 4 4 6 6 8",
        "5/2 3 9/2 5 6 15/2 9",
        "3 4 6 6 8 9 12",
    )
]


# ---------------------------------------------------------------------------
# known answers: each check sees the exit code, the report's result block
# and the reference data, and reads nothing else


def _canonical_entry(tables: dict, entry: str) -> list:
    if entry.startswith("A"):
        i, j = int(entry[1]) - 1, int(entry[2]) - 1
        return tables["A"][i][j - i]
    return tables["B"][int(entry[1:]) - 1]


def check_fit(code: int, result: dict, refs: "Refs") -> bool:
    rows = result["entries"]
    return (
        code == 0
        and [r["entry"] for r in rows] == DISCREPANT
        and all(
            r["ok"] and r["reconstructed"] and r["residual"] < 1e-30
            and r["poly"] == _canonical_entry(refs.canonical(), r["entry"])
            for r in rows
        )
    )


def check_tables_hp(code: int, result: dict, refs: "Refs") -> bool:
    return (
        code == 0
        and result["all_pass"]
        and result["discrepant"] == []
        and all(e["max_rel_residual"] < 1e-30 for e in result["entries"])
    )


def check_tables_raw(code: int, result: dict, refs: "Refs") -> bool:
    return code == 1 and result["discrepant"] == DISCREPANT


def check_ground_state(code: int, result: dict, refs: "Refs") -> bool:
    return code == 0 and result["max_residual"] < 1e-8


def check_fault(code: int, result: dict, refs: "Refs") -> bool:
    return (
        code == 0
        and result["fault_detected"] is True
        and result["max_riemann_normalized"] > 1e-3
    )


def check_flat_hp(code: int, result: dict, refs: "Refs") -> bool:
    return (
        code == 0
        and result["precision"] == "hp"
        and result["max_riemann_normalized"] < 1e-30
    )


def _free_spectrum(n: int) -> list[Fraction]:
    """-(lambda, lambda) for every flag monomial of weighted degree <= n."""
    out = []
    for p in product(*[range(n // c + 1) for c in E7_CV]):
        if sum(c * e for c, e in zip(E7_CV, p)) <= n:
            out.append(-sum(
                p[a] * p[b] * E7_WEIGHT_GRAM[a][b]
                for a in range(7) for b in range(7)
            ))
    return sorted(out)


def check_spectrum(code: int, result: dict, refs: "Refs") -> bool:
    values = sorted(Fraction(v) for v in result["at_nu"]["values"])
    return (
        code == 0
        and result["certificate"] == "dominance-triangular"
        and result["dim"] == 128
        and values == _free_spectrum(7)
    )


def check_invariance(code: int, result: dict, refs: "Refs") -> bool:
    sets = result["sets"]
    return code == 0 and len(sets) == 3 and all(s["det"] == "1" and s["ok"] for s in sets)


def check_flag(code: int, result: dict, refs: "Refs") -> bool:
    return (
        code == 0
        and result["basis_dim"] == 12
        and result["image_overflows"] == []
        and result["degree_bounds"]["ok"]
    )


def check_derive(code: int, result: dict, refs: "Refs") -> bool:
    return code == 0 and result["violations"] == [] and result["oracle_check"]["all_pass"]


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Step:
    name: str
    argv: tuple[str, ...]
    check: Callable[[int, dict, "Refs"], bool]


@dataclass(frozen=True)
class Workload:
    why: str
    steps: tuple[Step, ...]


WORKLOADS = {
    "refit-hp": Workload(
        why=(
            "acceptance criterion 3 as a user runs it: a double screen of the raw "
            "tables, 104 frames at 70 digits, 8 QR refits, then an hp check of the "
            "canonical tables; the hp orbit-sum kernel dominates"
        ),
        steps=(
            Step("fit", ("fit", "--variant", "raw", "--entries", "discrepant"), check_fit),
            Step("verify_tables_hp", (
                "verify-tables", "--variant", "canonical", "--precision", "hp",
                "--samples", "10", "--tol", "1e-30"), check_tables_hp),
        ),
    ),
    "screen-double": Workload(
        why=(
            "the oracle evaluating many points in double precision, plus curvature "
            "assembly in double and hp; almost no hp frames and no exact algebra"
        ),
        steps=(
            Step("verify_tables", ("verify-tables", "--variant", "raw", "--samples", "1000"),
                 check_tables_raw),
            Step("verify_ground_state", ("verify-ground-state", "--samples", "500"),
                 check_ground_state),
            Step("flatness_fault", ("flatness", "--points", "50", "--fault"), check_fault),
            Step("flatness_hp", ("flatness", "--precision", "hp", "--points", "10"),
                 check_flat_hp),
        ),
    ),
    "flag-exact": Workload(
        why=(
            "exact rational algebra: dominance order, apply/substitute and exact_det "
            "on the flag basis; the only numeric work is derive's rank-2 oracle check"
        ),
        steps=(
            Step("spectrum", ("spectrum", "--variant", "canonical", "--n", "7", "--nu", "0"),
                 check_spectrum),
            Step("invariance", ("invariance", "--n", "6", "--sets", "3"), check_invariance),
            Step("flag_check", ("flag-check", "--n", "3"), check_flag),
            Step("derive_a2", ("derive", "--system", "A2"), check_derive),
            Step("derive_g2", ("derive", "--system", "G2"), check_derive),
        ),
    ),
}

EXCLUDED = {
    "verify-ground-state --precision hp": (
        "its handler never enters mp.workdps, so it runs at mpmath's default 15 "
        "digits (residual ~7e-13); timing it would measure the wrong program"
    ),
    "flatness --precision double": (
        "the double residual crosses the CLI's 1e-6 tolerance at about one seed in "
        "ten (1.09e-6 at the acceptance seed 11 with 50 points; seeds 28, 35, 36, 37 "
        "with 10 points), so its verdict is not a known answer; the double curvature "
        "assembly is still timed by flatness --fault"
    ),
}

# per-layer metric -> (unit, better, the end-to-end number it should move)
PER_LAYER = {
    "oracle.frame_pool.s_per_frame": ("s", "lower", "fit_s and verdict_s on refit-hp"),
    "oracle.fit_entry.self_s": ("s", "lower", "fit_s on refit-hp"),
    "oracle.qr_solve.s": ("s", "lower", "fit_s on refit-hp"),
    "oracle.fit_entry.reconstructed_ratio": ("ratio", "higher", "fit_s on refit-hp"),
    "oracle.verify_tables.s_per_point.double": (
        "s", "lower", "verify_tables_s on screen-double"),
    "oracle.verify_tables.s_per_point.hp": ("s", "lower", "verify_tables_hp_s on refit-hp"),
    "oracle.ground_state_residual.calls": (
        "count", "lower", "verify_ground_state_s on screen-double"),
    "oracle.ground_state_residual.s_per_call": (
        "s", "lower", "verify_ground_state_s on screen-double"),
    "oracle.sample_points.accept_ratio": ("ratio", "higher", "wasted sampling work"),
    "geometry.flatness_sample_points.accept_ratio": (
        "ratio", "higher", "wasted sampling work"),
    "oracle.tau_numeric.s_per_point.double": (
        "s", "lower", "flatness_fault_s on screen-double"),
    "oracle.tau_numeric.s_per_point.hp": ("s", "lower", "flatness_hp_s on screen-double"),
    "geometry.flatness_report.self_s_per_point.double": (
        "s", "lower", "flatness_fault_s on screen-double"),
    "geometry.flatness_report.self_s_per_point.hp": (
        "s", "lower", "flatness_hp_s on screen-double"),
    "rootsys.dominance_leq.calls": ("count", "lower", "spectrum_s, invariance_s on flag-exact"),
    "rootsys.dominance_leq.self_s": ("s", "lower", "spectrum_s, invariance_s on flag-exact"),
    "operator.enumerate_flag_basis.s": (
        "s", "lower", "spectrum_s, invariance_s on flag-exact"),
    "operator.flag_basis.dim": ("count", "higher", "base for enumerate_flag_basis.s"),
    "operator.apply.calls": ("count", "lower", "spectrum_s on flag-exact"),
    "operator.apply.self_s": ("s", "lower", "spectrum_s on flag-exact"),
    "operator.spectrum.self_s": ("s", "lower", "spectrum_s on flag-exact"),
    "exactpoly.mul.calls": ("count", "lower", "spectrum_s, invariance_s on flag-exact"),
    "exactpoly.mul.self_s": ("s", "lower", "spectrum_s, invariance_s on flag-exact"),
    "exactpoly.substitute.calls": ("count", "lower", "invariance_s on flag-exact"),
    "exactpoly.substitute.self_s": ("s", "lower", "invariance_s on flag-exact"),
    "operator.weighted_projective_check.self_s": (
        "s", "lower", "invariance_s on flag-exact"),
    "operator.exact_det.s": ("s", "lower", "invariance_s on flag-exact"),
    "derive.derive_operator.s": ("s", "lower", "verdict_s on flag-exact"),
    "rootsys.weyl_orbit.cold_s": ("s", "lower", "setup_s on every workload"),
    "operator.e7_operator.s": ("s", "lower", "setup_s on every workload"),
    "cli.process_overhead_s": ("s", "lower", "setup_s on every workload"),
    "cli.report_bytes": ("bytes", "lower", "nothing; shows when reports grow"),
    "trace_overhead_frac": ("ratio", "lower", "nothing; cost of the traced run"),
}


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TAUFORGE_PRECISION"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class ChildRun:
    start: float
    end: float
    code: int
    stdout: bytes
    rss_mb: float
    cpu_s: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Runner:
    """Starts one child at a time, times it and reaps it with its own rusage."""

    def __init__(self, scratch: Path, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self.env = child_env()

    def run(self, args: list[str]) -> ChildRun:
        out_path = self.scratch / "stdout"
        limit = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "wb") as out, open(self.scratch / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=out, stderr=err, cwd=ROOT, env=self.env
            )
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildRun(start, end, proc.returncode, out_path.read_bytes(),
                        usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime)


class Refs:
    """Reference data read from the shipped tables, fetched once and untimed."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self._canonical = None

    def canonical(self) -> dict:
        if self._canonical is None:
            run = self.runner.run(["-m", "tauforge.cli", "export", "--variant", "canonical"])
            if run.code != 0:
                raise RuntimeError("export --variant canonical failed")
            self._canonical = json.loads(run.stdout)["result"]
        return self._canonical


@dataclass
class StepRun:
    step: str
    start: float
    end: float
    code: int
    ok: bool
    rss_mb: float
    cpu_s: float
    report_bytes: int
    spans: dict | None = None

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_step(runner: Runner, step: Step, seed: int | None, refs: Refs,
             trace_dir: Path | None = None) -> StepRun:
    cli_args = list(step.argv) + ([] if seed is None else ["--seed", str(seed)])
    if trace_dir is None:
        run = runner.run(["-m", "tauforge.cli", *cli_args])
    else:
        spans_path = trace_dir / f"{step.name}.json"
        run = runner.run([str(HERE / "trace_child.py"), str(spans_path), step.name, *cli_args])
    try:
        ok = bool(step.check(run.code, json.loads(run.stdout)["result"], refs))
    except (ValueError, KeyError, TypeError, IndexError):
        ok = False
    spans = None
    if trace_dir is not None and spans_path.exists():
        spans = json.loads(spans_path.read_text())
    return StepRun(step.name, run.start, run.end, run.code, ok, run.rss_mb, run.cpu_s,
                   len(run.stdout), spans)


def run_pass(runner, workload: Workload, seed, refs, trace_dir=None) -> list[StepRun]:
    return [run_step(runner, s, seed, refs, trace_dir) for s in workload.steps]


def setup_probe(runner: Runner, seed: int | None) -> tuple[ChildRun, bool]:
    run = runner.run([str(HERE / "setup_probe.py"), str(0 if seed is None else seed)])
    try:
        got = json.loads(run.stdout)
        ok = (
            run.code == 0
            and got["orbit_sizes"] == E7_ORBIT_SIZES
            and got["tau_gap"] < 1e-10
            and got["raw_violations"] > 0
            and got["canonical_violations"] == 0
        )
    except (ValueError, KeyError, TypeError):
        ok = False
    return run, ok


# ---------------------------------------------------------------------------
# host speed
#
# The benchmark may get a few CPUs of a shared machine whose speed drifts by
# up to a factor of two over seconds as other tenants load it; on such a
# 2-CPU host the same 25 s pass read 12-37% apart (interquartile range over
# median) between runs.  A thread of the benchmark therefore times a fixed
# reference burst every REF_PERIOD_S while the children run, and each timed
# child is scaled by its mean speed relative to the reference, REF_BURST_S
# over the burst times around its run: the time the child would take on a
# host where one burst costs REF_BURST_S.  Raw wall and child CPU times stay
# in the detail line.  Bursts are timed in thread CPU time, so they do not
# read slow while they share a CPU, and use no BLAS, so each stays on one
# CPU.  The thread is left to the scheduler: pinning it to one CPU, adding
# cache- or memory-bound work to the burst, or timing it in wall time did
# not steady the figures in tests.  A burst takes about REF_BURST_S, once
# every REF_PERIOD_S: some 8% of one CPU.  Child CPU time is no substitute:
# it varies as much as wall time, as the slow-downs slow the CPU itself.

REF_PERIOD_S = 0.25
REF_BURST_S = 0.02
REF_PAD_S = 0.5
_REF_ARRAY = np.linspace(0.0, 1.0, 4096)


def reference_burst() -> tuple:
    """A fixed mix of Fraction, 70-digit mpmath, numpy and plain-int work."""
    acc = Fraction(0)
    for k in range(1, 300):
        acc += Fraction(k, k * k + 1)
    with mp.workdps(70):
        x = mp.mpf(1) / 3
        s = mp.mpf(0)
        for k in range(1000):
            s += x * x + mp.sqrt(x + k)
    a = _REF_ARRAY
    for _ in range(40):
        a = np.sin(a) * 0.5 + np.sqrt(a + 1.0)
    t = 0
    for i in range(50000):
        t += i * i % 7
    return acc, s, float(a[-1]), t


class SpeedProbe:
    """Times reference bursts in a thread between `with` entry and exit."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        reference_burst()  # warm-up
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.is_set():
            start, cpu = time.perf_counter(), time.thread_time()
            reference_burst()
            cpu = time.thread_time() - cpu
            self.samples.append(((start + time.perf_counter()) / 2, cpu))
            self._stop.wait(REF_PERIOD_S)

    def scaled(self, start: float, end: float) -> float:
        """Seconds at reference speed for an interval timed from start to end."""
        near = [c for t, c in self.samples if start - REF_PAD_S <= t <= end + REF_PAD_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - (start + end) / 2))[1]]
        return (end - start) * statistics.mean(REF_BURST_S / c for c in near)


# ---------------------------------------------------------------------------
# statistics and per-layer metrics


def summary(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    tail = None
    for pct in (99.9, 99, 90, 75, 50):
        if len(samples) * (1 - pct / 100) >= 10:
            tail = {"pct": pct, "value": statistics.quantiles(samples, n=1000)[
                round(pct * 10) - 1]}
            break
    return {"median": statistics.median(samples), "tail": tail, "n": len(samples)}


class SpanTable:
    """Spans of traced calls as (name, duration, self time, note, parent name)."""

    def __init__(self, dumps: list[dict]):
        self.rows: list[tuple] = []
        self.missing: set[str] = set()
        for dump in dumps:
            spans = dump["spans"]
            child = [0.0] * len(spans)
            for _, start, end, parent, _, _ in spans:
                if parent >= 0:
                    child[parent] += end - start
            for k, (name, start, end, parent, _, note) in enumerate(spans):
                up = spans[parent][0] if parent >= 0 else None
                self.rows.append((name, end - start, end - start - child[k], note or {}, up))
            self.missing.update(dump["missing"])

    def select(self, name: str, **match) -> list[tuple]:
        return [r for r in self.rows if r[0] == name
                and all(r[3].get(k) == v for k, v in match.items())]

    def total(self, name: str, **match) -> float:
        return sum(r[1] for r in self.select(name, **match))

    def self_time(self, name: str, **match) -> float:
        return sum(r[2] for r in self.select(name, **match))

    def calls(self, name: str, **match) -> int:
        return len(self.select(name, **match))

    def note_sum(self, name: str, key: str, **match) -> float:
        return sum(r[3].get(key, 0) for r in self.select(name, **match))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# metrics that rest on a span other than the one their name starts with
EXTRA_SPANS = {
    "operator.flag_basis.dim": "operator.enumerate_flag_basis",
    "oracle.sample_points.accept_ratio": "oracle.clearance",
    "geometry.flatness_sample_points.accept_ratio": "oracle.clearance",
}


def layer_metrics(steps: list[StepRun]) -> dict:
    """Per-layer metrics of one traced pass; a metric whose span is gone is absent."""
    per_step = [SpanTable([s.spans]) for s in steps]
    t = SpanTable([s.spans for s in steps])
    m = {
        "oracle.frame_pool.s_per_frame": _ratio(
            t.total("oracle.frame_pool"), t.note_sum("oracle.frame_pool", "count")),
        "oracle.fit_entry.self_s": t.self_time("oracle.fit_entry"),
        "oracle.qr_solve.s": t.total("oracle.qr_solve"),
        "oracle.fit_entry.reconstructed_ratio": _ratio(
            t.calls("oracle.fit_entry", reconstructed=True), t.calls("oracle.fit_entry")),
        "oracle.ground_state_residual.calls": t.calls("oracle.ground_state_residual"),
        "oracle.ground_state_residual.s_per_call": _ratio(
            t.total("oracle.ground_state_residual"), t.calls("oracle.ground_state_residual")),
        "rootsys.dominance_leq.calls": t.calls("rootsys.dominance_leq"),
        "rootsys.dominance_leq.self_s": t.self_time("rootsys.dominance_leq"),
        "operator.enumerate_flag_basis.s": t.total("operator.enumerate_flag_basis"),
        "operator.flag_basis.dim": t.note_sum("operator.enumerate_flag_basis", "dim"),
        "operator.apply.calls": t.calls("operator.apply"),
        "operator.apply.self_s": t.self_time("operator.apply"),
        "operator.spectrum.self_s": t.self_time("operator.spectrum"),
        "exactpoly.mul.calls": t.calls("exactpoly.mul"),
        "exactpoly.mul.self_s": t.self_time("exactpoly.mul"),
        "exactpoly.substitute.calls": t.calls("exactpoly.substitute"),
        "exactpoly.substitute.self_s": t.self_time("exactpoly.substitute"),
        "operator.weighted_projective_check.self_s": t.self_time(
            "operator.weighted_projective_check"),
        "operator.exact_det.s": t.total("operator.exact_det"),
        "derive.derive_operator.s": t.total("derive.derive_operator"),
        "operator.e7_operator.s": t.total("operator.e7_operator"),
        # the first call per orbit in each process builds it; later calls hit the cache
        "rootsys.weyl_orbit.cold_s": sum(
            min(r[1] for r in st.select("rootsys.weyl_orbit", orbit=key))
            for st in per_step
            for key in {r[3]["orbit"] for r in st.select("rootsys.weyl_orbit")}
        ),
        "cli.process_overhead_s": statistics.median(
            s.wall_s - st.total("cli.main") for s, st in zip(steps, per_step)),
        "cli.report_bytes": sum(s.report_bytes for s in steps),
    }
    for prec in ("double", "hp"):
        m[f"oracle.verify_tables.s_per_point.{prec}"] = _ratio(
            t.total("oracle.verify_tables", precision=prec),
            t.note_sum("oracle.verify_tables", "points", precision=prec))
        m[f"oracle.tau_numeric.s_per_point.{prec}"] = _ratio(
            t.total("oracle.tau_numeric", precision=prec),
            t.calls("oracle.tau_numeric", precision=prec))
        # self time excludes the tau_numeric and sampling children
        m[f"geometry.flatness_report.self_s_per_point.{prec}"] = _ratio(
            t.self_time("geometry.flatness_report", precision=prec),
            t.note_sum("geometry.flatness_report", "points", precision=prec))
    for sampler in ("oracle.sample_points", "geometry.flatness_sample_points"):
        tries = sum(1 for r in t.rows if r[0] == "oracle.clearance" and r[4] == sampler)
        m[f"{sampler}.accept_ratio"] = _ratio(t.note_sum(sampler, "count"), tries)
    return {
        name: value for name, value in m.items()
        if not any(name.startswith(span + ".") or EXTRA_SPANS.get(name) == span
                   for span in t.missing)
    }


# ---------------------------------------------------------------------------
# run header


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def run_header(args, workload: Workload) -> dict:
    py_files = sorted((SRC / "tauforge").rglob("*.py"))
    digest = hashlib.sha256()
    for path in sorted((SRC / "tauforge").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_py_lines": sum(len(p.read_text().splitlines()) for p in py_files),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "mpmath": _version("mpmath"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "env": {"PYTHONPATH": "src", "PYTHONHASHSEED": "0", "TAUFORGE_PRECISION": None},
        "workload": args.workload,
        "why": workload.why,
        "steps": {s.name: ["tauforge", *s.argv] for s in workload.steps},
        "excluded": EXCLUDED,
        "per_layer_moves": {name: moves for name, (_, _, moves) in PER_LAYER.items()},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one fresh CLI process per step",
    }


# ---------------------------------------------------------------------------
# main


def measure(runner, workload, seed, seconds, refs) -> list[list[StepRun]]:
    """Whole passes while the next one is predicted to end within `seconds`."""
    passes: list[list[StepRun]] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(runner, workload, seed, refs))
        last = sum(s.wall_s for s in passes[-1])
        if time.perf_counter() - start + last > seconds:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="passed to every step; default: each step's acceptance seed")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tauforge" / "cli.py").is_file():
        print(f"perfbench: no tauforge sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(json.dumps({"header": run_header(args, workload)}), flush=True)

    # the GIL passes from a burst to the main thread within a millisecond
    sys.setswitchinterval(0.001)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(scratch, time.monotonic() + RUN_LIMIT_S)
        refs = Refs(runner)
        with SpeedProbe() as speed:
            probes = [] if args.trace else [
                setup_probe(runner, args.seed) for _ in range(SETUP_PROBES)]
            passes = measure(runner, workload, args.seed, args.seconds, refs)
            traced = run_pass(runner, workload, args.seed, refs, scratch) if args.trace else []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    def scaled(run) -> float:
        return speed.scaled(run.start, run.end)

    untraced = [s for p in passes for s in p]
    runs = untraced + traced
    verdict = [sum(scaled(s) for s in p) for p in passes]
    attempted = len(runs) + len(probes)
    failed = sum(not s.ok for s in runs) + sum(not ok for _, ok in probes)
    detail = {
        "verdict_s": summary(verdict),
        "verdict_wall_s": summary([sum(s.wall_s for s in p) for p in passes]),
        "verdict_cpu_s": summary([sum(s.cpu_s for s in p) for p in passes]),
        "steps_s": {st.name: summary([scaled(s) for s in untraced if s.step == st.name])
                  for st in workload.steps},
        "host_speed": {
            "bursts": len(speed.samples),
            "median_burst_s": statistics.median(c for _, c in speed.samples),
            "ref_burst_s": REF_BURST_S,
        },
        "failed_steps": sorted({s.step for s in runs if not s.ok}),
        "failed_frac": failed / attempted,
    }
    if args.trace:
        # a child that crashed wrote no spans; its step already counts as failed
        with_spans = [s for s in traced if s.spans is not None]
        layers = layer_metrics(with_spans) if with_spans else {}
        layers["trace_overhead_frac"] = (
            sum(scaled(s) for s in traced) / statistics.median(verdict) - 1)
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in sorted(layers.items())}
        detail["traced_steps_s"] = {s.step: scaled(s) for s in traced}
    else:
        setup = [scaled(run) for run, _ in probes]
        detail["setup_probe_s"] = setup
        detail["setup_probe_wall_s"] = [run.wall_s for run, _ in probes]
        metrics = {
            "verdict_s": {"value": statistics.median(verdict), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": max(s.rss_mb for s in runs), "unit": "MiB"},
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
