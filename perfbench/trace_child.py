"""Run one tauforge CLI call with spans around its layer entry points.

Usage: python3 perfbench/trace_child.py SPANS_JSON STEP_ID CLI_ARG...

The CLI report goes to standard output exactly as `python -m tauforge.cli`
prints it, and the exit code is the CLI's.  Every public entry point in
TARGETS is wrapped in each tauforge module namespace that holds it, so a
call through `from .oracle import tau_numeric` is traced as well as one
through `oracle.tau_numeric`.  Spans (name, start, end, parent index, step
id, note) stay in memory and are written to SPANS_JSON when the call ends.
A target that no longer exists is listed under "missing" instead of
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time


def _precision_of_point(args, kwargs, result):
    y0 = args[1].y[0]
    return {"precision": "hp" if type(y0).__name__ == "mpf" else "double"}


def _count_result(args, kwargs, result):
    return {"count": len(result)}


def _verify_tables_note(args, kwargs, result):
    return {
        "precision": result["precision"],
        "points": result["samples"] * len(result["beta_list"]),
    }


def _flatness_note(args, kwargs, result):
    return {"precision": result["precision"], "points": len(result["points"])}


def _frame_pool_note(args, kwargs, result):
    return {"count": len(args[0].frames)}


def _fit_note(args, kwargs, result):
    return {"reconstructed": bool(result.reconstructed)}


def _basis_note(args, kwargs, result):
    return {"dim": result.dim}


def _orbit_note(args, kwargs, result):
    return {"orbit": f"{args[0].kind}/{args[1]}"}


# (module, attribute path, span name, note function or None); a note
# function turns (args, kwargs, result) into the span's note
TARGETS = (
    ("tauforge.rootsys", "weyl_orbit", "rootsys.weyl_orbit", _orbit_note),
    ("tauforge.rootsys", "dominance_leq", "rootsys.dominance_leq", None),
    ("tauforge.exactpoly", "MultiPoly.__mul__", "exactpoly.mul", None),
    ("tauforge.exactpoly", "MultiPoly.substitute", "exactpoly.substitute", None),
    ("tauforge.operator", "e7_operator", "operator.e7_operator", None),
    ("tauforge.operator", "enumerate_flag_basis", "operator.enumerate_flag_basis",
     _basis_note),
    ("tauforge.operator", "apply", "operator.apply", None),
    ("tauforge.operator", "spectrum", "operator.spectrum", None),
    ("tauforge.operator", "weighted_projective_check",
     "operator.weighted_projective_check", None),
    ("tauforge.operator", "exact_det", "operator.exact_det", None),
    ("tauforge.oracle", "clearance", "oracle.clearance", None),
    ("tauforge.oracle", "sample_points", "oracle.sample_points", _count_result),
    ("tauforge.oracle", "tau_numeric", "oracle.tau_numeric",
     _precision_of_point),
    ("tauforge.oracle", "ground_state_residual", "oracle.ground_state_residual", None),
    ("tauforge.oracle", "verify_tables", "oracle.verify_tables",
     _verify_tables_note),
    ("tauforge.oracle", "FramePool.__init__", "oracle.frame_pool",
     _frame_pool_note),
    ("tauforge.oracle", "fit_entry", "oracle.fit_entry", _fit_note),
    ("tauforge.oracle", "qr_solve", "oracle.qr_solve", None),
    ("tauforge.geometry", "flatness_sample_points", "geometry.flatness_sample_points",
     _count_result),
    ("tauforge.geometry", "flatness_report", "geometry.flatness_report",
     _flatness_note),
    ("tauforge.derive", "derive_operator", "derive.derive_operator", None),
)


class Tracer:
    """Spans in call order; each thread keeps its own stack of open spans.

    A span opened in a worker thread (the CLI's `--jobs` pool) has no
    parent, so it never counts as a child of a span in another thread.
    """

    def __init__(self, step: str):
        self.step = step
        self.spans: list = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name, fn, note=None):
        spans, step, lock, local = self.spans, self.step, self._lock, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            with lock:
                idx = len(spans)
                spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, start, end, parent, step, None]
            if note is not None:
                spans[idx][5] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded tauforge module that holds it."""
        importlib.import_module("tauforge")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "tauforge" or n.startswith("tauforge.")]
        for mod_name, path, span, note in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(mod_name)
                if owner_name:
                    owner = getattr(owner, owner_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(span)
                continue
            wrapped = self.wrap(span, original, note)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"step": self.step, "missing": self.missing,
                       "spans": self.spans}, fh)


def main(argv: list[str]) -> int:
    spans_path, step, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(step)
    tracer.install()
    from tauforge import cli

    entry = tracer.wrap("cli.main", cli.main)
    try:
        code = entry(cli_args)
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            code = exc.code or 0
        else:
            print(exc.code, file=sys.stderr)
            code = 1
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
