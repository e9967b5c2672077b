"""Command line checks and machine-readable reports.

Every subcommand prints one JSON report and exits 0 only when all checks
in the run pass; check failures exit 1, usage problems exit 2.  Reports
are deterministic for a fixed config and seed: keys are sorted and the
effective configuration is echoed back into the report, so identical
invocations produce byte-identical output.

Only the exact modules load with this one.  The handlers that evaluate
numbers import the oracle, geometry, the derivation and mpmath
themselves, so `spectrum`, `flag-check`, `invariance` and `export` of the
E7 tables run without numpy or mpmath.  `invariance` draws its parameters
from `pcg64`, numpy's generator stream in pure Python.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from fractions import Fraction

from .exactpoly import _HP_DIGITS
from .operator import (
    E7_CV,
    _flag_images,
    e7_operator,
    enumerate_flag_basis,
    flag_degree_check,
    flag_matrix,
    matrix_to_csv,
    matrix_to_json,
    operator_to_json,
    spectrum,
    table_entries,
    weighted_projective_check,
)
from .rootsys import (
    build_system,
    characteristic_vector,
    deformed_weyl_vector,
    weyl_orbit,
)

SYSTEMS = ("E7", "A1", "A2", "G2")


def _parse_system(text: str) -> str:
    kind = text.upper()
    if kind not in SYSTEMS:
        raise argparse.ArgumentTypeError(f"unknown system {text!r}")
    return kind


class UsageError(ValueError):
    """An argument value that parsing accepted but the command cannot use."""


def _count(minimum: int, maximum: int | None = None):
    """argparse type: an int that is at least `minimum` (and at most `maximum`)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return parse


# the largest |nu| and |beta| that the float checks take: their squares
# overflow a double near 1e154, and every product the checks form stays
# finite below 1e6
FLOAT_PARAMETER_LIMIT = 1e6


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float list: {text!r}") from None


def _parse_floats(text: str) -> tuple[float, ...]:
    """argparse type: a comma list of finite nu values, |nu| <= 1e6.

    A NaN residual never exceeds the worst one so far, so a NaN nu would
    pass every check it touches.
    """
    values = _float_list(text)
    for value in values:
        if not abs(value) <= FLOAT_PARAMETER_LIMIT:
            raise argparse.ArgumentTypeError(
                f"nu must be finite with |nu| <= 1e6, got {value}"
            )
    return values


def _parse_betas(text: str) -> tuple[float, ...]:
    """argparse type: a comma list of nonzero finite betas, |beta| <= 1e6.

    At beta = 0 every phase vanishes, so no sample point clears the root
    walls and the curvature chart is undefined.
    """
    betas = _float_list(text)
    for beta in betas:
        if beta == 0 or not math.isfinite(beta):
            raise argparse.ArgumentTypeError(
                f"beta must be nonzero and finite, got {beta}"
            )
        if abs(beta) > FLOAT_PARAMETER_LIMIT:
            raise argparse.ArgumentTypeError(f"|beta| must be <= 1e6, got {beta}")
    return betas


def _parse_tol(text: str) -> float:
    """argparse type: a positive finite tolerance.

    Every residual passes an infinite tolerance, and none passes a NaN or
    a non-positive one.
    """
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"tol must be positive and finite, got {tol}")
    return tol


def _parse_rational(text: str) -> Fraction:
    """argparse type: an exact rational such as 3, 0.25 or 1/2."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"nu must be a finite rational such as 1/2, got {text!r}"
        ) from None


def _output_path(text: str) -> str:
    """argparse type: a report file in an existing directory.

    Checked when the arguments are parsed, so a bad path fails before the
    command runs rather than after it.  A symlink is checked at its target.
    """
    if not text or "\0" in text:
        raise argparse.ArgumentTypeError(f"invalid path {text!r}")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    parent = os.path.dirname(os.path.realpath(text))
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"no directory {parent!r} to write into")
    return text


def _resolve_variant(args) -> None:
    """Fill in --variant: the command's default on E7, derived on small systems.

    E7 ships raw and canonical tables; A1, A2 and G2 only derive theirs.
    """
    if not hasattr(args, "variant"):
        return
    if args.system == "E7":
        if args.variant == "derived":
            raise UsageError("E7 has no derived variant; use raw or canonical")
        args.variant = args.variant or args.e7_variant
    elif args.variant in (None, "derived"):
        args.variant = "derived"
    else:
        raise UsageError(f"{args.system} has only the derived variant, not {args.variant}")


def _one_beta(args) -> float:
    """The --beta of a command that samples at a single beta."""
    if len(args.beta) != 1:
        betas = ",".join(map(str, args.beta))
        raise UsageError(f"argument --beta: {args.command} takes one beta, got {betas}")
    return args.beta[0]


def _operator_for(kind: str, variant: str):
    if kind == "E7":
        return e7_operator(variant)
    from .derive import derive_operator

    return derive_operator(build_system(kind))


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {item}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.extend(_render_text(item, indent + 1))
                lines.append(pad + "-")
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, Fraction):
        return str(value)
    return value


def _config(args) -> dict:
    keys = (
        "command", "system", "variant", "seed", "tol", "precision",
        "samples", "points", "sets", "n", "nu", "beta", "entries", "mode",
        "matrix_n", "fault", "format", "output", "precision_digits",
    )
    return {k: _jsonable(getattr(args, k, None)) for k in keys}


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_orbits(args) -> dict:
    sysr = build_system(args.system)
    orbits = [weyl_orbit(sysr, a + 1) for a in range(sysr.rank)]
    rho = deformed_weyl_vector(sysr)
    return {
        "ok": True,
        "result": {
            "sizes": [o.size for o in orbits],
            "weight_lengths_sq": [str(q) for q in sysr.weight_lengths_sq],
            "charvec": list(characteristic_vector(sysr)),
            "rho_sq_over_nu_sq": str(rho.rho_sq_over_nu_sq),
        },
    }


def _cmd_tau_eval(args) -> dict:
    from mpmath import mp

    from . import oracle

    sysr = build_system(args.system)
    pts = oracle.sample_points(
        sysr, args.samples, seed=args.seed, beta=_one_beta(args),
        precision=args.precision, digits=args.precision_digits,
    )
    rows = []
    with mp.workdps(args.precision_digits):
        for pt in pts:
            tau = oracle.tau_numeric(sysr, pt)
            rows.append(
                {
                    "y": [float(v) for v in pt.y],
                    # a system without -1 (A2) has complex orbit sums
                    "tau": [
                        str(t) if args.precision == "hp"
                        else str(complex(t)) if isinstance(t, complex) else float(t)
                        for t in tau
                    ],
                }
            )
    return {"ok": True, "result": {"points": rows}}


def _cmd_verify_ground_state(args) -> dict:
    from mpmath import mp

    from . import oracle

    sysr = build_system(args.system)
    rho = deformed_weyl_vector(sysr)
    rows = []
    worst = 0.0
    with mp.workdps(args.precision_digits):
        for beta in args.beta:
            # the draw depends on beta but not on nu: one list serves every
            # nu, and each point's nu-free terms are formed once
            pts = oracle.sample_points(
                sysr, args.samples, seed=args.seed, beta=beta,
                precision=args.precision, digits=args.precision_digits,
            )
            per_point = [oracle.ground_state_residuals(sysr, pt, args.nu) for pt in pts]
            for nu, res in zip(args.nu, zip(*per_point)):
                peak = max(map(float, res))
                worst = max(worst, peak)
                rows.append(
                    {
                        "beta": beta,
                        "nu": nu,
                        "samples": len(pts),
                        "energy": float(oracle.ground_state_energy(sysr, beta, nu)),
                        "max_residual": peak,
                    }
                )
    return {
        "ok": worst < args.tol,
        "result": {
            "sweeps": rows,
            "max_residual": worst,
            "rho_sq_over_nu_sq": str(rho.rho_sq_over_nu_sq),
        },
    }


def _cmd_verify_tables(args) -> dict:
    from . import oracle

    try:
        nus = oracle.distinct_nus(args.nu)
    except ValueError as exc:
        raise UsageError(f"argument --nu: {exc}") from None
    op = _operator_for(args.system, args.variant)
    rep = oracle.verify_tables(
        op,
        samples=args.samples,
        seed=args.seed,
        tol=args.tol,
        nu_list=nus,
        beta_list=tuple(args.beta),
        precision=args.precision,
        digits=args.precision_digits,
    )
    return {"ok": rep["all_pass"], "result": rep}


def _cmd_flag_check(args) -> dict:
    op = _operator_for(args.system, args.variant)
    degree = flag_degree_check(op)
    basis = enumerate_flag_basis(op.system.kind, args.n)
    overflow = []
    for mono, image in zip(basis.monomials, _flag_images(op, basis)):
        wd = image.weighted_degree(op.cv)
        if wd > args.n:
            overflow.append({"monomial": list(mono), "weighted_degree": wd})
    ok = degree["ok"] and not overflow
    return {
        "ok": ok,
        "result": {
            "degree_bounds": degree,
            "basis_dim": basis.dim,
            "n": args.n,
            "image_overflows": overflow,
        },
    }


def _cmd_spectrum(args) -> dict:
    op = _operator_for(args.system, args.variant)
    res = spectrum(op, args.n)
    payload: dict = {
        "n": args.n,
        "dim": res.basis.dim,
        "certificate": res.certificate,
    }
    if res.eigenvalues is None:
        row, column, coef = res.below_diagonal
        payload["below_diagonal"] = {
            "row": list(row), "column": list(column), "coefficient": str(coef),
        }
        return {"ok": False, "result": payload}
    payload["eigenvalues"] = [str(e) for e in res.eigenvalues]
    if args.nu is not None:
        payload["at_nu"] = {
            "nu": str(args.nu),
            "values": [str(e.eval(args.nu)) for e in res.eigenvalues],
        }
    return {"ok": True, "result": payload}


def _cmd_flatness(args) -> dict:
    from . import geometry

    if args.system == "A1":
        raise UsageError("every rank-1 metric is flat; flatness needs rank >= 2")
    beta = _one_beta(args)
    op = _operator_for(args.system, args.variant)
    if args.fault:
        op = geometry.sabotaged(op)
    rep = geometry.flatness_report(
        op,
        points=args.points,
        seed=args.seed,
        beta=beta,
        precision=args.precision,
        tol=args.tol,
        digits=args.precision_digits,
    )
    if args.fault:
        detected = rep["max_riemann_normalized"] > 1e-3
        rep["fault_detected"] = detected
        ok = detected
    else:
        ok = rep["all_pass"]
    return {"ok": ok, "result": rep}


def _cmd_invariance(args) -> dict:
    from .pcg64 import wp_param_sets

    if args.system != "E7":
        raise UsageError("the weighted-projective lines exist only for E7")
    if args.n < max(E7_CV):
        raise UsageError(f"--n must be >= {max(E7_CV)}, where every line acts on P_n; got {args.n}")
    sets = []
    for k, params in enumerate(wp_param_sets(args.seed, args.sets)):
        rep = weighted_projective_check(params, args.n, mode=args.mode)
        sets.append(
            {
                "index": k,
                "params": {k2: str(v) for k2, v in params.items()},
                "det": str(rep["det"]),
                "unit_triangular": rep["unit_triangular_lines"],
                "containment_ok": rep["containment_ok"],
                "invertible": rep["invertible"],
                "ok": rep["ok"],
            }
        )
    ok = all(entry["ok"] for entry in sets)
    return {"ok": ok, "result": {"mode": args.mode, "n": args.n, "sets": sets}}


def _cmd_fit(args) -> dict:
    from . import oracle

    beta = _one_beta(args)
    op = _operator_for(args.system, args.variant)
    entries = args.entries.split(",")
    if entries == ["discrepant"]:
        quick = oracle.verify_tables(
            op, samples=20, seed=args.seed, tol=args.tol, precision="double"
        )
        entries = quick["discrepant"]
    frames, named = {}, {}
    for which in entries:
        try:
            kind_, i, j, _, frames[which] = oracle._fit_plan(op, which)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        # a repeat would overstate what the report covers; A_ij is A_ji
        key = kind_, frozenset((i, j))
        if key in named:
            raise UsageError(f"entries must be distinct, but {which} repeats {named[key]}")
        named[key] = which
    # a pool must hold the largest entry's fit frames and the held-out ones;
    # the default pool has 4 frames more than that
    largest = max(frames, key=frames.get, default=None)
    need = frames[largest] + oracle.HELD_OUT_FRAMES if frames else 0
    if args.samples and args.samples < need:
        raise UsageError(
            f"--samples {args.samples} is too small for {largest};"
            f" it needs at least {need} (or 0 to size the pool)"
        )
    count = args.samples or (need + 4 if frames else 0)
    pool = oracle.FramePool(
        op.system, count, seed=args.seed, beta=beta, digits=args.precision_digits,
        fit_frames=frames[largest] if frames else None,
    )
    rows = []
    ok = True
    for which in entries:
        fit = oracle.fit_entry(op, which, pool=pool)
        row = {
            "entry": fit.entry,
            "reconstructed": fit.reconstructed,
            "residual": fit.residual,
            "ok": fit.ok,
            "poly": fit.poly.canonical_terms(op.cv) if fit.poly else None,
        }
        if fit.first_miss:
            row["first_miss"] = fit.first_miss
        rows.append(row)
        ok = ok and fit.ok
    return {"ok": ok, "result": {"entries": rows}}


def _cmd_derive(args) -> dict:
    from . import oracle

    if args.system == "E7":
        raise UsageError("derivation is limited to rank <= 2 systems")
    op = _operator_for(args.system, "derived")
    rep = oracle.verify_tables(
        op, samples=20, seed=args.seed, tol=args.tol, precision="hp",
        digits=args.precision_digits,
    )
    ok = rep["all_pass"] and not op.violations
    return {
        "ok": ok,
        "result": {
            "operator": operator_to_json(op),
            "violations": list(op.violations),
            "oracle_check": rep,
        },
    }


def _cmd_export(args) -> dict:
    op = _operator_for(args.system, args.variant)
    if args.matrix_n is None and args.nu is not None:
        raise UsageError("argument --nu: a nu applies only to a flag matrix (--matrix-n)")
    if args.matrix_n is not None:
        nu = args.nu if args.nu is not None else Fraction(0)
        mat = flag_matrix(op, args.matrix_n, nu)
        if args.format == "csv":
            return {"ok": True, "raw_text": matrix_to_csv(mat)}
        return {
            "ok": True,
            "result": {"n": args.matrix_n, "nu": str(nu), "matrix": matrix_to_json(mat)},
        }
    body = operator_to_json(op)
    if args.format == "csv":
        lines = ["entry,num,den,nu_pow,exp"]
        for key, rows in table_entries(body):
            for row in rows:
                exp = " ".join(str(e) for e in row["exp"])
                lines.append(f"{key},{row['num']},{row['den']},{row['nu_pow']},{exp}")
        return {"ok": True, "raw_text": "\n".join(lines) + "\n"}
    return {"ok": True, "result": body}


# ---------------------------------------------------------------------------
# parser


def _add_common(p, *, samples=None, seed=0, tol=None, precision=False,
                variant=None, beta="1", nu=None, n=None,
                formats=("json", "text")):
    p.add_argument("--system", type=_parse_system, default="E7")
    p.add_argument("--seed", type=_count(0), default=seed)
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--output", type=_output_path, default=None)
    # hp carries at least double precision's 15 digits (at 1 digit a sample
    # rounds onto a root wall, where a cotangent divides by zero); two hp
    # verify-tables points take 3 s at 1000 digits, 8 s at 2000
    p.add_argument("--precision-digits", type=_count(15, 1000),
                   default=_HP_DIGITS)
    if samples is not None:
        # fit's default of 0 sizes the frame pool from the entries
        p.add_argument("--samples", type=_count(0 if samples == 0 else 1),
                       default=samples)
    if tol is not None:
        p.add_argument("--tol", type=_parse_tol, default=tol)
    if precision:
        p.add_argument("--precision", choices=("double", "hp"), default="double")
    if variant is not None:
        # the default depends on --system; see _resolve_variant
        p.add_argument("--variant", choices=("raw", "canonical", "derived"), default=None)
        p.set_defaults(e7_variant=variant)
    if beta is not None:
        p.add_argument("--beta", type=_parse_betas, default=_parse_betas(beta))
    if nu is not None:
        p.add_argument("--nu", type=_parse_floats, default=_parse_floats(nu),
                       help="comma list of nu values; a list with a negative"
                       " value takes =, as in --nu=-0.5,1")
    if n is not None:
        p.add_argument("--n", type=_count(0), default=n)


# argparse reads a negative fraction as an option unless it follows =
_RATIONAL_NU_HELP = "a rational nu; a negative fraction takes =, as in --nu=-1/3"


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one line, as the commands' are."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="tauforge",
        description="Checks and reports for the algebraic operator toolkit.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbits", help="orbit sizes and weight data")
    _add_common(p, beta=None)
    p.set_defaults(handler=_cmd_orbits)

    p = sub.add_parser("tau-eval", help="invariants at sample points")
    _add_common(p, samples=5, precision=True)
    p.set_defaults(handler=_cmd_tau_eval)

    p = sub.add_parser("verify-ground-state", help="closed-form energy check")
    _add_common(p, samples=100, tol=1e-8, precision=True,
                beta="1,2", nu="0.5,1.7,3.0")
    p.set_defaults(handler=_cmd_verify_ground_state)

    p = sub.add_parser("verify-tables", help="tables against the chain-rule oracle")
    _add_common(p, samples=50, seed=20240, tol=1e-6, precision=True,
                variant="raw", nu="0,0.5,2.5")
    p.set_defaults(handler=_cmd_verify_tables)

    p = sub.add_parser("flag-check", help="degree bounds and flag containment")
    _add_common(p, variant="raw", beta=None, n=3)
    p.set_defaults(handler=_cmd_flag_check)

    p = sub.add_parser("spectrum", help="eigenvalues on the flag")
    _add_common(p, variant="raw", beta=None, n=1)
    p.add_argument("--nu", type=_parse_rational, default=None, help=_RATIONAL_NU_HELP)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("flatness", help="Riemann residuals of the metric")
    _add_common(p, seed=11, precision=True, variant="canonical")
    p.add_argument("--points", type=_count(1), default=10)
    p.add_argument("--tol", type=_parse_tol, default=None,
                   help="default 1e-6 double; hp 10^(20-digits), "
                   "between 1e-30 and 1e-6")
    p.add_argument("--fault", action="store_true",
                   help="inject the A11 fault and require detection")
    p.set_defaults(handler=_cmd_flatness)

    p = sub.add_parser("invariance", help="weighted-projective substitution")
    _add_common(p, seed=5, beta=None, n=6)
    p.add_argument("--sets", type=_count(1), default=3)
    p.add_argument("--mode", choices=("sequential", "simultaneous"),
                   default="sequential")
    p.set_defaults(handler=_cmd_invariance)

    p = sub.add_parser("fit", help="refit entries against the oracle")
    _add_common(p, samples=0, seed=23, tol=1e-6, variant="raw")
    p.add_argument("--entries", default="discrepant",
                   help="comma list of entries, or 'discrepant'")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("derive", help="small-rank derivation by exact Weyl orbit sums")
    _add_common(p, seed=77, tol=1e-10, beta=None)
    p.set_defaults(handler=_cmd_derive)

    p = sub.add_parser("export", help="dump tables or flag matrices")
    _add_common(p, variant="raw", beta=None, formats=("json", "csv"))
    p.add_argument("--matrix-n", type=_count(0), default=None)
    p.add_argument("--nu", type=_parse_rational, default=None, help=_RATIONAL_NU_HELP)
    p.set_defaults(handler=_cmd_export)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_variant(args)
        body = args.handler(args)
    except ValueError as exc:
        # a SamplingError can only come from a command that loaded the oracle
        if not isinstance(exc, UsageError):
            from .oracle import SamplingError

            if not isinstance(exc, SamplingError):
                raise
        parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")
    if "raw_text" in body:
        payload = body["raw_text"]
    else:
        report = {
            "schema": "tauforge.cli/1",
            "config": _config(args),
            "ok": body["ok"],
            "result": body["result"],
        }
        if args.format == "json":
            payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
        else:
            payload = "\n".join(_render_text(report)) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            parser.exit(2, f"{parser.prog} {args.command}: error: argument --output:"
                           f" cannot write {args.output!r}: {exc.strerror or exc}\n")
    else:
        sys.stdout.write(payload)
    return 0 if body["ok"] else 1


def entry() -> int:
    """The process entry: `main`, then every live object moves to the
    collector's permanent generation, so the interpreter's teardown skips
    its last cyclic-GC walk over them.  Tests call `main` in one process
    many times, so the freeze stays out of it."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
