"""Command line checks and machine-readable reports.

Every subcommand prints one JSON report and exits 0 only when all checks
in the run pass; check failures exit 1, usage problems exit 2.  Reports
are deterministic for a fixed config and seed: keys are sorted and the
effective configuration is echoed back into the report, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from mpmath import mp

from . import geometry, oracle
from .derive import derive_operator
from .operator import (
    WP_PARAM_NAMES,
    _basis_for_op,
    _flag_images,
    e7_operator,
    flag_degree_check,
    matrix_to_csv,
    matrix_to_json,
    operator_to_json,
    spectrum,
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


def _count(minimum: int):
    """argparse type: an int that is at least `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _parse_betas(text: str) -> tuple[float, ...]:
    """argparse type: a comma list of nonzero finite betas.

    At beta = 0 every phase vanishes, so no sample point clears the root
    walls and the curvature chart is undefined.
    """
    try:
        betas = _parse_floats(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float list: {text!r}") from None
    for beta in betas:
        if beta == 0 or not math.isfinite(beta):
            raise argparse.ArgumentTypeError(
                f"beta must be nonzero and finite, got {beta}"
            )
    return betas


def _parse_rational(text: str):
    try:
        return Fraction(text)
    except ValueError:
        return float(text)


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


def _operator_for(kind: str, variant: str):
    if kind == "E7":
        return e7_operator(variant)
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


def _emit(report: dict, args) -> int:
    if args.format == "json":
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        payload = "\n".join(_render_text(report)) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0 if report["ok"] else 1


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
        "matrix_n", "fault", "format", "output",
    )
    cfg = {k: _jsonable(getattr(args, k, None)) for k in keys}
    cfg["precision_digits"] = oracle.hp_digits()
    return cfg


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
    sysr = build_system(args.system)
    pts = oracle.sample_points(
        sysr, args.samples, seed=args.seed, beta=args.beta[0], precision=args.precision
    )
    rows = []
    with mp.workdps(oracle.hp_digits()):
        for pt in pts:
            tau = oracle.tau_numeric(sysr, pt)
            rows.append(
                {
                    "y": [float(v) for v in pt.y],
                    "tau": [
                        str(t) if args.precision == "hp" else float(t) for t in tau
                    ],
                }
            )
    return {"ok": True, "result": {"points": rows}}


def _cmd_verify_ground_state(args) -> dict:
    sysr = build_system(args.system)
    rho = deformed_weyl_vector(sysr)
    rows = []
    worst = 0.0
    with mp.workdps(oracle.hp_digits()):
        for beta in args.beta:
            for nu in args.nu:
                pts = oracle.sample_points(
                    sysr, args.samples, seed=args.seed, beta=beta, nu=nu,
                    precision=args.precision,
                )
                res = [float(oracle.ground_state_residual(sysr, pt)) for pt in pts]
                peak = max(res)
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
    op = _operator_for(args.system, args.variant)
    rep = oracle.verify_tables(
        op,
        samples=args.samples,
        seed=args.seed,
        tol=args.tol,
        nu_list=tuple(args.nu),
        beta_list=tuple(args.beta),
        precision=args.precision,
    )
    return {"ok": rep["all_pass"], "result": rep}


def _cmd_flag_check(args) -> dict:
    op = _operator_for(args.system, args.variant)
    degree = flag_degree_check(op)
    basis = _basis_for_op(op, args.n)
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
    ok = True
    if res.eigenvalues is not None:
        payload["eigenvalues"] = [str(e) for e in res.eigenvalues]
        if args.nu is not None:
            payload["at_nu"] = {
                "nu": str(args.nu),
                "values": [str(e.eval(args.nu)) for e in res.eigenvalues],
            }
    else:
        payload["numeric"] = res.numeric
        ok = False
    return {"ok": ok, "result": payload}


def _cmd_flatness(args) -> dict:
    op = _operator_for(args.system, args.variant)
    fault = bool(args.fault)
    if fault:
        op = geometry.sabotaged(op)
    rep = geometry.flatness_report(
        op,
        points=args.points,
        seed=args.seed,
        beta=args.beta[0],
        precision=args.precision,
        tol=args.tol,
    )
    if fault:
        detected = rep["max_riemann_normalized"] > 1e-3
        rep["fault_detected"] = detected
        ok = detected
    else:
        ok = rep["all_pass"]
    return {"ok": ok, "result": rep}


def _cmd_invariance(args) -> dict:
    import numpy as np

    rng = np.random.default_rng(args.seed)
    sets = []
    ok = True
    for k in range(args.sets):
        params = {}
        for name in WP_PARAM_NAMES:
            num = int(rng.integers(-3, 4))
            den = int(rng.integers(1, 5))
            params[name] = Fraction(num, den)
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
        ok = ok and rep["ok"]
    return {"ok": ok, "result": {"mode": args.mode, "n": args.n, "sets": sets}}


def _cmd_fit(args) -> dict:
    op = _operator_for(args.system, args.variant)
    entries = args.entries.split(",")
    if entries == ["discrepant"]:
        quick = oracle.verify_tables(
            op, samples=20, seed=args.seed, tol=args.tol, precision="double"
        )
        entries = quick["discrepant"]
    frames = {}
    for which in entries:
        try:
            frames[which] = oracle._fit_plan(op, which)[-1]
        except ValueError as exc:
            raise UsageError(str(exc)) from None
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
        op.system, count, seed=args.seed, beta=args.beta[0]
    )
    rows = []
    ok = True
    for which in entries:
        fit = oracle.fit_entry(op, which, pool=pool)
        rows.append(
            {
                "entry": fit.entry,
                "reconstructed": fit.reconstructed,
                "residual": fit.residual,
                "ok": fit.ok,
                "poly": fit.poly.canonical_terms(op.cv) if fit.poly else None,
            }
        )
        ok = ok and fit.ok
    return {"ok": ok, "result": {"entries": rows}}


def _cmd_derive(args) -> dict:
    if args.system == "E7":
        raise UsageError("derivation is limited to rank <= 2 systems")
    op = derive_operator(build_system(args.system))
    rep = oracle.verify_tables(
        op, samples=20, seed=args.seed, tol=args.tol, precision="hp"
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
    if args.matrix_n is not None:
        from .operator import flag_matrix

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
        rank = op.rank
        for i in range(rank):
            for j in range(i, rank):
                for row in body["A"][i][j - i]:
                    exp = " ".join(str(e) for e in row["exp"])
                    lines.append(
                        f"A{i+1}{j+1},{row['num']},{row['den']},{row['nu_pow']},{exp}"
                    )
        for i in range(rank):
            for row in body["B"][i]:
                exp = " ".join(str(e) for e in row["exp"])
                lines.append(
                    f"B{i+1},{row['num']},{row['den']},{row['nu_pow']},{exp}"
                )
        return {"ok": True, "raw_text": "\n".join(lines) + "\n"}
    return {"ok": True, "result": body}


# ---------------------------------------------------------------------------
# parser


def _add_common(p, *, samples=None, seed=0, tol=None, precision=False,
                variant=None, beta="1", nu=None, n=None,
                formats=("json", "text")):
    p.add_argument("--system", type=_parse_system, default="E7")
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--output", default=None)
    p.add_argument("--precision-digits", type=_count(1), default=None)
    if samples is not None:
        # fit's default of 0 sizes the frame pool from the entries
        p.add_argument("--samples", type=_count(0 if samples == 0 else 1),
                       default=samples)
    if tol is not None:
        p.add_argument("--tol", type=float, default=tol)
    if precision:
        p.add_argument("--precision", choices=("double", "hp"), default="double")
    if variant is not None:
        # the default depends on --system; see _resolve_variant
        p.add_argument("--variant", choices=("raw", "canonical", "derived"), default=None)
        p.set_defaults(e7_variant=variant)
    if beta is not None:
        p.add_argument("--beta", type=_parse_betas, default=_parse_betas(beta))
    if nu is not None:
        p.add_argument("--nu", type=_parse_floats, default=_parse_floats(nu))
    if n is not None:
        p.add_argument("--n", type=_count(0), default=n)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
    p.add_argument("--nu", type=_parse_rational, default=None)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("flatness", help="Riemann residuals of the metric")
    _add_common(p, seed=11, precision=True, variant="canonical")
    p.add_argument("--points", type=_count(1), default=10)
    p.add_argument("--tol", type=float, default=None,
                   help="default 1e-6 double, 1e-30 hp")
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

    p = sub.add_parser("derive", help="symbolic small-rank derivation")
    _add_common(p, seed=77, tol=1e-10, beta=None)
    p.set_defaults(handler=_cmd_derive)

    p = sub.add_parser("export", help="dump tables or flag matrices")
    _add_common(p, variant="raw", beta=None, formats=("json", "csv"))
    p.add_argument("--matrix-n", type=_count(0), default=None)
    p.add_argument("--nu", type=_parse_rational, default=None)
    p.set_defaults(handler=_cmd_export)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    saved = os.environ.get("TAUFORGE_PRECISION")
    if args.precision_digits is not None:
        os.environ["TAUFORGE_PRECISION"] = str(args.precision_digits)
    try:
        return _run(parser, args)
    finally:
        if saved is None:
            os.environ.pop("TAUFORGE_PRECISION", None)
        else:
            os.environ["TAUFORGE_PRECISION"] = saved


def _run(parser, args) -> int:
    try:
        _resolve_variant(args)
        body = args.handler(args)
    except (UsageError, oracle.SamplingError) as exc:
        parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")
    if "raw_text" in body:
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(body["raw_text"])
        else:
            sys.stdout.write(body["raw_text"])
        return 0 if body["ok"] else 1
    report = {
        "schema": "tauforge.cli/1",
        "config": _config(args),
        "ok": body["ok"],
        "result": body["result"],
    }
    return _emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
