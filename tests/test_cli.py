import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tauforge
from tauforge.cli import build_parser, main
from tauforge.oracle import FORK_MIN_DOUBLE_POINTS

SRC = str(Path(tauforge.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_every_public_name_resolves():
    # a name left in __all__ after its definition was deleted fails here
    missing = [name for name in tauforge.__all__ if not hasattr(tauforge, name)]
    assert missing == []
    assert len(set(tauforge.__all__)) == len(tauforge.__all__)
    namespace = {}
    exec("from tauforge import *", namespace)
    assert set(tauforge.__all__) <= set(namespace)


NUMERIC_MODULES = ("numpy", "mpmath", "tauforge.oracle", "tauforge.geometry", "tauforge.derive")

# what a fresh process holds of NUMERIC_MODULES after running argv through
# cli.main (None: after a bare `import tauforge`)
IMPORT_BOUNDARY = [
    (None, []),
    (["spectrum", "--n", "3"], []),
    (["flag-check", "--n", "2"], []),
    (["export", "--format", "csv"], []),
    # the parameter sets come from numpy's generator
    (["invariance", "--n", "4", "--sets", "1"], ["numpy"]),
    # the curvature kernel lives in geometry, so no table check compiles it
    (["verify-tables", "--variant", "canonical", "--samples", "2"],
     ["numpy", "mpmath", "tauforge.oracle"]),
    (["flatness", "--points", "2"], ["numpy", "mpmath", "tauforge.oracle", "tauforge.geometry"]),
]


@pytest.mark.parametrize("argv, loaded", IMPORT_BOUNDARY,
                         ids=[" ".join(argv or ["import"]) for argv, _ in IMPORT_BOUNDARY])
def test_exact_commands_load_no_numeric_module(argv, loaded):
    # a fresh process: this one already holds numpy and the oracle
    script = (
        "import contextlib, io, json, sys\n"
        "import tauforge\n"
        "argv = json.loads(sys.argv[1])\n"
        "if argv is not None:\n"
        "    from tauforge import cli\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        "seen = {'modules': sorted(sys.modules), 'dir': dir(tauforge), 'all': tauforge.__all__}\n"
        "# a numeric submodule still resolves as an attribute of the package\n"
        "assert tauforge.geometry.flatness_report is tauforge.flatness_report\n"
        "print(json.dumps(seen))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert [m for m in NUMERIC_MODULES if m in seen["modules"]] == loaded
    assert set(seen["all"]) <= set(seen["dir"])


def test_orbits(capsys):
    code, rep = run_json(capsys, "orbits", "--system", "E7")
    assert code == 0
    assert rep["schema"] == "tauforge.cli/1"
    assert rep["config"]["command"] == "orbits"
    assert rep["result"]["sizes"] == [56, 126, 576, 756, 2016, 4032, 10080]
    assert rep["result"]["charvec"] == [1, 2, 2, 2, 3, 3, 4]
    assert rep["result"]["rho_sq_over_nu_sq"] == "798"


def test_reports_are_byte_identical_across_runs(capsys):
    _, first = run(capsys, "tau-eval", "--samples", "3", "--seed", "6")
    _, second = run(capsys, "tau-eval", "--samples", "3", "--seed", "6")
    assert first == second


@pytest.mark.filterwarnings("error")
def test_a2_tau_eval_in_double_keeps_the_imaginary_parts(capsys):
    # A2 lacks -1, so its orbit sums are complex; double prints them whole
    code, double = run_json(capsys, "tau-eval", "--system", "A2", "--samples", "2")
    _, hp = run_json(
        capsys, "tau-eval", "--system", "A2", "--samples", "2", "--precision", "hp"
    )
    assert code == 0
    for d, h in zip(double["result"]["points"], hp["result"]["points"], strict=True):
        got = [complex(t) for t in d["tau"]]
        want = [complex(t.replace(" ", "")) for t in h["tau"]]
        assert all(abs(z.imag) > 1e-6 for z in got)
        assert all(abs(z - w) < 1e-12 for z, w in zip(got, want, strict=True))


def test_tau_eval_hp_carries_the_working_precision(capsys):
    code, rep = run_json(
        capsys, "tau-eval", "--samples", "1", "--precision", "hp",
        "--precision-digits", "60",
    )
    assert code == 0
    tau1 = rep["result"]["points"][0]["tau"][0]
    digits = len(tau1.split(".")[1])
    assert digits > 40


def test_verify_ground_state(capsys):
    # G2 has roots of two lengths, so its 1/sin^2 terms carry |alpha|^2 / 2
    for system in ("E7", "G2"):
        code, rep = run_json(
            capsys, "verify-ground-state", "--system", system, "--samples", "5",
            "--nu", "0.5,1.7", "--beta", "1,2",
        )
        assert code == 0
        assert rep["ok"]
        assert rep["result"]["max_residual"] < 1e-8


def test_verify_tables_exit_codes(capsys):
    code, rep = run_json(
        capsys, "verify-tables", "--variant", "raw", "--samples", "6"
    )
    assert code == 1
    assert rep["result"]["discrepant"] == [
        "A17", "B1", "B2", "B3", "B4", "B5", "B6", "B7",
    ]
    code, rep = run_json(
        capsys, "verify-tables", "--variant", "canonical", "--samples", "6"
    )
    assert code == 0
    assert rep["result"]["all_pass"]


def test_flag_check(capsys):
    code, rep = run_json(capsys, "flag-check", "--variant", "raw", "--n", "3")
    assert code == 0
    assert rep["result"]["degree_bounds"]["ok"]
    assert rep["result"]["image_overflows"] == []
    assert rep["result"]["basis_dim"] == 12


def test_spectrum(capsys):
    code, rep = run_json(capsys, "spectrum", "--n", "1", "--nu", "0")
    assert code == 0
    assert rep["result"]["at_nu"]["values"] == ["0", "-3/2"]
    assert rep["result"]["eigenvalues"] == ["0", "(-3/2 + 27/2*nu)"]
    assert rep["result"]["certificate"] == "dominance-triangular"


def test_a_spectrum_below_the_diagonal_fails_and_names_the_entry(capsys, monkeypatch):
    from dataclasses import replace

    from tauforge.exactpoly import MultiPoly
    from tauforge.operator import e7_operator

    can = e7_operator("canonical")
    broken = replace(can, B=(can.B[0], can.B[1] + MultiPoly.variable(7, 3)) + can.B[2:])
    monkeypatch.setattr("tauforge.cli.e7_operator", lambda variant: broken)
    code, rep = run_json(capsys, "spectrum", "--variant", "canonical", "--n", "2")
    assert code == 1
    assert rep["result"]["certificate"] == "not-triangular"
    assert rep["result"]["below_diagonal"] == {
        "row": [0, 0, 1, 0, 0, 0, 0], "column": [0, 1, 0, 0, 0, 0, 0], "coefficient": "1",
    }
    assert "eigenvalues" not in rep["result"]


def test_flatness_fault_detection(capsys):
    code, rep = run_json(
        capsys, "flatness", "--points", "3", "--fault"
    )
    assert code == 0
    assert rep["result"]["fault_detected"]
    assert rep["config"]["fault"] is True


@pytest.mark.parametrize("precision", ["double", "hp"])
def test_flatness_fault_changes_the_g2_tables(capsys, precision):
    # G2's derived A11 holds -2 at tau_1^2, so the stock fault must shift
    # that coefficient rather than set it to -2
    code, rep = run_json(
        capsys, "flatness", "--system", "G2", "--precision", precision,
        "--points", "3", "--fault",
    )
    assert code == 0
    assert rep["result"]["fault_detected"]


@pytest.mark.parametrize("digits,tol", [("15", 1e-06), ("30", 1e-10)])
def test_hp_flatness_tolerance_follows_the_working_precision(capsys, digits, tol):
    argv = ["flatness", "--precision", "hp", "--precision-digits", digits]
    code, rep = run_json(capsys, *argv)
    assert code == 0
    assert rep["result"]["tol"] == tol
    assert rep["result"]["all_pass"]
    # --tol still overrides the default
    code, rep = run_json(capsys, *argv, "--points", "3", "--tol", "1e-30")
    assert code == 1
    assert rep["result"]["tol"] == 1e-30


@pytest.mark.parametrize("digits", ["15", "50"])
def test_hp_flatness_fails_the_fault_at_any_precision(capsys, digits):
    code, rep = run_json(
        capsys, "flatness", "--precision", "hp", "--precision-digits", digits,
        "--points", "3", "--fault",
    )
    assert code == 0
    assert rep["result"]["fault_detected"]
    assert not rep["result"]["all_pass"]


def test_invariance(capsys):
    code, rep = run_json(
        capsys, "invariance", "--sets", "2", "--n", "4", "--seed", "5"
    )
    assert code == 0
    for entry in rep["result"]["sets"]:
        assert entry["ok"]
        assert entry["det"] == "1"


def test_simultaneous_invariance_tests_no_line_alone(capsys):
    code, rep = run_json(
        capsys, "invariance", "--n", "4", "--sets", "2", "--mode", "simultaneous"
    )
    assert code == (0 if rep["ok"] else 1)
    for entry in rep["result"]["sets"]:
        assert entry["unit_triangular"] is None
        assert entry["invertible"] == (entry["det"] != "0")


@pytest.mark.parametrize("precision", ["double", "hp"])
@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
def test_a2_flatness_is_flat_in_both_precisions(capsys, precision):
    # the A2 orbit sums are complex, so the metric is inverted as complex
    code, rep = run_json(
        capsys, "flatness", "--system", "A2", "--points", "2", "--precision", precision
    )
    assert code == 0
    assert rep["result"]["max_riemann_normalized"] < rep["result"]["tol"]


@pytest.mark.parametrize(
    "argv",
    [["flatness", "--system", "A2", "--points", "1"],
     ["flag-check", "--system", "G2", "--n", "2"],
     ["spectrum", "--system", "A1", "--variant", "derived"]],
    ids=lambda argv: "_".join(argv),
)
def test_small_systems_report_the_variant_that_ran(capsys, argv):
    code, rep = run_json(capsys, *argv)
    assert code == 0
    assert rep["config"]["variant"] == "derived"


def test_derive_subcommand(capsys):
    code, rep = run_json(capsys, "derive", "--system", "A1")
    assert code == 0
    assert rep["result"]["oracle_check"]["all_pass"]
    assert rep["result"]["violations"] == []


def test_derive_checks_b_apart_from_the_gauge(capsys, monkeypatch):
    # each derived B is the gauge of A; the hp oracle reads B through its
    # cotangent sums, so a slip in the gauge still fails the command
    from tauforge import derive
    from tauforge.exactpoly import MultiPoly, NuLinear

    gauge = derive._gauge

    def slipped(sysr, A):
        B = gauge(sysr, A)
        exp, coef = next((e, c) for e, c in B[1].terms.items() if c.c1)
        B[1] = MultiPoly(sysr.rank, B[1].terms | {exp: coef + NuLinear.of(0, 1)})
        return B

    monkeypatch.setattr(derive, "_gauge", slipped)
    code, rep = run_json(capsys, "derive", "--system", "G2")
    assert code == 1
    assert "B2" in rep["result"]["oracle_check"]["discrepant"]


def test_fit_single_entry(capsys):
    code, rep = run_json(
        capsys, "fit", "--entries", "B1", "--samples", "14"
    )
    assert code == 0
    row = rep["result"]["entries"][0]
    assert row["entry"] == "B1"
    assert row["reconstructed"] and row["ok"]
    assert row["residual"] < 1e-30
    assert {"den": "1", "exp": [1, 0, 0, 0, 0, 0, 0], "nu_pow": 1,
            "num": "-27"} in row["poly"]


def test_export_json_and_csv(capsys, tmp_path):
    code, rep = run_json(capsys, "export", "--variant", "raw")
    assert code == 0
    assert rep["result"]["system"] == "E7"
    assert len(rep["result"]["checksum"]) == 64

    out = tmp_path / "mat.csv"
    code = main(
        ["export", "--format", "csv", "--matrix-n", "2", "--nu", "1/2",
         "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "0,0,63,0,0,336"


def test_output_file_round_trip(capsys, tmp_path):
    out = tmp_path / "orbits.json"
    code = main(["orbits", "--output", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["sizes"][0] == 56


def test_an_output_file_that_cannot_be_written_is_a_one_line_error(
    capsys, monkeypatch, tmp_path
):
    # a symlink loop passes the directory check and fails only at the write
    monkeypatch.chdir(tmp_path)
    os.symlink("b.json", "a.json")
    os.symlink("a.json", "b.json")
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "--output", "a.json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "tauforge orbits: error: argument --output: cannot write 'a.json':"
        " Too many levels of symbolic links\n"
    )


def test_text_format(capsys):
    code, out = run(capsys, "orbits", "--format", "text")
    assert code == 0
    assert "rho_sq_over_nu_sq" in out


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["orbits", "--system", "B3"])


@pytest.mark.parametrize("command", ["spectrum", "invariance", "flag-check"])
def test_negative_n_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("argument --n: must be >= 0, got -1")
    assert "Traceback" not in err


BAD_COUNTS = [
    (["invariance", "--sets", "0"], "argument --sets: must be >= 1, got 0"),
    (["invariance", "--sets", "-1"], "argument --sets: must be >= 1, got -1"),
    (["export", "--matrix-n", "-1"], "argument --matrix-n: must be >= 0, got -1"),
    (["verify-tables", "--samples", "0"], "argument --samples: must be >= 1, got 0"),
    (["verify-ground-state", "--samples", "0"],
     "argument --samples: must be >= 1, got 0"),
    (["flatness", "--points", "0"], "argument --points: must be >= 1, got 0"),
    (["tau-eval", "--samples", "0"], "argument --samples: must be >= 1, got 0"),
    (["fit", "--samples", "-1"], "argument --samples: must be >= 0, got -1"),
    (["tau-eval", "--precision", "hp", "--precision-digits", "0"],
     "argument --precision-digits: must be >= 15, got 0"),
    (["verify-tables", "--precision", "hp", "--precision-digits", "14"],
     "argument --precision-digits: must be >= 15, got 14"),
    (["tau-eval", "--precision", "hp", "--precision-digits", "1001"],
     "argument --precision-digits: must be <= 1000, got 1001"),
]


@pytest.mark.parametrize(
    "argv,message", BAD_COUNTS, ids=["_".join(argv) for argv, _ in BAD_COUNTS]
)
def test_bad_counts_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(message)
    assert "Traceback" not in err


BAD_VALUES = [
    (["fit", "--entries", "A9"], "tauforge fit: error: bad entry id 'A9' for rank 7"),
    (["fit", "--entries", "B1,B0"],
     "tauforge fit: error: bad entry id 'B0' for rank 7"),
    (["fit", "--entries", "A18"],
     "tauforge fit: error: bad entry id 'A18' for rank 7"),
    # a repeated entry would be fitted and reported twice; A21 is A12
    (["fit", "--system", "A2", "--entries", "A11,A11"],
     "tauforge fit: error: entries must be distinct, but A11 repeats A11"),
    (["fit", "--system", "A2", "--entries", "A12,A21"],
     "tauforge fit: error: entries must be distinct, but A21 repeats A12"),
    (["verify-tables", "--variant", "derived"],
     "tauforge verify-tables: error: E7 has no derived variant; use raw or canonical"),
    (["derive", "--system", "E7"],
     "tauforge derive: error: derivation is limited to rank <= 2 systems"),
    (["flatness", "--system", "A2", "--variant", "canonical"],
     "tauforge flatness: error: A2 has only the derived variant, not canonical"),
    (["flag-check", "--system", "G2", "--variant", "raw"],
     "tauforge flag-check: error: G2 has only the derived variant, not raw"),
    (["fit", "--entries", "B1", "--samples", "3"],
     "tauforge fit: error: --samples 3 is too small for B1;"
     " it needs at least 10 (or 0 to size the pool)"),
    (["fit", "--entries", "B1,A17,B2", "--samples", "40"],
     "tauforge fit: error: --samples 40 is too small for A17;"
     " it needs at least 100 (or 0 to size the pool)"),
    (["verify-tables", "--variant", "canonical", "--samples", "2", "--nu", "0,nan,1"],
     "tauforge verify-tables: error: argument --nu:"
     " nu must be finite with |nu| <= 1e6, got nan"),
    (["verify-ground-state", "--samples", "2", "--nu", "nan"],
     "tauforge verify-ground-state: error: argument --nu:"
     " nu must be finite with |nu| <= 1e6, got nan"),
    (["verify-ground-state", "--samples", "2", "--nu", "inf"],
     "tauforge verify-ground-state: error: argument --nu:"
     " nu must be finite with |nu| <= 1e6, got inf"),
    (["verify-ground-state", "--samples", "1", "--nu", "1e200"],
     "tauforge verify-ground-state: error: argument --nu:"
     " nu must be finite with |nu| <= 1e6, got 1e+200"),
    (["tau-eval", "--samples", "1", "--beta", "1e300"],
     "tauforge tau-eval: error: argument --beta:"
     " |beta| must be <= 1e6, got 1e+300"),
    (["spectrum", "--nu", "nan"],
     "tauforge spectrum: error: argument --nu: nu must be a finite rational"
     " such as 1/2, got 'nan'"),
    (["spectrum", "--nu", "1/0"],
     "tauforge spectrum: error: argument --nu: nu must be a finite rational"
     " such as 1/2, got '1/0'"),
    (["export", "--nu", "1/0"],
     "tauforge export: error: argument --nu: nu must be a finite rational"
     " such as 1/2, got '1/0'"),
    (["verify-tables", "--variant", "raw", "--samples", "2", "--tol", "inf"],
     "tauforge verify-tables: error: argument --tol: tol must be positive and finite,"
     " got inf"),
    (["verify-ground-state", "--tol", "nan"],
     "tauforge verify-ground-state: error: argument --tol: tol must be positive and"
     " finite, got nan"),
    (["flatness", "--tol", "0"],
     "tauforge flatness: error: argument --tol: tol must be positive and finite,"
     " got 0.0"),
    (["tau-eval", "--seed", "-1"],
     "tauforge tau-eval: error: argument --seed: must be >= 0, got -1"),
    (["fit", "--seed", "-1"], "tauforge fit: error: argument --seed: must be >= 0, got -1"),
    (["fit", "--entries", "B1", "--output", "/nonexistent/x.json"],
     "tauforge fit: error: argument --output: no directory '/nonexistent' to write into"),
    (["orbits", "--output", "."], "tauforge orbits: error: argument --output: '.' is a directory"),
    # a symlink into a missing directory, made by the test below
    (["orbits", "--output", "dangling.json"],
     "tauforge orbits: error: argument --output: no directory '/nonexistent_dir' to write"
     " into"),
    (["tau-eval", "--samples", "1", "--beta", "1,2"],
     "tauforge tau-eval: error: argument --beta: tau-eval takes one beta, got 1.0,2.0"),
    (["flatness", "--points", "1", "--beta", "1,2"],
     "tauforge flatness: error: argument --beta: flatness takes one beta, got 1.0,2.0"),
    (["fit", "--entries", "B1", "--beta", "1,2"],
     "tauforge fit: error: argument --beta: fit takes one beta, got 1.0,2.0"),
    (["export", "--nu", "1/2"],
     "tauforge export: error: argument --nu: a nu applies only to a flag matrix"
     " (--matrix-n)"),
    (["invariance", "--system", "A2", "--n", "1", "--sets", "1"],
     "tauforge invariance: error: the weighted-projective lines exist only for E7"),
    # line a acts on P_n only from n = cv_a, so below 4 some line goes untested
    (["invariance", "--n", "0"],
     "tauforge invariance: error: --n must be >= 4, where every line acts on P_n; got 0"),
    (["invariance", "--n", "3", "--sets", "1"],
     "tauforge invariance: error: --n must be >= 4, where every line acts on P_n; got 3"),
    (["flatness", "--system", "A1"],
     "tauforge flatness: error: every rank-1 metric is flat; flatness needs rank >= 2"),
    (["flatness", "--system", "A1", "--fault"],
     "tauforge flatness: error: every rank-1 metric is flat; flatness needs rank >= 2"),
]


@pytest.mark.parametrize(
    "argv,message", BAD_VALUES, ids=["_".join(argv) for argv, _ in BAD_VALUES]
)
def test_bad_values_are_one_line_usage_errors(capsys, monkeypatch, tmp_path, argv, message):
    def no_frames(*args, **kwargs):
        raise AssertionError("frames built before the arguments were checked")

    monkeypatch.chdir(tmp_path)
    os.symlink("/nonexistent_dir/x.json", "dangling.json")
    monkeypatch.setattr("tauforge.oracle.FramePool", no_frames)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message + "\n"


def test_fit_accepts_exactly_the_minimum_samples(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--entries", "B1", "--samples", "9"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, rep = run_json(capsys, "fit", "--entries", "B1", "--samples", "10")
    assert code == 0
    assert rep["result"]["entries"][0]["ok"]


def test_verify_ground_state_draws_once_per_beta(capsys, monkeypatch):
    # a sample point is (y, beta): every nu of a beta reads the same draw
    from tauforge import oracle

    draws = []
    real = oracle.sample_points

    def counted(*args, **kwargs):
        draws.append(kwargs["beta"])
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "sample_points", counted)
    code, rep = run_json(
        capsys, "verify-ground-state", "--samples", "5", "--beta", "1,2",
        "--nu", "0.5,1.7,3.0",
    )
    assert code == 0
    assert draws == [1.0, 2.0]
    assert len(rep["result"]["sweeps"]) == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--n", "2", "--nu=-1/3"],
        ["verify-ground-state", "--samples", "2", "--nu=-0.5,1"],
    ],
    ids=lambda argv: "_".join(argv),
)
def test_a_negative_nu_list_or_fraction_is_written_with_equals(capsys, argv):
    # without the = argparse reads -1/3 and -0.5,1 as options (see --help)
    code, _ = run_json(capsys, *argv)
    assert code == 0


def test_fit_samples_zero_sizes_the_pool(capsys):
    code, rep = run_json(capsys, "fit", "--entries", "B1", "--samples", "0")
    assert code == 0
    assert rep["result"]["entries"][0]["ok"]


def test_hp_ground_state_runs_at_the_working_precision(capsys):
    for system in ("E7", "G2"):
        code, rep = run_json(
            capsys, "verify-ground-state", "--system", system, "--precision", "hp",
            "--samples", "2", "--tol", "1e-30",
        )
        assert code == 0
        assert 0 < rep["result"]["max_residual"] < 1e-30


def test_reports_do_not_depend_on_the_cpu_count(capsys, monkeypatch):
    bound = str(FORK_MIN_DOUBLE_POINTS)
    argvs = (
        (["tau-eval", "--samples", "3"], 0),
        (["verify-ground-state", "--samples", "3", "--beta", "1", "--nu", "0.5"], 0),
        (["flatness", "--precision", "hp", "--points", "3"], 0),
        (["verify-tables", "--variant", "canonical", "--precision", "hp", "--samples", "3"], 0),
        (["fit", "--entries", "A11"], 0),
        # the raw tables fail their screen, and a detected fault passes
        (["verify-tables", "--variant", "raw", "--samples", bound], 1),
        (["flatness", "--points", bound, "--fault"], 0),
    )
    # the E7 hp point loops and long double point lists fork at 3 CPUs
    outputs = []
    for cpus in (1, 3):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        outputs.append([run(capsys, *argv) for argv, _ in argvs])
    assert outputs[0] == outputs[1]
    for (code, out), (_, want) in zip(outputs[0], argvs):
        assert code == want
        assert "jobs" not in json.loads(out)["config"]


def test_precision_digits_do_not_outlive_main(capsys):
    argv = ("tau-eval", "--samples", "1", "--precision", "hp")
    _, first = run_json(capsys, *argv, "--precision-digits", "60")
    assert first["config"]["precision_digits"] == 60
    _, second = run_json(capsys, *argv)
    assert second["config"]["precision_digits"] == 50


def cli_process(*argv, timeout=120, preexec_fn=None, env=None):
    """The CLI in a fresh process; a hang fails the test at the timeout.

    `env` adds variables to this process's environment.
    """
    env = dict(os.environ, PYTHONPATH=SRC, **(env or {}))
    return subprocess.run(
        [sys.executable, "-m", "tauforge.cli", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
        preexec_fn=preexec_fn,
    )


def test_the_environment_does_not_set_the_precision():
    # the working precision comes from --precision-digits alone; no
    # environment variable moves the hp sample points
    argv = ("verify-tables", "--variant", "canonical", "--precision", "hp",
            "--samples", "2")
    plain = cli_process(*argv)
    assert plain.returncode == 0
    for value in ("72", "abc"):
        proc = cli_process(*argv, env={"TAUFORGE_PRECISION": value})
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, plain.stdout, "")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_a_one_cpu_process_prints_the_same_report():
    # the hp curvature points fork on a multi-CPU host and run in-process
    # on one CPU; the affinity is set in the CLI child only
    argv = ("flatness", "--precision", "hp", "--points", "3")
    first = min(os.sched_getaffinity(0))
    one = cli_process(*argv, preexec_fn=lambda: os.sched_setaffinity(0, {first}))
    every = cli_process(*argv)
    assert one.returncode == every.returncode == 0
    assert one.stdout == every.stdout
    assert one.stderr == every.stderr == ""


def test_a_repeated_nu_is_a_usage_error():
    proc = cli_process("verify-tables", "--samples", "3", "--nu", "0,0,1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "tauforge verify-tables: error: argument --nu: nu values must be"
        " distinct, got 0.0,0.0,1.0"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["tau-eval", "--beta", "0"],
        ["verify-tables", "--beta", "0", "--samples", "2"],
        ["verify-ground-state", "--beta", "1,0", "--samples", "2"],
        ["flatness", "--beta", "0", "--points", "2"],
        ["fit", "--beta", "0", "--entries", "B1"],
        ["tau-eval", "--beta", "inf"],
    ],
    ids=lambda argv: "_".join(argv),
)
def test_beta_zero_is_a_usage_error(argv):
    proc = cli_process(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "argument --beta: beta must be nonzero and finite, got" in (
        proc.stderr.splitlines()[-1]
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["tau-eval", "--beta", "1e-9", "--samples", "1"],
        ["verify-ground-state", "--beta", "1e-9", "--samples", "1"],
    ],
    ids=lambda argv: "_".join(argv),
)
def test_a_beta_no_point_clears_ends_as_a_usage_error(argv):
    proc = cli_process(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"tauforge {argv[0]}: error: no sample point cleared the root walls"
        " (clearance > 0.001) in 100000 draws in a row at beta=1e-09"
    ]


# sha256 of stdout at the default seeds, recorded before the oracle's
# chain-rule core was shared; hp and exact reports only, because double
# precision depends on the host's libm
GOLDEN_REPORTS = [
    # re-recorded without the nu_linearity_max_residual key, which was
    # deleted; the report is otherwise the old one byte for byte
    (["verify-tables", "--variant", "canonical", "--precision", "hp", "--samples", "2"],
     "60df52593b25e9dc9b6ccd1d9c52b7d1aa69d5347b956f723133c2fff40437f1"),
    (["fit", "--entries", "A11"],
     "985cad6e321a5a924447b6973689d92fa8e94d26addfa8cfe0011568bbbdc848"),
    (["flag-check", "--n", "3"],
     "bdcffaaf4a7097c186292a11956e7d3cebbb08e6accdb984ed28ad0730d9738f"),
    (["spectrum", "--n", "2", "--nu", "1/2"],
     "37eb1c63af0b560621069388b6801daa04acfb69cb2d129267f8a71ca95e7234"),
    # re-recorded when the derived tables came to store their terms in the
    # table files' order: the polynomials are the same, but A22's hp
    # max_rel_residual sums in another order and moved from 1.1946e-48 to
    # 1.7835e-48; every other byte is the old report's
    (["derive", "--system", "G2"],
     "72aaeb33db5e7c713ae02ef93ef6767225d42a6f73d4517958ecddf0f9b1c144"),
    # recorded while derive still solved each B mod p, before every B became
    # the gauge of its derived A
    (["derive", "--system", "A1"],
     "da8d589e751a94fe5261923b22e5d5c4bb91a90479c8403307e0d1dcdb05b82b"),
    (["derive", "--system", "A2"],
     "0f232ecf6f8b65496bdca1146a354f44a9104db7bd16a01851675e0e36dae1d2"),
    # recorded before the flag spectrum moved to one sparse nu-symbolic pass
    (["spectrum", "--variant", "canonical", "--n", "7", "--nu", "0"],
     "59e69baf60cb6fe42e3d742c43e9bd1983e8d7f1e5d4623b4ffad67d7d52b674"),
    (["spectrum", "--system", "G2", "--n", "4", "--nu", "1/3"],
     "f2169159eba2e2b59eb22e4febf0c8ea6d38e24ace52ad32048d9a817fe8792b"),
    (["export", "--matrix-n", "3", "--nu", "1/2"],
     "064074d95e8cf2f11196bff2e112e3ffbd22870a9949a15f689ef1c40d1dcb7a"),
    (["export", "--matrix-n", "2", "--format", "csv"],
     "47048ecbaf38d2db50ea737d40e12938c26772d89c0607708ca68ee0a277d0fe"),
    # the table CSVs, recorded before the table-file layout was read in one
    # place
    (["export", "--variant", "raw", "--format", "csv"],
     "6144dad337a4fbd24bd6848a1e088b5b28b72c662de0b161080bec948c82f303"),
    (["export", "--system", "A2", "--format", "csv"],
     "0caf323ef1d9cfdc1bf7bc1980e95493702a17944385e547c72b56b6dced1af1"),
    (["invariance", "--n", "4"],
     "ff57204844ca604477657238347dccf1f2fe490cb52e4d8fb513132b7ecab651"),
    # recorded before the determinant moved to integer Bareiss on grade blocks
    (["invariance", "--n", "6", "--sets", "3"],
     "7c79e6416e4a27a81dbe438e3b88d7d7b995e8c9f1f2f465666f1b31f019f0c1"),
    (["invariance", "--n", "6", "--sets", "2", "--mode", "simultaneous", "--seed", "3"],
     "4fbddc80ccbd37b02616f14c615845e187c715b81b98a6ec1b9976f1cedd2454"),
    # hp curvature, recorded before its assembly moved from numpy object
    # arrays to libmp values; these points pass through chart_center's
    # np.linalg.lstsq, so a LAPACK that rounds that solve differently
    # moves these digests too
    (["flatness", "--precision", "hp", "--points", "3"],
     "6594114eddda37bc48465a12b4dc77e9e9fc8ead1a1ea73fb19063e675936da0"),
    (["flatness", "--system", "A2", "--precision", "hp", "--points", "2"],
     "ce97e33b392fa6f6bff71c05fe3acfec2ef4c32272f686d5617fe509955ad961"),
    (["flatness", "--system", "G2", "--precision", "hp", "--points", "3"],
     "af296b6350ad1e2f7b1b9ed4ff822a33cc2136453ad5ac64bae0e457e0f91c19"),
    # the two commands of acceptance criterion 3, recorded before the hp
    # trie took three integer products per node and grouped its gradient sums
    (["fit", "--variant", "raw", "--entries", "discrepant"],
     "afbcd32852252ef47496b900d4b8ef7ee5461c5921f040fa555cc2b0d95b816b"),
    (["verify-tables", "--variant", "canonical", "--precision", "hp", "--samples", "10",
      "--tol", "1e-30"],
     "48f551963576a27e2d7c5173701bdabdd24cedf60337c2f7171f13cd495b699f"),
    # hp ground-state residuals and energies, recorded before E0 came from
    # ground_state_energy alone; these call no BLAS routine.  G2 has roots
    # of two lengths
    (["verify-ground-state", "--precision", "hp", "--samples", "20"],
     "3cff3ae8ee24d1d12ddaf54485e4a4ea29d99b1d69f164a36a221978d5ebcab5"),
    (["verify-ground-state", "--system", "G2", "--precision", "hp", "--samples", "20",
      "--nu", "0.5,1.7", "--beta", "1,2"],
     "5045477ccb7d50eb6760f725afd8585c0ee5da66888e9b91367ee76adcef72c6"),
    # exact flag reports, recorded before the flag images and the line
    # matrices came from integer terms and the root data from integer rows
    (["spectrum", "--system", "A2", "--n", "5", "--nu", "1/2"],
     "f6cebe7c29611a2905c4da4fc367e9ec3debcfde9a2f0398c899e4dae454219a"),
    (["spectrum", "--variant", "raw", "--n", "9", "--nu", "1/3"],
     "a2cfdf1e518cd71dc626e6f7b7dff375e7b8dda4bfe1cff409ee6295154965a9"),
    (["flag-check", "--variant", "canonical", "--n", "6"],
     "201b7a39fe93d4c3af57a78593b948a178473830bb28aa19cae8a10b8a8e733d"),
    (["flag-check", "--system", "G2", "--n", "6"],
     "07e75b8a0b9ac7ad29993fe210c122d28924d9da9d35c05f78a8a6e89cee52b0"),
    (["export", "--variant", "canonical", "--matrix-n", "5", "--nu", "5/2"],
     "9f2179e3b336596e08c829a5f9ef55aa031d9fcb217abf65ef71e6e060980d58"),
    (["invariance", "--n", "7", "--sets", "1", "--seed", "9"],
     "ed5092a73a1966f57d7aad94747137abb00bf52bb3e76834fc3d795aa425e227"),
]


@pytest.mark.parametrize(
    "argv,digest", GOLDEN_REPORTS, ids=["_".join(argv) for argv, _ in GOLDEN_REPORTS]
)
def test_reports_match_their_golden_digests(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_fit_builds_only_the_frames_it_reads(capsys, monkeypatch):
    # A17 fits on frames 0-95 of a 104-point pool and checks 100-103
    from tauforge import oracle

    # frames built in forked children would escape the count below
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = []
    geom_hp = oracle._geom_hp
    monkeypatch.setattr(
        oracle, "_geom_hp", lambda *args: calls.append(1) or geom_hp(*args)
    )
    code, lean = run(capsys, "fit", "--entries", "A17,B3")
    assert code == 0
    assert len(calls) == 96 + oracle.HELD_OUT_FRAMES
    # the report's bytes, recorded before the refit's least squares moved
    # from mpmath to oracle.qr_solve
    assert hashlib.sha256(lean.encode()).hexdigest() == (
        "44695d9a8829e3e2d40de30c8714f054f6c79342fbc7bb6acc79654fe81605a2"
    )

    pool = oracle.FramePool
    monkeypatch.setattr(
        oracle, "FramePool",
        lambda *args, fit_frames=None, **kwargs: pool(*args, **kwargs),
    )
    calls.clear()
    code, full = run(capsys, "fit", "--entries", "A17,B3")
    assert code == 0
    assert len(calls) == 104
    assert lean == full


def test_a2_refit_rebuilds_the_derived_entry(capsys):
    from tauforge.derive import derive_operator
    from tauforge.exactpoly import MultiPoly
    from tauforge.rootsys import build_system

    code, rep = run_json(capsys, "fit", "--system", "A2", "--entries", "A11")
    assert code == 0
    (row,) = rep["result"]["entries"]
    assert row["reconstructed"] and row["ok"]
    derived = derive_operator(build_system("A2"))
    t1, t2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    assert derived.A[0][0] == MultiPoly.constant(2, 2) * t2 - MultiPoly.constant(
        2, Fraction(2, 3)
    ) * t1 * t1
    assert row["poly"] == derived.A[0][0].canonical_terms(derived.cv)


def test_a_row_that_fails_to_reconstruct_names_its_first_miss(capsys, monkeypatch):
    # the turned A2 frames of the oracle test: A11's coefficients become
    # i times the true ones, so tau_2's imaginary part 2 misses first
    from mpmath import mp, mpf

    from tauforge import oracle

    class TurnedPool(oracle.FramePool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            with mp.workdps(self.dps + 20):
                turn = mp.expjpi(mpf(1) / 4)
                self.frames = [
                    oracle.NumericFrame(
                        taus, [[turn * v for v in row] for row in jacs], laps, cot
                    )
                    for taus, jacs, laps, cot in self.frames
                ]

    monkeypatch.setattr(oracle, "FramePool", TurnedPool)
    code, rep = run_json(capsys, "fit", "--system", "A2", "--entries", "A11")
    assert code == 1
    (row,) = rep["result"]["entries"]
    assert not row["reconstructed"] and row["poly"] is None
    miss = row["first_miss"]
    assert (miss["exp"], miss["nu_pow"], miss["part"]) == ([0, 1], 0, "imaginary")
    assert miss["value"].endswith(" + 2.0j)")


# the cheap calls the fuzz test draws from, each with the arguments that
# keep it cheap; they follow the drawn arguments, so they take effect
FUZZ_CALLS = {
    "orbits": st.just([]),
    "flag-check": st.sampled_from([["--n", "0"], ["--n", "1"]]),
    "spectrum": st.sampled_from([["--n", "0"], ["--n", "1"]]),
    "export": st.sampled_from([[], ["--matrix-n", "0"], ["--matrix-n", "1"]]),
    "invariance": st.just(["--n", "4", "--sets", "1"]),
    "tau-eval": st.just(["--samples", "1"]),
    "verify-ground-state": st.just(["--samples", "1"]),
    "derive": st.sampled_from([["--system", "A1"], ["--system", "E7"]]),
}
_numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.fractions(max_denominator=8).map(str),
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(["", "x", "1/0", "nan", "-inf", "1e400", "0"]),
)
FUZZ_VALUES = {
    "--system": st.sampled_from(["E7", "A1", "A2", "G2", "g2", "B3"]),
    "--seed": st.one_of(st.integers(-3, 2**70).map(str), _numbers),
    "--nu": st.lists(_numbers, min_size=1, max_size=3).map(",".join),
    "--beta": st.lists(_numbers, min_size=1, max_size=2).map(",".join),
    "--tol": _numbers,
    "--output": st.sampled_from(["<file>", "<dir>", "/nonexistent/x.json", ""]),
    "--precision-digits": st.one_of(
        st.integers(15, 80).map(str),
        st.sampled_from(["14", "1000", "1001", "-50"]),
        _numbers,
    ),
}


def _parser_options():
    """Per cheap command: its option strings, and its options with choices."""
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    options = {}
    for command in FUZZ_CALLS:
        actions = [a for a in sub.choices[command]._actions if a.option_strings]
        options[command] = (
            {o for a in actions for o in a.option_strings},
            {a.option_strings[0]: list(a.choices) for a in actions if a.choices},
        )
    return options


@st.composite
def fuzz_argv(draw):
    parser_options = _parser_options()
    command = draw(st.sampled_from(sorted(parser_options)))
    known, choices = parser_options[command]
    argv = [command]
    for option, values in sorted(choices.items()):
        if draw(st.booleans()):
            argv += [option, draw(st.sampled_from(values))]
    # the fuzzed options the command has, and now and then one it lacks
    fuzzed = sorted(o for o in FUZZ_VALUES if o in known)
    options = draw(st.lists(st.sampled_from(fuzzed), unique=True)) if fuzzed else []
    if draw(st.integers(0, 9)) == 0:
        options.append(draw(st.sampled_from(sorted(FUZZ_VALUES))))
    for option in options:
        argv += [option, draw(FUZZ_VALUES[option])]
    return argv + draw(FUZZ_CALLS[command])


@given(argv=fuzz_argv())
# the derandomized draws never reach this usage error, so it is pinned here
@example(argv=["derive", "--system", "E7"])
@settings(
    max_examples=40,
    derandomize=True,
    deadline=timedelta(seconds=10),
    suppress_health_check=[HealthCheck.too_slow],
)
def test_fuzzed_arguments_exit_cleanly(tmp_path_factory, argv):
    where = tmp_path_factory.getbasetemp()
    argv = [
        {"<file>": str(where / "report.out"), "<dir>": str(where)}.get(a, a)
        for a in argv
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
