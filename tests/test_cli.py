import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tauforge
from tauforge.cli import main

SRC = str(Path(tauforge.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


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
    code, rep = run_json(
        capsys, "verify-ground-state", "--samples", "5",
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


def test_flatness_fault_detection(capsys):
    code, rep = run_json(
        capsys, "flatness", "--points", "3", "--fault"
    )
    assert code == 0
    assert rep["result"]["fault_detected"]
    assert rep["config"]["fault"] is True


def test_invariance(capsys):
    code, rep = run_json(
        capsys, "invariance", "--sets", "2", "--n", "4", "--seed", "5"
    )
    assert code == 0
    for entry in rep["result"]["sets"]:
        assert entry["ok"]
        assert entry["det"] == "1"


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
     "argument --precision-digits: must be >= 1, got 0"),
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
]


@pytest.mark.parametrize(
    "argv,message", BAD_VALUES, ids=["_".join(argv) for argv, _ in BAD_VALUES]
)
def test_bad_values_are_one_line_usage_errors(capsys, monkeypatch, argv, message):
    def no_frames(*args, **kwargs):
        raise AssertionError("frames built before the arguments were checked")

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


def test_fit_samples_zero_sizes_the_pool(capsys):
    code, rep = run_json(capsys, "fit", "--entries", "B1", "--samples", "0")
    assert code == 0
    assert rep["result"]["entries"][0]["ok"]


def test_hp_ground_state_runs_at_the_working_precision(capsys):
    code, rep = run_json(
        capsys, "verify-ground-state", "--precision", "hp", "--samples", "2",
        "--tol", "1e-30",
    )
    assert code == 0
    assert 0 < rep["result"]["max_residual"] < 1e-30


def test_reports_do_not_depend_on_the_cpu_count(capsys, monkeypatch):
    argvs = (
        ["tau-eval", "--samples", "3"],
        ["verify-ground-state", "--samples", "3", "--beta", "1", "--nu", "0.5"],
    )
    outputs = []
    for cpus in (1, 3):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        outputs.append([run(capsys, *argv) for argv in argvs])
    assert outputs[0] == outputs[1]
    for code, out in outputs[0]:
        assert code == 0
        assert "jobs" not in json.loads(out)["config"]


def test_precision_digits_do_not_outlive_main(capsys, monkeypatch):
    monkeypatch.delenv("TAUFORGE_PRECISION", raising=False)
    argv = ("tau-eval", "--samples", "1", "--precision", "hp")
    _, first = run_json(capsys, *argv, "--precision-digits", "60")
    assert first["config"]["precision_digits"] == 60
    assert "TAUFORGE_PRECISION" not in os.environ
    _, second = run_json(capsys, *argv)
    assert second["config"]["precision_digits"] == 50
    monkeypatch.setenv("TAUFORGE_PRECISION", "55")
    run(capsys, *argv, "--precision-digits", "60")
    assert os.environ["TAUFORGE_PRECISION"] == "55"
    # a usage error raised by the handler exits through the same restore
    with pytest.raises(SystemExit):
        main(["fit", "--entries", "A9", "--precision-digits", "60"])
    assert os.environ["TAUFORGE_PRECISION"] == "55"


def cli_process(*argv, timeout=120):
    """The CLI in a fresh process; a hang fails the test at the timeout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("TAUFORGE_PRECISION", None)
    return subprocess.run(
        [sys.executable, "-m", "tauforge.cli", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


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
    (["verify-tables", "--variant", "canonical", "--precision", "hp", "--samples", "2"],
     "1e870dca506b9a4c1dfc700e6121348c01121a9152a5707e227b645e2264c4a0"),
    (["fit", "--entries", "A11"],
     "985cad6e321a5a924447b6973689d92fa8e94d26addfa8cfe0011568bbbdc848"),
    (["flag-check", "--n", "3"],
     "bdcffaaf4a7097c186292a11956e7d3cebbb08e6accdb984ed28ad0730d9738f"),
    (["spectrum", "--n", "2", "--nu", "1/2"],
     "37eb1c63af0b560621069388b6801daa04acfb69cb2d129267f8a71ca95e7234"),
    (["derive", "--system", "G2"],
     "d576c68b6e3cf9d83376b5c84af4aaaf24e3d50c919f168b667d788fbbe60db2"),
]


@pytest.mark.parametrize(
    "argv,digest", GOLDEN_REPORTS, ids=["_".join(argv) for argv, _ in GOLDEN_REPORTS]
)
def test_reports_match_their_golden_digests(capsys, monkeypatch, argv, digest):
    # sample points are rounded at hp_digits(); pin its default
    monkeypatch.delenv("TAUFORGE_PRECISION", raising=False)
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
