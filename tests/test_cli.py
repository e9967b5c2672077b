import json

import pytest

from tauforge.cli import main


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
