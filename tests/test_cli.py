import json
import math
from pathlib import Path

import numpy as np
import pytest

from iumps import benchmark_kraus
from iumps.cli import main


def run(tmp_path, *args):
    return main([*args, "--out", str(tmp_path)])


def read(path: Path) -> str:
    return path.read_text()


def test_spectrum_files(tmp_path):
    assert run(tmp_path, "spectrum", "--case", "1", "--seed", "3") == 0
    rows = read(tmp_path / "spectrum.csv").strip().splitlines()
    assert rows[0] == "instance_id,eig_index,re,im,abs,is_peripheral"
    assert len(rows) == 17
    gap = json.loads(read(tmp_path / "gap.json"))
    assert 0 < gap["nu_gap"] < 1
    assert gap["peripheral_count"] == 1


def test_spectrum_golden_instance_peripheral_row(tmp_path):
    assert run(tmp_path, "spectrum", "--case", "a") == 0
    rows = read(tmp_path / "spectrum.csv").strip().splitlines()[1:]
    toprow = rows[0].split(",")
    assert abs(float(toprow[4]) - 1.0) <= 1e-12
    assert toprow[5] == "1"


def test_spectrum_multiple_instances(tmp_path):
    assert run(tmp_path, "spectrum", "--case", "1", "--seed", "3", "--n", "3") == 0
    rows = read(tmp_path / "spectrum.csv").strip().splitlines()
    assert len(rows) == 1 + 3 * 16
    ids = {row.split(",")[0] for row in rows[1:]}
    assert ids == {"0", "1", "2"}


@pytest.mark.parametrize("fixed", [("--case", "golden"), ("--kraus", "KRAUS")], ids=" ".join)
def test_spectrum_takes_an_instance_count_for_sampled_cases_only(tmp_path, capsys, fixed):
    kraus_file = tmp_path / "kraus.json"
    kraus_file.write_text(benchmark_kraus().to_json())
    fixed = [str(kraus_file) if a == "KRAUS" else a for a in fixed]
    assert run(tmp_path / "fixed", "spectrum", *fixed, "--n", "3", "--save-kraus") == 4
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ValueError: ") and err.count("\n") == 1
    assert not (tmp_path / "fixed").exists()
    assert run(tmp_path / "one", "spectrum", *fixed, "--n", "1") == 0
    assert run(tmp_path / "sampled", "spectrum", "--case", "2", "--n", "3") == 0
    rows = read(tmp_path / "sampled" / "spectrum.csv").strip().splitlines()
    assert len(rows) == 1 + 3 * 16
    assert {row.split(",")[0] for row in rows[1:]} == {"0", "1", "2"}


def test_spectrum_deterministic(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    run(a_dir, "spectrum", "--case", "2", "--seed", "11")
    run(b_dir, "spectrum", "--case", "2", "--seed", "11")
    assert read(a_dir / "spectrum.csv") == read(b_dir / "spectrum.csv")
    assert read(a_dir / "gap.json") == read(b_dir / "gap.json")


def test_scan_curve_columns_recomputable(tmp_path):
    assert run(tmp_path, "scan", "--case", "a") == 0
    rows = read(tmp_path / "curve_0.csv").strip().splitlines()
    assert rows[0] == "b_len,qmi,qcmi,f,bound"
    assert 2 <= len(rows) - 1 <= 20
    gap_rows = []
    for row in rows[1:]:
        b, qmi, qcmi, f, bound = row.split(",")
        assert float(qcmi) > 1e-12
        gap_rows.append((int(b), float(qmi), float(qcmi), float(f), bound))
    # the f column must be recomputable from the file's own qcmi values
    nu_gap = 4.0 ** (-1.0 / 3.0)  # gap of the golden instance
    for b, _, qc, f, bound in gap_rows:
        assert f == pytest.approx(math.log(qc) / (2 * math.log(1 / nu_gap)), rel=1e-12)
        assert bound != "" and float(bound) >= qc


def test_kraus_persist_and_reload(tmp_path):
    assert run(tmp_path, "scan", "--case", "2", "--seed", "21", "--save-kraus") == 0
    kraus_file = tmp_path / "kraus_0.json"
    assert kraus_file.exists()
    payload = json.loads(read(kraus_file))
    assert payload["d_s"] == 3 and payload["d_M"] == 4 and payload["case_tag"] == "case2"
    # reloading the persisted instance reproduces the curve exactly
    re_dir = tmp_path / "re"
    assert main(["scan", "--kraus", str(kraus_file), "--out", str(re_dir)]) == 0
    assert read(tmp_path / "curve_0.csv") == read(re_dir / "curve_0.csv")


def test_scan_exit_code_on_degenerate_input(tmp_path, monkeypatch):
    import iumps.cli as cli_mod
    from iumps import analytic_family, benchmark_kraus

    # weakly correlated instance falls below the floor immediately at k=1
    monkeypatch.setattr(cli_mod, "benchmark_kraus", lambda: analytic_family("first", 0.05))
    assert run(tmp_path, "scan", "--case", "a", "--k", "1") == 3


def test_ensemble_outputs(tmp_path):
    assert run(tmp_path, "ensemble", "--case", "1", "--n", "10", "--seed", "5",
               "--b-max", "20") == 0
    rates = read(tmp_path / "rates.csv").strip().splitlines()
    assert rates[0] == "instance_id,nu_gap,b_max,rate,n_points"
    assert len(rates) == 11
    hist = read(tmp_path / "histogram.csv").strip().splitlines()
    assert hist[0] == "i,j,count"
    assert len(hist) - 1 <= 400
    for row in hist[1:]:
        i, j, c = map(int, row.split(","))
        assert 0 <= i < 20 and 0 <= j < 20 and c > 0
    cdf_all = [float(x) for x in read(tmp_path / "cdf_all.csv").strip().splitlines()[1:]]
    cdf_full = [float(x) for x in read(tmp_path / "cdf_full.csv").strip().splitlines()[1:]]
    assert cdf_all == sorted(cdf_all)
    assert set(cdf_full) <= set(cdf_all)
    summary = json.loads(read(tmp_path / "summary.json"))
    assert summary["config"]["master_seed"] == 5
    assert summary["n_instances"] == 10
    assert summary["n_completed"] + summary["n_skipped"] == 10


def test_ensemble_byte_identical_rerun(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    args = ("ensemble", "--case", "1", "--n", "6", "--seed", "123", "--b-max", "16")
    run(a_dir, *args)
    run(b_dir, *args)
    for name in ("rates.csv", "histogram.csv", "cdf_all.csv", "cdf_full.csv"):
        assert read(a_dir / name) == read(b_dir / name), name
    sa = json.loads(read(a_dir / "summary.json"))
    sb = json.loads(read(b_dir / "summary.json"))
    sa["config"]["output_dir"] = sb["config"]["output_dir"] = ""
    assert sa == sb


def test_bound_subcommand(tmp_path, capsys):
    assert run(tmp_path, "bound", "--case", "1", "--seed", "2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k_jordan"] == 0
    assert payload["rate_q"] == pytest.approx(2 * math.log(1 / payload["nu_gap"]))
    assert payload["sufficient_b"] % 2 == 0
    assert payload["sufficient_b_within_scan"] == (payload["sufficient_b"] <= 40)
    assert payload["big_q"] == pytest.approx(
        16 * 4**3 * payload["c2"] ** 2 / payload["sigma_min"] ** 3
    )


def test_gapstats_files(tmp_path):
    assert run(tmp_path, "gapstats", "--n", "25", "--seed", "31") == 0
    rows = read(tmp_path / "gapstats.csv").strip().splitlines()
    assert rows[0] == "rank,one_minus_nu1,nu1_minus_nu2,nu2_minus_nu3"
    assert len(rows) == 26
    markers = json.loads(read(tmp_path / "gapstats.json"))
    assert markers["max_one_minus_nu1"] <= 1e-12


def test_benchmark_exit_zero(tmp_path, capsys):
    assert run(tmp_path, "benchmark") == 0
    out = capsys.readouterr().out
    assert "I_th reference" in out
    assert "QMI(|B|=26)" in out
    assert "benchmark PASSED" in out


def test_benchmark_negative_control_exit_one(tmp_path, monkeypatch, capsys):
    import iumps.experiments as exp

    monkeypatch.setattr(exp, "I_TH", exp.I_TH + 1e-6)
    assert run(tmp_path, "benchmark") == 1
    assert "QMI" in capsys.readouterr().out


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_instances": 4, "master_seed": 77, "b_max_limit": 12}))
    out_dir = tmp_path / "out"
    assert main(["ensemble", "--config", str(config), "--seed", "78",
                 "--out", str(out_dir)]) == 0
    summary = json.loads(read(out_dir / "summary.json"))
    assert summary["config"]["master_seed"] == 78  # flag wins over file
    assert summary["config"]["n_instances"] == 4


def test_rejects_odd_b_max(tmp_path, capsys):
    assert run(tmp_path, "scan", "--case", "1", "--b-max", "13") == 4
    err = capsys.readouterr().err
    assert err == "invalid input: ValueError: b_max_limit must be even\n"


def test_rejects_zero_instances(tmp_path, capsys):
    assert run(tmp_path, "ensemble", "--n", "0") == 4
    err = capsys.readouterr().err
    assert err == "invalid input: ValueError: n_instances must be >= 1\n"
    assert not (tmp_path / "summary.json").exists()


def test_rejects_non_canonical_kraus_file(tmp_path, capsys):
    payload = json.loads(benchmark_kraus().to_json())
    payload["matrices"][0][0] = [2.0, 0.0]
    kraus_file = tmp_path / "bad.json"
    kraus_file.write_text(json.dumps(payload))
    assert run(tmp_path, "scan", "--kraus", str(kraus_file)) == 4
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ValueError: Kraus file ")
    assert "canonical-form deviation" in err and err.count("\n") == 1


def test_bound_exit_code_on_near_degenerate_gap(tmp_path, monkeypatch, capsys):
    import iumps.cli as cli_mod
    from iumps import NearDegenerate

    def near_degenerate(mps):
        raise NearDegenerate("gap-shell eigenvalues too close to separate")

    monkeypatch.setattr(cli_mod, "jordan_constants", near_degenerate)
    assert run(tmp_path, "bound", "--case", "1", "--seed", "2") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "degenerate input: NearDegenerate: gap-shell eigenvalues too close to separate\n"
    )


def test_usage_error_exit_code(tmp_path, capsys):
    for argv, message in (
        (("scan", "--case", "9"), "invalid choice"),
        (("ensemble", "--jobs", "3"), "unrecognized arguments: --jobs 3"),
    ):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv)
        assert exc.value.code == 4
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("ensemble", "--case", "golden"),
        ("ensemble", "--kraus", "KRAUS"),
        ("ensemble", "--save-kraus"),
        ("gapstats", "--case", "2"),
        ("gapstats", "--case", "3"),
        ("gapstats", "--case", "golden"),
        ("gapstats", "--kraus", "KRAUS"),
        ("gapstats", "--save-kraus"),
    ],
    ids=" ".join,
)
def test_sampling_commands_reject_fixed_instance(tmp_path, capsys, argv):
    kraus_file = tmp_path / "kraus.json"
    kraus_file.write_text(benchmark_kraus().to_json())
    out_dir = tmp_path / "out"
    argv = [str(kraus_file) if a == "KRAUS" else a for a in argv]
    assert main([*argv, "--n", "2", "--out", str(out_dir)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ValueError: ") and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--case", "1", "--n", "5"),
        ("scan", "--case", "1", "--n", "5", "--save-kraus"),
        ("bound", "--case", "2", "--n", "3"),
        ("bound", "--case", "2", "--n", "3", "--save-kraus"),
        ("benchmark", "--n", "2"),
        ("benchmark", "--kraus", "KRAUS"),
        ("benchmark", "--save-kraus"),
        ("benchmark", "--case", "2"),
        ("benchmark", "--b-max", "10"),
    ],
    ids=" ".join,
)
def test_single_instance_commands_reject_flags_that_do_not_apply(tmp_path, capsys, argv):
    kraus_file = tmp_path / "kraus.json"
    kraus_file.write_text(benchmark_kraus().to_json())
    out_dir = tmp_path / "out"
    argv = [str(kraus_file) if a == "KRAUS" else a for a in argv]
    assert main([*argv, "--out", str(out_dir)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: ValueError: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "payload_message",
    [
        ({"d_s": "3"}, "d_s must be int, not '3'"),
        ({"threshold": 1e-12}, "unexpected keyword argument 'threshold'"),
        ({"peripheral_tol": 1e-8}, "unexpected keyword argument 'peripheral_tol'"),
        ({"burn_in": 3}, "unexpected keyword argument 'burn_in'"),
        ({"n_instances": True}, "n_instances must be int, not True"),
        ({"k": 12.0}, "k must be int, not 12.0"),
        ({"case_tag": None}, "case_tag must be str, not None"),
        ({"save_kraus": 1}, "save_kraus must be bool, not 1"),
        ({"no_such_key": 1}, "unexpected keyword argument 'no_such_key'"),
        ([3], "must hold a JSON object"),
    ],
    ids=lambda case: json.dumps(case[0]),
)
def test_rejects_bad_config_file(tmp_path, capsys, payload_message):
    payload, message = payload_message
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    out_dir = tmp_path / "out"
    assert main(["spectrum", "--config", str(config), "--out", str(out_dir)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ValueError: config: ") and err.count("\n") == 1
    assert message in err
    assert not out_dir.exists()


def test_ensemble_exit_when_every_instance_fails(tmp_path):
    # bond dimension 1 has a fully peripheral transfer spectrum, so every
    # scan aborts with a degenerate gap and the ensemble reports it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"d_M": 1, "n_instances": 3}))
    out_dir = tmp_path / "out"
    assert main(["ensemble", "--config", str(config), "--out", str(out_dir)]) == 2
    summary = json.loads(read(out_dir / "summary.json"))
    assert summary["n_skipped"] == 3
    assert all("DegenerateSpectrum" in msg for _, msg in summary["skipped"])
