import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import iumps.cli as cli
from iumps import RandomStream, benchmark_kraus, build_case1, build_iumps
from iumps.cli import RunConfig, main


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


def test_bound_takes_d_s_from_the_instance(tmp_path, monkeypatch):
    kraus_file = tmp_path / "kraus.json"
    kraus_file.write_text(build_case1(2, 4, RandomStream(3, 0)).to_json())
    seen, sufficient_b = [], cli.sufficient_b
    monkeypatch.setattr(
        cli, "sufficient_b", lambda constants, d_s: seen.append(d_s) or sufficient_b(constants, d_s)
    )
    assert run(tmp_path, "bound", "--kraus", str(kraus_file)) == 0
    assert seen == [2]


def test_gapstats_files(tmp_path):
    assert run(tmp_path, "gapstats", "--n", "25", "--seed", "31") == 0
    rows = read(tmp_path / "gapstats.csv").strip().splitlines()
    assert rows[0] == "rank,one_minus_nu1,nu1_minus_nu2,nu2_minus_nu3"
    assert len(rows) == 26
    markers = json.loads(read(tmp_path / "gapstats.json"))
    assert markers["max_one_minus_nu1"] <= 1e-12


def test_gapstats_byte_identical_rerun(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for out in (a_dir, b_dir):
        assert run(out, "gapstats", "--n", "40", "--seed", "7") == 0
    for name in ("gapstats.csv", "gapstats.json"):
        assert read(a_dir / name) == read(b_dir / name), name


def test_benchmark_exit_zero(tmp_path, capsys):
    assert run(tmp_path, "benchmark") == 0
    out = capsys.readouterr().out
    assert "I_th reference" in out
    assert "QMI(|B|=26)" in out
    assert "benchmark PASSED" in out
    # every checked deviation is printed next to its tolerance, and within it
    checked = {
        "canonical deviation": "1e-12",
        "fixed point vs I/4": "1e-10",
        "|QMI(26) - I_th|": "1e-12",
        "rho_A dev (|B|=40)": "1e-10",
        "rho_AC dev (|B|=40)": "1e-10",
        "max |1 - |nu1||": "1e-12",
        "first family beta=0.1": "1e-10",
        "first family beta=0.01": "1e-10",
        "second family beta=0.001": "10*beta^2 = 1e-05",
        "second family beta=0.0001": "10*beta^2 = 1e-07",
    }
    for label, tol in checked.items():
        line = next(line for line in out.splitlines() if label in line)
        match = re.search(r"(\d\.\d+e[-+]\d+)\s+\(<= " + re.escape(tol) + r"[;)]", line)
        assert match, line
        assert float(match.group(1)) <= float(tol.rsplit(" ", 1)[-1]), line


def test_benchmark_negative_control_exit_one(tmp_path, monkeypatch, capsys):
    import iumps.experiments as exp

    monkeypatch.setattr(exp, "I_TH", exp.I_TH + 1e-6)
    assert run(tmp_path, "benchmark") == 1
    assert "QMI" in capsys.readouterr().out


def test_benchmark_family_negative_control_exit_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "FIRST_FAMILY_TOL", -1.0)  # below any deviation
    assert run(tmp_path, "benchmark") == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("benchmark FAILED: first-family spectrum at beta=0.1, dev=")
    assert sum("benchmark " in line for line in lines) == 1


def test_benchmark_short_golden_curve_exit_one(tmp_path, capsys):
    """k = 8 leaves the golden QCMI curve 9 points, one short of the tail
    check; k = 9 leaves 10."""
    assert run(tmp_path / "k8", "benchmark", "--k", "8") == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "benchmark FAILED: QCMI curve has 9 points; the tail check needs 10"
    assert run(tmp_path / "k9", "benchmark", "--k", "9") == 0
    out = capsys.readouterr().out
    assert "QCMI curve               10 points" in out
    assert out.splitlines()[-1] == "benchmark PASSED"


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


@pytest.mark.parametrize("b_max", ["0", "-4"])
def test_bound_rejects_a_scan_range_below_two(tmp_path, capsys, b_max):
    assert run(tmp_path, "bound", "--case", "1", "--b-max", b_max) == 4
    captured = capsys.readouterr()
    assert captured.err == "invalid input: ValueError: b_max_limit must be even and >= 2\n"
    assert captured.out == ""


def test_scan_and_ensemble_take_regions_past_the_old_cap(tmp_path, capsys):
    """d_s^(|A|+|C|) = 3^7: the ensemble builds no rho_AC, and the scan's QMI
    column folds each region to at most d_M^2 = 16 matrices."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"len_a": 6}))
    assert run(tmp_path / "scan", "scan", "--config", str(config)) == 0
    rows = read(tmp_path / "scan" / "curve_0.csv").strip().splitlines()
    assert rows[0] == "b_len,qmi,qcmi,f,bound" and len(rows) > 1
    assert run(tmp_path / "ensemble", "ensemble", "--config", str(config), "--n", "8") == 0
    summary = json.loads(read(tmp_path / "ensemble" / "summary.json"))
    assert summary["config"]["len_a"] == 6
    assert capsys.readouterr().err == ""


def test_scan_rejects_a_folded_rho_ac_above_the_cap(tmp_path, capsys):
    """At d_M = 8 each region of 4 sites folds to d_M^2 = 64 matrices, so
    rho_AC would be 4096 x 4096: exit 4 and no curve written."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"d_M": 8, "len_a": 4, "len_c": 4}))
    assert run(tmp_path / "out", "scan", "--config", str(config)) == 4
    captured = capsys.readouterr()
    assert captured.err == "invalid input: TooLarge: rho_AC dimension 4096 exceeds 1024\n"
    assert captured.out == ""
    assert not (tmp_path / "out" / "curve_0.csv").exists()


@pytest.mark.parametrize(
    "case, seed, len_a, len_c",
    [("1", 3, 1, 1), ("2", 5, 1, 1), ("3", 2, 1, 1), ("2", 5, 2, 1)],
)
def test_scan_qmi_column_is_qmi_at_each_kept_point(tmp_path, case, seed, len_a, len_c):
    """The QMI column, solved once for the kept |B|, carries the bits of a
    one-|B| ``qmi`` on a fresh instance at every point."""
    from iumps import qmi
    from iumps.mps import build_case

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"len_a": len_a, "len_c": len_c}))
    assert run(tmp_path, "scan", "--case", case, "--seed", str(seed), "--config", str(config)) == 0
    rows = read(tmp_path / "curve_0.csv").splitlines()[1:]
    assert len(rows) >= 5
    kraus = build_case(cli._CASES[case], 3, 4, RandomStream(seed, 0))
    for row in rows:
        b_len, qmi_column = row.split(",")[:2]
        mps = build_iumps(kraus)
        assert float(qmi_column) == qmi(mps, len_a, int(b_len), len_c), b_len


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


# Canonical Kraus sets on d_s = d_M = 2, entries as [re, im] in row-major order.
# The first has transfer spectrum {1, 0, 0, 0}: nu_gap is 0, a nilpotent bulk.
# The second is amplitude damping, whose fixed point |0><0| has sigma_min = 0.
NILPOTENT_BULK = {
    "d_s": 2,
    "d_M": 2,
    "case_tag": "explicit",
    "matrices": [[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0], [0, 0]]],
}
AMPLITUDE_DAMPING = {
    "d_s": 2,
    "d_M": 2,
    "case_tag": "explicit",
    "matrices": [[[1, 0], [0, 0], [0, 0], [0.8, 0]], [[0, 0], [0.6, 0], [0, 0], [0, 0]]],
}


@pytest.mark.parametrize("command", ["scan", "bound"])
def test_nilpotent_bulk_exits_3_with_one_stderr_line(tmp_path, capsys, command):
    kraus_file = tmp_path / "kraus.json"
    kraus_file.write_text(json.dumps(NILPOTENT_BULK))
    assert run(tmp_path / "out", command, "--kraus", str(kraus_file)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "degenerate input: DegenerateSpectrum: "
        "the bulk is nilpotent: every non-peripheral eigenvalue is 0\n"
    )
    assert not (tmp_path / "out").exists()


def test_spectrum_of_a_nilpotent_bulk_exits_3_with_one_stderr_line(tmp_path, capsys):
    # the rule of scan and bound: a zero bulk has no decay rate
    kraus_file = tmp_path / "kraus.json"
    kraus_file.write_text(json.dumps(NILPOTENT_BULK))
    out_dir = tmp_path / "out"
    assert run(out_dir, "spectrum", "--kraus", str(kraus_file)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "degenerate input: DegenerateSpectrum: instance 0: "
        "the bulk is nilpotent: every non-peripheral eigenvalue is 0\n"
    )
    assert json.loads(read(out_dir / "gap.json")) == {
        "error": "degenerate spectrum: the bulk is nilpotent: every non-peripheral eigenvalue is 0",
        "nu_gap": 0.0,
        "peripheral_count": 1,
    }
    assert len(read(out_dir / "spectrum.csv").splitlines()) == 5


def test_bound_of_a_fixed_point_not_full_rank_exits_4(tmp_path, capsys):
    kraus_file = tmp_path / "kraus.json"
    kraus_file.write_text(json.dumps(AMPLITUDE_DAMPING))
    assert run(tmp_path, "bound", "--kraus", str(kraus_file)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: Unsupported: sigma_min = ")
    assert captured.err.endswith(": the fixed point is not full rank\n")
    assert captured.err.count("\n") == 1


def test_scan_leaves_the_bound_column_empty_when_the_bound_is_unsupported(
    tmp_path, monkeypatch
):
    # amplitude damping's own curve is empty (QCMI at the floor at |B| = 2),
    # so the unsupported bound is forced on an instance with a curve
    from iumps import Unsupported

    def not_full_rank(mps):
        raise Unsupported("sigma_min = 0.000e+00: the fixed point is not full rank")

    assert run(tmp_path / "ref", "scan", "--case", "2", "--seed", "5") == 0
    monkeypatch.setattr(cli, "jordan_constants", not_full_rank)
    assert run(tmp_path / "out", "scan", "--case", "2", "--seed", "5") == 0
    ref = read(tmp_path / "ref" / "curve_0.csv").splitlines()
    rows = read(tmp_path / "out" / "curve_0.csv").splitlines()
    assert len(rows) == len(ref) > 1 and rows[0] == ref[0]
    for row, ref_row in zip(rows[1:], ref[1:], strict=True):
        assert ref_row.rsplit(",", 1)[1] != ""
        assert row == ref_row.rsplit(",", 1)[0] + ","


def test_parser_is_reused_without_leaking_state(tmp_path, capsys):
    from iumps.cli import build_parser

    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        run(tmp_path / "bad", "scan", "--case", "9")
    assert exc.value.code == 4
    assert "invalid choice" in capsys.readouterr().err
    assert run(tmp_path / "ok", "spectrum", "--case", "2", "--seed", "4") == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "ok" / "spectrum.csv").exists()
    assert run(tmp_path / "saved", "spectrum", "--case", "2", "--save-kraus") == 0
    assert (tmp_path / "saved" / "kraus_0.json").exists()
    assert run(tmp_path / "plain", "spectrum", "--case", "2") == 0
    assert sorted(p.name for p in (tmp_path / "plain").iterdir()) == ["gap.json", "spectrum.csv"]


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
    "argv",
    [
        ("gapstats", "--b-max", "10"),
        ("gapstats", "--k", "5"),
        ("spectrum", "--case", "1", "--b-max", "10"),
        ("spectrum", "--case", "1", "--k", "5"),
        ("spectrum", "--case", "golden", "--k", "13"),
    ],
    ids=" ".join,
)
def test_commands_without_a_scan_reject_scan_options(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    assert main([*argv, "--out", str(out_dir)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: ValueError: ")
    assert "does not apply" in captured.err and captured.err.count("\n") == 1
    assert not out_dir.exists()
    # the default value is no rejection
    default = "40" if "--b-max" in argv else "12"
    assert main([*argv[:-1], default, "--out", str(out_dir)]) == 0


@pytest.mark.parametrize("command", ["gapstats", "benchmark"])
def test_bond_dimension_one_has_no_gap_statistics(tmp_path, capsys, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"d_M": 1}))
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out_dir)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ValueError: gap statistics need d_M >= 2")
    assert captured.err.count("\n") == 1
    assert not out_dir.exists()



def test_spectrum_of_a_gapless_instance_exits_3_with_one_stderr_line(tmp_path, capsys):
    # bond dimension 1: the one transfer eigenvalue is peripheral, so there is
    # no gap; the spectrum and gap.json are still written
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"d_M": 1}))
    out_dir = tmp_path / "out"
    assert main(["spectrum", "--config", str(config), "--out", str(out_dir)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("degenerate input: DegenerateSpectrum: ")
    assert captured.err.count("\n") == 1
    gap = json.loads(read(out_dir / "gap.json"))
    assert gap == {
        "error": "degenerate spectrum: every eigenvalue is peripheral",
        "nu_gap": None,
        "peripheral_count": 1,
    }
    assert len(read(out_dir / "spectrum.csv").splitlines()) == 2

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


# The fields each command reads (every command also reads output_dir), and a
# non-default value of every RunConfig field.
SAMPLING = ("case_tag", "master_seed", "d_s", "d_M")
READS = {
    "spectrum": (*SAMPLING, "n_instances", "kraus_path", "save_kraus"),
    "scan": (*SAMPLING, "kraus_path", "save_kraus", "len_a", "len_c", "b_max_limit", "k"),
    "ensemble": (*SAMPLING, "n_instances", "len_a", "len_c", "b_max_limit", "k"),
    "bound": (*SAMPLING, "kraus_path", "save_kraus", "b_max_limit"),
    "gapstats": ("master_seed", "d_s", "d_M", "n_instances"),
    "benchmark": ("master_seed", "d_s", "d_M", "k"),
}
NON_DEFAULT = {
    "d_s": 2,
    "d_M": 6,
    "len_a": 2,
    "len_c": 3,
    "b_max_limit": 20,
    "k": 10,
    "n_instances": 3,
    "case_tag": "case2",
    "master_seed": 9,
    "output_dir": "elsewhere",
    "kraus_path": "kraus.json",
    "save_kraus": True,
}
# The two ways to fix the instance, and the fields a fixed instance leaves unread.
FIXED = {
    "kraus_path": ("kraus.json", ("master_seed", "d_s", "d_M", "n_instances", "case_tag")),
    "case_tag": ("golden", ("master_seed", "d_s", "d_M", "n_instances")),
}


def test_non_default_values_cover_every_field():
    defaults = RunConfig()
    assert set(NON_DEFAULT) == set(vars(defaults))
    assert all(value != getattr(defaults, name) for name, value in NON_DEFAULT.items())


@pytest.fixture
def handled(monkeypatch):
    """Stub every command handler; the list collects the configs they receive."""
    seen = []
    for name in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, name, lambda config: seen.append(config) or 0)
    return seen


def run_config(tmp_path, command, payload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    return main([command, "--config", str(config)])


@pytest.mark.parametrize(
    "command,field",
    [(command, field) for command, reads in READS.items() for field in (*reads, "output_dir")],
    ids="-".join,
)
def test_each_command_takes_every_field_it_reads(tmp_path, handled, command, field):
    assert run_config(tmp_path, command, {field: NON_DEFAULT[field]}) == 0
    assert [getattr(config, field) for config in handled] == [NON_DEFAULT[field]]


@pytest.mark.parametrize(
    "command,field",
    [
        (command, field)
        for command, reads in READS.items()
        for field in NON_DEFAULT
        if field not in (*reads, "output_dir")
    ],
    ids="-".join,
)
def test_each_command_rejects_every_field_it_does_not_read(
    tmp_path, capsys, handled, command, field
):
    assert run_config(tmp_path, command, {field: NON_DEFAULT[field]}) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: ValueError: {command} does not read {field}, ")
    assert err.endswith(" does not apply\n") and err.count("\n") == 1
    assert handled == []


@pytest.mark.parametrize(
    "command,fixed,field",
    [
        (command, fixed, field)
        for command in ("spectrum", "scan", "bound")
        for fixed, (_, unread) in FIXED.items()
        for field in unread
        if field in READS[command]
    ],
    ids="-".join,
)
def test_a_fixed_instance_reads_no_sampling_field(tmp_path, capsys, handled, command, fixed, field):
    value = FIXED[fixed][0]
    payload = {fixed: value, field: NON_DEFAULT[field]}
    assert run_config(tmp_path, command, payload) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: ValueError: {command} of a fixed instance does not read")
    assert f"{field} = " in err and err.count("\n") == 1
    assert handled == []
    assert run_config(tmp_path, command, {fixed: value}) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--case", "1", "--k", "5"),
        ("bound", "--config", '{"len_a": 3}'),
        ("gapstats", "--config", '{"len_a": 3}'),
        ("spectrum", "--config", '{"len_a": 3}'),
        ("benchmark", "--config", '{"len_a": 3}'),
        ("scan", "--case", "a", "--seed", "9"),
        ("scan", "--case", "a", "--config", '{"d_s": 2}'),
        ("bound", "--case", "a", "--seed", "5"),
        ("scan", "--kraus", "KRAUS", "--case", "2"),
        ("spectrum", "--case", "golden", "--seed", "3"),
    ],
    ids=" ".join,
)
def test_options_a_command_does_not_read_are_rejected(tmp_path, capsys, argv):
    def resolve(arg):  # a KrausSet file for KRAUS, a config file for a JSON object
        if arg == "KRAUS":
            arg, path = benchmark_kraus().to_json(), tmp_path / "kraus.json"
        elif arg.startswith("{"):
            path = tmp_path / "config.json"
        else:
            return arg
        path.write_text(arg)
        return str(path)

    argv = [resolve(a) for a in argv]
    out_dir = tmp_path / "out"
    assert main([*argv, "--out", str(out_dir)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: ValueError: ")
    assert captured.err.endswith(" does not apply\n") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out_dir.exists()
