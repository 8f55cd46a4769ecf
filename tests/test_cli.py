import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import iumps.cli as cli
import iumps.experiments
import iumps.mps
from iumps import (
    BoundConstants,
    KrausSet,
    RandomStream,
    benchmark_kraus,
    build_case1,
    build_iumps,
)
from iumps.cli import RunConfig, main
from oracles import jordan_decay


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
    assert set(summary["config"]) == set(RunConfig._fields)
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
    # a NamedTuple dumps as a bare list: the payload keeps BoundConstants' keys
    assert set(payload) == {*BoundConstants._fields, "sufficient_b", "sufficient_b_within_scan"}


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


@pytest.mark.parametrize(
    "argv, len_a",
    [
        (("--case", "1", "--seed", "3"), 1),
        (("--case", "2", "--seed", "5"), 1),
        (("--case", "3", "--seed", "2"), 1),
        (("--case", "a"), 1),
        (("--case", "2", "--seed", "5"), 2),
        # a curve to |B| = 80 spans five blocks of SCAN_BLOCK sizes
        (("--case", "2", "--seed", "60", "--b-max", "80"), 1),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else f"len_a={v}",
)
def test_scan_qmi_column_is_qmi_curve_of_a_fresh_instance(tmp_path, argv, len_a):
    """The scan's QMI column, made from the scan's own E^|B| and solves,
    carries the bits of one ``qmi_curve`` over its kept |B| on a fresh
    instance."""
    from iumps.entropy import qmi_curve
    from iumps.experiments import SCAN_BLOCK
    from iumps.mps import build_case

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"len_a": len_a}))
    assert run(tmp_path, "scan", *argv, "--config", str(config)) == 0
    rows = [row.split(",") for row in read(tmp_path / "curve_0.csv").splitlines()[1:]]
    sizes = [int(row[0]) for row in rows]
    case = argv[1]
    if case == "a":
        kraus = benchmark_kraus()
    else:
        kraus = build_case(cli._CASES[case], 3, 4, RandomStream(int(argv[3]), 0))
    expected = qmi_curve(build_iumps(kraus), len_a, sizes, 1)
    assert np.array([float(row[1]) for row in rows]).tobytes() == np.array(expected).tobytes()
    if "--b-max" in argv:
        assert sizes[-1] > 2 * SCAN_BLOCK  # past the first block


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


def test_starting_the_cli_loads_neither_dataclasses_nor_numpy_random():
    """A fresh ``import iumps.cli`` with its parser built loads no
    ``dataclasses`` (the records are NamedTuples and ``IuMps`` a plain class),
    and no ``numpy.random``, which only a command that draws needs; ``import
    numpy`` loads neither."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys, iumps.cli; iumps.cli.build_parser(); "
        "print(sorted({'dataclasses', 'numpy.random'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


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


def test_commands_without_a_scan_take_scan_options_at_their_default(tmp_path):
    """A scan option a command does not read is refused only off its default
    (the scan-option rows of ``REFUSED``): at its default the command runs."""
    for argv in (("gapstats",), ("spectrum", "--case", "1"), ("spectrum", "--case", "golden")):
        for option in (("--b-max", "40"), ("--k", "12")):
            assert main([*argv, *option, "--out", str(tmp_path / "out")]) == 0


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
    assert set(NON_DEFAULT) == set(defaults._asdict())
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


# Each flag, its value, and the RunConfig field and value it sets.
FLAGS = [
    (("--seed", "9"), "master_seed", 9),
    (("--case", "a"), "case_tag", "golden"),
    (("--case", "2"), "case_tag", "case2"),
    (("--n", "3"), "n_instances", 3),
    (("--b-max", "20"), "b_max_limit", 20),
    (("--k", "10"), "k", 10),
    (("--out", "elsewhere"), "output_dir", "elsewhere"),
    (("--kraus", "kraus.json"), "kraus_path", "kraus.json"),
    (("--save-kraus",), "save_kraus", True),
]


@pytest.mark.parametrize(
    "command,flag,field,value",
    [
        pytest.param(command, flag, field, value, id=" ".join((command, *flag)))
        for command, reads in READS.items()
        for flag, field, value in FLAGS
        if field in (*reads, "output_dir")
        and (value != "golden" or "kraus_path" in reads)  # golden is a fixed instance
    ],
)
def test_each_flag_sets_its_field(handled, command, flag, field, value):
    assert main([command, *flag]) == 0
    assert [getattr(config, field) for config in handled] == [value]


def test_options_may_precede_the_command(handled):
    assert main(["--seed", "3", "--b-max", "20", "scan"]) == 0
    assert [(c.master_seed, c.b_max_limit) for c in handled] == [(3, 20)]


def test_spectrum_rows_do_not_depend_on_the_instance_count(tmp_path):
    assert run(tmp_path / "small", "spectrum", "--case", "1", "--seed", "3", "--n", "5") == 0
    assert run(tmp_path / "large", "spectrum", "--case", "1", "--seed", "3", "--n", "13") == 0
    small = read(tmp_path / "small" / "spectrum.csv")
    large = read(tmp_path / "large" / "spectrum.csv")
    assert len(small.splitlines()) == 1 + 5 * 16
    assert large.startswith(small)
    assert read(tmp_path / "small" / "gap.json") == read(tmp_path / "large" / "gap.json")


def test_spectrum_solves_its_instances_in_one_call(tmp_path, monkeypatch):
    calls, transfer_matrices = [], cli.transfer_matrices

    def counted(matrices):
        calls.append(len(matrices))
        return transfer_matrices(matrices)

    monkeypatch.setattr(cli, "transfer_matrices", counted)
    assert run(tmp_path, "spectrum", "--case", "1", "--seed", "3", "--n", "5") == 0
    assert calls == [5]


@pytest.mark.parametrize(
    "command, message",
    [
        ("bound", "NearDegenerate: an eigenvalue at the gap magnitude 0.5 has condition number "),
        ("scan", "EmptyCurve: "),
    ],
    ids=["bound", "scan"],
)
def test_a_jordan_block_at_the_gap_exits_3_with_one_stderr_line(tmp_path, capsys, command, message):
    # the set builds; bound refuses the Jordan block in jordan_constants, and
    # scan finds no QCMI above the floor, since sigma is pure
    kraus_file = tmp_path / "kraus.json"
    kraus_file.write_text(jordan_decay(0.5, 0.3).to_json())
    assert run(tmp_path / "out", command, "--kraus", str(kraus_file)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"degenerate input: {message}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_spectrum_of_a_jordan_block_at_the_gap_writes_its_gap(tmp_path, capsys):
    kraus_file = tmp_path / "kraus.json"
    kraus_file.write_text(jordan_decay(0.5, 0.3).to_json())
    assert run(tmp_path / "out", "spectrum", "--kraus", str(kraus_file)) == 0
    assert capsys.readouterr().err == ""
    gap = json.loads(read(tmp_path / "out" / "gap.json"))
    assert gap["nu_gap"] == pytest.approx(0.5, abs=1e-15)
    assert gap["peripheral_count"] == 1


def over_budget(d_s, d_m, extra=0):
    """The memory-budget refusal of a run at d_s x d_M holding ``extra`` B of results."""
    held = f" holding {extra:,} bytes of instance results" if extra else ""
    charge = iumps.mps.run_charge(d_s, d_m, extra)
    return (
        f"a run at d_s = {d_s}, d_M = {d_m}{held} charges {charge:,} bytes, "
        "above the 1 GiB memory budget"
    )


# Every exit-4 refusal, before any Haar draw, E or write, in the order of the
# rules: argv (KRAUS for the Kraus file), the config payload, the Kraus file's
# text or None, and the stderr line after "invalid input: ", {kraus} and
# {config} standing for the files' paths.  Instance results held: spectrum
# SPECTRUM_ROW_BYTES d_M^2 bytes an instance, gapstats and ensemble 300.
SPECTRUM_ROW_BYTES = 150
INSTANCE_BYTES = {"spectrum": SPECTRUM_ROW_BYTES * 4**2, "gapstats": 300, "ensemble": 300}
K_CAP = "ValueError: k must be <= 307, for a floor 10^-k that is a normal double"
RHO_AC_CAP = "TooLarge: rho_AC dimension 4096 exceeds 1024"
B_MAX_BELOW_2 = "ValueError: b_max_limit must be even and >= 2"
GAP_D_M = "ValueError: gap statistics need d_M >= 2 (three transfer eigenvalues), not 1"
GOLDEN = benchmark_kraus().to_json()
NON_CANONICAL = GOLDEN.replace('"matrices": [[[0.0, 0.0]', '"matrices": [[[2.0, 0.0]')
IDENTITY_40 = KrausSet(1, 40, np.eye(40, dtype=complex)[None], "explicit").to_json()
# two Kraus matrices I/sqrt(2): each region of 6 sites folds to 64 matrices
HALVES_8 = KrausSet(2, 8, np.stack([np.eye(8, dtype=complex)] * 2) / 2**0.5, "explicit").to_json()


def budget(d_s, d_m, extra=0):
    return f"ValueError: {over_budget(d_s, d_m, extra)}"


def unread(command, field, value):
    return f"ValueError: {command} does not read {field}, so {field} = {value!r} does not apply"


def refused(argv, message, payload=None, kraus=None, id=None):
    id = id or " ".join(argv) + (f" {json.dumps(payload)}" if payload else "")
    return pytest.param(argv, {} if payload is None else payload, kraus, message, id=id)


REFUSED = [
    *[
        refused(("spectrum",), f"ValueError: config: {message}", payload)
        for payload, message in (
            ({"d_s": "3"}, "d_s must be int, not '3'"),
            ({"n_instances": True}, "n_instances must be int, not True"),
            ({"k": 12.0}, "k must be int, not 12.0"),
            ({"case_tag": None}, "case_tag must be str, not None"),
            ({"save_kraus": 1}, "save_kraus must be bool, not 1"),
            ({"threshold": 1e-12}, "{config}: not a config field: threshold"),
            ({"peripheral_tol": 1e-8}, "{config}: not a config field: peripheral_tol"),
            ({"burn_in": 3}, "{config}: not a config field: burn_in"),
            ({"no_such_key": 1}, "{config}: not a config field: no_such_key"),
            ([3], "{config} must hold a JSON object"),
        )
    ],
    *[
        refused(argv, unread(argv[0], field, value))
        for argv, field, value in (
            (("ensemble", "--kraus", "KRAUS", "--n", "2"), "kraus_path", "{kraus}"),
            (("ensemble", "--save-kraus", "--n", "2"), "save_kraus", True),
            (("gapstats", "--case", "2", "--n", "2"), "case_tag", "case2"),
            (("gapstats", "--case", "3", "--n", "2"), "case_tag", "case3"),
            (("gapstats", "--case", "golden", "--n", "2"), "case_tag", "golden"),
            (("gapstats", "--kraus", "KRAUS", "--n", "2"), "kraus_path", "{kraus}"),
            (("gapstats", "--save-kraus", "--n", "2"), "save_kraus", True),
            (("scan", "--case", "1", "--n", "5"), "n_instances", 5),
            (("scan", "--case", "1", "--n", "5", "--save-kraus"), "n_instances", 5),
            (("bound", "--case", "2", "--n", "3"), "n_instances", 3),
            (("bound", "--case", "2", "--n", "3", "--save-kraus"), "n_instances", 3),
            (("bound", "--case", "1", "--k", "5"), "k", 5),
            (("benchmark", "--n", "2"), "n_instances", 2),
            (("benchmark", "--kraus", "KRAUS"), "kraus_path", "{kraus}"),
            (("benchmark", "--save-kraus"), "save_kraus", True),
            (("benchmark", "--case", "2"), "case_tag", "case2"),
            (("benchmark", "--b-max", "10"), "b_max_limit", 10),
            (("gapstats", "--b-max", "10"), "b_max_limit", 10),
            (("gapstats", "--k", "5"), "k", 5),
            (("spectrum", "--case", "1", "--b-max", "10"), "b_max_limit", 10),
            (("spectrum", "--case", "1", "--k", "5"), "k", 5),
        )
    ],
    *[refused((c,), unread(c, "len_a", 3), {"len_a": 3})
      for c in ("bound", "gapstats", "spectrum", "benchmark")],
    *[
        refused(argv, unread(f"{argv[0]} of a fixed instance", field, value), payload)
        for argv, payload, field, value in (
            (("spectrum", "--case", "golden", "--k", "13"), None, "k", 13),
            (("spectrum", "--case", "golden", "--seed", "3"), None, "master_seed", 3),
            (("scan", "--case", "a", "--seed", "9"), None, "master_seed", 9),
            (("scan", "--case", "a"), {"d_s": 2}, "d_s", 2),
            (("scan", "--kraus", "KRAUS", "--case", "2"), None, "case_tag", "case2"),
            (("bound", "--case", "a", "--seed", "5"), None, "master_seed", 5),
        )
    ],
    refused(("scan", "--case", "1", "--b-max", "13"), "ValueError: b_max_limit must be even"),
    refused(("bound", "--b-max", "13"), "ValueError: b_max_limit must be even",
            id="bound b_max=13"),
    refused(("bound", "--case", "1", "--b-max", "0"), B_MAX_BELOW_2),
    refused(("bound", "--case", "1", "--b-max", "-4"), B_MAX_BELOW_2),
    refused(("scan", "--save-kraus"), "ValueError: scan requires len_a, len_c >= 1",
            {"len_a": 0}, id="scan len_a=0"),
    refused(("ensemble",), "ValueError: scan requires len_a, len_c >= 1", {"len_c": 0},
            id="ensemble len_c=0"),
    refused(("benchmark", "--k", "0"), "ValueError: k must be >= 1", id="benchmark k=0"),
    *[
        refused((command, "--k", str(k), *extra), K_CAP, id=f"{command} k={name}")
        for command, extra in (("scan", ("--save-kraus",)), ("ensemble", ()), ("benchmark", ()))
        for k, name in ((308, "308"), (10**400, "10^400"))
    ],
    refused(("ensemble", "--n", "0"), "ValueError: n_instances must be >= 1"),
    # each region of 4 sites folds to d_M^2 = 64 matrices: rho_AC would be 4096 wide
    refused(("scan",), RHO_AC_CAP, {"d_M": 8, "len_a": 4, "len_c": 4}),
    refused(("scan", "--save-kraus"), RHO_AC_CAP, {"d_M": 8, "len_a": 4, "len_c": 4}),
    refused(("scan", "--kraus", "KRAUS"), RHO_AC_CAP, {"len_a": 6, "len_c": 6}, HALVES_8),
    refused(("scan", "--kraus", "KRAUS", "--save-kraus"), RHO_AC_CAP, {"len_a": 6, "len_c": 6},
            HALVES_8),
    refused(("ensemble", "--case", "golden", "--n", "2"),
            "ValueError: unknown case 'golden'; expected one of ['case1', 'case2', 'case3']"),
    refused(("ensemble", "--case", "2", "--n", "8"), "ValueError: d_M must be even", {"d_M": 3},
            id="ensemble case2 d_M=3"),
    *[
        refused((command,), budget(100_000, 4, INSTANCE_BYTES.get(command, 0)),
                {"d_s": 100_000}, id=f"{command} d_s=100000")
        for command in ("spectrum", "scan", "ensemble", "gapstats", "benchmark")
    ],
    *[
        refused((command, "--n", str(n)),
                budget(3, 4, n * INSTANCE_BYTES[command]), id=f"{command} n={n}")
        for command, n in (("spectrum", 10**8), ("gapstats", 10**10), ("ensemble", 3_579_140))
    ],
    refused(("gapstats", "--n", "16"), budget(3, 40, 16 * 300), {"d_M": 40}),
    # the window's E^n for 59 more region sites, and a 1024 x 1024 rho_AC slice
    refused(("ensemble",), "ValueError: a run at d_s = 3, d_M = 20 holding 300 bytes of instance "
            "results and 490,880,000 bytes of E^n for 59 region sites past one charges "
            "1,426,737,452 bytes, above the 1 GiB memory budget", {"d_M": 20, "len_c": 60}),
    refused(("scan",), "ValueError: a run at d_s = 2, d_M = 8 holding 1,703,936 bytes of E^n for "
            "8 region sites past one and 1,174,387,200 bytes of 1024 x 1024 rho_AC charges "
            "1,202,354,688 bytes, above the 1 GiB memory budget",
            {"d_s": 2, "d_M": 8, "len_a": 5, "len_c": 5}),
    refused(("scan", "--kraus", "KRAUS"), "ValueError: Kraus file {kraus}: canonical-form "
            "deviation 4.000e+00 exceeds 1.0e-10", kraus=NON_CANONICAL),
    refused(("spectrum", "--kraus", "KRAUS"), f"ValueError: Kraus file {{kraus}}: "
            f"{over_budget(1, 40)}", kraus=IDENTITY_40),
    refused(("gapstats",), GAP_D_M, {"d_M": 1}),
    refused(("benchmark",), GAP_D_M, {"d_M": 1}),
]


def traced(argv):
    """The exit code of ``main(argv)`` and its tracemalloc peak."""
    tracemalloc.start()
    try:
        return main(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv, payload, kraus, message", REFUSED)
def test_a_config_refused_before_any_draw_exits_4_and_writes_nothing(
    tmp_path, capsys, monkeypatch, argv, payload, kraus, message
):
    def no_work(*args):
        raise AssertionError("drew or built E before the refusal")

    for module in (iumps.mps, iumps.experiments):
        monkeypatch.setattr(module, "transfer_operators", no_work)
    monkeypatch.setattr(iumps.mps, "haar_unitaries", no_work)
    config, kraus_file, out_dir = (tmp_path / f for f in ("config.json", "kraus.json", "out"))
    config.write_text(json.dumps(payload))
    if kraus is not None:
        kraus_file.write_text(kraus)
    argv = [str(kraus_file) if a == "KRAUS" else a for a in argv]
    code, peak = traced([*argv, "--config", str(config), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == f"invalid input: {message.format(kraus=kraus_file, config=config)}\n"
    assert not out_dir.exists()
    assert peak < 1e6, f"{peak / 1e6:.2f} MB"


@pytest.mark.parametrize(
    "command, payload, limit",
    [
        ("spectrum", {}, 445_803),
        ("spectrum", {"d_M": 8}, 109_058),
        ("gapstats", {}, 3_566_431),
        ("ensemble", {}, 3_566_431),
    ],
    ids=["spectrum", "spectrum d_M=8", "gapstats", "ensemble"],
)
def test_the_instance_limit_is_the_memory_budget_share(
    tmp_path, handled, capsys, command, payload, limit
):
    """Each instance-counting command takes as many instances as fit in the
    1 GiB budget besides the run's own charge, far above the documented runs
    (ensemble 60000, gapstats 20000), and refuses one instance more;
    spectrum's share grows with d_M^2."""
    d_m = payload.get("d_M", 4)
    share = SPECTRUM_ROW_BYTES * d_m**2 if command == "spectrum" else INSTANCE_BYTES[command]
    assert (iumps.mps.MEMORY_BUDGET - iumps.mps.run_charge(3, d_m)) // share == limit
    assert run_config(tmp_path, command, {**payload, "n_instances": limit}) == 0
    assert run_config(tmp_path, command, {**payload, "n_instances": limit + 1}) == 4
    err = capsys.readouterr().err
    assert err == f"invalid input: ValueError: {over_budget(3, d_m, (limit + 1) * share)}\n"
    assert [config.n_instances for config in handled] == [limit]


def test_a_spectrum_run_peaks_under_its_instance_envelope(tmp_path):
    """spectrum solves GAP_CHUNK instances at a time, keeps only their rows
    and writes them line by line, so 512 instances at the defaults peak
    under 1 MB plus 512 times the bytes per instance the budget charges
    them, 150 d_M^2 (measured 1.6 MB; 2.3 MB when the file's whole text was
    built before writing, and holding every instance's E took 24 kB each)."""
    argv = ["spectrum", "--case", "1", "--n", "512", "--seed", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6 + 512 * SPECTRUM_ROW_BYTES * 4**2, f"{peak / 1e6:.2f} MB"


@pytest.mark.parametrize("command", ["spectrum", "gapstats"])
def test_a_failing_spectrum_is_named_by_its_instance(tmp_path, capsys, monkeypatch, command):
    """A chunk whose stacked solve fails is redone one instance at a time, and
    the error names the failing instance, 17, not its place in its chunk."""
    import iumps.experiments

    bad = iumps.mps.sample_case1(3, 4, [RandomStream(0, 17)])[0]
    transfer_operators = iumps.mps.transfer_operators

    def breaking_17(matrices):
        e = transfer_operators(matrices)
        for row, kraus in zip(e.reshape(-1, 16, 16), matrices.reshape(-1, 3, 4, 4)):
            if np.array_equal(kraus, bad):
                row[1, 0] += 1e-6  # E_00 -> Phi(E_00) + 1e-6 E_01, not Hermitian
        return e

    monkeypatch.setattr(iumps.mps, "transfer_operators", breaking_17)
    monkeypatch.setattr(iumps.experiments, "transfer_operators", breaking_17)
    assert run(tmp_path / "out", command, "--n", "20") == 2
    err = capsys.readouterr().err
    prefix = "numerical failure: NotHermitian: instance 17: transfer matrix does not preserve "
    assert err.startswith(prefix)
    assert "(matrix" not in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["spectrum", "gapstats"])
def test_a_failing_draw_is_named_by_its_instance(tmp_path, capsys, monkeypatch, command):
    """Instance 19's Haar unitary scaled by 1.01 fails the canonical check,
    in the stacked draw of its chunk (gapstats) or in its own (spectrum):
    the draw is redone one instance at a time, and the error names 19."""
    haar_unitaries = iumps.mps.haar_unitaries

    def breaking_19(dim, streams):
        scale = [1.01 if stream.stream_index == 19 else 1.0 for stream in streams]
        return haar_unitaries(dim, streams) * np.array(scale)[:, None, None]

    monkeypatch.setattr(iumps.mps, "haar_unitaries", breaking_19)
    assert run(tmp_path / "out", command, "--n", "40") == 4
    assert capsys.readouterr().err == (
        "invalid input: ValueError: instance 19: "
        "canonical-form deviation 2.010e-02 exceeds 1.0e-10\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.fixture
def charged(monkeypatch):
    """The charge of each run ``cli._check_run`` passes to ``check_case``."""
    check_case, charges = cli.check_case, []

    def recorded(case_tag, d_s, d_m, held=None):
        charges.append(iumps.mps.run_charge(d_s, d_m, sum((held or {}).values())))
        check_case(case_tag, d_s, d_m, held)

    monkeypatch.setattr(cli, "check_case", recorded)
    return charges


def test_each_command_peaks_under_its_charge_at_d_m_12(tmp_path, charged):
    """The memory model, checked rather than guessed: at d_M = 12 each
    command exits 0 with a tracemalloc peak under what ``mps._check_dims``
    charges its run, its dimensions and its instances' results."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"d_M": 12}))
    for argv in (
        ("ensemble", "--n", "4"),
        ("scan", "--case", "1"),
        ("scan", "--case", "2"),
        ("gapstats", "--n", "16"),
        ("spectrum", "--n", "16"),
        ("bound",),
    ):
        charged.clear()
        code, peak = traced([*argv, "--config", str(config), "--out", str(tmp_path / argv[0])])
        assert code == 0 and len(charged) == 1, argv
        assert peak < charged[0], f"{argv}: {peak / 1e6:.1f} MB above {charged[0] / 1e6:.1f} MB"


@pytest.mark.parametrize(
    "argv, payload",
    [
        (("ensemble", "--n", "4"), {"d_M": 8, "len_c": 60}),
        (("scan", "--case", "1"), {"d_M": 8, "len_a": 2, "len_c": 3}),
    ],
    ids=["ensemble len_c=60", "scan len_a=2 len_c=3"],
)
def test_longer_regions_peak_under_their_charge(tmp_path, charged, argv, payload):
    """Above the charge of |A| = |C| = 1 (46.5, 48.7 MB against 26.8 MB), and
    under the charge of the window's E^n for the sites past one and the scan's
    243 x 243 rho_AC slice besides."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    code, peak = traced([*argv, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 0 and len(charged) == 1
    assert iumps.mps.run_charge(3, 8, 1200) < peak < charged[0], f"{peak / 1e6:.1f} MB"
