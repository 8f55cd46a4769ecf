"""The ten reference CLI runs against their golden outputs in ``tests/golden/``.

Each run is redone in process (``golden/regenerate.py::capture``) and held to
the goldens by these rules:

- exit codes, stderr, the file set, and every count that cannot flip (ids,
  eigen-indices, ranks, support flags, instance and skip counts) match
  exactly, and so does all text outside the numbers of stdout;
- a QCMI or QMI matches within ``QCMI_ATOL``, and a curve's f within what
  that allows of ln(QCMI) / q;
- a fitted rate at an unchanged ``b_max`` matches within ``RATE_ATOL``;
- a ``b_max`` may differ by one point (2 sites) only where the QCMI at the
  |B| that flipped lies within ``FLOOR_BAND`` of the 10^-k floor, and a
  curve may then gain or lose that one point;
- a histogram count may move only by points within ``EDGE_BAND`` of a y edge
  2j, or by the points of an instance whose ``b_max`` flipped;
- every other number matches within ``RTOL`` relative (absolute below 1),
  plus one unit of its last printed digit for numbers printed short.

The tolerances come from the noise measured, over every curve of the four
ensembles and the two scans, when the S(n) solve stopped symmetrising its
input (eigvalsh then reads the checked matrix's lower triangle as it is):
S(n) moved by at most 1.8e-15; a QCMI by at most 4.4e-15 (2.5e-3 relative,
near the 1e-12 floor), the printed scan's by 1.6e-15 and the QMI not at
all; a rate at an unchanged b_max by at most 8.2e-5 (the fit's last points
sit near the floor); a shifted y by at most 2.6e-3.  One b_max flipped:
instance 52 of the 500-instance run, whose QCMI at |B| = 32 was 1.000089e-12.
No other number moved.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter

import pytest

import iumps.experiments
from golden.regenerate import DERIVED, GOLDEN_DIR, RUNS, capture
from iumps import RandomStream, build_instance, qcmi, scan_instance

# A QCMI sums four S(n): at the measured 1.8e-15 each that is at most
# 7.2e-15, and 1e-14 leaves a margin of 1.4 on it (2.3 on the measured 4.4e-15).
QCMI_ATOL = 1e-14
# The measured 8.2e-5, with a margin of 2.4.
RATE_ATOL = 2e-4
# The only b_max flip seen was at 1.000089e-12 against the 1e-12 floor.
FLOOR_BAND = 1e-14
# A y within this of an edge 2j may change bins: the measured 2.6e-3, with a
# margin of 3.8.
EDGE_BAND = 1e-2
# What the entropy solve does not feed, and what the text prints, moved by
# nothing; this allows other builds their roundoff.
RTOL = 1e-12

EXACT_COLUMNS = {"instance_id", "eig_index", "is_peripheral", "rank", "b_len", "i", "j", "count"}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def _close(new, old, atol: float) -> bool:
    return new is None and old is None or (
        new is not None and old is not None and abs(new - old) <= atol
    )


def _rclose(new, old) -> bool:
    return _close(new, old, RTOL * max(1.0, abs(old or 0.0)))


def _printed_unit(token: str) -> float:
    """One unit of the last digit ``token`` prints."""
    mantissa, _, exponent = token.lower().partition("e")
    return 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))


def _assert_text(new: list[str], old: list[str], label: str) -> None:
    assert len(new) == len(old), f"{label}: {len(new)} lines, golden {len(old)}"
    for n, (a, b) in enumerate(zip(new, old)):
        assert NUMBER.split(a) == NUMBER.split(b), f"{label} line {n}: {a!r} vs {b!r}"
        for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
            if any(c in y.lower() for c in ".e"):
                tol = RTOL * max(1.0, abs(float(y))) + _printed_unit(y)
                assert abs(float(x) - float(y)) <= tol, f"{label} line {n}: {x} vs {y}"
            else:
                assert x == y, f"{label} line {n}: {x} vs {y}"


def _assert_json(new, old, label: str) -> None:
    if isinstance(old, dict):
        assert isinstance(new, dict) and new.keys() == old.keys(), label
        for key in old:
            _assert_json(new[key], old[key], f"{label}.{key}")
    elif isinstance(old, list):
        assert isinstance(new, list) and len(new) == len(old), label
        for n, (a, b) in enumerate(zip(new, old)):
            _assert_json(a, b, f"{label}[{n}]")
    elif isinstance(old, float) and not isinstance(new, bool):
        assert isinstance(new, (int, float)) and _rclose(new, old), f"{label}: {new} vs {old}"
    else:
        assert type(new) is type(old) and new == old, f"{label}: {new!r} vs {old!r}"


def _assert_table(new: dict, old: dict, label: str) -> None:
    """Every column in ``EXACT_COLUMNS`` exactly, every other within ``RTOL``."""
    assert new["header"] == old["header"] and len(new["rows"]) == len(old["rows"]), label
    for row_new, row_old in zip(new["rows"], old["rows"]):
        for col, a, b in zip(old["header"], row_new, row_old):
            ok = a == b if col in EXACT_COLUMNS else _rclose(a, b)
            assert ok, f"{label} {col}: {a} vs {b} in row {row_old}"


def _assert_curve(new: dict, old: dict, k: int) -> None:
    """A scan's ``curve_0.csv``: the QMI and QCMI within ``QCMI_ATOL``, f
    within what that allows of ln(QCMI) / q, the bound within ``RTOL``; one
    trailing point may come or go where its QCMI lies within ``FLOOR_BAND``
    of the floor."""
    assert new["header"] == old["header"] == ["b_len", "qmi", "qcmi", "f", "bound"]
    rows_new, rows_old = new["rows"], old["rows"]
    assert abs(len(rows_new) - len(rows_old)) <= 1, "b_max moved by more than one point"
    for b_len, qc in (r[:3:2] for r in (rows_new[len(rows_old):] or rows_old[len(rows_new):])):
        assert abs(qc - 10.0**-k) <= FLOOR_BAND, f"b_max flipped at |B| = {b_len}, QCMI {qc}"
    for (b, qmi, qc, f, bound), (b0, qmi0, qc0, f0, bound0) in zip(rows_new, rows_old):
        assert b == b0
        assert _close(qmi, qmi0, QCMI_ATOL) and _close(qc, qc0, QCMI_ATOL), f"|B| = {b}"
        q = math.log(qc0) / f0
        f_tol = QCMI_ATOL / (qc0 - QCMI_ATOL) / abs(q) + 1e-15 * abs(f0)
        assert abs(f - f0) <= f_tol, f"f at |B| = {b}: {f} vs {f0}"
        assert _rclose(bound, bound0), f"bound at |B| = {b}"


def _cell(x: float, y: float) -> tuple[int, int] | str:
    """The histogram cell of a shifted point, or "out": bins (-(2i+1),
    -(2i-1)) x [2j, 2j+2), i and j below ``HISTOGRAM_BINS``."""
    i, j = int(round(-x / 2.0)), math.floor(y / 2.0)
    bins = iumps.experiments.HISTOGRAM_BINS
    return (i, j) if 0 <= i < bins and 0 <= j < bins else "out"


def _cells(x: float, y: float) -> set:
    """The cells a shifted point may fall in when its y moves by up to
    ``EDGE_BAND``."""
    return {_cell(x, y + dy) for dy in (-EDGE_BAND, 0.0, EDGE_BAND)}


def _assert_ensemble(new: dict, old: dict, curves: list) -> None:
    """rates.csv row by row, the b_max flip rule, the histogram within the
    moves its near-edge and flipped points allow, and the summary's counts."""
    files_new, files_old = new["files"], old["files"]
    summary, summary_old = files_new["summary.json"], files_old["summary.json"]
    config = summary["config"]
    _assert_json(
        {k: v for k, v in summary.items() if k not in ("out_of_range", "total_shifted")},
        {k: v for k, v in summary_old.items() if k not in ("out_of_range", "total_shifted")},
        "summary.json",
    )
    rates, rates_old = files_new["rates.csv"], files_old["rates.csv"]
    assert rates["header"] == rates_old["header"] == [
        "instance_id", "nu_gap", "b_max", "rate", "n_points"
    ]
    assert len(rates["rows"]) == len(rates_old["rows"]) == len(curves)
    flipped, flipped_points = set(), Counter()  # the flipped golden points per x column
    for (i, nu, b_max, rate, n_pts), (i0, nu0, b_max0, rate0, n_pts0) in zip(
        rates["rows"], rates_old["rows"]
    ):
        assert i == i0 and _rclose(nu, nu0), f"instance {i}"
        assert n_pts == b_max // 2 and n_pts0 == b_max0 // 2
        if b_max == b_max0:
            assert _close(rate, rate0, RATE_ATOL), f"instance {i}: rate {rate} vs {rate0}"
            continue
        assert abs(b_max - b_max0) == 2, f"instance {i}: b_max {b_max} vs {b_max0}"
        mps = build_instance(config["case_tag"], config["d_s"], config["d_M"],
                             RandomStream(config["master_seed"], i))
        scan_instance(mps, config["len_a"], config["len_c"], config["b_max_limit"], config["k"])
        at = max(b_max, b_max0)
        qc = qcmi(mps, config["len_a"], at, config["len_c"])
        assert abs(qc - 10.0 ** -config["k"]) <= FLOOR_BAND, f"instance {i} flipped at {at}: {qc}"
        flipped.add(i)
        flipped_points.update(range(n_pts0))
    assert summary["total_shifted"] == sum(r[4] for r in rates["rows"])
    assert summary_old["total_shifted"] == sum(r[4] for r in rates_old["rows"])

    # the new run's histogram is the binning of the points its curves shifted
    shifted = [iumps.experiments.shift_graph(curve) for curve in curves]
    hist = {(i, j): c for i, j, c in files_new["histogram.csv"]["rows"]}
    hist["out"] = summary["out_of_range"]
    assert Counter(hist) == Counter(_cell(x, y) for pts in shifted for x, y in pts)
    # each golden count lies between the new points that stay in its cell
    # and those plus every point that may have moved into it
    firm, loose = Counter(), Counter()
    for row, pts in zip(rates["rows"], shifted):
        if row[0] not in flipped:  # a flipped instance's points are free
            for x, y in pts:
                cells = _cells(x, y)
                (firm if len(cells) == 1 else loose).update(cells)
    hist_old = {(i, j): c for i, j, c in files_old["histogram.csv"]["rows"]}
    hist_old["out"] = summary_old["out_of_range"]
    for cell in set(hist_old) | set(firm) | set(loose):
        free = sum(flipped_points.values()) if cell == "out" else flipped_points[cell[0]]
        got = hist_old.get(cell, 0)
        assert firm[cell] <= got <= firm[cell] + loose[cell] + free, f"histogram cell {cell}"

    for name, keep in (("cdf_all.csv", lambda r: True),
                       ("cdf_full.csv", lambda r: r[2] == config["b_max_limit"])):
        table = files_new[name]
        assert table["header"] == ["rate"]
        expected = sorted(r[3] for r in rates["rows"] if r[3] is not None and keep(r))
        assert [r[0] for r in table["rows"]] == expected, name


@pytest.mark.parametrize("name", sorted(RUNS))
def test_reference_run_matches_its_golden_output(name, monkeypatch):
    old = _golden(name)
    assert old["argv"] == RUNS[name]
    curves = []
    shift_graph = iumps.experiments.shift_graph

    def recorded(curve):
        curves.append(curve)
        return shift_graph(curve)

    monkeypatch.setattr(iumps.experiments, "shift_graph", recorded)
    new = capture(RUNS[name])
    monkeypatch.undo()
    assert new["exit"] == old["exit"]
    assert new["stderr"] == old["stderr"]
    _assert_text(new["stdout"], old["stdout"], "stdout")
    assert set(new["files"]) == set(old["files"]) | (set(DERIVED) if curves else set())
    if curves:
        _assert_ensemble(new, old, curves)
    elif "curve_0.csv" in old["files"]:
        _assert_curve(new["files"]["curve_0.csv"], old["files"]["curve_0.csv"], k=12)
    else:
        for file, golden in old["files"].items():
            if "header" in golden:
                _assert_table(new["files"][file], golden, file)
            else:
                _assert_json(new["files"][file], golden, file)
