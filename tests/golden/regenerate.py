"""Regenerate the golden outputs of the ten reference CLI runs.

Usage, from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each run in ``RUNS`` goes through ``iumps.cli.main`` in process, in a
temporary output directory, and is written to ``tests/golden/<name>.json`` in
compact form: its exit code, its stdout and stderr lines, and every output
file parsed (a CSV as its header and rows, numbers as JSON numbers and an
empty cell as null; a JSON file as its object, without the run's own
``output_dir``).  ``cdf_all.csv`` and ``cdf_full.csv`` are left out: they are
the sorted rates of ``rates.csv``, all of them and those at ``b_max_limit``,
which ``tests/test_golden.py`` checks on each rerun.

``tests/test_golden.py`` reruns the same runs and compares them with these
files.  Regenerate them only in a change that says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import iumps.cli

GOLDEN_DIR = Path(__file__).resolve().parent

RUNS = {
    "ensemble_case1_n40_seed7": ["ensemble", "--case", "1", "--n", "40", "--seed", "7"],
    "ensemble_case1_n500_seed20231": ["ensemble", "--case", "1", "--n", "500", "--seed", "20231"],
    "ensemble_case2_n12_seed5": ["ensemble", "--case", "2", "--n", "12", "--seed", "5"],
    "ensemble_case3_n12_seed9_bmax20": [
        "ensemble", "--case", "3", "--n", "12", "--seed", "9", "--b-max", "20",
    ],
    "scan_case2_seed5": ["scan", "--case", "2", "--seed", "5"],
    "scan_golden": ["scan", "--case", "a"],
    "spectrum_case1_n5_seed7": ["spectrum", "--case", "1", "--n", "5", "--seed", "7"],
    "gapstats_n200_seed7": ["gapstats", "--n", "200", "--seed", "7"],
    "bound_case2_seed5": ["bound", "--case", "2", "--seed", "5"],
    "benchmark": ["benchmark"],
}
# Derived from rates.csv, so not stored.
DERIVED = ("cdf_all.csv", "cdf_full.csv")


def _parse(text: str) -> int | float | str | None:
    if text == "":
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read(path: Path) -> dict | list:
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        payload.get("config", {}).pop("output_dir", None)
        return payload
    header, *rows = csv.reader(io.StringIO(path.read_text()))
    return {"header": header, "rows": [[_parse(c) for c in row] for row in rows]}


def capture(argv: list[str]) -> dict:
    """One run of ``iumps <argv>`` in process: exit code, stdout and stderr
    lines, and every file it wrote, parsed."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = iumps.cli.main([*argv, "--out", tmp])
        files = {p.name: _read(p) for p in sorted(Path(tmp).iterdir())}
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue().splitlines(),
        "stderr": err.getvalue().splitlines(),
        "files": files,
    }


def compact(run: dict) -> dict:
    """``run`` without the files derived from others."""
    files = {name: v for name, v in run["files"].items() if name not in DERIVED}
    return {**run, "files": files}


def main() -> int:
    for name, argv in RUNS.items():
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(compact(capture(argv)), separators=(",", ":")) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
