"""Self-check of the benchmark itself.

For every workload, runs ``bench/run.py --trace 1`` twice with the same seed
and requires identical traced counts (``*.calls``, ``*.matmuls``,
``*.reuse_ratio``, ``*_per_instance`` and the other counts) and identical
output digests; requires the printed metric names to match ``BENCHMARK.json``
for both ``--trace`` settings; and requires a copy holding only
``BENCHMARK.json`` and the benchmark's files to fail without printing a
result.  Everything it writes stays under ``.bench_work/``.  Run from the
repository root:

    python3 bench/selfcheck.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SECONDS = "2"
SEED = "7"
COUNT_UNITS = {"count", "ratio", "bytes"}


def run(cwd: Path, spec: dict, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", SEED, "--seconds", SECONDS,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"benchmark exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = last_json(run(ROOT, spec, workload, 0))
        if set(untraced["metrics"]) != {m["name"] for m in spec["end_to_end"]}:
            problems.append(f"{workload}: --trace 0 metrics differ from end_to_end")
        records = []
        for _ in range(2):
            result = last_json(run(ROOT, spec, workload, 1))
            if set(result["metrics"]) != {m["name"] for m in spec["per_layer"]}:
                problems.append(f"{workload}: --trace 1 metrics differ from per_layer")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: correct={result['correct']} failed={result['failed']}")
            record = json.loads(
                (WORK / "results" / f"{workload}-seed{SEED}-trace1.json").read_text()
            )
            records.append({
                "counts": {n: m["value"] for n, m in result["metrics"].items()
                           if m["unit"] in COUNT_UNITS and not n.startswith("trace.overhead")},
                "digests": (record["request0_digest"], record["request_digests"]),
            })
        for key in ("counts", "digests"):
            if records[0][key] != records[1][key]:
                problems.append(f"{workload}: {key} differ between two same-seed traced runs")
        print(f"{workload}: {len(records[0]['counts'])} counts compared", flush=True)

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a copy without the sources did not fail cleanly")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
