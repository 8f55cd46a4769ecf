"""Benchmark of the ``iumps`` CLI on three seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload ensemble-case1 --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each one is there):
``ensemble-case1``, ``gapstats`` and ``scan-case2``.  Each run imports
``iumps`` from ``src/`` of the checkout, runs the golden-instance
``iumps benchmark`` once as a correctness gate, runs one warm-up request,
then measures the workload for ``--seconds`` seconds, checking the outputs of
every request.  A final re-run of the warm-up request must give
byte-identical output files.

``--trace 0`` reports the end-to-end metrics:

- ``instances_per_ref_unit``: instances completed per unit of time of a
  fixed numpy-only reference kernel.  The kernel runs between timing blocks
  in the same process, and each block's time is divided by the mean of the
  kernel times on either side of it, which cancels most machine drift.
- ``setup_s``: time from a fresh interpreter's first statement to
  ``iumps.cli`` imported and its parser built, divided by a fresh
  interpreter's time to import numpy, taken next to it; the median over 21
  such pairs after the timed loop, in seconds of a machine on which numpy
  imports in 0.1 s.
- ``peak_rss_mb``: peak resident memory of the benchmark process, read when
  the timed loop ends.

Raw ``instances_per_s`` (instances per second of CLI time) goes to the results
file only: machine drift moves it by more than any usable bound.

``--trace 1`` reports per-layer metrics from traced passes over a fixed set of
requests, alternating with untraced passes over the same requests until the
time is up.  Counts come from the work itself and must repeat exactly in
every pass.  Self times (``*.self_ref``) are a pass's self seconds divided by
the time of the reference kernel run next to it, medians over passes, so they
cancel machine drift and do not depend on the other layers.
``trace.overhead_ratio`` is traced throughput divided by untraced throughput.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of the run
(environment, per-type failures, digests, every metric) is written to
``.bench_work/results/``; the spans of the last traced pass to
``.bench_work/<workload>/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from reference import ReferenceKernel
from spans import LAYERS, Tracer, counts, layer_self_times, self_times
from workloads import WORKLOADS, QcmiProbe, cli_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")
# Set-up is timed in fresh interpreters, each iumps one paired with a
# reference one that imports numpy alone, which of the two goes first
# alternating.  setup_s is the median ratio of the two times, in seconds of a
# machine on which the reference import takes REFERENCE_IMPORT_S.  On a shared
# 2-core Xeon the median raw wall time moved by up to 1.44x between groups of
# 21 samples, the median ratio by up to 1.05x.
SETUP_REPEATS = 21
REFERENCE_IMPORT_S = 0.1
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "{}\n"
    "print(repr(time.perf_counter() - t))\n"
)
IUMPS_SETUP = SETUP_CODE.format("import iumps.cli; iumps.cli.build_parser()")
REFERENCE_SETUP = SETUP_CODE.format("import numpy")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

clock = time.perf_counter


def environment() -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "") + " " + str(deps[k].get("version", "")) for k in ("blas", "lapack")}
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = {}
    uname = os.uname()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "machine": uname.machine,
        "kernel": uname.release,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def import_iumps():
    sys.path.insert(0, str(SRC))
    import iumps
    import iumps.cli

    if Path(iumps.__file__).resolve().parent != SRC / "iumps":
        raise SystemExit(f"imported iumps from {iumps.__file__}, not from {SRC}")
    return iumps


def setup_ratio(reference_first: bool) -> float:
    """A fresh interpreter's time to import ``iumps.cli`` and build its parser,
    divided by a fresh interpreter's time to import numpy."""
    order = (REFERENCE_SETUP, IUMPS_SETUP) if reference_first else (IUMPS_SETUP, REFERENCE_SETUP)
    times = {}
    for code in order:
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times[code] = float(proc.stdout.strip().splitlines()[-1])
    return times[IUMPS_SETUP] / times[REFERENCE_SETUP]


def golden_gate(iumps) -> bool:
    """``iumps benchmark`` on the golden instance must exit 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        return iumps.cli.main(["benchmark"]) == 0


class Tally:
    """Instances attempted and failed, failures by type, output-check errors."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.check_errors: list[str] = []
        self.bytes_written = 0

    def add(self, outcome) -> int:
        """Add one request's outcome; return its completed instances."""
        failed = outcome.attempted if outcome.check_errors else outcome.failed
        self.attempted += outcome.attempted
        self.failed += failed
        for kind, n in outcome.failures.items():
            self.failures[kind] = self.failures.get(kind, 0) + n
        self.check_errors += outcome.check_errors
        self.bytes_written += outcome.bytes_written
        return outcome.attempted - failed


def measure(workload, seed: int, seconds: float, tally: Tally) -> dict:
    """Timed loop: blocks of requests, the reference kernel between blocks.

    Set-up samples are taken after the loop, so the loop measures requests
    only.
    """
    ref = ReferenceKernel()
    ref.run()
    blocks = []  # (instances completed, CLI seconds, reference seconds around the block)
    request = 1  # request 0 is the warm-up
    ref_before = ref.run()
    deadline = clock() + seconds
    while clock() < deadline:
        instances = 0
        work = 0.0
        for _ in range(workload.requests_per_block):
            elapsed, outcome = workload.run(cli_seed(seed, request))
            request += 1
            work += elapsed
            instances += tally.add(outcome)
        ref_after = ref.run()
        blocks.append((instances, work, (ref_before + ref_after) / 2))
        ref_before = ref_after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = [setup_ratio(i % 2 == 1) for i in range(SETUP_REPEATS)]
    instances = sum(b[0] for b in blocks)
    work = sum(b[1] for b in blocks)
    return {
        "requests": request - 1,
        "blocks": blocks,
        "setup_ratios": setup,
        # raw throughput: recorded, not gated, because machine drift moves it
        # by more than any usable bound between runs
        "instances_per_s": instances / work,
        "metrics": {
            "instances_per_ref_unit": (instances / sum(b[1] / b[2] for b in blocks), "inst/ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (REFERENCE_IMPORT_S * statistics.median(setup), "s"),
        },
    }


def traced(workload, seed: int, seconds: float, tally: Tally, spans_path: Path) -> dict:
    seeds = [cli_seed(seed, j) for j in range(workload.traced_requests)]
    ref = ReferenceKernel()
    ref.run()
    passes = []
    digests = None
    errors: list[str] = []
    deadline = clock() + seconds
    while True:
        untraced_s = 0.0
        for s in seeds:
            elapsed, outcome = workload.run(s)
            untraced_s += elapsed
            tally.add(outcome)
        tracer = Tracer()
        pass_tally = Tally()
        pass_digests = []
        ref_before = ref.run()
        tracer.install()
        try:
            traced_s = 0.0
            for s in seeds:
                elapsed, outcome = workload.run(s, tracer)
                traced_s += elapsed
                pass_tally.add(outcome)
                tally.add(outcome)
                pass_digests.append(outcome.digest)
        finally:
            tracer.uninstall()
        record = {
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "ref_s": (ref_before + ref.run()) / 2,
            "self": self_times(tracer.spans),
            "counts": {
                **counts(tracer.spans),
                "cli.bytes_written": pass_tally.bytes_written,
                "experiments.failed": pass_tally.failed,
                "trace.instances": pass_tally.attempted,
            },
            "failures": pass_tally.failures,
        }
        if passes and record["counts"] != passes[0]["counts"]:
            errors.append(f"traced counts differ between passes 1 and {len(passes) + 1}")
        if digests is not None and pass_digests != digests:
            errors.append(f"outputs differ between passes 1 and {len(passes) + 1}")
        digests = pass_digests
        passes.append(record)
        if clock() >= deadline:
            break
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    tally.check_errors += errors

    # Self time per function and per layer, in seconds and in units of the
    # reference kernel run next to the pass, which cancels machine drift the
    # way instances_per_ref_unit does; medians over passes.
    for p in passes:
        p["self"].update(layer_self_times(p["self"]))
    keys = sorted({k for p in passes for k in p["self"]})
    self_s = {k: statistics.median(p["self"].get(k, 0.0) for p in passes) for k in keys}
    self_ref = {
        k: statistics.median(p["self"].get(k, 0.0) / p["ref_s"] for p in passes) for k in keys
    }
    c = passes[0]["counts"]
    metrics: dict[str, tuple[float, str]] = {}
    for name in (*PER_LAYER_SELF, *LAYERS):
        metrics[f"{name}.self_ref"] = (self_ref.get(name, 0.0), "ref")
    for name, unit in PER_LAYER_COUNTS:
        metrics[name] = (c[name], unit)
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["untraced_s"] / p["traced_s"] for p in passes),
        "ratio",
    )
    metrics["trace.traced_s"] = (statistics.median(p["traced_s"] for p in passes), "s")
    return {
        "passes": len(passes),
        "request_digests": digests,
        "failures_per_pass": passes[0]["failures"],
        "self_s": self_s,
        "self_ref": self_ref,
        "counts_all": c,
        "metrics": metrics,
    }


# Functions whose self time the traced run reports.
PER_LAYER_SELF = (
    "numerics.haar_unitary",
    "numerics.eig_general",
    "numerics.eig_hermitian",
    "numerics.mat_power",
    "mps.build_case",
    "mps.transfer_matrix",
    "mps.fixed_point",
    "entropy.region_entropy",
    "entropy.support_decomposition",
    "entropy.projected_density",
    "entropy.rho_disjoint",
    "entropy.qmi",
    "entropy.qcmi",
    "bounds.jordan_constants",
    "cli.main",
    "experiments.scan_instance",
    "experiments.run_ensemble",
    "experiments.gap_statistics",
)
PER_LAYER_COUNTS = (
    ("numerics.haar_unitary.calls", "count"),
    ("numerics.eig_general.calls", "count"),
    ("numerics.eig_hermitian.calls", "count"),
    ("numerics.mat_power.calls", "count"),
    ("numerics.mat_power.matmuls", "count"),
    ("mps.fixed_point.eig_calls", "count"),
    ("entropy.region_entropy.calls", "count"),
    ("entropy.region_entropy.reuse_ratio", "ratio"),
    ("bounds.jordan_constants.calls", "count"),
    ("bounds.decay_bound.calls", "count"),
    ("cli.bytes_written", "bytes"),
    ("experiments.qcmi_evals_per_instance", "count"),
    ("experiments.points_per_instance", "count"),
    ("experiments.failed", "count"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "iumps" / "__init__.py").is_file():
        print(f"no iumps sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    iumps = import_iumps()
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": environment()}

    gate_ok = golden_gate(iumps)
    record["golden_gate"] = gate_ok

    out_dir = WORK / args.workload / "out"
    probe = QcmiProbe(iumps.entropy.qcmi)
    tally = Tally()
    try:
        workload = WORKLOADS[args.workload](iumps, out_dir, probe)
        _, warm = workload.run(cli_seed(args.seed, 0))
        tally.add(warm)
        if args.trace:
            result = traced(workload, args.seed, args.seconds, tally,
                            WORK / args.workload / "spans.jsonl")
        else:
            result = measure(workload, args.seed, args.seconds, tally)
        _, rerun = workload.run(cli_seed(args.seed, 0))
    finally:
        probe.close()
    deterministic = rerun.digest == warm.digest
    metrics = result.pop("metrics")
    record.update(result)
    record["request0_digest"] = warm.digest
    record["deterministic"] = deterministic
    record["failures"] = tally.failures
    record["check_errors"] = tally.check_errors[:50]
    correct = gate_ok and deterministic and not tally.check_errors
    record["correct"] = correct
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for err in tally.check_errors[:10]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
