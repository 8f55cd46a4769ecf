"""The benchmark's workloads: CLI requests generated from a seed, and their output checks.

A request is one or more ``iumps`` CLI invocations, run in-process through
``iumps.cli.main``.  Its CLI master seeds come from the workload seed and the
request index only, so a seed always gives the same requests.  Every request
writes into an emptied output directory; the checks read the files back.

Why these workloads:

- ``ensemble-case1`` is the paper's gating study (Case 1, d_s=3, d_M=4,
  |A|=|C|=1, |B|<=40, k=12).  Its time is mostly the entropy layer, and it is
  the only workload that goes through ``run_ensemble``.
- ``gapstats`` covers sampling and the general eigensolve only; it never
  touches the entropy layer, so an entropy optimisation should leave it
  unchanged.
- ``scan-case2`` is a closed loop of single-instance ``scan`` + ``bound``
  requests on block-diagonal Case-2 instances: a doubly degenerate fixed point
  (the oblique-projector path of ``fixed_point``), support rank at most 8 of
  16, longer curves, the bounds layer and the per-request CLI cost.  It
  bypasses ``run_ensemble``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import rebind, restore

SSA_SLACK = 1e-9
BRUTE_FORCE_TOL = 1e-9
BRUTE_FORCE_MAX_N = 5
NU1_TOL = 1e-12
SEED_STRIDE = 1_000_000


def cli_seed(seed: int, request: int) -> int:
    """CLI master seed of request ``request`` of a run with workload seed ``seed``."""
    return seed * SEED_STRIDE + request


def failure_kind(code) -> str:
    """Exception type name, or ``exit_<n>`` for an exit code the CLI mapped an error to."""
    return code if isinstance(code, str) else f"exit_{code}"


@dataclass
class Outcome:
    """What one request did: instances attempted and failed, and output checks."""

    attempted: int = 0
    failed: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    check_errors: list[str] = field(default_factory=list)
    bytes_written: int = 0
    digest: str = ""

    def fail(self, kind: str, count: int = 1) -> None:
        self.failed += count
        self.failures[kind] = self.failures.get(kind, 0) + count

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.check_errors.append(message)


class QcmiProbe:
    """Lowest QCMI value evaluated since the last ``take``.

    Wraps every binding of ``iumps.entropy.qcmi``.  It adds one Python call
    per QCMI evaluation, well under 0.1% of its cost, and records nothing
    else, so it stays installed in the untraced run.
    """

    def __init__(self, qcmi) -> None:
        self.lowest = math.inf

        def probed(*args, **kwargs):
            value = qcmi(*args, **kwargs)
            if value < self.lowest:
                self.lowest = value
            return value

        self._undo = rebind(qcmi, probed)

    def close(self) -> None:
        restore(self._undo)

    def take(self) -> float:
        lowest, self.lowest = self.lowest, math.inf
        return lowest


class Workload:
    name: str
    instances_per_request: int
    requests_per_block: int  # requests timed between two reference-kernel runs
    traced_requests: int  # fixed work of one traced pass

    def __init__(self, iumps_mod, out_dir: Path, probe: QcmiProbe) -> None:
        self.iumps = iumps_mod
        self.out = out_dir
        self.probe = probe

    def argvs(self, seed: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, seed: int, stdout: list[str], codes: list, outcome: Outcome) -> None:
        raise NotImplementedError

    def run(self, seed: int, tracer=None) -> tuple[float, Outcome]:
        """Run one request; return the time spent inside the CLI and its outcome.

        Only the CLI calls are timed, and only they are traced when an
        installed ``tracer`` is given, not the preparation of the output
        directory or the checks.
        """
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        main = self.iumps.cli.main
        error_type = self.iumps.exceptions.IumpsError
        codes: list = []
        stdout: list[str] = []
        elapsed = 0.0
        self.probe.take()
        for argv in self.argvs(seed):
            buf = io.StringIO()
            recording = tracer.recording() if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with recording, contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(io.StringIO()):
                    codes.append(main(argv))
            except error_type as exc:
                codes.append(type(exc).__name__)
            elapsed += time.perf_counter() - start
            stdout.append(buf.getvalue())
        outcome = Outcome(attempted=self.instances_per_request)
        lowest = self.probe.take()
        outcome.check(
            lowest >= -SSA_SLACK,
            f"strong subadditivity: QCMI {lowest:.3e} < -{SSA_SLACK:.0e} (seed {seed})",
        )
        self.check(seed, stdout, codes, outcome)
        outcome.bytes_written, outcome.digest = self._digest(stdout)
        return elapsed, outcome

    def _digest(self, stdout: list[str]) -> tuple[int, str]:
        """Bytes written to files and stdout, and a SHA-256 over all of them."""
        h = hashlib.sha256()
        size = 0
        for path in sorted(p for p in self.out.rglob("*") if p.is_file()):
            data = path.read_bytes()
            h.update(path.relative_to(self.out).as_posix().encode() + b"\0" + data + b"\0")
            size += len(data)
        for text in stdout:
            data = text.encode()
            h.update(b"stdout\0" + data + b"\0")
            size += len(data)
        return size, h.hexdigest()

    def _read_rows(self, name: str) -> list[list[str]]:
        return [line.split(",") for line in (self.out / name).read_text().splitlines()[1:]]


class EnsembleCase1(Workload):
    name = "ensemble-case1"
    instances_per_request = 8
    requests_per_block = 1
    traced_requests = 4

    def argvs(self, seed):
        return [
            ["ensemble", "--case", "1", "--n", str(self.instances_per_request),
             "--seed", str(seed), "--out", self.out.as_posix()]
        ]

    def check(self, seed, stdout, codes, outcome):
        outcome.check(codes == [0], f"ensemble exit codes {codes} (seed {seed})")
        if codes != [0]:
            outcome.fail(failure_kind(codes[0]), self.instances_per_request)
            return
        summary = json.loads((self.out / "summary.json").read_text())
        for _, message in summary["skipped"]:
            outcome.fail(message.split(":", 1)[0])
        rows = self._read_rows("rates.csv")
        outcome.check(
            summary["n_instances"] == self.instances_per_request
            and summary["n_completed"] + summary["n_skipped"] == self.instances_per_request
            and len(rows) == summary["n_completed"],
            f"ensemble summary and rates.csv disagree (seed {seed})",
        )
        for instance_id, nu_gap, b_max, rate, n_points in rows:
            outcome.check(
                0 < float(nu_gap) < 1
                and int(b_max) % 2 == 0
                and 2 <= int(b_max) <= 40
                and 1 <= int(n_points) == int(b_max) // 2
                and (rate == "" or math.isfinite(float(rate))),
                f"ensemble row {instance_id} out of range (seed {seed})",
            )
        if rows and rows[0][0] == "0":
            self._brute_force(seed, rows[0][1], outcome)

    def _brute_force(self, seed, nu_gap_text, outcome):
        """Instance 0 of the request: S(n), n <= 5, against full diagonalisation."""
        iumps = self.iumps
        mps = iumps.build_instance("case1", 3, 4, iumps.RandomStream(seed, 0))
        outcome.check(
            f"{mps.transfer.nu_gap:.17g}" == nu_gap_text,
            f"ensemble instance 0 rebuilt with another gap (seed {seed})",
        )
        for n in range(1, BRUTE_FORCE_MAX_N + 1):
            dev = abs(iumps.region_entropy(mps, n).entropy - iumps.brute_force_entropy(mps, n))
            outcome.check(
                dev <= BRUTE_FORCE_TOL,
                f"S({n}) differs from brute force by {dev:.3e} (seed {seed})",
            )


class GapStats(Workload):
    name = "gapstats"
    instances_per_request = 200
    requests_per_block = 1
    traced_requests = 4

    def argvs(self, seed):
        return [
            ["gapstats", "--n", str(self.instances_per_request),
             "--seed", str(seed), "--out", self.out.as_posix()]
        ]

    def check(self, seed, stdout, codes, outcome):
        outcome.check(codes == [0], f"gapstats exit codes {codes} (seed {seed})")
        if codes != [0]:
            outcome.fail(failure_kind(codes[0]), self.instances_per_request)
            return
        markers = json.loads((self.out / "gapstats.json").read_text())
        worst = markers["max_one_minus_nu1"]
        outcome.check(worst <= NU1_TOL, f"max |1-|nu1|| = {worst:.3e} (seed {seed})")
        rows = self._read_rows("gapstats.csv")
        outcome.check(
            len(rows) == self.instances_per_request,
            f"gapstats.csv has {len(rows)} rows (seed {seed})",
        )
        columns = list(zip(*[[float(x) for x in row[1:]] for row in rows]))
        for col in columns:
            outcome.check(
                all(math.isfinite(x) and x >= 0 for x in col)
                and all(a <= b for a, b in zip(col, col[1:])),
                f"gapstats.csv column not sorted and finite (seed {seed})",
            )


class ScanCase2(Workload):
    name = "scan-case2"
    instances_per_request = 1
    requests_per_block = 4
    traced_requests = 16

    def argvs(self, seed):
        return [
            ["scan", "--case", "2", "--seed", str(seed), "--out", self.out.as_posix()],
            ["bound", "--case", "2", "--seed", str(seed)],
        ]

    def check(self, seed, stdout, codes, outcome):
        outcome.check(codes == [0, 0], f"scan/bound exit codes {codes} (seed {seed})")
        if codes != [0, 0]:
            outcome.fail(failure_kind(next(c for c in codes if c != 0)))
            return
        constants = json.loads(stdout[1])
        outcome.check(
            0 < constants["nu_gap"] < 1 and constants["big_q"] > 0,
            f"bound constants out of range (seed {seed})",
        )
        rows = self._read_rows("curve_0.csv")
        outcome.check(bool(rows), f"empty curve (seed {seed})")
        for b_len, _qmi, qcmi, _f, bound in rows:
            # the bound command succeeded on this instance, so scan wrote every bound
            outcome.check(
                bound != "" and float(bound) >= float(qcmi) > 0,
                f"bound < qcmi or missing at |B|={b_len} (seed {seed})",
            )


WORKLOADS = {w.name: w for w in (EnsembleCase1, GapStats, ScanCase2)}
