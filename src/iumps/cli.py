"""Command-line entry point with deterministic, reproducible file outputs.

Usage: ``iumps <command> [options]``, the options before or after the command.

All CSV files use '.' as the decimal separator and 17 significant digits for
reals, so 64-bit floats round-trip exactly; repeated runs with identical
config and seed produce byte-identical files.

Exit codes: 0 ok, 1 benchmark failure, 2 numerical failure, 3 degenerate input,
4 invalid configuration or input. Exit 1 ends in one ``benchmark FAILED`` line
on stdout; the others end in a one-line stderr message.
"""

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bounds import jordan_constants, sufficient_b, decay_bound
from .entropy import region_factors
from .exceptions import (
    BenchmarkFailed,
    DegenerateSpectrum,
    EmptyCurve,
    IumpsError,
    NearDegenerate,
    TooLarge,
    Unsupported,
)
from .experiments import (
    GAP_CHUNK,
    analytic_family,
    benchmark_kraus,
    golden_benchmark,
    check_scan_args,
    distinct_magnitudes,
    each_instance,
    gap_statistics,
    run_ensemble,
    scan_instance,
)
from .mps import (
    CASE1,
    CASE2,
    CASE3,
    KrausSet,
    build_case,
    build_iumps,
    check_case,
    spectral_gap,
    transfer_matrices,
    transfer_matrix,
)
from .numerics import RandomStream

EXIT_OK = 0
EXIT_BENCHMARK = 1
EXIT_NUMERICAL = 2
EXIT_DEGENERATE = 3
EXIT_INVALID = 4

# Tolerances of the benchmark's sampled and analytic checks: max |1 - |nu1||
# over 200 Case-1 samples, and the first family's distinct magnitudes.
NU1_TOL = 1e-12
FIRST_FAMILY_TOL = 1e-10

_CASES = {"1": CASE1, "2": CASE2, "3": CASE3, "a": "golden", "golden": "golden"}


class RunConfig(NamedTuple):
    """Flat run configuration; defaults reproduce the standard parameter set."""

    d_s: int = 3
    d_M: int = 4
    len_a: int = 1
    len_c: int = 1
    b_max_limit: int = 40
    k: int = 12
    n_instances: int = 1
    case_tag: str = CASE1
    master_seed: int = 0
    output_dir: str = "."
    kraus_path: str | None = None  # reload an instance instead of sampling
    save_kraus: bool = False  # persist the constructed instance as JSON

    def validate(self) -> None:
        for name, value in zip(self._fields, self):
            kind = RunConfig.__annotations__[name]  # a bool is valid only for a bool field
            if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
                kind = getattr(kind, "__name__", kind)  # "int", or the union "str | None"
                raise ValueError(f"config: {name} must be {kind}, not {value!r}")


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Config file first, then command-line flags on top."""
    base: dict = {}
    if path is not None:
        base = json.loads(Path(path).read_text())
        if not isinstance(base, dict):
            raise ValueError(f"config: {path} must hold a JSON object")
        unknown = sorted(set(base) - set(RunConfig._fields))
        if unknown:
            raise ValueError(f"config: {path}: not a config field: {', '.join(unknown)}")
    base.update({k: v for k, v in overrides.items() if v is not None})
    config = RunConfig(**base)
    config.validate()
    return config


# The RunConfig fields each command reads besides output_dir; a field it does
# not read must keep its default. A fixed instance (--kraus, or --case golden
# where kraus_path is read) is not sampled, so the seed, dimensions and
# instance count are not read; under --kraus neither is case_tag.
_SAMPLING = ("case_tag", "master_seed", "d_s", "d_M")
_INSTANCE = ("kraus_path", "save_kraus")
_SCAN = ("len_a", "len_c", "b_max_limit", "k")
_READS = {
    "spectrum": {*_SAMPLING, "n_instances", *_INSTANCE},
    "scan": {*_SAMPLING, *_INSTANCE, *_SCAN},
    "ensemble": {*_SAMPLING, "n_instances", *_SCAN},
    "bound": {*_SAMPLING, *_INSTANCE, "b_max_limit"},
    "gapstats": {"master_seed", "d_s", "d_M", "n_instances"},
    "benchmark": {"master_seed", "d_s", "d_M", "k"},
}


def _check_run(command: str, config: RunConfig) -> None:
    """Raise ValueError, before ``command`` draws or writes, at a field it
    does not read that is not at its default (every default passes), then at
    the scan fields (``check_scan_args``), the instance count, a sampled
    case (``check_case``), charged its instances' results too."""
    reads, what = _READS[command] | {"output_dir"}, command
    if "kraus_path" in reads and (config.kraus_path is not None or config.case_tag == "golden"):
        reads -= {"master_seed", "d_s", "d_M", "n_instances"}
        if config.kraus_path is not None:
            reads.remove("case_tag")
        what = f"{command} of a fixed instance"
    for name, value in zip(config._fields, config):
        if name not in reads and value != RunConfig._field_defaults[name]:
            raise ValueError(f"{what} does not read {name}, so {name} = {value!r} does not apply")
    check_scan_args(config.len_a, config.len_c, config.b_max_limit, config.k)
    if config.n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    if "d_M" in reads:  # a sampled run
        # Bytes a run holds per instance: spectrum keeps only its instances'
        # d_M^2 rows of spectrum.csv (112-125 B a row over d_M 2-20, written
        # line by line), gapstats and ensemble a few numbers (0.26, 0.3 kB).
        per_instance = {
            "spectrum": 150 * config.d_M**2,
            "ensemble": 300,
            "gapstats": 300,
        }.get(command, 0)
        check_case(config.case_tag, config.d_s, config.d_M, config.n_instances * per_instance)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write(path: Path, lines: list[str]) -> None:
    """The lines, each ended by a newline, written through the open file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.writelines(f"{line}\n" for line in lines)


def _kraus(config: RunConfig, instance_id: int) -> KrausSet:
    """The instance's Kraus set: a ``--kraus`` file, the golden instance, or a
    sampled case; written to ``kraus_<id>.json`` under ``--save-kraus``."""
    if config.kraus_path is not None:
        text = Path(config.kraus_path).read_text()
        try:
            kraus = KrausSet.from_json(text)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"Kraus file {config.kraus_path}: {exc}") from exc
    elif config.case_tag == "golden":
        kraus = benchmark_kraus()
    else:
        stream = RandomStream(config.master_seed, instance_id)
        kraus = build_case(config.case_tag, config.d_s, config.d_M, stream)
    if config.save_kraus:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"kraus_{instance_id}.json").write_text(kraus.to_json() + "\n")
    return kraus


def cmd_spectrum(config: RunConfig) -> int:
    out = Path(config.output_dir)
    rows = ["instance_id,eig_index,re,im,abs,is_peripheral"]
    # solved GAP_CHUNK instances at a time, keeping only their rows; each row
    # carries the bits of its instance's transfer_matrix alone
    for start in range(0, config.n_instances, GAP_CHUNK):
        ids = range(start, min(start + GAP_CHUNK, config.n_instances))
        matrices = np.stack([_kraus(config, i).matrices for i in ids])
        transfers = each_instance(transfer_matrices, matrices, start)
        for i, transfer in zip(ids, transfers):
            peripheral = set(transfer.peripheral_indices.tolist())
            rows += [
                f"{i},{idx},{_fmt(v.real)},{_fmt(v.imag)},{_fmt(abs(v))},{int(idx in peripheral)}"
                for idx, v in enumerate(transfer.spectrum.values)
            ]
        if start == 0:
            first = transfers[0]
    _write(out / "spectrum.csv", rows)
    gap_payload = {"nu_gap": first.nu_gap, "peripheral_count": len(first.peripheral_indices)}
    try:  # instance 0's gap, by the rule of scan and bound
        spectral_gap(first)
    except DegenerateSpectrum as exc:
        # the reason, without what it implies: "...; the gap is undefined"
        gap_payload["error"] = f"degenerate spectrum: {str(exc).partition(';')[0]}"
        raise DegenerateSpectrum(f"instance 0: {exc}") from exc
    finally:
        (out / "gap.json").write_text(json.dumps(gap_payload, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_scan(config: RunConfig) -> int:
    mps = build_iumps(_kraus(config, 0))
    # rho_AC's cap is checked here, before the scan, not after it
    factors = region_factors(mps.kraus, config.len_a, config.len_c)
    curve = scan_instance(mps, config.len_a, config.len_c, config.b_max_limit, config.k, factors)
    try:
        constants = jordan_constants(mps)
        bounds = [_fmt(decay_bound(constants, p.b_len)) for p in curve.points]
    except (NearDegenerate, DegenerateSpectrum, Unsupported):
        bounds = [""] * len(curve.points)
    rows = ["b_len,qmi,qcmi,f,bound"]
    for p, qmi, bound in zip(curve.points, curve.qmi, bounds):
        rows.append(f"{p.b_len},{_fmt(qmi)},{_fmt(p.qcmi)},{_fmt(p.f)},{bound}")
    _write(Path(config.output_dir) / "curve_0.csv", rows)
    return EXIT_OK


def cmd_ensemble(config: RunConfig) -> int:
    out = Path(config.output_dir)
    summary = run_ensemble(
        n=config.n_instances,
        case_tag=config.case_tag,
        len_a=config.len_a,
        len_c=config.len_c,
        master_seed=config.master_seed,
        b_max_limit=config.b_max_limit,
        k=config.k,
        d_s=config.d_s,
        d_m=config.d_M,
    )
    rows = ["instance_id,nu_gap,b_max,rate,n_points"]
    for r in summary.records:
        rate = _fmt(r.rate) if r.rate is not None else ""
        rows.append(f"{r.instance_id},{_fmt(r.nu_gap)},{r.b_max},{rate},{r.n_points}")
    _write(out / "rates.csv", rows)
    rows = ["i,j,count"]
    for i in range(summary.histogram.shape[0]):
        for j in range(summary.histogram.shape[1]):
            c = int(summary.histogram[i, j])
            if c:
                rows.append(f"{i},{j},{c}")
    _write(out / "histogram.csv", rows)
    _write(out / "cdf_all.csv", ["rate"] + [_fmt(r) for r in summary.cdf_all])
    _write(out / "cdf_full.csv", ["rate"] + [_fmt(r) for r in summary.cdf_full])
    payload = {
        "config": config._asdict(),
        "n_instances": summary.n_instances,
        "n_completed": len(summary.records),
        "n_skipped": len(summary.skipped),
        "skipped": [[i, msg] for i, msg in summary.skipped],
        "out_of_range": summary.out_of_range,
        "total_shifted": summary.total_shifted,
    }
    (out / "summary.json").write_text(json.dumps(payload, sort_keys=True) + "\n")
    if not summary.records:
        print("ensemble: every instance failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_bound(config: RunConfig) -> int:
    mps = build_iumps(_kraus(config, 0))
    constants = jordan_constants(mps)
    payload = constants._asdict()
    b_suff = sufficient_b(constants, mps.kraus.d_s)
    payload["sufficient_b"] = b_suff
    payload["sufficient_b_within_scan"] = b_suff <= config.b_max_limit
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_gapstats(config: RunConfig) -> int:
    out = Path(config.output_dir)
    stats = gap_statistics(config.n_instances, config.master_seed, config.d_s, config.d_M)
    rows = ["rank,one_minus_nu1,nu1_minus_nu2,nu2_minus_nu3"]
    for r in range(len(stats.one_minus_nu1)):
        rows.append(
            f"{r},{_fmt(stats.one_minus_nu1[r])},{_fmt(stats.nu1_minus_nu2[r])},"
            f"{_fmt(stats.nu2_minus_nu3[r])}"
        )
    _write(out / "gapstats.csv", rows)
    (out / "gapstats.json").write_text(json.dumps(stats.markers(), sort_keys=True) + "\n")
    return EXIT_OK


def cmd_benchmark(config: RunConfig) -> int:
    stats = gap_statistics(200, config.master_seed, config.d_s, config.d_M)
    try:
        report = golden_benchmark(k=config.k)
        tol = report.tolerances
        print("golden instance:")
        print(f"  canonical deviation      {report.canonical_dev:.3e}  (<= {tol['canonical']:.0e})")
        print(f"  fixed point vs I/4       {report.sigma_dev:.3e}  (<= {tol['sigma']:.0e}; "
              f"{report.notes})")
        print(f"  nu_gap                   {report.nu_gap:.12f}")
        print(f"  I_th reference           {report.i_th:.17g}")
        print(f"  QMI(|B|=26)              {report.qmi_at_26:.17g}")
        print(f"  |QMI(26) - I_th|         {report.qmi_dev:.3e}  (<= {tol['qmi']:.0e})")
        print(f"  rho_A dev (|B|=40)       {report.rho_a_dev:.3e}  (<= {tol['rho']:.0e})")
        print(f"  rho_AC dev (|B|=40)      {report.rho_ac_dev:.3e}  (<= {tol['rho']:.0e})")
        print(f"  QCMI curve               {len(report.qcmi_curve)} points, "
              f"b_max={report.qcmi_curve[-1][0]}, ln-monotone tail ok")

        worst = stats.markers()["max_one_minus_nu1"]
        print(f"gap statistics (n=200): max |1 - |nu1|| = {worst:.3e} (<= {NU1_TOL:.0e})")
        if worst > NU1_TOL:
            raise BenchmarkFailed(f"leading eigenvalue error above {NU1_TOL:.0e}")

        for beta in (0.1, 0.01):
            fam = analytic_family("first", beta)
            mags = distinct_magnitudes(transfer_matrix(fam).spectrum.values)
            dev = np.abs(mags - np.array([1.0, 1.0 - beta, 1.0 - 2 * beta])).max()
            if dev > FIRST_FAMILY_TOL:
                raise BenchmarkFailed(f"first-family spectrum at beta={beta}, dev={dev:.3e}")
            print(
                f"first family beta={beta}: distinct |eig| = (1, 1-b, 1-2b) to {dev:.1e} "
                f"(<= {FIRST_FAMILY_TOL:.0e}); population-sector split 2b = {2 * beta}, "
                f"leading gap = {mags[0] - mags[1]:.6f}"
            )
        coeff = (np.sqrt(6) - 2) / np.sqrt(3)
        for beta in (1e-3, 1e-4):
            fam = analytic_family("second", beta)
            mags = distinct_magnitudes(transfer_matrix(fam).spectrum.values)
            dev = abs((mags[1] - mags[2]) - coeff * beta)
            if dev > 10 * beta**2:
                raise BenchmarkFailed(f"second-family |nu2|-|nu3| at beta={beta}, dev={dev:.3e}")
            print(
                f"second family beta={beta}: |nu2|-|nu3| matches {coeff:.6f}*beta to {dev:.1e} "
                f"(<= 10*beta^2 = {10 * beta**2:.0e})"
            )
    except BenchmarkFailed as exc:
        print(f"benchmark FAILED: {exc}")
        return EXIT_BENCHMARK
    print("benchmark PASSED")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_INVALID, not argparse's 2 (a numerical failure here)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "scan": cmd_scan,
    "ensemble": cmd_ensemble,
    "benchmark": cmd_benchmark,
    "bound": cmd_bound,
    "gapstats": cmd_gapstats,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: ``parse_args`` keeps no state
    between calls.  A positional command, one of ``_COMMANDS``, and one
    option set for all of them; each option but ``--config`` has as ``dest``
    the ``RunConfig`` field it sets, and is None when not given."""
    parser = _Parser(
        prog="iumps",
        description="Random infinite uniform MPS: spectra, entropies, and QCMI decay",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="flat JSON config file")
    parser.add_argument("--seed", type=int, dest="master_seed", help="master seed")
    parser.add_argument("--case", choices=sorted(_CASES), dest="case_tag")
    parser.add_argument("--n", type=int, dest="n_instances", help="number of instances")
    parser.add_argument("--b-max", type=int, dest="b_max_limit", help="largest even |B|")
    parser.add_argument("--k", type=int, help="QCMI floor exponent")
    parser.add_argument("--out", dest="output_dir", help="output directory")
    parser.add_argument("--kraus", dest="kraus_path",
                        help="load the instance from a KrausSet JSON file")
    parser.add_argument("--save-kraus", action="store_true", default=None,
                        help="persist the constructed instance as kraus_<id>.json")
    return parser


def _fail(code: int, label: str, exc: Exception) -> int:
    print(f"{label}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    overrides = vars(build_parser().parse_args(argv))
    command, config_path = overrides.pop("command"), overrides.pop("config")
    overrides["case_tag"] = _CASES.get(overrides["case_tag"])
    try:
        config = load_config(config_path, overrides)
        _check_run(command, config)
        return _COMMANDS[command](config)
    except (DegenerateSpectrum, EmptyCurve, NearDegenerate) as exc:
        return _fail(EXIT_DEGENERATE, "degenerate input", exc)
    except (ValueError, OSError, TooLarge, Unsupported) as exc:
        return _fail(EXIT_INVALID, "invalid input", exc)
    except IumpsError as exc:  # NonConvergence, NotHermitian, NotPositive, NoFixedPoint
        return _fail(EXIT_NUMERICAL, "numerical failure", exc)


if __name__ == "__main__":
    sys.exit(main())
