"""Decay-curve scans, ensemble studies, gap statistics, and golden benchmarks."""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

from .bounds import distinct_clusters
from .entropy import fill_entropies_chunk, qcmi, qmi_curve, qmi_of_powers, rho_disjoint
from .exceptions import (
    BenchmarkFailed,
    EmptyCurve,
    IumpsError,
    TooFewPoints,
)
from .mps import (
    CASE1,
    CASE2,
    EXPLICIT,
    IuMps,
    KrausSet,
    PowerWindow,
    build_case,
    build_iumps,
    check_case,
    sample_case1,
    sample_iumps,
    spectral_gap,
    transfer_magnitudes,
    transfer_operators,
)
from .numerics import RandomStream

HISTOGRAM_BINS = 20
BURN_IN = 3
# |B| values a scan solves together after its first block: one stacked
# eigvalsh for their S(n).  Of 4, 6, 8 and the whole range, 8 gave the most
# Case-1 and Case-2 scans per second: smaller blocks pay more per-call
# overhead, larger ones solve more points past the stop.  A chunk of several
# instances takes blocks of 8 from the start: its instances stop at different
# |B|, and planning its first block by its largest or smallest predicted stop
# made the Case-1 ensemble 4-15% slower.
SCAN_BLOCK = 8
# |B| a one-instance scan's first block reaches past its predicted stop
# k ln 10 / q.  QCMI ~ C nu_gap^(2|B|) with log10 C of order 1, so the stop
# (the first |B| under 10^-k) lay 4.6 below to 3.6 above k ln 10 / q on 493
# Case-1 and Case-2 scans that stopped before |B| = 40, and past the planned
# block on none of 6,081 Case-1 to Case-3 plans that ended before 40.  One
# block then holds the whole curve: one power chain and one stacked solve.
PLAN_MARGIN = 4
# |B| values a planned first block holds at most (|B| <= 64).  The plan
# follows k ln 10 / q, not the stop, so a slow gap could plan one stack far
# past it: nu_gap = 0.99 at b_max_limit 3000 planned 690 values and stopped at
# |B| = 986, at twice the tracemalloc peak of blocks of 8.  No scan at the
# default b_max_limit 40 (20 values) reaches the cap.
PLAN_BLOCK_MAX = 32
# Instances gap_statistics samples and eigensolves together.  16 is the
# fastest size at flat peak memory: 8 ran about 3% slower, and 32 ran 1-2%
# faster but raised peak memory by 0.7 MB.
GAP_CHUNK = 16
# Instances run_ensemble builds and scans together.  Peak memory binds it: a
# chunk holds its instances' window of E^n and their stacked entropy solves,
# so the peak grows with the chunk (tracemalloc: 0.6 MB serial, 1.45 MB at
# 4, 2.7 MB at 8), and chunks of 8 ran no faster than chunks of 4.
ENSEMBLE_CHUNK = 4

# Limiting mutual information of the golden Case-2 benchmark instance,
# 17 ln2 / 16 - 9 ln3 / 8 + 5 ln5 / 16.
I_TH = 17 * math.log(2) / 16 - 9 * math.log(3) / 8 + 5 * math.log(5) / 16
# Tolerances of golden_benchmark's |QMI(26) - I_TH| and limiting-marginal checks.
QMI_TOL = 1e-12
RHO_TOL = 1e-10


class CurvePoint(NamedTuple):
    b_len: int
    qcmi: float
    f: float


class DecayCurve(NamedTuple):
    """One instance's QCMI values over even |B|, with normalized log-QCMI
    f, its spectral gap and its last retained |B|; ``qmi`` holds the QMI at
    each point's |B| when the scan was given the region factors, else None.
    It holds no instance label: the caller knows which instance it scanned."""

    nu_gap: float
    points: list[CurvePoint]
    b_max: int
    qmi: list[float] | None = None


class InstanceRecord(NamedTuple):
    instance_id: int
    nu_gap: float
    b_max: int
    n_points: int
    rate: float | None


class EnsembleSummary(NamedTuple):
    n_instances: int
    records: list[InstanceRecord]
    histogram: np.ndarray
    out_of_range: int
    total_shifted: int
    cdf_all: list[float]
    cdf_full: list[float]
    skipped: list[tuple[int, str]]


def check_scan_args(len_a: int, len_c: int, b_max_limit: int, k: int) -> None:
    """Raise ValueError at the first scan-argument rule broken; the CLI's too."""
    if len_a < 1 or len_c < 1:
        raise ValueError("scan requires len_a, len_c >= 1")
    if b_max_limit % 2 != 0:
        raise ValueError("b_max_limit must be even")
    if b_max_limit < 2:
        raise ValueError("b_max_limit must be even and >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 307:  # 10^-308 is subnormal, and from k = 324 the floor is 0.0
        raise ValueError("k must be <= 307, for a floor 10^-k that is a normal double")


def scan_instances(
    instances: Sequence[IuMps],
    len_a: int,
    len_c: int,
    b_max_limit: int = 40,
    k: int = 12,
    factors: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[DecayCurve]:
    """QCMI of regions A, C of ``len_a``, ``len_c`` sites over
    |B| = 2, 4, ..., stopping once it falls to 10^-k, for every instance
    together: each instance's curve.

    An instance's last retained |B| (the curve's b_max) is the final even size
    at which QCMI still exceeds the numerical floor, or b_max_limit.  |B| is
    taken in blocks of ``SCAN_BLOCK`` sizes (2-16, 18-32, ...).  A stack of
    one instance plans its first block instead: from |B| = 2 to the even |B|
    at or above its predicted stop k ln 10 / q plus ``PLAN_MARGIN``
    (q = 2 ln(1/nu_gap)), never below 2 ``SCAN_BLOCK`` nor above
    b_max_limit, and of at most ``PLAN_BLOCK_MAX`` sizes, so its scan
    usually takes one block; later blocks take ``SCAN_BLOCK`` sizes.  A
    stack of several instances, which stop at different |B|, keeps
    ``SCAN_BLOCK`` sizes from the start.  The blocks
    never change a result: each S(n) carries the bits of its own solve.

    On entering a block the scan grows E^n for every instance still scanning
    in its one ``PowerWindow``, keeping only the powers the block needs;
    solves the region lengths the block's QCMI reads and some instance has
    not kept (``fill_entropies_chunk``) in one stacked ``eigvalsh``; then
    walks each instance's points through ``qcmi(mps, len_a, |B|, len_c)``
    and the stop.
    A block's points past an instance's stop are solved but not kept, and an
    instance that has stopped leaves the next block.  Every instance keeps
    each S(n) it computes, so each is computed once, however many scans and
    QMI/QCMI calls read it.  Without ``factors`` no rho_AC is built.
    ``factors``, the ``region_factors`` of a one-instance stack, asks for the
    QMI as well: the first block also solves S(|A|) and S(|C|), the kept
    points' E^|B| are held, and after the walk one ``qmi_of_powers`` gives
    the curve's ``qmi``, with the bits of ``qmi_curve`` over its |B|.
    ``factors`` with more or fewer than one instance raises ``ValueError``.
    One instance's error raises for all: no gap is ``DegenerateSpectrum``
    before any power is formed, a stop at |B| = 2 ``EmptyCurve`` in the first
    block.  Each curve carries the bits of the scan of its instance alone.
    """
    check_scan_args(len_a, len_c, b_max_limit, k)
    if factors is not None and len(instances) != 1:
        raise ValueError("a scan with factors takes one instance")
    if not instances:
        return []
    floor = 10.0 ** (-k)
    # the normalization of f: the bound decay rate
    q = [2.0 * math.log(1.0 / spectral_gap(mps.transfer)) for mps in instances]
    points: list[list[CurvePoint]] = [[] for _ in instances]
    powers_b: list[np.ndarray] = []  # the kept points' E^|B|, for the QMI
    live = list(range(len(instances)))
    window = PowerWindow(np.stack([mps.transfer.e for mps in instances]))
    end = 2 * SCAN_BLOCK
    if len(instances) == 1:  # the first block ends just past the predicted stop
        plan = k * math.log(10.0) / q[0] + PLAN_MARGIN
        end = max(end, 2 * math.ceil(min(plan, b_max_limit, 2 * PLAN_BLOCK_MAX) / 2))
    block = range(2, min(end, b_max_limit) + 1, 2)
    while live and block:
        # the S(n) the block's QCMI reads, and the QMI's S(|A|), S(|C|)
        lengths = set().union(*((lb, len_a + lb, lb + len_c, len_a + lb + len_c) for lb in block))
        if factors is not None and block.start == 2:
            lengths |= {len_a, len_c}
        scanning = [instances[i] for i in live]
        missing = sorted(lengths - set.intersection(*(set(mps.entropies) for mps in scanning)))
        # the QMI reads E^|B| at every point, kept S(n) or not
        needed = missing + list(block) if factors is not None else missing
        if needed:
            window.extend(min(needed), max(needed))
        fill_entropies_chunk(scanning, missing, [window[n] for n in missing])
        still: list[int] = []
        for row, (i, mps) in enumerate(zip(live, scanning)):
            for lb in block:
                qc = qcmi(mps, len_a, lb, len_c)
                if qc <= floor:
                    if lb == 2:
                        raise EmptyCurve(f"QCMI <= 1e-{k} already at |B| = 2")
                    break
                points[i].append(CurvePoint(b_len=lb, qcmi=qc, f=math.log(qc) / q[i]))
                if factors is not None:
                    powers_b.append(window[lb][row])
            else:
                still.append(row)
        if len(still) < len(live):
            live = [live[row] for row in still]
            if live:  # once none is left, nothing reads the window again
                window.keep(still)
        start = block[-1] + 2
        block = range(start, min(start + 2 * SCAN_BLOCK, b_max_limit + 1), 2)
    del window  # frees every power but the kept points' E^|B| before the QMI
    qmi = None if factors is None else qmi_of_powers(instances[0], len_a, powers_b, len_c, factors)
    return [
        DecayCurve(mps.transfer.nu_gap, pts, b_max=pts[-1].b_len, qmi=qmi)
        for mps, pts in zip(instances, points)
    ]


def scan_instance(
    mps: IuMps,
    len_a: int,
    len_c: int,
    b_max_limit: int = 40,
    k: int = 12,
    factors: tuple[np.ndarray, np.ndarray] | None = None,
) -> DecayCurve:
    """QCMI of regions A, C of ``len_a``, ``len_c`` sites over
    |B| = 2, 4, ..., stopping once it falls to 10^-k: ``scan_instances`` of
    the one instance, raising as it raises; with the instance's
    ``region_factors``, the QMI at each kept |B| too.

    Each block of |B| then costs one stacked ``eigvalsh``, and the first,
    planned from the gap, usually holds the whole curve; the instance keeps
    its S(n), so a second scan solves nothing.
    """
    return scan_instances((mps,), len_a, len_c, b_max_limit, k, factors)[0]


def shift_graph(curve: DecayCurve) -> list[tuple[float, float]]:
    """Points (b - b_max, f(b) - f(b_max)); the last point maps to the origin."""
    if not curve.points:
        raise EmptyCurve("cannot shift an empty curve")
    f_end = curve.points[-1].f
    return [(float(p.b_len - curve.b_max), p.f - f_end) for p in curve.points]


def extract_rate(curve: DecayCurve) -> float:
    """Negated least-squares slope of f versus |B| after the first ``BURN_IN`` points.

    A curve decaying exactly at the bounding-function rate yields 1.0.  The
    slope is the closed form sum(dx dy) / sum(dx^2) about the means.
    """
    pts = curve.points[BURN_IN:]
    if len(pts) < 2:
        raise TooFewPoints(f"need at least {BURN_IN + 2} points, have {len(curve.points)}")
    xs, ys = [p.b_len for p in pts], [p.f for p in pts]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    dx = [x - x_mean for x in xs]
    return -sum(d * (y - y_mean) for d, y in zip(dx, ys)) / sum(d * d for d in dx)


def bin_shifted(points: list[tuple[float, float]]) -> tuple[np.ndarray, int]:
    """20x20 histogram over bins (-(2i+1), -(2i-1)) x [2j, 2j+2).

    Shifted x values are even and never sit on the odd bin edges; y = 0 (the
    origin) falls in bin j = 0 under the half-open convention.  The y edges
    2j, by contrast, sit where shifted points cluster: on a curve decaying at
    rate q, y = f(b) - f(b_max) is close to b_max - b, and near the 10^-k stop
    f(b_max) carries a relative noise of about 1e-3.  Builds whose entropies
    differ at ulp level can therefore move points across a y edge and change
    the counts.  Returns the counts and the number of points outside the grid.
    """
    counts = np.zeros((HISTOGRAM_BINS, HISTOGRAM_BINS), dtype=np.int64)
    out = 0
    for x, y in points:
        i = int(round(-x / 2.0))
        j = math.floor(y / 2.0)
        if 0 <= i < HISTOGRAM_BINS and 0 <= j < HISTOGRAM_BINS:
            counts[i, j] += 1
        else:
            out += 1
    return counts, out


def build_instance(case_tag: str, d_s: int, d_m: int, stream: RandomStream) -> IuMps:
    """Sample one iuMPS of the given case from the given stream."""
    return build_iumps(build_case(case_tag, d_s, d_m, stream))


def _each(step: Callable[[Sequence], Sequence], items: Sequence) -> Sequence:
    """``step(items)``, one result per item; if it raises, ``step`` of each
    item alone (``items[i : i + 1]``, a list or a stack of one), so an item
    gets the ``IumpsError`` of its own step as its result, or raises its own
    ``ValueError``."""
    try:
        return step(items)
    except (IumpsError, ValueError) as exc:
        if len(items) > 1:
            return [r for i in range(len(items)) for r in _each(step, items[i : i + 1])]
        if isinstance(exc, IumpsError):
            return [exc]
        raise


def each_instance(step: Callable[[Sequence], Sequence], items: Sequence, first: int) -> Sequence:
    """``step(items)``, one result per instance ``first``, ``first + 1``, ...;
    if it raises, ``step`` of each item alone, and the first whose own step
    raises an ``IumpsError`` or ``ValueError`` raises it prefixed with
    ``instance i: ``, so a chunked draw or solve names the instance, not its
    place."""
    try:
        return step(items)
    except (IumpsError, ValueError):
        results: list = []
        for i in range(len(items)):
            try:
                results.extend(step(items[i : i + 1]))
            except (IumpsError, ValueError) as exc:
                raise type(exc)(f"instance {first + i}: {exc}") from exc
        return results


def _scan_chunk(
    case_tag: str, d_s: int, d_m: int, streams: list[RandomStream], *scan_args: int
) -> list[DecayCurve | IumpsError]:
    """The curve of every stream, from one ``sample_iumps`` build and one
    ``scan_instances`` scan of them all.

    Either step that raises is redone one item at a time (``_each``): a
    failed build one stream at a time, a failed scan on the instances
    already built, whose kept S(n) carry the bits of their own scan.  An
    instance is then the ``IumpsError``, or raises the ``ValueError``, of its
    own build and scan.  This is the one place an instance's error becomes a
    value.
    """
    built = _each(lambda chunk: sample_iumps(case_tag, d_s, d_m, chunk), streams)
    instances = [mps for mps in built if not isinstance(mps, IumpsError)]
    curves = iter(_each(lambda chunk: scan_instances(chunk, *scan_args), instances))
    return [mps if isinstance(mps, IumpsError) else next(curves) for mps in built]


def run_ensemble(
    n: int,
    case_tag: str,
    len_a: int,
    len_c: int,
    master_seed: int,
    b_max_limit: int = 40,
    k: int = 12,
    d_s: int = 3,
    d_m: int = 4,
) -> EnsembleSummary:
    """Scan ``n`` independently seeded instances of one case and aggregate
    the statistics.

    Instance i always draws from stream index i of ``master_seed``.  The
    scan's arguments and the case and its dimensions (``check_case``) are
    checked once, in that order, before the first chunk.  Nothing here reads
    a QMI or builds a rho_AC, so rho_AC's cap does not apply, and each
    instance solves only the S(n) its QCMI reads.  The instances are built
    and scanned in chunks of ``ENSEMBLE_CHUNK``: per chunk one stacked
    sample, transfer contraction and ``transfer_spectrum``
    (``sample_iumps``), then one scan of them all (``scan_instances``), so
    the per-call cost of the 16x16 kernels is paid once per chunk.  Every instance
    carries the bits of ``build_instance`` + ``scan_instance`` on its own
    stream, so the results do not depend on the chunk size.  A failing
    instance is skipped with the message of its own build and scan
    (``_scan_chunk``); the others of its chunk complete.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_scan_args(len_a, len_c, b_max_limit, k)
    check_case(case_tag, d_s, d_m)
    records: list[InstanceRecord] = []
    rates: list[float] = []
    cdf_full: list[float] = []
    skipped: list[tuple[int, str]] = []
    histogram = np.zeros((HISTOGRAM_BINS, HISTOGRAM_BINS), dtype=np.int64)
    out_of_range = 0
    total_shifted = 0
    for start in range(0, n, ENSEMBLE_CHUNK):
        streams = [RandomStream(master_seed, i) for i in range(start, min(start + ENSEMBLE_CHUNK, n))]
        chunk = _scan_chunk(case_tag, d_s, d_m, streams, len_a, len_c, b_max_limit, k)
        for i, res in enumerate(chunk, start):
            if isinstance(res, IumpsError):
                skipped.append((i, f"{type(res).__name__}: {res}"))
                continue
            shifted = shift_graph(res)
            total_shifted += len(shifted)
            counts, out = bin_shifted(shifted)
            histogram += counts
            out_of_range += out
            try:
                rate = extract_rate(res)
            except TooFewPoints:
                rate = None
            records.append(
                InstanceRecord(
                    instance_id=i,
                    nu_gap=res.nu_gap,
                    b_max=res.b_max,
                    n_points=len(res.points),
                    rate=rate,
                )
            )
            if rate is not None:
                rates.append(rate)
                if res.b_max == b_max_limit:
                    cdf_full.append(rate)
    return EnsembleSummary(
        n_instances=n,
        records=records,
        histogram=histogram,
        out_of_range=out_of_range,
        total_shifted=total_shifted,
        cdf_all=sorted(rates),
        cdf_full=sorted(cdf_full),
        skipped=skipped,
    )


# --- golden benchmark -------------------------------------------------------

_A = 1.0 / math.sqrt(2.0)
_BLOCK = {
    1: np.array([[0.0, -_A], [0.0, 0.0]]),
    2: np.array([[-_A, 0.0], [0.0, _A]]),
    3: np.array([[0.0, 0.0], [_A, 0.0]]),
}


def benchmark_kraus() -> KrausSet:
    """The fixed Case-2 benchmark instance with known limiting marginals.

    The second diagonal block carries the first block's matrices with the
    physical index cycled down by one (s -> s-1 mod 3); this is the pairing
    that reproduces the closed-form limiting marginals diag(2,3,3)/8 and the
    mutual-information plateau I_TH.
    """
    mats = np.zeros((3, 4, 4), dtype=complex)
    for s in (1, 2, 3):
        partner = 3 if s == 1 else s - 1
        mats[s - 1, :2, :2] = _BLOCK[s]
        mats[s - 1, 2:, 2:] = _BLOCK[partner]
    ks = KrausSet(d_s=3, d_M=4, matrices=mats, case_tag=CASE2)
    ks.validate()
    return ks


def reference_rho_a() -> np.ndarray:
    return np.diag([2.0, 3.0, 3.0]) / 8.0


def reference_rho_ac() -> np.ndarray:
    da = np.diag([1.0, 2.0, 1.0])
    db = np.diag([1.0, 1.0, 2.0])
    return (np.kron(da, da) + np.kron(db, db)) / 32.0


class BenchmarkReport(NamedTuple):
    nu_gap: float
    canonical_dev: float
    sigma_dev: float
    i_th: float
    qmi_at_26: float
    qmi_dev: float
    rho_a_dev: float
    rho_c_dev: float
    rho_ac_dev: float
    qmi_curve: list[tuple[int, float]]
    qcmi_curve: list[tuple[int, float]]
    notes: str
    # the bound each deviation was checked against: canonical, sigma, qmi, rho
    tolerances: dict[str, float]


def golden_benchmark(k: int = 12) -> BenchmarkReport:
    """Run the golden-instance checks; raise BenchmarkFailed naming the first miss.

    The mutual information is checked at |B| = 26 against I_TH; the joint
    limiting marginal is checked entrywise at |B| = 40, where the residual
    in-block coherence corrections (decaying as 2^-|B|) are below tolerance.
    ln QCMI must strictly decrease over the last 10 points of the scan
    stopped at 10^-k, so a ``k`` that leaves fewer than 10 points fails.
    """
    tolerances = {"canonical": 1e-12, "sigma": 1e-10, "qmi": QMI_TOL, "rho": RHO_TOL}
    kraus = benchmark_kraus()
    canonical_dev = kraus.canonical_deviation()
    if canonical_dev > tolerances["canonical"]:
        raise BenchmarkFailed(f"canonical form deviation {canonical_dev:.3e} > 1e-12")
    mps = build_iumps(kraus)
    sigma_dev = float(np.abs(mps.sigma - np.eye(4) / 4).max())
    if sigma_dev > tolerances["sigma"]:
        raise BenchmarkFailed(f"fixed point deviates from I/4 by {sigma_dev:.3e}")

    sizes = range(2, 27, 2)
    qmis = list(zip(sizes, qmi_curve(mps, 1, sizes, 1)))
    qmi_at_26 = qmis[-1][1]
    qmi_dev = abs(qmi_at_26 - I_TH)
    if qmi_dev > QMI_TOL:
        raise BenchmarkFailed(f"QMI(26) differs from reference plateau by {qmi_dev:.3e}")

    rho_ac = rho_disjoint(mps, 1, 40, 1)
    t = rho_ac.reshape(3, 3, 3, 3)
    rho_a = np.einsum("acbc->ab", t)
    rho_c = np.einsum("acad->cd", t)
    rho_a_dev = float(np.abs(rho_a - reference_rho_a()).max())
    rho_c_dev = float(np.abs(rho_c - reference_rho_a()).max())
    rho_ac_dev = float(np.abs(rho_ac - reference_rho_ac()).max())
    for name, dev in (("rho_A", rho_a_dev), ("rho_C", rho_c_dev), ("rho_AC", rho_ac_dev)):
        if dev > RHO_TOL:
            raise BenchmarkFailed(f"{name} differs from its limit by {dev:.3e}")

    curve = scan_instance(mps, 1, 1, 40, k)
    qcmi_curve = [(p.b_len, p.qcmi) for p in curve.points]
    if len(qcmi_curve) < 10:
        raise BenchmarkFailed(f"QCMI curve has {len(qcmi_curve)} points; the tail check needs 10")
    tail = np.log([q for _, q in qcmi_curve[-10:]])
    if not np.all(np.diff(tail) < 0):
        raise BenchmarkFailed("ln QCMI is not strictly decreasing over the last 10 points")

    return BenchmarkReport(
        nu_gap=curve.nu_gap,
        canonical_dev=canonical_dev,
        sigma_dev=sigma_dev,
        i_th=I_TH,
        qmi_at_26=qmi_at_26,
        qmi_dev=qmi_dev,
        rho_a_dev=rho_a_dev,
        rho_c_dev=rho_c_dev,
        rho_ac_dev=rho_ac_dev,
        qmi_curve=qmis,
        qcmi_curve=qcmi_curve,
        notes=(
            "reference fixed-point vector has trace 2 under the stated "
            "vectorization; renormalized to the trace-1 operator I/4"
        ),
        tolerances=tolerances,
    )


# --- gap statistics and analytic families -----------------------------------


class GapStatistics(NamedTuple):
    """Sorted absolute gaps of the three leading eigenvalue magnitudes."""

    one_minus_nu1: np.ndarray
    nu1_minus_nu2: np.ndarray
    nu2_minus_nu3: np.ndarray

    def markers(self) -> dict[str, float]:
        return {
            "max_one_minus_nu1": float(self.one_minus_nu1[-1]),
            "max_nu1_minus_nu2": float(self.nu1_minus_nu2[-1]),
            "min_nu1_minus_nu2": float(self.nu1_minus_nu2[0]),
            "max_nu2_minus_nu3": float(self.nu2_minus_nu3[-1]),
        }


def gap_statistics(n: int, master_seed: int, d_s: int = 3, d_m: int = 4) -> GapStatistics:
    """Leading-eigenvalue gap samples over ``n`` Haar single-fixed-point instances.

    Instance i draws from ``RandomStream(master_seed, i)``.  The instances go
    in chunks of ``GAP_CHUNK``: per chunk, one stacked Haar draw and QR
    (``sample_case1``), one stacked transfer contraction and one stacked
    ``transfer_magnitudes``, which checks every eigenpair's residual, in
    real arithmetic, but sorts no complex spectrum and reads no
    eigenvector; the gaps read its columns 0-2.  Every row carries the
    magnitudes of ``build_case1`` + ``transfer_matrix`` on its own, bit for
    bit, so the samples do not depend on the chunk size; a failing draw or
    solve names its instance (``each_instance``).  d_M must be at
    least 2, for E to have the three eigenvalues the gaps need, and the
    dimensions pass ``check_case`` before anything is allocated.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d_m < 2:
        raise ValueError(f"gap statistics need d_M >= 2 (three transfer eigenvalues), not {d_m}")
    check_case(CASE1, d_s, d_m)
    mags = np.empty((n, 3))
    draw_and_solve = lambda streams: transfer_magnitudes(
        transfer_operators(sample_case1(d_s, d_m, streams))
    )
    for start in range(0, n, GAP_CHUNK):
        stop = min(start + GAP_CHUNK, n)
        streams = [RandomStream(master_seed, i) for i in range(start, stop)]
        mags[start:stop] = np.asarray(each_instance(draw_and_solve, streams, start))[:, :3]
    return GapStatistics(
        one_minus_nu1=np.sort(np.abs(1.0 - mags[:, 0])),
        nu1_minus_nu2=np.sort(np.abs(mags[:, 0] - mags[:, 1])),
        nu2_minus_nu3=np.sort(np.abs(mags[:, 1] - mags[:, 2])),
    )


def distinct_magnitudes(values: np.ndarray) -> np.ndarray:
    """Descending distinct eigenvalue magnitudes: ``distinct_clusters`` of the
    sorted magnitudes, so each cluster is represented by its largest."""
    return distinct_clusters(np.sort(np.abs(np.asarray(values)))[::-1])


def analytic_family(which: str, beta: float) -> KrausSet:
    """One-parameter channel families with closed-form leading-gap behaviour.

    ``first``: a Haar-reachable family whose population sector has eigenvalues
    {1, 1-2*beta} while the coherence sector sits at 1-beta.  The idle I_2
    factor gives the transfer spectrum multiplicities 1 (x4), 1-beta (x8) and
    1-2*beta (x4), so the leading gap |nu1| - |nu2| is beta.  ``second``: an
    interpolation whose second and third distinct eigenvalue magnitudes split
    linearly in beta; its raw coefficients are not exactly isometric away
    from the endpoints, so the set is rescaled to restore canonical form
    (an O(beta) global rescaling, affecting the gap only at O(beta^2)).
    """
    if not 0 <= beta <= 1:
        raise ValueError("beta must lie in [0, 1]")
    i2 = np.eye(2)
    lower = np.array([[0.0, 0.0], [1.0, 0.0]])  # |-><+|
    if which == "first":
        mats = np.stack(
            [
                np.kron(math.sqrt(beta) * lower, i2),
                np.kron(math.sqrt(1 - beta) * i2, i2),
                np.kron(-math.sqrt(beta) * lower.T, i2),
            ]
        ).astype(complex)
    elif which == "second":
        c1, c2, _, _ = second_family_coefficients(beta)
        scale = math.sqrt(c1 * c1 + c2 * c2)
        mats = np.stack(
            [
                np.kron(c1 * lower, i2),
                np.kron(c2 * np.diag([-1.0, 1.0]), i2),
                np.kron(-c1 * lower.T, i2),
            ]
        ).astype(complex) / scale
    else:
        raise ValueError("which must be 'first' or 'second'")
    ks = KrausSet(d_s=3, d_M=4, matrices=mats, case_tag=EXPLICIT)
    ks.validate()
    return ks


def second_family_coefficients(beta: float) -> tuple[float, float, float, float]:
    """Unnormalized interpolation coefficients of the four-term isometry."""
    c1 = (1 - beta) * math.sqrt(2.0 / 3.0) + beta * math.sqrt(3.0) / 2.0
    c2 = (1 - beta) / math.sqrt(3.0) + beta / 2.0
    return (c1, c2, c2, c1)
