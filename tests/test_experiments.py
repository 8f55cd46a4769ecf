import math
import sys
import tracemalloc

import numpy as np
import pytest

import iumps.experiments
from iumps import (
    BenchmarkFailed,
    EmptyCurve,
    I_TH,
    IumpsError,
    KrausSet,
    NonConvergence,
    NotHermitian,
    RandomStream,
    TooFewPoints,
    analytic_family,
    benchmark_kraus,
    golden_benchmark,
    build_instance,
    build_iumps,
    distinct_magnitudes,
    extract_rate,
    build_case1,
    build_case2,
    build_case3,
    gap_statistics,
    jordan_constants,
    qcmi,
    region_entropy,
    brute_force_entropy,
    run_ensemble,
    scan_instance,
    shift_graph,
    transfer_matrix,
)
from iumps.entropy import _entropy, region_factors
from iumps.experiments import (
    CurvePoint,
    DecayCurve,
    bin_shifted,
    check_scan_args,
    scan_instances,
    second_family_coefficients,
)
from iumps.mps import PowerWindow, powers
from oracles import jordan_decay, reset_mixed_decay


@pytest.fixture(scope="module")
def sample_curve(case1_instance):
    return scan_instance(case1_instance, 1, 1, 40, 12)


def synthetic_curve(nu_gap, rate_per_site, n_points=12, prefactor=0.3):
    """Curve with qcmi = prefactor * exp(-rate_per_site * b), exact."""
    norm = 2 * math.log(1 / nu_gap)
    points = []
    for b in range(2, 2 * n_points + 1, 2):
        q = prefactor * math.exp(-rate_per_site * b)
        points.append(CurvePoint(b_len=b, qcmi=q, f=math.log(q) / norm))
    return DecayCurve(nu_gap=nu_gap, points=points, b_max=points[-1].b_len)


def test_scan_stopping_rule(sample_curve, case1_instance):
    assert all(p.qcmi > 1e-12 for p in sample_curve.points)
    assert [p.b_len for p in sample_curve.points] == list(range(2, sample_curve.b_max + 1, 2))
    if sample_curve.b_max < 40:
        nxt = qcmi(case1_instance, 1, sample_curve.b_max + 2, 1)
        assert nxt <= 1e-12
    norm = 2 * math.log(1 / sample_curve.nu_gap)
    for p in sample_curve.points:
        assert p.f == pytest.approx(math.log(p.qcmi) / norm)


def test_scan_small_k_short_curve(case1_instance):
    short = scan_instance(case1_instance, 1, 1, 40, 1)
    assert short.b_max <= 6
    assert all(p.qcmi > 0.1 for p in short.points)


def test_scan_deterministic():
    a = build_instance("case1", 3, 4, RandomStream(99, 4))
    b = build_instance("case1", 3, 4, RandomStream(99, 4))
    ca = scan_instance(a, 1, 1, 20, 12)
    cb = scan_instance(b, 1, 1, 20, 12)
    assert ca == cb
    # only the sampled cases have builders; the golden instance is fixed
    with pytest.raises(ValueError, match="unknown case 'golden'"):
        build_instance("golden", 3, 4, RandomStream(99, 4))


def test_scan_empty_curve():
    # weakly correlated channel: QCMI(2) ~ 0.02 already sits below the k=1 floor
    mps = build_iumps(analytic_family("first", 0.05))
    assert qcmi(mps, 1, 2, 1) <= 0.1
    with pytest.raises(EmptyCurve):
        scan_instance(mps, 1, 1, 40, 1)


def test_k_is_refused_where_its_floor_is_not_a_normal_double(case1_instance):
    """10^-307 is the smallest power of ten that is a normal double; 10^-308
    is subnormal, 10^-324 is 0.0, and 10.0 ** -(10^400) overflows."""
    assert 10.0**-307 >= sys.float_info.min > 10.0**-308 and 10.0**-324 == 0.0
    check_scan_args(1, 1, 40, 307)
    for k in (308, 324, 10**400):
        with pytest.raises(ValueError, match="^k must be <= 307, for a floor 10"):
            scan_instance(case1_instance, 1, 1, 40, k)


def test_scan_args_name_an_odd_b_max_apart_from_one_below_two():
    for b_max in (13, -3):
        with pytest.raises(ValueError, match="^b_max_limit must be even$"):
            check_scan_args(1, 1, b_max, 12)
    for b_max in (0, -4):
        with pytest.raises(ValueError, match="^b_max_limit must be even and >= 2$"):
            check_scan_args(1, 1, b_max, 12)
    check_scan_args(1, 1, 2, 12)


def test_shift_graph_contains_origin(sample_curve):
    shifted = shift_graph(sample_curve)
    assert shifted[-1] == (0.0, 0.0)
    assert all(x <= 0 for x, _ in shifted)


def test_shift_graph_exact_exponential_is_diagonal():
    nu = 0.5
    curve = synthetic_curve(nu, 2 * math.log(1 / nu))
    for x, y in shift_graph(curve):
        assert y == pytest.approx(-x, abs=1e-9)


def assert_polyfit_rate(curve):
    """``extract_rate`` is the negated ``np.polyfit`` slope over the same
    window, within 1e-12 relative."""
    pts = curve.points[iumps.experiments.BURN_IN:]
    slope = np.polyfit([p.b_len for p in pts], [p.f for p in pts], 1)[0]
    assert abs(extract_rate(curve) + slope) <= 1e-12 * abs(slope)


def test_extract_rate_recovers_planted_rates():
    nu = 0.6
    full = extract_rate(synthetic_curve(nu, 2 * math.log(1 / nu)))
    assert abs(full - 1.0) <= 1e-9
    half = extract_rate(synthetic_curve(nu, math.log(1 / nu)))
    assert abs(half - 0.5) <= 1e-9
    for rate_per_site in (2 * math.log(1 / nu), math.log(1 / nu)):
        assert_polyfit_rate(synthetic_curve(nu, rate_per_site))


def test_extract_rate_too_few_points():
    curve = synthetic_curve(0.5, 1.0, n_points=3)
    with pytest.raises(TooFewPoints):
        extract_rate(curve)


def test_extract_rate_benchmark_instance():
    mps = build_iumps(benchmark_kraus())
    curve = scan_instance(mps, 1, 1, 40, 12)
    assert extract_rate(curve) >= 0.95
    assert_polyfit_rate(curve)
    for i in range(4):  # and seeded Case-1 curves
        mps = build_instance("case1", 3, 4, RandomStream(20231, i))
        assert_polyfit_rate(scan_instance(mps, 1, 1))


def test_bin_shifted_edges():
    counts, out = bin_shifted([(0.0, 0.0), (-2.0, 1.5), (-2.0, 2.5), (-40.0, 0.5), (0.0, 41.0)])
    assert counts[0, 0] == 1  # origin
    assert counts[1, 0] == 1
    assert counts[1, 1] == 1
    assert out == 2  # x = -40 and y = 41 fall outside the 20x20 grid
    assert counts.sum() + out == 5


def test_run_ensemble_deterministic_and_conserving():
    kwargs = dict(
        n=12,
        case_tag="case1",
        len_a=1,
        len_c=1,
        master_seed=424242,
        b_max_limit=20,
        k=12,
    )
    a = run_ensemble(**kwargs)
    b = run_ensemble(**kwargs)
    assert a.records == b.records
    assert np.array_equal(a.histogram, b.histogram)
    assert a.cdf_all == b.cdf_all
    assert a.histogram.sum() + a.out_of_range == a.total_shifted
    assert a.cdf_all == sorted(r.rate for r in a.records if r.rate is not None)
    assert set(a.cdf_full) <= set(a.cdf_all)


def test_run_ensemble_case2_and_case3():
    """Two-block ensembles scan instances of their own case, as a direct scan does."""
    for case in ("case2", "case3"):
        summary = run_ensemble(
            n=3, case_tag=case, len_a=1, len_c=1, master_seed=5, b_max_limit=12, k=12
        )
        assert len(summary.records) + len(summary.skipped) == 3
        assert summary.records
        for rec in summary.records:
            mps = build_instance(case, 3, 4, RandomStream(5, rec.instance_id))
            curve = scan_instance(mps, 1, 1, 12, 12)
            assert (rec.b_max, rec.nu_gap, rec.n_points) == (
                curve.b_max,
                curve.nu_gap,
                len(curve.points),
            )


def test_run_ensemble_singleton_consistent_with_scan():
    summary = run_ensemble(
        n=1,
        case_tag="case1",
        len_a=1,
        len_c=1,
        master_seed=321,
        b_max_limit=20,
        k=12,
    )
    mps = build_instance("case1", 3, 4, RandomStream(321, 0))
    curve = scan_instance(mps, 1, 1, 20, 12)
    rec = summary.records[0]
    assert rec.b_max == curve.b_max
    assert rec.nu_gap == curve.nu_gap
    assert rec.n_points == len(curve.points)
    assert rec.rate == pytest.approx(extract_rate(curve), abs=0)
    assert summary.total_shifted == len(curve.points)


def test_golden_benchmark_passes():
    report = golden_benchmark()
    assert report.qmi_dev <= 1e-12
    assert report.rho_a_dev <= 1e-10
    assert report.rho_ac_dev <= 1e-10
    assert report.sigma_dev <= 1e-10
    assert report.qmi_curve[-1][0] == 26
    assert abs(report.i_th - I_TH) == 0
    assert "trace 2" in report.notes


def test_benchmark_negative_control(monkeypatch):
    monkeypatch.setattr(iumps.experiments, "I_TH", I_TH + 1e-6)
    with pytest.raises(BenchmarkFailed, match="QMI"):
        iumps.experiments.golden_benchmark()


def test_golden_benchmark_needs_ten_tail_points():
    """The ln-monotone check reads the last 10 QCMI points: k = 8 leaves 9 and
    fails, k = 9 leaves 10 and passes."""
    message = r"^QCMI curve has 9 points; the tail check needs 10$"
    with pytest.raises(BenchmarkFailed, match=message):
        golden_benchmark(k=8)
    assert len(golden_benchmark(k=9).qcmi_curve) == 10


def test_gap_statistics_small_sample():
    stats = gap_statistics(60, 2024)
    assert stats.one_minus_nu1[-1] <= 1e-12
    assert np.all(np.diff(stats.nu1_minus_nu2) >= 0)
    markers = stats.markers()
    assert markers["min_nu1_minus_nu2"] >= 0
    again = gap_statistics(60, 2024)
    assert np.array_equal(stats.nu1_minus_nu2, again.nu1_minus_nu2)


@pytest.mark.parametrize("n", [1, 15, 16, 17, 60])
def test_gap_statistics_equals_per_instance_reference(n):
    assert iumps.experiments.GAP_CHUNK == 16
    g = np.empty((n, 3))
    for i in range(n):
        mags = np.abs(transfer_matrix(build_case1(3, 4, RandomStream(2024, i))).spectrum.values)
        g[i] = abs(1.0 - mags[0]), abs(mags[0] - mags[1]), abs(mags[1] - mags[2])
    stats = gap_statistics(n, 2024)
    assert stats.one_minus_nu1.tobytes() == np.sort(g[:, 0]).tobytes()
    assert stats.nu1_minus_nu2.tobytes() == np.sort(g[:, 1]).tobytes()
    assert stats.nu2_minus_nu3.tobytes() == np.sort(g[:, 2]).tobytes()


def test_gap_statistics_sorts_no_complex_spectrum(monkeypatch):
    """The gaps read magnitudes only: with the complex spectrum order
    refused, ``gap_statistics`` gives the same bits, while the vector reader
    cannot run."""
    import iumps.numerics

    before = gap_statistics(20, 11)

    def refused(values):
        raise AssertionError("a complex spectrum was sorted")

    monkeypatch.setattr(iumps.numerics, "_spectrum_order", refused)
    after = gap_statistics(20, 11)
    for field in before._fields:
        assert getattr(after, field).tobytes() == getattr(before, field).tobytes(), field
    with pytest.raises(AssertionError, match="complex spectrum was sorted"):
        transfer_matrix(build_case1(3, 4, RandomStream(11, 0)))


def test_gap_statistics_rejects_bond_dimension_one():
    # E is 1x1 at d_M = 1: one eigenvalue, no gaps
    with pytest.raises(ValueError, match="d_M >= 2"):
        gap_statistics(3, 0, d_m=1)


def test_gap_statistics_checks_the_case_before_it_allocates():
    """The memory budget refuses d_s = 100000 before the (n, 3) array of a
    million samples (24 MB) is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^a run at d_s = 100000, d_M = 4 charges [0-9,]+ bytes"):
            gap_statistics(10**6, 7, d_s=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"{peak / 1e6:.2f} MB"


def test_analytic_family_first_structure():
    fam = analytic_family("first", 0.0)
    # beta = 0 collapses to the identity channel: one nonzero Kraus operator
    assert np.abs(fam.matrices[0]).max() == 0
    assert np.abs(fam.matrices[2]).max() == 0
    assert np.allclose(fam.matrices[1], np.eye(4))
    fam = analytic_family("first", 0.3)
    assert fam.canonical_deviation() <= 1e-12
    acc = np.einsum("sji,sjk->ik", fam.matrices.conj(), fam.matrices)
    assert np.abs(acc - np.eye(4)).max() <= 1e-15


def test_analytic_family_second_coefficients():
    c = second_family_coefficients(0.0)
    expected = (math.sqrt(2 / 3), 1 / math.sqrt(3), 1 / math.sqrt(3), math.sqrt(2 / 3))
    assert np.abs(np.array(c) - np.array(expected)).max() <= 1e-15
    fam = analytic_family("second", 1e-3)
    assert fam.canonical_deviation() <= 1e-12


def test_analytic_family_second_gap_split():
    coeff = (math.sqrt(6) - 2) / math.sqrt(3)
    for beta in (1e-3, 1e-4):
        fam = analytic_family("second", beta)
        mags = distinct_magnitudes(transfer_matrix(fam).spectrum.values)
        assert abs((mags[1] - mags[2]) - coeff * beta) <= 10 * beta**2


def _one_by_one(n, case, seed, len_a=1, len_c=1, b_max=40, k=12, d_s=3, d_m=4):
    """(instance id, curve or skip message) of each instance, built and
    scanned on its own: the reference every chunk must reproduce."""
    out = []
    for i in range(n):
        try:
            mps = build_instance(case, d_s, d_m, RandomStream(seed, i))
            out.append((i, scan_instance(mps, len_a, len_c, b_max, k)))
        except IumpsError as exc:
            out.append((i, f"{type(exc).__name__}: {exc}"))
    return out


def _assert_same_summary(a, b):
    assert a.n_instances == b.n_instances
    assert a.records == b.records
    assert a.skipped == b.skipped
    assert a.histogram.tobytes() == b.histogram.tobytes()
    assert (a.out_of_range, a.total_shifted) == (b.out_of_range, b.total_shifted)
    assert (a.cdf_all, a.cdf_full) == (b.cdf_all, b.cdf_full)


def _assert_matches_one_by_one(summary, reference):
    records = {r.instance_id: r for r in summary.records}
    skipped = dict(summary.skipped)
    for i, res in reference:
        if isinstance(res, str):
            assert skipped[i] == res
        else:
            rec = records[i]
            assert (rec.nu_gap, rec.b_max, rec.n_points) == (res.nu_gap, res.b_max, len(res.points))
    assert len(records) + len(skipped) == len(reference)


@pytest.mark.parametrize(
    "case, seed, k",
    [("case1", 31, 12), ("case2", 3, 1), ("case3", 3, 1), ("case3", 9, 12)],
)
def test_run_ensemble_does_not_depend_on_the_chunk_size(monkeypatch, case, seed, k):
    """Chunks of 1, 3 and more than n instances give the same summary; with
    k = 1 some Case-2/3 instances stop at |B| = 2 (EmptyCurve) inside a chunk."""
    n = 7
    summaries = []
    for chunk in (1, 3, n + 1):
        monkeypatch.setattr(iumps.experiments, "ENSEMBLE_CHUNK", chunk)
        summaries.append(run_ensemble(n, case, 1, 1, seed, b_max_limit=20, k=k))
    for other in summaries[1:]:
        _assert_same_summary(summaries[0], other)
    _assert_matches_one_by_one(summaries[0], _one_by_one(n, case, seed, b_max=20, k=k))
    assert summaries[0].records
    if k == 1:
        assert summaries[0].skipped
        assert all("EmptyCurve" in msg for _, msg in summaries[0].skipped)


@pytest.mark.parametrize("case", ["case1", "case2"])
def test_run_ensemble_builds_no_rho_ac(monkeypatch, case):
    """Nothing an ensemble reports reads the QMI, so its scan contracts no
    rho_AC: with the contraction made to raise, every record, skip and
    histogram count is the same."""
    import iumps.entropy

    reference = run_ensemble(9, case, 1, 1, 7, b_max_limit=20)

    def no_rho_ac(*args):
        raise AssertionError("the ensemble built a rho_AC")

    monkeypatch.setattr(iumps.entropy, "_rho_ac", no_rho_ac)
    _assert_same_summary(reference, run_ensemble(9, case, 1, 1, 7, b_max_limit=20))
    assert reference.records


def test_run_ensemble_per_instance_failures_stay_per_instance():
    """A gapless instance (d_s = 1: one unitary Kraus matrix) is skipped with
    the message of its own scan; so is a curve empty at k = 1."""
    assert iumps.experiments.ENSEMBLE_CHUNK > 1
    gapless = run_ensemble(5, "case1", 1, 1, 3, b_max_limit=12, d_s=1)
    assert gapless.records == []
    assert gapless.skipped == [msg for msg in _one_by_one(5, "case1", 3, b_max=12, d_s=1)]
    assert all(msg.startswith("DegenerateSpectrum: ") for _, msg in gapless.skipped)
    short = run_ensemble(9, "case2", 1, 1, 3, k=1)
    _assert_matches_one_by_one(short, _one_by_one(9, "case2", 3, k=1))
    assert 0 < len(short.skipped) < 9


def test_a_failed_scan_is_retried_on_the_instances_already_built(monkeypatch):
    """At k = 1 some Case-2 instances stop at |B| = 2, so their chunk's
    stacked scan raises: the chunk is still sampled once, its instances are
    scanned again one at a time, and the summary is that of chunks of one."""
    n = 40
    monkeypatch.setattr(iumps.experiments, "ENSEMBLE_CHUNK", 1)
    reference = run_ensemble(n, "case2", 1, 1, 3, k=1)
    monkeypatch.undo()
    sampled = []
    sample_iumps = iumps.experiments.sample_iumps

    def counted(case_tag, d_s, d_m, streams):
        sampled.append([s.stream_index for s in streams])
        return sample_iumps(case_tag, d_s, d_m, streams)

    monkeypatch.setattr(iumps.experiments, "sample_iumps", counted)
    summary = run_ensemble(n, "case2", 1, 1, 3, k=1)
    _assert_same_summary(summary, reference)
    chunk = iumps.experiments.ENSEMBLE_CHUNK
    assert sampled == [list(range(i, min(i + chunk, n))) for i in range(0, n, chunk)]
    assert len({i // chunk for i, _ in summary.skipped}) > 1
    _assert_matches_one_by_one(summary, _one_by_one(n, "case2", 3, k=1))


def test_run_ensemble_falls_back_when_a_stacked_step_raises(monkeypatch):
    """A stacked eigensolve that fails for a chunk sends the chunk through the
    one-element path, which gives the records and messages of that path."""
    import iumps.entropy
    import iumps.mps

    reference = run_ensemble(6, "case2", 1, 1, 3, b_max_limit=20, k=1)
    eigvals_hermitian, eig_general = iumps.entropy.eigvals_hermitian, iumps.mps.eig_general
    raised = []

    def failing_on_stacks(h, k):
        if h.ndim == 4 and h.shape[0] > 1:
            raised.append(h.shape[0])
            raise NotHermitian("relative asymmetry 1.000e+00 exceeds 1e-10")
        return eigvals_hermitian(h, k)

    monkeypatch.setattr(iumps.entropy, "eigvals_hermitian", failing_on_stacks)
    _assert_same_summary(run_ensemble(6, "case2", 1, 1, 3, b_max_limit=20, k=1), reference)
    assert raised
    monkeypatch.setattr(iumps.entropy, "eigvals_hermitian", eigvals_hermitian)

    def nonconvergent_stacks(a):
        if a.ndim == 3 and len(a) > 1:
            raised.append(len(a))
            raise NonConvergence("eigenvector residual 1.000e+00 exceeds 1.0e-11*||a|| (matrix 1)")
        return eig_general(a)

    raised.clear()
    monkeypatch.setattr(iumps.mps, "eig_general", nonconvergent_stacks)
    _assert_same_summary(run_ensemble(6, "case2", 1, 1, 3, b_max_limit=20, k=1), reference)
    assert raised


def test_stacked_failure_of_one_instance_skips_that_instance_only(monkeypatch):
    """A stacked step that fails because of one instance skips that instance,
    with the message of its own scan; the others of its chunk complete."""
    import iumps.entropy

    eigvals_hermitian = iumps.entropy.eigvals_hermitian
    bad_k = build_instance("case1", 3, 4, RandomStream(8, 2)).reach_root

    def failing_for_instance_2(h, k):
        if any(np.array_equal(kk, bad_k) for kk in k.reshape(-1, *bad_k.shape)):
            raise NotHermitian("relative asymmetry 1.000e+00 exceeds 1e-10")
        return eigvals_hermitian(h, k)

    monkeypatch.setattr(iumps.entropy, "eigvals_hermitian", failing_for_instance_2)
    summary = run_ensemble(4, "case1", 1, 1, 8, b_max_limit=12)
    assert summary.skipped == [(2, "NotHermitian: relative asymmetry 1.000e+00 exceeds 1e-10")]
    assert [r.instance_id for r in summary.records] == [0, 1, 3]


def test_power_window_equals_transfer_power_bit_for_bit():
    """Each ``powers(e, ns)`` entry is its matrix's window row, bit for bit,
    whichever ``ns`` it is asked with, n <= 41; E^0 is the identity; the
    window keeps only the powers from its lowest n on, and ``keep`` selects
    instances."""
    transfers = [
        build_instance(case, 3, 4, RandomStream(12, i)).transfer
        for case in ("case1", "case2", "case3")
        for i in range(2)
    ]
    window = PowerWindow(np.stack([t.e for t in transfers]))
    assert sorted(window.powers) == [0]
    for i, t in enumerate(transfers):
        assert np.array_equal(window[0][i], np.eye(16))
        assert np.array_equal(powers(t.e, (0,))[0], np.eye(16))
    window.extend(1, 16)
    assert sorted(window.powers) == list(range(1, 17))
    window.extend(14, 40)
    assert sorted(window.powers) == list(range(14, 41))
    asked = (range(14, 41), range(40, 13, -1), (40, 14, 27, 14), (0, 33))
    for i, t in enumerate(transfers):
        for ns in asked:
            for n, p in zip(ns, powers(t.e, ns), strict=True):
                if n:
                    assert p.tobytes() == window[n][i].tobytes(), (n, i)
    window.keep([4, 1])
    window.extend(40, 41)
    assert sorted(window.powers) == [40, 41]
    for n in (40, 41):
        assert window[n][0].tobytes() == powers(transfers[4].e, (n,))[0].tobytes()
        assert window[n][1].tobytes() == powers(transfers[1].e, (n,))[0].tobytes()
    fresh = PowerWindow(np.stack([t.e for t in transfers]))
    fresh.extend(1, 13)
    for n in range(1, 14):
        for i, t in enumerate(transfers):
            assert fresh[n][i].tobytes() == powers(t.e, (n,))[0].tobytes(), (n, i)


def test_scan_instances_equals_scan_instance():
    """Every curve of a chunked scan is the one-element scan of its instance,
    whatever entropies the instances already keep: five instances to
    |B| = 30, and stacks of 1-4, the sizes of an ensemble's chunks and of
    its one-at-a-time retry, whose first instance scans to |B| = 80."""
    inputs = [([(5, i) for i in range(5)], 30)]
    inputs += [([(60, 0)] + [(5, i) for i in range(n - 1)], 80) for n in range(1, 5)]
    for coords, b_max in inputs:
        build = lambda: [build_instance("case2", 3, 4, RandomStream(*c)) for c in coords]
        instances = build()
        keeper = instances[min(3, len(instances) - 1)]
        for n in (1, 2, 7, 30):  # a kept S(n) is never solved again
            _entropy(keeper, n)
        kept = dict(keeper.entropies)
        curves = scan_instances(instances, 1, 2, b_max, 12)
        for mps, curve in zip(build(), curves, strict=True):
            assert curve == scan_instance(mps, 1, 2, b_max, 12), (coords, b_max)
        assert all(keeper.entropies[n] == s for n, s in kept.items())
    assert curves[0].b_max == 80


def test_scan_with_factors_takes_one_instance():
    """The QMI column is asked of a one-instance scan only; it adds a curve's
    ``qmi`` and leaves its points as they are."""
    mps = build_instance("case2", 3, 4, RandomStream(60, 0))
    curve = scan_instance(mps, 1, 2, 80, 12, region_factors(mps.kraus, 1, 2))
    assert curve.qmi is not None and len(curve.qmi) == len(curve.points)
    plain = scan_instance(build_instance("case2", 3, 4, RandomStream(60, 0)), 1, 2, 80, 12)
    assert (curve.nu_gap, curve.points, curve.b_max) == (plain.nu_gap, plain.points, plain.b_max)
    pair = [build_instance("case2", 3, 4, RandomStream(5, i)) for i in range(2)]
    with pytest.raises(ValueError, match="one instance"):
        scan_instances(pair, 1, 2, 40, 12, region_factors(pair[0].kraus, 1, 2))


@pytest.mark.parametrize(
    "source, b_max",
    [
        ("case1_instance", 40),
        ("case2_instance", 40),
        ("case3_instance", 40),
        ("golden", 40),
        ("reset_mixed", 40),
        ("case2_seed60", 80),
    ],
)
def test_planned_first_block_never_changes_a_result(monkeypatch, request, source, b_max):
    """A one-instance scan's planned first block changes its schedule, never
    its curve: at ``PLAN_MARGIN`` -100 the scan takes several blocks (the
    fixed blocks of |B| 2-16, 18-32, ..., where k ln 10 / q < 116; the
    seed-60 instance, nu_gap 0.913, plans 2-52), and at +100 one block runs
    to b_max_limit, or to ``PLAN_BLOCK_MAX`` sizes (|B| = 64) and on in
    blocks of ``SCAN_BLOCK`` at b_max_limit 80.  The points, b_max and QMI
    column are identical at -100, 4 and +100."""
    if source == "golden":
        kraus = benchmark_kraus()
    elif source == "reset_mixed":
        kraus = reset_mixed_decay(0.5, 0.3, 0.05)
    elif source == "case2_seed60":
        kraus = build_instance("case2", 3, 4, RandomStream(60, 0)).kraus
    else:
        kraus = request.getfixturevalue(source).kraus
    fill, blocks = iumps.experiments.fill_entropies_chunk, []

    def counted(instances, missing, powers_n):
        blocks.append(missing)
        return fill(instances, missing, powers_n)

    monkeypatch.setattr(iumps.experiments, "fill_entropies_chunk", counted)
    curves = []
    for margin in (-100, 4, 100):
        monkeypatch.setattr(iumps.experiments, "PLAN_MARGIN", margin)
        blocks.clear()
        mps = build_iumps(kraus)  # fresh: no S(n) kept from another schedule
        curve = scan_instance(mps, 1, 2, b_max, 12, region_factors(kraus, 1, 2))
        curves.append((curve.nu_gap, curve.points, curve.b_max, curve.qmi))
        if margin == -100:
            assert len(blocks) > 1
        if margin == 100:
            first_end = min(b_max, 2 * iumps.experiments.PLAN_BLOCK_MAX)
            assert max(blocks[0]) == first_end + 3
            assert (len(blocks) == 1) == (first_end == b_max)
    assert curves[0] == curves[1] == curves[2]
    assert curves[0][3] is not None and len(curves[0][3]) == len(curves[0][1])


def test_a_slow_gap_caps_its_planned_first_block():
    """nu_gap = 0.99 plans |B| up to 1,380 but stops at |B| = 986: the first
    block holds ``PLAN_BLOCK_MAX`` sizes, so the QMI-column scan's
    ``tracemalloc`` peak stays near that of blocks of 8 (6.4 MB measured; an
    uncapped first block solving to 1,382 peaked at 13.3 MB).  Its points
    are, bit for bit, those it gets in a two-instance stack, which takes
    blocks of 8 from the start."""
    import tracemalloc

    kraus = analytic_family("first", 0.01)
    mps = build_iumps(kraus)
    factors = region_factors(kraus, 1, 1)
    tracemalloc.start()
    try:
        curve = scan_instance(mps, 1, 1, 3000, 12, factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.b_max == 984 and len(curve.qmi) == len(curve.points)
    assert peak < 9e6, f"peak {peak / 1e6:.1f} MB"
    pair = scan_instances([build_iumps(kraus), build_iumps(kraus)], 1, 1, 3000, 12)
    for stacked in pair:
        assert stacked.points == curve.points and stacked.b_max == curve.b_max


@pytest.mark.parametrize("margin", [-100, 4, 100])
def test_planned_first_block_keeps_the_empty_curve(monkeypatch, margin):
    """The Jordan-block set stops at |B| = 2 under any plan."""
    monkeypatch.setattr(iumps.experiments, "PLAN_MARGIN", margin)
    kraus = jordan_decay(0.5, 0.3)
    with pytest.raises(EmptyCurve, match=r"already at \|B\| = 2"):
        scan_instance(build_iumps(kraus), 1, 1, 200, 12, region_factors(kraus, 1, 1))


@pytest.mark.parametrize("case, path", [("case1", ()), ("case2", (1,)), ("case3", (1,))])
def test_non_canonical_draw_raises_the_same_message(monkeypatch, case, path):
    """A sampled set is checked once, in sample_case1; a non-canonical draw
    raises the ValueError of that check, naming its matrix of the one-stream
    stack, through the builders and through run_ensemble alike."""
    import iumps.mps

    haar_unitaries = iumps.mps.haar_unitaries

    def skewed(dim, streams):
        u = haar_unitaries(dim, streams)
        for row, stream in enumerate(streams):
            if stream.stream_index == 2 and stream.path == path:
                u[row] *= 1.5
        return u

    monkeypatch.setattr(iumps.mps, "haar_unitaries", skewed)
    builder = {"case1": build_case1, "case2": build_case2, "case3": build_case3}[case]
    with pytest.raises(ValueError, match="canonical-form deviation 1.250e") as direct:
        builder(3, 4, RandomStream(77, 2))
    # a one-set stack names no place; a two-block set names its half
    assert str(direct.value).endswith("(matrix 1)" if path else "1.0e-10")
    with pytest.raises(ValueError) as ensemble:
        run_ensemble(6, case, 1, 1, 77, b_max_limit=12)
    assert str(ensemble.value) == str(direct.value)
    # the builders leave the check to sample_case1 and do not validate again
    monkeypatch.setattr(iumps.mps, "haar_unitaries", haar_unitaries)
    validated = []
    monkeypatch.setattr(KrausSet, "validate", lambda self: validated.append(self))
    builder(3, 4, RandomStream(77, 2))
    assert validated == []


@pytest.mark.parametrize(
    "case, d_s, d_m, message",
    [
        ("case2", 3, 3, "d_M must be even"),
        ("case3", 0, 3, "d_M must be even"),
        ("case2", 0, 4, "d_s and d_M must be >= 1"),
        ("case4", 3, 4, "unknown case 'case4'; expected one of ['case1', 'case2', 'case3']"),
        ("case1", 0, 4, "d_s and d_M must be >= 1"),
    ],
)
def test_run_ensemble_rejects_a_bad_case_before_any_build(monkeypatch, case, d_s, d_m, message):
    """A case or dimensions the builders reject end the ensemble with the
    one-stream build's ValueError, before any chunk is built."""
    with pytest.raises(ValueError) as direct:
        build_instance(case, d_s, d_m, RandomStream(5, 0))
    built = []
    monkeypatch.setattr(iumps.experiments, "sample_iumps", lambda *args: built.append(args))
    with pytest.raises(ValueError) as ensemble:
        run_ensemble(8, case, 1, 1, 5, d_s=d_s, d_m=d_m)
    assert str(ensemble.value) == str(direct.value) == message
    assert built == []


def test_scan_instances_raises_for_a_gapless_instance_before_any_power(monkeypatch):
    """A gapless instance (d_s = 1: one unitary Kraus matrix) ends the whole
    stack's scan in DegenerateSpectrum, before any E^n is formed."""
    from iumps import DegenerateSpectrum

    instances = [
        build_instance("case1", 3, 4, RandomStream(5, 0)),
        build_instance("case1", 1, 4, RandomStream(5, 1)),
    ]

    def no_window(e):
        raise AssertionError("the scan formed a power")

    monkeypatch.setattr(iumps.experiments, "PowerWindow", no_window)
    with pytest.raises(DegenerateSpectrum, match="every eigenvalue is peripheral"):
        scan_instances(instances, 1, 1, 20, 12)


def test_scan_instances_raises_for_an_empty_curve_in_the_first_block(monkeypatch):
    """At k = 1 instance 1 of Case 2, seed 3, stops at |B| = 2: a stack that
    holds it raises EmptyCurve in the first block of the scan."""
    instances = [build_instance("case2", 3, 4, RandomStream(3, i)) for i in range(4)]
    fill, blocks = iumps.experiments.fill_entropies_chunk, []

    def counted(*args):
        blocks.append(args)
        return fill(*args)

    monkeypatch.setattr(iumps.experiments, "fill_entropies_chunk", counted)
    with pytest.raises(EmptyCurve, match=r"QCMI <= 1e-1 already at \|B\| = 2"):
        scan_instances(instances, 1, 1, 40, 1)
    assert len(blocks) == 1


@pytest.mark.parametrize("case, reach", [("case1", 144), ("case2", 72)])
def test_an_instance_at_d_m_12_scans_to_its_stop_and_matches_brute_force(case, reach):
    """Past the old d_M <= 8 limit: a d_M = 12 instance builds with every
    canonical, residual and Hermitian check passing, scans to its 10^-12
    stop, gives ``jordan_constants``, and each S(n), n <= 5, solved on its
    reach of 144 (Case 1) or 72 (Case 2) coordinates, lies within 1e-9 of
    the entropy of the explicit reduced density."""
    mps = build_instance(case, 3, 12, RandomStream(20231, 0))
    assert int(mps.reach.sum()) == reach
    curve = scan_instance(mps, 1, 1, 40, 12)
    assert curve.b_max < 40 and qcmi(mps, 1, curve.b_max + 2, 1) <= 1e-12
    constants = jordan_constants(mps)
    assert constants.d_M == 12 and constants.nu_gap == curve.nu_gap and constants.big_q > 0
    for n in range(1, 6):
        assert abs(region_entropy(mps, n).entropy - brute_force_entropy(mps, n)) <= 1e-9


def test_a_failed_one_stream_build_names_no_place(monkeypatch):
    """The ensemble redoes a failing chunk one stream at a time; the skipped
    instance's message then names no place in a one-instance stack."""
    import iumps.mps

    bad = iumps.mps.sample_case1(3, 4, [RandomStream(3, 5)])[0]
    transfer_operators = iumps.mps.transfer_operators

    def breaking_5(matrices):
        e = transfer_operators(matrices)
        for row, kraus in zip(e.reshape(-1, 16, 16), matrices.reshape(-1, 3, 4, 4)):
            if np.array_equal(kraus, bad):
                row[1, 0] += 1e-6  # not Hermiticity preserving
        return e

    monkeypatch.setattr(iumps.mps, "transfer_operators", breaking_5)
    summary = run_ensemble(8, "case1", 1, 1, 3)
    assert [i for i, _ in summary.skipped] == [5] and len(summary.records) == 7
    message = summary.skipped[0][1]
    assert message.startswith("NotHermitian: transfer matrix does not preserve Hermiticity")
    assert message.endswith("times its largest entry")
