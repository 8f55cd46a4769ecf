import math

import numpy as np
import pytest

import iumps.experiments
from iumps import (
    BenchmarkFailed,
    EmptyCurve,
    I_TH,
    RandomStream,
    RegionSpec,
    TooFewPoints,
    analytic_family,
    benchmark_kraus,
    golden_benchmark,
    build_instance,
    build_iumps,
    distinct_magnitudes,
    extract_rate,
    gap_statistics,
    qcmi,
    run_ensemble,
    scan_instance,
    shift_graph,
    transfer_matrix,
)
from iumps.experiments import CurvePoint, DecayCurve, bin_shifted, second_family_coefficients


@pytest.fixture(scope="module")
def sample_curve(case1_instance):
    return scan_instance(case1_instance, 1, 1, 40, 12)


def synthetic_curve(nu_gap, rate_per_site, n_points=12, prefactor=0.3):
    """Curve with qcmi = prefactor * exp(-rate_per_site * b), exact."""
    norm = 2 * math.log(1 / nu_gap)
    points = []
    for b in range(2, 2 * n_points + 1, 2):
        q = prefactor * math.exp(-rate_per_site * b)
        points.append(CurvePoint(b_len=b, qcmi=q, qmi=0.0, f=math.log(q) / norm))
    return DecayCurve(
        instance_id=0, case_tag="explicit", nu_gap=nu_gap, points=points, b_max=points[-1].b_len
    )


def test_scan_stopping_rule(sample_curve, case1_instance):
    assert all(p.qcmi > 1e-12 for p in sample_curve.points)
    assert [p.b_len for p in sample_curve.points] == list(range(2, sample_curve.b_max + 1, 2))
    if sample_curve.b_max < 40:
        nxt = qcmi(case1_instance, RegionSpec(1, sample_curve.b_max + 2, 1))
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
    assert qcmi(mps, RegionSpec(1, 2, 1)) <= 0.1
    with pytest.raises(EmptyCurve):
        scan_instance(mps, 1, 1, 40, 1)


def test_shift_graph_contains_origin(sample_curve):
    shifted = shift_graph(sample_curve)
    assert shifted[-1] == (0.0, 0.0)
    assert all(x <= 0 for x, _ in shifted)


def test_shift_graph_exact_exponential_is_diagonal():
    nu = 0.5
    curve = synthetic_curve(nu, 2 * math.log(1 / nu))
    for x, y in shift_graph(curve):
        assert y == pytest.approx(-x, abs=1e-9)


def test_extract_rate_recovers_planted_rates():
    nu = 0.6
    full = extract_rate(synthetic_curve(nu, 2 * math.log(1 / nu)))
    assert abs(full - 1.0) <= 1e-9
    half = extract_rate(synthetic_curve(nu, math.log(1 / nu)))
    assert abs(half - 0.5) <= 1e-9


def test_extract_rate_too_few_points():
    curve = synthetic_curve(0.5, 1.0, n_points=3)
    with pytest.raises(TooFewPoints):
        extract_rate(curve)


def test_extract_rate_benchmark_instance():
    mps = build_iumps(benchmark_kraus())
    curve = scan_instance(mps, 1, 1, 40, 12)
    assert extract_rate(curve) >= 0.95


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
        assert summary.records and all(r.case_tag == case for r in summary.records)
        rec = summary.records[0]
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


def test_gap_statistics_small_sample():
    stats = gap_statistics(60, 2024)
    assert stats.one_minus_nu1[-1] <= 1e-12
    assert np.all(np.diff(stats.nu1_minus_nu2) >= 0)
    markers = stats.markers()
    assert markers["min_nu1_minus_nu2"] >= 0
    again = gap_statistics(60, 2024)
    assert np.array_equal(stats.nu1_minus_nu2, again.nu1_minus_nu2)


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
