import re

import numpy as np
import pytest

from iumps import (
    DegenerateSpectrum,
    IuMps,
    KrausSet,
    NearDegenerate,
    RandomStream,
    TransferMatrix,
    Unsupported,
    analytic_family,
    benchmark_kraus,
    build_iumps,
    eig_general,
    jordan_constants,
    qcmi,
    sufficient_b,
    decay_bound,
)
from iumps.bounds import DEGENERACY_TOL, BoundConstants, distinct_clusters
from iumps.mps import PERIPHERAL_TOL, build_case
from oracles import channel_apply, jordan_decay, qcmi_error_estimate, reset_mixed_decay


def pauli_channel_mps(p=0.7, q=0.2, r=0.1):
    """Normal transfer matrix with real spectrum {1, 1-2r, 1-2q, 1-2q-2r}."""
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    mats = np.stack(
        [np.sqrt(p) * np.eye(2), np.sqrt(q) * z, np.sqrt(r) * x]
    ).astype(complex)
    ks = KrausSet(d_s=3, d_M=2, matrices=mats, case_tag="explicit")
    ks.validate()
    return build_iumps(ks)


def hand_built_mps(e):
    """An IuMps on d_M = 2 whose transfer matrix is the 4x4 ``e``, with sigma = I/2.

    ``jordan_constants`` reads only E's spectrum, sigma and d_M, so ``e``
    need not come from the Kraus set.
    """
    spectrum = eig_general(e)
    mags = np.abs(spectrum.values)
    transfer = TransferMatrix(
        e=e,
        spectrum=spectrum,
        peripheral_indices=np.flatnonzero(mags > 1 - 1e-8),
        nu_gap=float(mags[mags <= 1 - 1e-8].max()),
    )
    kraus = KrausSet(d_s=1, d_M=2, matrices=np.eye(2, dtype=complex)[None], case_tag="explicit")
    return IuMps(kraus=kraus, sigma=np.eye(2) / 2, transfer=transfer)


def test_near_jordan_gap_pair_raises_near_degenerate():
    # a 2x2 Jordan block at the gap magnitude, its diagonal split by 1e-9: the
    # pair is defective to within 1e-9, and its eigenvectors nearly parallel
    e = np.diag([1.0, 0.5, 0.5 + 1e-9, 0.1]).astype(complex)
    e[1, 2] = 1.0
    mps = hand_built_mps(e)
    shell = mps.transfer.spectrum.values[1:3]
    assert 1e-12 < abs(shell[0] - shell[1]) <= 1e-8
    with pytest.raises(NearDegenerate, match="K > 0 suspected"):
        jordan_constants(mps)


@pytest.mark.parametrize(
    "gamma", [np.pi / 10, np.sqrt(2) - 1, 0.5, (np.sqrt(5) - 1) / 2], ids="{:.3f}".format
)
def test_a_jordan_block_at_the_gap_is_refused_before_jordan_constants(gamma):
    # A Kraus set with a 2x2 Jordan block at the gap magnitude 1 - gamma
    # builds: fixed_point reads only the eigenvalue-1 cluster, so the
    # singular eigenvector matrix does not stop it.  The block is then refused
    # before any constant is computed, by the shell's eigenvalue condition
    # number, though the solver splits the pair by less than 1e-12 and sigma
    # is pure (the sigma-rank test would say Unsupported).
    kraus = jordan_decay(gamma, 0.3)
    mps = build_iumps(kraus)
    assert mps.transfer.nu_gap == pytest.approx(1 - gamma, abs=1e-15)
    values = mps.transfer.spectrum.values
    shell = values[np.abs(np.abs(values) - mps.transfer.nu_gap) <= 1e-8]
    assert len(shell) == 2 and abs(shell[0] - shell[1]) <= 1e-12
    assert np.linalg.cond(mps.transfer.spectrum.vectors) > 1e15
    assert np.abs(mps.sigma - np.diag([1.0, 0.0, 0.0])).max() <= 1e-15
    assert np.abs(channel_apply(kraus, mps.sigma) - mps.sigma).max() <= 1e-15
    with pytest.raises(NearDegenerate, match="K > 0 suspected"):
        jordan_constants(mps)


@pytest.mark.parametrize("gamma", [np.pi / 10, 0.5, (np.sqrt(5) - 1) / 2], ids="{:.3f}".format)
@pytest.mark.parametrize("eps", [0.01, 0.05, 0.2])
def test_a_jordan_block_under_a_full_rank_fixed_point_is_near_degenerate(eps, gamma):
    # The reset keeps the exact Jordan block and makes sigma full rank, so
    # only the Jordan test stands between this set and K = 0 constants.
    # Roundoff splits the pair by about 1e-8, in some cells radially, which
    # leaves one member on the shell; its condition number flags it either way.
    kraus = reset_mixed_decay(gamma, 0.3, eps)
    assert kraus.canonical_deviation() <= 1e-14
    mps = build_iumps(kraus)
    assert mps.transfer.nu_gap == pytest.approx((1 - eps) * (1 - gamma), abs=1e-7)
    assert np.linalg.eigvalsh(mps.sigma)[0] > 1e-3
    with pytest.raises(NearDegenerate, match="K > 0 suspected"):
        jordan_constants(mps)


# Largest relative gap of QCMI(|B|+2)/QCMI(|B|)/nu_gap^4 from the K = 1
# prediction ((|B|+2)/|B|)^2 at |B| >= 12: measured 1.6% (eps = 0.05, |B| = 12),
# shrinking with |B|; the band is about twice that.
K1_LAW_TOL = 0.03


@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_a_jordan_block_at_the_gap_decays_by_the_k1_law(eps):
    # QCMI ~ |B|^(2K) nu_gap^(2|B|): with the exact 2x2 Jordan block (K = 1) the
    # ratio over two sites tends to ((|B|+2)/|B|)^2 nu_gap^4, where K = 0 gives
    # nu_gap^4.  Points are kept while QCMI(|B|+2) > 1e-10, far above its
    # ~1e-15 absolute noise.
    mps = build_iumps(reset_mixed_decay(0.5, 0.3, eps))
    nu = mps.transfer.nu_gap
    checked = []
    for b in range(12, 40, 2):
        ahead = qcmi(mps, 1, b + 2, 1)
        if ahead <= 1e-10:
            break
        ratio = ahead / qcmi(mps, 1, b, 1) / nu**4
        assert abs(ratio / ((b + 2) / b) ** 2 - 1) <= K1_LAW_TOL, (b, ratio)
        assert ratio >= 1.15, (b, ratio)
        checked.append(b)
    assert len(checked) >= 2, checked


def test_exactly_degenerate_semisimple_gap_pair_passes():
    mps = hand_built_mps(np.diag([1.0, 0.5, 0.5, 0.1]).astype(complex))
    constants = jordan_constants(mps)
    assert constants.k_jordan == 0
    assert constants.nu_gap == 0.5
    assert constants.d_cap == 3
    assert abs(constants.cond_s - 1.0) <= 1e-12


def test_normal_channel_has_unit_condition_number():
    constants = jordan_constants(pauli_channel_mps())
    assert constants.k_jordan == 0
    assert abs(constants.cond_s - 1.0) <= 1e-8
    assert abs(constants.c1 - 1.0) <= 1e-8
    assert abs(constants.c2 - 1.0) <= 1e-8
    assert constants.rate_q == pytest.approx(2 * np.log(1 / constants.nu_gap))


def test_haar_instances_have_trivial_jordan_structure(case1_instance):
    constants = jordan_constants(case1_instance)
    assert constants.k_jordan == 0
    assert constants.cond_s >= 1.0
    assert constants.big_q == pytest.approx(
        16 * 4**3 * constants.c2**2 / constants.sigma_min**3
    )
    assert constants.d_cap <= 16
    assert constants.delta_spec > 0
    assert constants.c3 > 0


def test_constants_are_reproducible(case1_instance):
    a = jordan_constants(case1_instance)
    b = jordan_constants(case1_instance)
    assert abs(a.c2 - b.c2) <= 1e-6 * abs(a.c2)
    assert a == b


def test_rate_improvement_factor_identity(case1_instance):
    constants = jordan_constants(case1_instance)
    assert constants.rate_q / (0.5 * np.log(1 / constants.nu_gap)) == pytest.approx(4.0)


def test_decay_bound_arithmetic():
    constants = BoundConstants(
        k_jordan=0, nu_gap=0.5, sigma_min=0.25, c1=1.0, c2=1.0, c3=1.0,
        cond_s=1.0, big_q=1.0, rate_q=np.log(4.0), d_cap=4, delta_spec=0.1, d_M=4,
    )
    assert decay_bound(constants, 2) == pytest.approx(1.0 / 16.0)
    # exponential law: doubling b adds -q*b to the log-bound when K = 0
    for b in (3, 5, 8):
        lhs = np.log(decay_bound(constants, 2 * b)) - np.log(decay_bound(constants, b))
        assert lhs == pytest.approx(-constants.rate_q * b)


def test_decay_bound_strictly_decreasing(case1_instance):
    constants = jordan_constants(case1_instance)
    values = [decay_bound(constants, b) for b in range(1, 41)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bound_dominates_measured_qcmi_on_benchmark():
    from iumps import benchmark_kraus, scan_instance

    mps = build_iumps(benchmark_kraus())
    constants = jordan_constants(mps)
    curve = scan_instance(mps, 1, 1, 40, 12)
    for p in curve.points:
        assert decay_bound(constants, p.b_len) >= p.qcmi


def test_sufficient_b_frozen_example():
    constants = BoundConstants(
        k_jordan=0, nu_gap=0.5, sigma_min=0.25, c1=1.0, c2=1.0, c3=1.0,
        cond_s=1.0, big_q=1.0, rate_q=np.log(4.0), d_cap=4, delta_spec=0.1, d_M=4,
    )
    # 0.5^b <= (1/(6 sqrt 2)) * 0.25^2.5 / 8 * min(1, 60.75*0.0625) = 4.6036e-4
    # first even b: 12; the dimension condition 2 ln4/ln3 = 2.52 is weaker
    rhs = (1 / (6 * np.sqrt(2))) * 0.25**2.5 / 8 * min(1.0, (243 / 4) * 0.25**2)
    scan = 2
    while 0.5**scan > rhs or scan < 2 * np.log(4) / np.log(3):
        scan += 2
    assert scan == 12
    assert sufficient_b(constants, 3) == 12
    assert sufficient_b(constants, 3) == sufficient_b(constants, 3)


def test_sufficient_b_dimension_condition_binds():
    constants = BoundConstants(
        k_jordan=0, nu_gap=1e-6, sigma_min=0.999999, c1=1.0, c2=1.0, c3=1.0,
        cond_s=1.0, big_q=1.0, rate_q=1.0, d_cap=4, delta_spec=0.1, d_M=4,
    )
    # smallness condition already holds at b = 2; 2 ln4 / ln3 = 2.52 forces 4
    assert sufficient_b(constants, 3) == 4


def test_sufficient_b_rejects_jordan_regime():
    constants = BoundConstants(
        k_jordan=1, nu_gap=0.5, sigma_min=0.25, c1=1.0, c2=1.0, c3=1.0,
        cond_s=1.0, big_q=1.0, rate_q=1.0, d_cap=4, delta_spec=0.1, d_M=4,
    )
    with pytest.raises(Unsupported):
        sufficient_b(constants, 3)


def test_qcmi_error_estimate():
    val = qcmi_error_estimate(4, 1e-14, 1e-14)
    assert val == pytest.approx(16 * 1e-14 * np.log(1e14))
    assert 1e-13 <= val <= 1e-11  # the order-1e-12 figure
    assert qcmi_error_estimate(4, 0.5, 0.0) == 0.0
    assert qcmi_error_estimate(4, 1.0, 1e-10) == 0.0
    with pytest.raises(ValueError):
        qcmi_error_estimate(4, 0.0, 1e-14)
    with pytest.raises(ValueError):
        qcmi_error_estimate(4, 0.5, -1e-14)


def test_decay_bound_rejects_nonpositive_b():
    constants = BoundConstants(
        k_jordan=0, nu_gap=0.5, sigma_min=0.25, c1=1.0, c2=1.0, c3=1.0,
        cond_s=1.0, big_q=1.0, rate_q=1.0, d_cap=4, delta_spec=0.1, d_M=4,
    )
    with pytest.raises(ValueError):
        decay_bound(constants, 0)


def transient_level_mps(seed):
    """A canonical d_s = 2, d_M = 3 set whose isometry keeps its first two
    columns on levels 0-1: the channel leaves that block invariant, so the
    fixed point has rank 2 and its least eigenvalue is roundoff."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    a[[2, 5], :2] = 0
    mats = np.linalg.qr(a)[0].reshape(2, 3, 3)
    ks = KrausSet(d_s=2, d_M=3, matrices=mats, case_tag="explicit")
    ks.validate()
    return build_iumps(ks)


@pytest.mark.parametrize("seed", range(4))
def test_rank_two_fixed_point_is_unsupported(seed):
    mps = transient_level_mps(seed)
    lam = np.linalg.eigvalsh(mps.sigma)
    assert abs(lam[0]) <= 1e-40 and lam[1] > 1e-3
    with pytest.raises(Unsupported, match="the fixed point is not full rank"):
        jordan_constants(mps)


@pytest.mark.parametrize("sigma_min", [-2.0e-51, 0.0, 2.0e-50, 1e-13])
def test_sigma_min_at_roundoff_of_either_sign_is_unsupported(sigma_min):
    """The decision reads sigma_min against sigma's largest eigenvalue, not
    its sign: a positive roundoff would otherwise give Q near 1e150."""
    mps = transient_level_mps(0)
    forced = IuMps(kraus=mps.kraus, sigma=np.diag([sigma_min, 0.3, 0.7]), transfer=mps.transfer)
    with pytest.raises(Unsupported, match=re.escape(f"sigma_min = {sigma_min:.3e}: ")):
        jordan_constants(forced)


def test_sigma_min_above_the_rank_threshold_keeps_the_bound():
    mps = transient_level_mps(0)
    kept = IuMps(kraus=mps.kraus, sigma=np.diag([1e-9, 0.3, 0.7]), transfer=mps.transfer)
    constants = jordan_constants(kept)
    assert constants.sigma_min == 1e-9
    assert constants.big_q == 16.0 * 3**3 * constants.c2**2 / 1e-9**3


def _clusters_on_numpy_scalars(values):
    """``distinct_clusters`` as it was written over numpy scalars, kept as the
    reference for the loop over Python numbers."""
    reps = []
    for v in values:
        if not any(abs(v - r) <= DEGENERACY_TOL for r in reps):
            reps.append(v)
    return np.array(reps)


def test_distinct_clusters_and_delta_keep_the_numpy_scalar_bits():
    """The clusters, their bits and dtype, and ``jordan_constants``' delta, on
    the spectra of Cases 1-3, the golden instance and both analytic families,
    and on the real magnitudes ``distinct_magnitudes`` passes."""
    kraus_sets = [
        build_case(case, 3, 4, RandomStream(seed, 0))
        for case in ("case1", "case2", "case3")
        for seed in range(12)
    ]
    kraus_sets.append(benchmark_kraus())
    for beta in (0.0, 1e-4, 0.01, 0.1, 0.5):
        kraus_sets += [analytic_family("first", beta), analytic_family("second", beta)]
    deltas = 0
    for kraus in kraus_sets:
        mps = build_iumps(kraus)
        values = mps.transfer.spectrum.values
        magnitudes = np.sort(np.abs(values))[::-1]
        for spectrum in (values, magnitudes):
            expected = _clusters_on_numpy_scalars(spectrum)
            clusters = distinct_clusters(spectrum)
            assert clusters.dtype == expected.dtype == spectrum.dtype
            assert clusters.tobytes() == expected.tobytes()
        try:
            constants = jordan_constants(mps)
        except (NearDegenerate, Unsupported, DegenerateSpectrum):
            continue
        clusters = _clusters_on_numpy_scalars(values)
        peripheral = clusters[np.abs(clusters) > 1 - PERIPHERAL_TOL]
        delta = min(
            abs(p - c) for p in peripheral for c in clusters if abs(p - c) > DEGENERACY_TOL
        )
        assert constants.delta_spec == float(delta)
        deltas += 1
    assert deltas == len(kraus_sets) - 1  # the first family at beta = 0 has no gap


def test_c3_past_the_double_range_is_inf():
    """c3's factor (2/delta)^(d_cap - 1) can pass the double range at large
    d_M (it did for Case 1 at d_s = 2, d_M = 20, seed 0): a d_M = 12 Haar set
    mixed with the identity, nu_gap near 0.995, has d_cap = 144 clusters.
    c3 is then inf, not an OverflowError; Q and the bound do not read it."""
    haar = build_case("case1", 3, 12, RandomStream(5, 0)).matrices
    p = 0.99
    mats = np.concatenate([np.sqrt(p) * np.eye(12, dtype=complex)[None], np.sqrt(1 - p) * haar])
    kraus = KrausSet(d_s=4, d_M=12, matrices=mats, case_tag="explicit")
    kraus.validate()
    constants = jordan_constants(build_iumps(kraus))
    assert constants.d_cap == 144 and constants.nu_gap > 0.99
    assert constants.c3 == np.inf and np.isfinite(constants.big_q)
    assert 0 < decay_bound(constants, 10) < np.inf
