import math

import numpy as np
import pytest

from iumps import (
    I_TH,
    IuMps,
    KrausSet,
    NotHermitian,
    RandomStream,
    TooLarge,
    analytic_family,
    benchmark_kraus,
    brute_force_density,
    brute_force_entropy,
    build_instance,
    build_iumps,
    projected_density,
    qcmi,
    qmi,
    region_entropy,
    rho_disjoint,
    scan_instance,
    site_products,
    support_decomposition,
    unvec,
    vec,
)
from iumps.entropy import (
    _entropy,
    _region_factor,
    _support_entropies,
    _supports,
    entropy_from_eigenvalues,
    fill_entropies_chunk,
    qmi_curve,
    region_factors,
)
from iumps.mps import PowerWindow, build_case, powers
from iumps.numerics import eigvals_hermitian, haar_unitary, mat_power
from oracles import materialize_isometry, purified_spectrum


def product_state_mps(d_s=3):
    amps = np.array([0.5, 0.5j, np.sqrt(0.5)], dtype=complex)[:d_s]
    amps = amps / np.linalg.norm(amps)
    ks = KrausSet(d_s=d_s, d_M=1, matrices=amps.reshape(d_s, 1, 1), case_tag="explicit")
    ks.validate()
    return build_iumps(ks)


@pytest.fixture(scope="module")
def golden_mps():
    return build_iumps(benchmark_kraus())


def test_support_identity_channel():
    u = np.eye(2, dtype=complex)
    ks = KrausSet(d_s=1, d_M=2, matrices=u[None], case_tag="explicit")
    mps = build_iumps(ks)
    sp = support_decomposition(mps.transfer, 1)
    # a single Kraus operator leaves a rank-one support Gram matrix
    assert sp.support_dim == 1
    assert abs(sp.sigma_diag[0] - 2.0) <= 1e-12


def test_support_gram_is_psd(golden_mps, case1_instance):
    for mps, n in ((golden_mps, 2), (case1_instance, 3)):
        sp = support_decomposition(mps.transfer, n)
        assert sp.sigma_diag.min() >= -1e-12
        assert sp.support_dim <= 16
        assert np.abs(sp.w.conj().T @ sp.w - np.eye(16)).max() <= 1e-12
        assert np.all(np.diff(sp.sigma_diag) <= 0)
        assert np.all(sp.sigma_diag[: sp.support_dim] > 0)


def test_support_rejects_broken_index_convention():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((16, 16))
    from iumps.mps import TransferMatrix
    from iumps import eig_general

    fake = TransferMatrix(
        e=z.astype(complex),
        spectrum=eig_general(z),
        peripheral_indices=np.array([0]),
        nu_gap=0.5,
    )
    with pytest.raises(NotHermitian):
        support_decomposition(fake, 1)
    golden = build_iumps(benchmark_kraus())
    with pytest.raises(NotHermitian):
        region_entropy(IuMps(kraus=golden.kraus, sigma=golden.sigma, transfer=fake), 1)


def test_projected_density_trace_and_psd(case1_instance):
    sp = support_decomposition(case1_instance.transfer, 4)
    rho = projected_density(sp, case1_instance.sigma)
    assert abs(np.trace(rho).real - 1.0) <= 1e-9
    assert np.abs(rho - rho.conj().T).max() <= 1e-10
    assert np.linalg.eigvalsh(rho).min() >= -1e-10


@pytest.mark.parametrize("case,n", [("case1", 2), ("case1", 4), ("case2", 3), ("case3", 4)])
def test_projected_density_matches_brute_force(case, n):
    mps = build_instance(case, 3, 4, RandomStream(515, hash(case) % 100 + n))
    sp = support_decomposition(mps.transfer, n)
    rho_p = projected_density(sp, mps.sigma)
    support_spec = np.sort(np.linalg.eigvalsh(rho_p))[::-1]
    brute_spec = np.sort(np.linalg.eigvalsh(brute_force_density(mps, n)))[::-1]
    m = len(support_spec)
    assert np.abs(support_spec - brute_spec[:m]).max() <= 1e-10
    assert np.abs(brute_spec[m:]).max(initial=0.0) <= 1e-10


def test_region_entropy_product_state():
    mps = product_state_mps()
    for n in (1, 2, 5):
        assert abs(region_entropy(mps, n).entropy) <= 1e-12
    assert abs(brute_force_entropy(mps, 3)) <= 1e-12


def test_region_entropy_golden_instance_single_site(golden_mps):
    report = region_entropy(golden_mps, 1)
    lam = np.array([0.25, 0.375, 0.375])
    expected_entropy = entropy_from_eigenvalues(lam)
    assert abs(report.entropy - expected_entropy) <= 1e-12
    assert np.abs(np.sort(report.eigenvalues)[::-1][:3] - np.sort(lam)[::-1]).max() <= 1e-12
    assert abs(report.eigenvalues.sum() - 1.0) <= 1e-9


def test_region_entropy_matches_brute_force_n5(case1_instance):
    ent = region_entropy(case1_instance, 5).entropy
    assert abs(ent - brute_force_entropy(case1_instance, 5)) <= 1e-9


def test_entropy_report_normalization(case2_instance, case3_instance):
    for mps in (case2_instance, case3_instance):
        for n in (1, 3, 6):
            report = region_entropy(mps, n)
            assert abs(report.eigenvalues.sum() - 1.0) <= 1e-9
            assert 0.0 <= report.entropy <= np.log(report.eigenvalues.size) + 1e-12
            assert report.clipped_weight <= 1e-10


def test_qcmi_product_state_zero():
    mps = product_state_mps()
    assert abs(qcmi(mps, 1, 3, 1)) <= 1e-12


def test_qcmi_nonnegative(case1_instance, case3_instance):
    for mps in (case1_instance, case3_instance):
        for b in (2, 6, 12):
            assert qcmi(mps, 1, b, 1) >= -1e-9


def test_qcmi_matches_brute_force(golden_mps):
    # |A| = |C| = 1, |B| = 2: brute-force over the explicit four-site state.
    # Composite basis index runs (s4, s3, s2, s1) with the first-applied site
    # fastest, so A = site 1 (fastest axis) and C = site 4 (slowest axis).
    rho4 = brute_force_density(golden_mps, 4)
    full = rho4.reshape((3,) * 8)
    rho_ab = np.einsum("pijkplmn->ijklmn", full).reshape(27, 27)  # trace site 4
    rho_bc = np.einsum("ijkplmnp->ijklmn", full).reshape(27, 27)  # trace site 1
    rho_b = np.einsum("pijqplmq->ijlm", full).reshape(9, 9)  # trace sites 4 and 1

    ent = lambda r: entropy_from_eigenvalues(np.clip(np.linalg.eigvalsh(r), 0, None))
    brute = ent(rho_ab) + ent(rho_bc) - ent(rho4) - ent(rho_b)
    fast = qcmi(golden_mps, 1, 2, 1)
    assert abs(fast - brute) <= 1e-9


def test_qmi_golden_instance_plateau(golden_mps):
    val = qmi(golden_mps, 1, 26, 1)
    assert abs(val - I_TH) <= 1e-12


def test_qmi_limit_from_reference_marginal():
    from iumps import reference_rho_a, reference_rho_ac

    rho_ac = reference_rho_ac()
    t = rho_ac.reshape(3, 3, 3, 3)
    rho_a = np.einsum("acbc->ab", t)
    rho_c = np.einsum("acad->cd", t)
    ent = lambda r: entropy_from_eigenvalues(np.clip(np.linalg.eigvalsh(r), 0, None))
    assert abs(ent(rho_a) + ent(rho_c) - ent(rho_ac) - I_TH) <= 1e-14
    assert np.abs(rho_a - reference_rho_a()).max() <= 1e-15


def test_qmi_product_state_zero():
    mps = product_state_mps()
    assert abs(qmi(mps, 1, 20, 1)) <= 1e-12


def test_rho_disjoint_multisite_regions(case1_instance):
    # |A| = 2, |B| = 1, |C| = 2: entrywise against the traced five-site state.
    # Composite row ordering: A sites slow (later-applied slowest), then C.
    full = brute_force_density(case1_instance, 5).reshape((3,) * 10)
    brute = np.einsum("cdpabhipfg->abcdfghi", full).reshape(81, 81)
    mine = rho_disjoint(case1_instance, 2, 1, 2)
    assert np.abs(mine - brute).max() <= 1e-12
    brute_asym = np.einsum("cdpqahipqf->acdfhi", full).reshape(27, 27)
    mine_asym = rho_disjoint(case1_instance, 1, 2, 2)
    assert np.abs(mine_asym - brute_asym).max() <= 1e-12


def test_qcmi_multisite_a_matches_brute_force(case1_instance):
    full = brute_force_density(case1_instance, 5).reshape((3,) * 10)
    ent = lambda r: entropy_from_eigenvalues(np.clip(np.linalg.eigvalsh(r), 0, None))
    rho_ab = np.einsum("pijklpmnab->ijklmnab", full).reshape(81, 81)
    rho_bc = np.einsum("ijkpqlmnpq->ijklmn", full).reshape(27, 27)
    rho_b = np.einsum("pijqrpmnqr->ijmn", full).reshape(9, 9)
    rho_abc = full.reshape(243, 243)
    brute = ent(rho_ab) + ent(rho_bc) - ent(rho_abc) - ent(rho_b)
    assert abs(qcmi(case1_instance, 2, 2, 1) - brute) <= 1e-9


def test_rho_disjoint_cap():
    mps = product_state_mps()
    with pytest.raises(TooLarge):
        rho_disjoint(mps, 7, 2, 7)
    with pytest.raises(TooLarge):  # each region's products are capped before rho_AC is
        site_products(mps.kraus, 7)


def test_brute_force_density_golden_instance(golden_mps):
    rho1 = brute_force_density(golden_mps, 1)
    assert np.abs(rho1 - np.diag([2.0, 3.0, 3.0]) / 8).max() <= 1e-12
    rho2 = brute_force_density(golden_mps, 2)
    assert abs(np.trace(rho2).real - 1.0) <= 1e-12


def test_brute_force_subadditivity(case1_instance):
    s1 = brute_force_entropy(case1_instance, 1)
    s2 = brute_force_entropy(case1_instance, 2)
    assert 2 * s1 >= s2 - 1e-10


def test_brute_force_cap():
    mps = product_state_mps()
    with pytest.raises(TooLarge):
        brute_force_density(mps, 8)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_isometry_orthonormal(case1_instance, n):
    sp = support_decomposition(case1_instance.transfer, n)
    p = materialize_isometry(sp, case1_instance.kraus, n)
    dev = np.abs(p.conj().T @ p - np.eye(sp.support_dim)).max()
    assert dev <= 1e-10


def test_isometry_projects_density(case2_instance):
    n = 3
    sp = support_decomposition(case2_instance.transfer, n)
    p = materialize_isometry(sp, case2_instance.kraus, n)
    rho = brute_force_density(case2_instance, n)
    projected = p.conj().T @ rho @ p
    assert np.abs(projected - projected_density(sp, case2_instance.sigma)).max() <= 1e-10


def test_purification_symmetry(case1_instance, case3_instance):
    for mps in (case1_instance, case3_instance):
        for n in (1, 3, 5):
            report = region_entropy(mps, n)
            alt = np.clip(purified_spectrum(mps, n), 0.0, None)
            assert abs(entropy_from_eigenvalues(alt) - report.entropy) <= 1e-9
            m = report.eigenvalues.size
            assert np.abs(np.sort(alt)[::-1][:m] - report.eigenvalues).max() <= 1e-9


def test_qcmi_via_purification_route(case2_instance):
    # the same conditional mutual information assembled from the
    # complement-side spectra, a fully independent contraction path
    s = lambda n: entropy_from_eigenvalues(np.clip(purified_spectrum(case2_instance, n), 0, None))
    for b in (2, 8, 14):
        alt = s(1 + b) + s(b + 1) - s(b + 2) - s(b)
        assert abs(alt - qcmi(case2_instance, 1, b, 1)) <= 1e-9


def test_site_products_ordering(case1_instance):
    m = case1_instance.kraus.matrices
    prods = site_products(case1_instance.kraus, 2)
    # composite index (s2, s1) with s2 slowest; entry is M^{s2} @ M^{s1}
    assert np.allclose(prods[1 * 3 + 2], m[1] @ m[2])


@pytest.fixture(scope="module")
def case_instances(case1_instance, case2_instance, case3_instance):
    return (case1_instance, case2_instance, case3_instance)


def reference_rho_disjoint(mps, b, la=1, lc=1):
    """rho_AC entry by entry: Tr(M_t E^b(M_p sigma M_q†) M_t'†) at row (p, t),
    column (q, t'), with M_p, M_t the |A|- and |C|-site products and E^b by
    binary exponentiation."""
    m_a, m_c = site_products(mps.kraus, la), site_products(mps.kraus, lc)
    d = mps.kraus.d_M
    eb = mat_power(mps.transfer.e, b)
    rho = np.empty((len(m_a), len(m_c), len(m_a), len(m_c)), dtype=complex)
    for p in range(len(m_a)):
        for q in range(len(m_a)):
            y = unvec(eb @ vec(m_a[p] @ mps.sigma @ m_a[q].conj().T), d)
            for t in range(len(m_c)):
                for u in range(len(m_c)):
                    rho[p, t, q, u] = np.trace(m_c[t] @ y @ m_c[u].conj().T)
    return rho.reshape(len(m_a) * len(m_c), len(m_a) * len(m_c))


def test_region_entropy_matches_support_projection(case_instances, golden_mps):
    """The one-solve S(n) against the explicit route: support_decomposition,
    projected_density, eigvalsh; and the S(n) a chunk of fresh instances
    keeps, with its lengths in either order, equal to one length at a time."""
    first = build_iumps(analytic_family("first", 0.1))
    instances = (*case_instances, golden_mps, first)
    lengths = list(range(1, 43))
    chunks = []
    for order in (lengths, lengths[::-1]):
        fresh = [build_iumps(mps.kraus) for mps in instances]
        window = PowerWindow(np.stack([m.transfer.e for m in fresh]))
        window.extend(1, max(lengths))
        fill_entropies_chunk(fresh, order, [window[n] for n in order])
        chunks.append(fresh)
    for i, mps in enumerate(instances):
        for n in lengths:
            report = region_entropy(mps, n)
            sp = support_decomposition(mps.transfer, n)
            lam = np.clip(np.linalg.eigvalsh(projected_density(sp, mps.sigma))[::-1], 0.0, None)
            assert report.region_len == n
            assert report.eigenvalues.size == sp.support_dim, n
            assert np.abs(report.eigenvalues - lam).max(initial=0.0) <= 1e-13, n
            assert abs(report.entropy - entropy_from_eigenvalues(lam)) <= 1e-13, n
            assert report.entropy == entropy_from_eigenvalues(report.eigenvalues), n
            for fresh in chunks:
                assert fresh[i].entropies[n] == report.entropy, n


def test_qmi_curve_is_qmi_at_each_size(case_instances, golden_mps):
    """One ``qmi_curve`` over several |B| equals ``qmi`` at each |B|;
    ``rho_disjoint`` and the QMI match the entry-by-entry reference; and the
    instance keeps no rho_AC contraction."""
    ent = lambda r: entropy_from_eigenvalues(np.clip(np.linalg.eigvalsh(r), 0, None))
    sizes = (1, 2, 4, 9, 17)
    for mps in (*case_instances, golden_mps):
        fresh = build_iumps(mps.kraus)
        for la, lc in ((1, 1), (2, 1), (1, 2)):
            curve = qmi_curve(fresh, la, sizes, lc)
            assert curve == [qmi(fresh, la, b, lc) for b in sizes], (la, lc)
            for b in (4, 17):
                ref = reference_rho_disjoint(mps, b, la, lc)
                assert np.abs(rho_disjoint(fresh, la, b, lc) - ref).max() <= 1e-13, (b, la, lc)
                t = ref.reshape(3**la, 3**lc, 3**la, 3**lc)
                ref_qmi = ent(np.einsum("acbc->ab", t)) + ent(np.einsum("acad->cd", t)) - ent(ref)
                assert abs(curve[sizes.index(b)] - ref_qmi) <= 1e-13, (b, la, lc)
        assert not hasattr(fresh, "qmi_ends")


@pytest.mark.parametrize("la, lc", [(1, 1), (2, 3), (5, 1)])
def test_qmi_curve_solves_its_regions_from_its_own_powers(monkeypatch, case_instances, la, lc):
    """E^|A| and E^|C| come from the one ``powers`` call of the |B| values,
    with no ``region_entropy``; the S(|A|), S(|C|) kept are its bits."""
    import iumps.entropy

    calls = []
    monkeypatch.setattr(iumps.entropy, "powers", lambda e, ns: calls.append(ns) or powers(e, ns))
    monkeypatch.setattr(iumps.entropy, "region_entropy", None)
    sizes = (2, 4, 10)
    fresh = [build_iumps(mps.kraus) for mps in case_instances]
    for mps in fresh:
        qmi_curve(mps, la, sizes, lc)
    assert calls == [[*sizes, *sorted({la, lc})]] * len(fresh)
    monkeypatch.undo()
    for mps in fresh:
        for n in (la, lc):
            assert mps.entropies[n] == region_entropy(build_iumps(mps.kraus), n).entropy


def test_the_qmi_column_memory_does_not_grow_with_the_curve(monkeypatch):
    """nu_gap = 0.99 scans to its b_max_limit, so 40 and 80 kept |B| of
    81 x 81 rho_AC (|A| = |C| = 2): one stack of every |B| peaked at 13.1 and
    26.0 MB (tracemalloc), slices of ``QMI_SLICE`` at 10.5 and 10.7 MB.  The
    sliced QMI is, bit for bit, ``qmi_curve``'s and that of one stack."""
    import tracemalloc

    import iumps.entropy

    kraus = analytic_family("first", 0.01)
    factors = region_factors(kraus, 2, 2)
    peaks, curves = [], []
    for b_max in (80, 160):
        mps = build_iumps(kraus)
        tracemalloc.start()
        try:
            curves.append(scan_instance(mps, 2, 2, b_max, 12, factors))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert [c.b_max for c in curves] == [80, 160]
    assert peaks[1] < 1.25 * peaks[0], [f"{p / 1e6:.1f} MB" for p in peaks]
    sizes = [p.b_len for p in curves[1].points]
    assert curves[1].qmi == qmi_curve(build_iumps(kraus), 2, sizes, 2)
    assert curves[0].qmi == curves[1].qmi[: len(curves[0].qmi)]
    monkeypatch.setattr(iumps.entropy, "QMI_SLICE", len(sizes))
    assert curves[1].qmi == qmi_curve(build_iumps(kraus), 2, sizes, 2)


def test_region_factor_is_site_products_until_they_outnumber_d_m_squared(case_instances):
    """No fold while d_s^n <= d_M^2: n <= 2 at d_s = 3 and n <= 4 at d_s = 2
    (d_M = 4), where the factor is ``site_products`` byte for byte."""
    two_site = build_instance("case1", 2, 4, RandomStream(515, 0))
    for mps, n_max in zip((*case_instances, two_site), (2, 2, 2, 4)):
        for n in range(n_max + 1):
            factor = _region_factor(mps.kraus, n)
            assert factor.tobytes() == site_products(mps.kraus, n).tobytes(), n
        assert len(_region_factor(mps.kraus, n_max + 1)) == 16


def test_region_factor_keeps_the_gram_matrix(case_instances):
    """Past d_M^2 products the factor has d_M^2 rows and the Gram matrix of
    the explicit site products."""
    for mps in case_instances:
        for n in range(3, 7):
            factor = _region_factor(mps.kraus, n).reshape(-1, 16)
            prods = site_products(mps.kraus, n).reshape(-1, 16)
            assert factor.shape == (16, 16), n
            gram = prods.conj().T @ prods
            assert np.abs(factor.conj().T @ factor - gram).max() <= 1e-13, n


def test_folded_qmi_matches_explicit_rho_disjoint(case_instances):
    """``qmi_curve`` on the folded factors against the QMI of the explicit
    d_s^(|A|+|C|) ``rho_disjoint`` (measured maximum 3.8e-14)."""
    ent = lambda r: entropy_from_eigenvalues(np.clip(np.linalg.eigvalsh(r), 0, None))
    sizes = (4, 17)
    for mps in case_instances:
        for la, lc in ((3, 3), (3, 2), (4, 1)):
            curve = qmi_curve(build_iumps(mps.kraus), la, sizes, lc)
            for b, folded in zip(sizes, curve):
                rho = rho_disjoint(mps, la, b, lc)
                t = rho.reshape(3**la, 3**lc, 3**la, 3**lc)
                ref = ent(np.einsum("acbc->ab", t)) + ent(np.einsum("acad->cd", t)) - ent(rho)
                assert abs(folded - ref) <= 1e-13, (b, la, lc)


def test_qmi_and_qcmi_grow_with_the_regions_past_the_old_cap(case1_instance, case2_instance):
    """|A| = |C| = 1..8, up to d_s^(|A|+|C|) = 3^16: QMI grows by data
    processing and QCMI by strong subadditivity, I(A'A:C|B) >= I(A:C|B)."""
    sizes = (2, 6, 12, 20)
    for mps in (case1_instance, case2_instance):
        fresh = build_iumps(mps.kraus)
        qmis = np.array([qmi_curve(fresh, n, sizes, n) for n in range(1, 9)])
        qcmis = np.array([[qcmi(fresh, n, b, n) for b in sizes] for n in range(1, 9)])
        assert np.diff(qmis, axis=0).min() >= -1e-13
        assert np.diff(qcmis, axis=0).min() >= -1e-13
        assert qmis[-1].min() > 0 and qcmis[-1, 0] > qcmis[0, 0]


def test_scan_leaves_region_a_entropy_to_the_qmi(case_instances):
    """A scan solves only the S(n) its QCMI reads, so S(1) stays unsolved;
    the QMI after it solves S(1) itself, with the bits of a fresh instance."""
    for mps in case_instances:
        scanned = build_iumps(mps.kraus)
        curve = scan_instance(scanned, 1, 1)
        assert 1 not in scanned.entropies
        sizes = [p.b_len for p in curve.points]
        fresh = qmi_curve(build_iumps(mps.kraus), 1, sizes, 1)
        assert np.array(qmi_curve(scanned, 1, sizes, 1)).tobytes() == np.array(fresh).tobytes()


def test_profile_matches_region_entropy_and_brute_force(case_instances):
    """S(n) kept on an instance against a standalone region_entropy and brute force."""
    for mps in case_instances:
        kept = build_iumps(mps.kraus)
        for n in range(1, 43):
            s = _entropy(kept, n)
            assert kept.entropies[n] == s, n
            assert abs(s - region_entropy(mps, n).entropy) <= 1e-13, n
            if n <= 5:
                assert abs(s - brute_force_entropy(mps, n)) <= 1e-9, n
        fresh = build_iumps(mps.kraus)
        for n, s in mps.entropies.items():
            assert s == region_entropy(fresh, n).entropy, n


def test_profile_power_and_qmi(case_instances):
    """E^n of ``mps.powers`` against binary powers; QMI and QCMI read through
    the kept state against the definitions."""
    ent = lambda r: entropy_from_eigenvalues(np.clip(np.linalg.eigvalsh(r), 0, None))
    for mps in case_instances:
        assert np.array_equal(powers(mps.transfer.e, (0,))[0], np.eye(16))
        for n, p in zip(range(1, 43), powers(mps.transfer.e, range(1, 43)), strict=True):
            assert np.abs(p - mat_power(mps.transfer.e, n)).max() <= 1e-13, n
        fresh = build_iumps(mps.kraus)
        s = lambda n: region_entropy(fresh, n).entropy
        for b in (1, 2, 3, 9, 26, 40):
            rho_ac = reference_rho_disjoint(mps, b)
            t = rho_ac.reshape(3, 3, 3, 3)
            ref_qmi = ent(np.einsum("acbc->ab", t)) + ent(np.einsum("acad->cd", t)) - ent(rho_ac)
            assert abs(qmi(mps, 1, b, 1) - ref_qmi) <= 1e-13
            ref_qcmi = s(1 + b) + s(b + 1) - s(b + 2) - s(b)
            assert abs(qcmi(mps, 1, b, 1) - ref_qcmi) <= 1e-13


def test_scan_after_scrambled_queries_matches_fresh_scan(case1_instance):
    """Kept E^n and S(n) do not depend on the order they were first asked for."""
    queried = build_iumps(case1_instance.kraus)
    for n in (17, 3, 40, 1, 29, 8):
        region_entropy(queried, n)
        rho_disjoint(queried, 1, n, 1)
        qcmi(queried, 1, n, 1)
    fresh = build_iumps(case1_instance.kraus)
    assert scan_instance(queried, 1, 1).points == scan_instance(fresh, 1, 1).points


@pytest.mark.parametrize("fixture", ["case1_instance", "golden_mps"])
def test_scan_computes_each_region_entropy_once(fixture, request, monkeypatch):
    """Each region length solved exactly once, in the stacked solves of the
    scan's blocks of |B|, up to the end of the block holding the stop; every
    QCMI via experiments.qcmi; a second scan of the same instance solves
    nothing.  One instance plans its first block to ``PLAN_MARGIN`` past its
    predicted stop k ln 10 / q, so a stop inside the plan takes one
    ``PowerWindow.extend`` and one stacked solve; a chunk of
    ``ENSEMBLE_CHUNK`` copies takes ``SCAN_BLOCK`` sizes per block, one
    extend and one stacked solve per block, and gives the same curve."""
    import iumps.entropy as ent
    import iumps.experiments as exp

    solved = []
    evaluated = []
    extends = []
    eigvals_hermitian, qcmi_binding, extend = ent.eigvals_hermitian, exp.qcmi, PowerWindow.extend

    def counting_eig(h, k):
        solved.append(math.prod(h.shape[:-2]))  # matrices in this (..., r, r) stack
        return eigvals_hermitian(h, k)

    def recording_qcmi(mps, len_a, len_b, len_c):
        evaluated.append(len_b)
        return qcmi_binding(mps, len_a, len_b, len_c)

    def counting_extend(window, low, high):
        extends.append((low, high))
        return extend(window, low, high)

    monkeypatch.setattr(ent, "eigvals_hermitian", counting_eig)
    monkeypatch.setattr(exp, "qcmi", recording_qcmi)
    monkeypatch.setattr(PowerWindow, "extend", counting_extend)
    kraus = request.getfixturevalue(fixture).kraus
    # a fresh instance: the session fixtures keep the entropies earlier tests computed
    mps = build_iumps(kraus)
    curve = scan_instance(mps, 1, 1)
    b_stop = evaluated[-1]
    assert evaluated == list(range(2, b_stop + 1, 2))
    assert b_stop in (curve.b_max, curve.b_max + 2)
    # the plan: the even |B| at or above k ln 10 / q + PLAN_MARGIN, within 16..40
    plan = 12 * math.log(10) / (2 * math.log(1 / curve.nu_gap)) + exp.PLAN_MARGIN
    plan_end = min(40, max(2 * exp.SCAN_BLOCK, 2 * math.ceil(plan / 2)))
    assert curve.b_max + 2 <= plan_end < 40  # the stop lies inside the plan
    # |A| = |C| = 1: the QCMI reads S(n) for n = 2 .. plan_end + 2, and nothing else
    assert sorted(mps.entropies) == list(range(2, plan_end + 3))
    assert len(extends) == len(solved) == 1
    assert sum(solved) == plan_end + 1
    solved.clear()
    extends.clear()
    assert scan_instance(mps, 1, 1) == curve
    assert (extends, solved) == ([], [])

    evaluated.clear()
    chunk = [build_iumps(kraus) for _ in range(exp.ENSEMBLE_CHUNK)]
    assert exp.scan_instances(chunk, 1, 1) == [curve] * len(chunk)
    # blocks of |B| start at 2 and span 2 * SCAN_BLOCK; the scan stops at |B| = 40
    width = 2 * exp.SCAN_BLOCK
    blocks = (b_stop - 2) // width + 1
    block_end = min(40, blocks * width)
    # one copy's walk, then the others', block by block
    assert evaluated[-1] == b_stop
    for mps in chunk:
        assert sorted(mps.entropies) == list(range(2, block_end + 3))
    assert len(extends) == len(solved) == blocks
    assert sum(solved) == len(chunk) * (block_end + 1)


LENGTHS = range(1, 43)


def full_conj_h(mps, ns):
    """conj(H) of each E^n, on all d_M^2 coordinates, ``(len(ns), d_M^2, d_M^2)``."""
    d = mps.kraus.d_M
    e_n = powers(mps.transfer.e, ns)
    return np.stack([p.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, -1) for p in e_n])


def full_route_entropies(mps, ns):
    """S(n) from K conj(H) K on all d_M^2 coordinates, K = I kron sigma^(1/2)."""
    lam, u = np.linalg.eigh(mps.sigma)
    k = np.kron(np.eye(mps.kraus.d_M), (u * np.sqrt(np.clip(lam, 0.0, None))) @ u.conj().T)
    spectra = eigvals_hermitian(full_conj_h(mps, ns)[None], k[None, None])[0]
    return _support_entropies(spectra, _supports(spectra))


def one_and_three_blocks(seed):
    """A Kraus set u_s (+) N^s: a 1 x 1 and a 3 x 3 diagonal block, so rows
    of the reach differ in size; N is a Case-1 set of d_M = 3."""
    inner = build_case("case1", 3, 3, RandomStream(seed, 0)).matrices
    mats = np.zeros((3, 4, 4), dtype=complex)
    mats[:, 0, 0] = haar_unitary(3, RandomStream(seed, 1))[:, 0]
    mats[:, 1:, 1:] = inner
    ks = KrausSet(d_s=3, d_M=4, matrices=mats, case_tag="explicit")
    ks.validate()
    return build_iumps(ks)


def test_the_support_gram_matrix_is_zero_off_the_reach(golden_mps):
    """On seeded Case-2 instances, the golden instance and a 1 + 3 block set,
    conj(H_n) is exactly 0 outside S x S for every n, and S(n) on S is the
    full 16 x 16 route's to within 1e-14: at most 2.7e-15 measured over 300
    Case-2 instances and 3.8e-15 over 62 block sets, n = 1..42."""
    cases = [build_instance("case2", 3, 4, RandomStream(20231, i)) for i in range(5)]
    for mps in (*cases, golden_mps, one_and_three_blocks(11), one_and_three_blocks(12)):
        off = ~np.outer(mps.reach.ravel(), mps.reach.ravel())
        assert mps.reach.sum() < 16
        assert np.all(full_conj_h(mps, LENGTHS)[:, off] == 0)
        fresh = build_iumps(mps.kraus)
        s = np.array([region_entropy(fresh, n).entropy for n in LENGTHS])
        assert np.abs(s - full_route_entropies(mps, LENGTHS)).max() <= 1e-14


@pytest.mark.parametrize("case", ["case1", "case3"])
def test_a_full_reach_keeps_the_bits_of_the_full_route(case):
    """Case 1 and Case 3 reach every coordinate, so their S(n) are the full
    16 x 16 route's, bit for bit, alone and in a stack."""
    instances = [build_instance(case, 3, 4, RandomStream(20231, i)) for i in range(4)]
    window = PowerWindow(np.stack([m.transfer.e for m in instances]))
    window.extend(1, max(LENGTHS))
    fill_entropies_chunk(instances, list(LENGTHS), [window[n] for n in LENGTHS])
    for mps in instances:
        assert mps.reach.all()
        expected = full_route_entropies(mps, LENGTHS)
        assert np.array([mps.entropies[n] for n in LENGTHS]).tobytes() == expected.tobytes()
        assert region_entropy(mps, 5).entropy == expected[4]


def test_a_mixed_stack_solves_each_reach_on_its_own(golden_mps):
    """Case-1, Case-2 and golden instances in one stack, in an interleaved
    order: each keeps the bits of its own ``region_entropy``."""
    kinds = ("case1", "case2", "case1", "case2", "case2", "case1")
    instances = [build_instance(c, 3, 4, RandomStream(77, i)) for i, c in enumerate(kinds)]
    instances.insert(2, build_iumps(golden_mps.kraus))
    assert len({m.reach.tobytes() for m in instances}) == 2
    window = PowerWindow(np.stack([m.transfer.e for m in instances]))
    window.extend(1, max(LENGTHS))
    fill_entropies_chunk(instances, list(LENGTHS), [window[n] for n in LENGTHS])
    for mps in instances:
        fresh = build_iumps(mps.kraus)
        alone = [region_entropy(fresh, n).entropy for n in LENGTHS]
        assert [mps.entropies[n] for n in LENGTHS] == alone


def test_case2_entropies_on_the_reach_match_brute_force():
    for i in range(5):
        mps = build_instance("case2", 3, 4, RandomStream(20231, i))
        for n in range(1, 6):
            report = region_entropy(mps, n)
            assert len(report.eigenvalues) <= 8
            assert abs(report.entropy - brute_force_entropy(mps, n)) <= 1e-9, (i, n)
