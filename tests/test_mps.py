import numpy as np
import pytest

from iumps import (
    CASE2,
    DegenerateSpectrum,
    KrausSet,
    NoFixedPoint,
    NonConvergence,
    RandomStream,
    analytic_family,
    benchmark_kraus,
    build_case1,
    build_case2,
    build_case3,
    build_iumps,
    channel_apply,
    distinct_magnitudes,
    eig_general,
    fixed_point,
    sample_case1,
    spectral_gap,
    transfer_matrix,
    transfer_operators,
    unvec,
    vec,
)
from iumps.mps import PERIPHERAL_TOL, TransferMatrix, build_case, check_canonical
from iumps.numerics import EigenDecomposition


def unitary_kraus(u):
    return KrausSet(d_s=1, d_M=u.shape[0], matrices=u[None, :, :], case_tag="explicit")


def test_case1_canonical_and_deterministic():
    ks = build_case1(3, 4, RandomStream(7, 0))
    assert ks.canonical_deviation() <= 1e-12
    again = build_case1(3, 4, RandomStream(7, 0))
    assert np.array_equal(ks.matrices, again.matrices)


def test_case1_degenerate_dims():
    ks = build_case1(1, 2, RandomStream(3, 0))
    # single Kraus operator of a canonical d_s=1 set is unitary
    m = ks.matrices[0]
    assert np.abs(m.conj().T @ m - np.eye(2)).max() <= 1e-12


def test_case2_block_structure_and_fixed_multiplicity():
    ks = build_case2(3, 4, RandomStream(11, 5))
    assert ks.canonical_deviation() <= 1e-12
    assert np.all(ks.matrices[:, :2, 2:] == 0)
    assert np.all(ks.matrices[:, 2:, :2] == 0)
    transfer = transfer_matrix(ks)
    n_fixed = np.count_nonzero(np.abs(transfer.spectrum.values - 1.0) <= 1e-8)
    assert n_fixed >= 2


def test_case3_block_structure_and_period_two_signature():
    ks = build_case3(3, 4, RandomStream(11, 6))
    assert ks.canonical_deviation() <= 1e-12
    assert np.all(ks.matrices[:, :2, :2] == 0)
    assert np.all(ks.matrices[:, 2:, 2:] == 0)
    transfer = transfer_matrix(ks)
    vals = transfer.spectrum.values
    has_minus_one = np.any(np.abs(vals + 1.0) <= 1e-8)
    degenerate_one = np.count_nonzero(np.abs(vals - 1.0) <= 1e-8) >= 2
    assert has_minus_one or degenerate_one
    # -1 is peripheral, hence excluded from the gap
    gap = spectral_gap(transfer)
    assert gap < 1 - PERIPHERAL_TOL


def test_left_fixed_point_of_every_case():
    for builder, idx in ((build_case1, 0), (build_case2, 1), (build_case3, 2)):
        ks = builder(3, 4, RandomStream(23, idx))
        e = transfer_matrix(ks).e
        left = vec(np.eye(4)).conj() @ e
        assert np.abs(left - vec(np.eye(4)).conj()).max() <= 1e-10


def test_transfer_identity_channel_degenerate():
    transfer = transfer_matrix(unitary_kraus(np.eye(2)))
    assert transfer.nu_gap is None
    assert len(transfer.peripheral_indices) == 4
    with pytest.raises(DegenerateSpectrum):
        spectral_gap(transfer)


def test_transfer_golden_instance_leading_eigenvalue():
    transfer = transfer_matrix(benchmark_kraus())
    assert abs(abs(transfer.spectrum.values[0]) - 1.0) <= 1e-12


def test_transfer_first_family_spectrum():
    # distinct eigenvalue magnitudes of the first analytic family (sigma-/sigma+
    # population exchange on the first qubit) are exactly {1, 1-beta, 1-2beta};
    # the population-sector pair is {1, 1-2beta}
    for beta in (0.05, 0.1):
        transfer = transfer_matrix(analytic_family("first", beta))
        mags = distinct_magnitudes(transfer.spectrum.values)
        assert np.abs(mags - np.array([1.0, 1.0 - beta, 1.0 - 2 * beta])).max() <= 1e-10
        assert abs(spectral_gap(transfer) - (1.0 - beta)) <= 1e-10


def test_fixed_point_case1_invariants(case1_instance):
    sigma = case1_instance.sigma
    assert np.abs(sigma - sigma.conj().T).max() <= 1e-14
    assert abs(np.trace(sigma).real - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(sigma).min() >= -1e-12
    residual = channel_apply(case1_instance.kraus, sigma) - sigma
    assert np.abs(residual).max() <= 1e-9


def test_fixed_point_case2_block_diagonal(case2_instance):
    sigma = case2_instance.sigma
    assert np.abs(sigma[:2, 2:]).max() <= 1e-9
    assert np.abs(sigma[2:, :2]).max() <= 1e-9
    # uniform combination weights half a trace on each block
    assert abs(np.trace(sigma[:2, :2]).real - 0.5) <= 1e-9
    residual = channel_apply(case2_instance.kraus, sigma) - sigma
    assert np.abs(residual).max() <= 1e-9


def test_fixed_point_case3_invariant(case3_instance):
    residual = channel_apply(case3_instance.kraus, case3_instance.sigma) - case3_instance.sigma
    assert np.abs(residual).max() <= 1e-9


def test_fixed_point_golden_instance_is_maximally_mixed():
    mps = build_iumps(benchmark_kraus())
    assert np.abs(mps.sigma - np.eye(4) / 4).max() <= 1e-10


def test_fixed_point_unitary_channel():
    rng = np.random.default_rng(31)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u = np.linalg.qr(z)[0]
    transfer = transfer_matrix(unitary_kraus(u))
    sigma = fixed_point(transfer)
    assert np.abs(sigma - np.eye(2) / 2).max() <= 1e-10


def test_fixed_point_missing():
    # strictly contractive synthetic spectrum has no eigenvalue near 1
    dec = eig_general(np.diag([0.9, 0.5, 0.25, 0.1]))
    transfer = TransferMatrix(
        e=np.diag([0.9, 0.5, 0.25, 0.1]).astype(complex),
        spectrum=dec,
        peripheral_indices=np.array([], dtype=int),
        nu_gap=0.9,
    )
    with pytest.raises(NoFixedPoint):
        fixed_point(transfer)


def reference_fixed_point(transfer):
    """Fixed point through the oblique projector V_c (W_c† V_c)^{-1} W_c†, with
    the left eigenvectors W_c taken from a second, independent eig of E†."""
    d = int(round(np.sqrt(transfer.e.shape[0])))
    cluster = np.flatnonzero(np.abs(transfer.spectrum.values - 1.0) <= 1e-8)
    v_c = transfer.spectrum.vectors[:, cluster]
    left = eig_general(transfer.e.conj().T)
    w_c = left.vectors[:, np.flatnonzero(np.abs(left.values - 1.0) <= 1e-8)]
    assert w_c.shape == v_c.shape
    coeff = np.linalg.solve(w_c.conj().T @ v_c, w_c.conj().T @ vec(np.eye(d) / d))
    sigma = unvec(v_c @ coeff, d)
    lam, u = np.linalg.eigh((sigma + sigma.conj().T) / 2)
    sigma = (u * np.clip(lam, 0.0, None)) @ u.conj().T
    return sigma / np.trace(sigma).real


def test_fixed_point_matches_two_eig_oracle():
    kraus_sets = [
        build_case(case, 3, 4, RandomStream(seed, i))
        for case in ("case1", "case2", "case3")
        for seed in (3, 20231)
        for i in range(4)
    ]
    kraus_sets += [benchmark_kraus(), analytic_family("first", 0.1)]
    for ks in kraus_sets:
        transfer = transfer_matrix(ks)
        dev = np.abs(fixed_point(transfer) - reference_fixed_point(transfer)).max()
        assert dev <= 1e-13, (ks.case_tag, dev)


def test_fixed_point_singular_eigenvectors():
    # a defective fixed cluster leaves V singular; the projector is undefined
    e = np.diag([1.0, 1.0, 0.5, 0.25]).astype(complex)
    spectrum = EigenDecomposition(
        values=np.diag(e).copy(), vectors=np.full((4, 4), 0.5, dtype=complex), residual=0.0
    )
    transfer = TransferMatrix(
        e=e,
        spectrum=spectrum,
        peripheral_indices=np.array([0, 1]),
        nu_gap=0.5,
    )
    with pytest.raises(NonConvergence):
        fixed_point(transfer)


def test_spectral_gap_synthetic_diagonal():
    e = np.diag([1.0, 0.6, 0.3, 0.05]).astype(complex)
    transfer = TransferMatrix(
        e=e,
        spectrum=eig_general(e),
        peripheral_indices=np.array([0]),
        nu_gap=0.6,
    )
    assert spectral_gap(transfer) == 0.6


def test_kraus_json_round_trip(case1_instance, case3_instance):
    for ks in (case1_instance.kraus, case3_instance.kraus, benchmark_kraus()):
        back = KrausSet.from_json(ks.to_json())
        assert back.d_s == ks.d_s and back.d_M == ks.d_M
        assert back.case_tag == ks.case_tag
        assert np.array_equal(back.matrices, ks.matrices)


def test_kraus_validation_rejects_non_canonical():
    bad = np.zeros((2, 2, 2), dtype=complex)
    bad[0] = np.eye(2) * 0.9
    with pytest.raises(ValueError):
        KrausSet(d_s=2, d_M=2, matrices=bad, case_tag="explicit").validate()


def test_kraus_validation_rejects_broken_blocks():
    mats = build_case2(3, 4, RandomStream(1, 1)).matrices.copy()
    mats[0, 0, 3] = 1e-14  # off-block must be exactly zero
    with pytest.raises(ValueError):
        KrausSet(d_s=3, d_M=4, matrices=mats, case_tag=CASE2).validate()


def test_sample_case1_rows_equal_single_builds():
    for d_s, d_m in ((3, 4), (2, 3)):
        streams = [RandomStream(41, i) for i in range(7)]
        stack = sample_case1(d_s, d_m, streams)
        assert stack.shape == (7, d_s, d_m, d_m)
        e = transfer_operators(stack)
        for i, stream in enumerate(streams):
            ks = build_case1(d_s, d_m, stream)
            assert stack[i].tobytes() == ks.matrices.tobytes()
            assert e[i].tobytes() == transfer_matrix(ks).e.tobytes()


def test_canonical_check_covers_every_kraus_set_of_a_stack():
    stack = sample_case1(3, 4, [RandomStream(43, i) for i in range(5)])
    check_canonical(stack)
    scaled = stack.copy()
    scaled[-1] *= 1.001  # the last set alone is off canonical form
    with pytest.raises(ValueError, match=r"canonical-form deviation .*\(matrix 4\)"):
        check_canonical(scaled)
    nonfinite = stack.copy()
    nonfinite[-1, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match=r"must be finite \(matrix 4\)"):
        check_canonical(nonfinite)


def test_block_cases_place_one_case1_instance_per_substream():
    # Case 2 puts substream 0's instance top-left and substream 1's
    # bottom-right; Case 3 puts them top-right and bottom-left
    stream = RandomStream(11, 5)
    for builder, placed in ((build_case2, ((0, 0), (1, 1))), (build_case3, ((0, 1), (1, 0)))):
        mats = builder(3, 6, stream).matrices
        for i, (row, col) in enumerate(placed):
            block = mats[:, 3 * row:3 * row + 3, 3 * col:3 * col + 3]
            assert block.tobytes() == build_case1(3, 3, stream.substream(i)).matrices.tobytes()
            assert not mats[:, 3 * row:3 * row + 3, 3 - 3 * col:6 - 3 * col].any()


def test_block_cases_reject_odd_bond_dimension():
    for builder in (build_case2, build_case3):
        with pytest.raises(ValueError):
            builder(3, 5, RandomStream(1, 0))


def test_transfer_assembly_matches_kron_sum(case1_instance):
    ks = case1_instance.kraus
    explicit = sum(np.kron(m, m.conj()) for m in ks.matrices)
    # summation order may differ at the last ulp
    assert np.abs(case1_instance.transfer.e - explicit).max() <= 1e-15


@pytest.mark.parametrize("d_s,d_M,case", [(2, 6, "case1"), (4, 2, "case1"), (2, 4, "case3")])
def test_nondefault_dimensions(d_s, d_M, case):
    from iumps import build_instance
    from iumps.entropy import brute_force_entropy, region_entropy

    mps = build_instance(case, d_s, d_M, RandomStream(11, 3))
    assert mps.kraus.canonical_deviation() <= 1e-12
    for n in (1, 2):
        assert abs(region_entropy(mps, n).entropy - brute_force_entropy(mps, n)) <= 1e-9
