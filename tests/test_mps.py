import numpy as np
import pytest

from iumps import (
    CASE2,
    DegenerateSpectrum,
    KrausSet,
    NoFixedPoint,
    NonConvergence,
    NotHermitian,
    RandomStream,
    analytic_family,
    benchmark_kraus,
    build_case1,
    build_case2,
    build_case3,
    build_iumps,
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
from iumps.mps import (
    PERIPHERAL_TOL,
    IuMps,
    TransferMatrix,
    build_case,
    check_canonical,
    hermitian_basis,
    kraus_reach,
    real_form,
    run_charge,
    sample_case,
    sample_iumps,
    transfer_matrices,
    transfer_magnitudes,
    transfer_spectrum,
)
from iumps.numerics import EigenDecomposition
from oracles import (
    channel_apply,
    complex_eigenvalues,
    direct_sum,
    jordan_decay,
    reset_mixed_decay,
)


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
    # the last three have 2x2 Jordan blocks at the gap, outside the cluster; the
    # direct sum has a k = 4 cluster and cond(V) about 4e16, where even the
    # cluster's rows of V^{-1} are wrong: a sigma taken from them clips a
    # weight of 1.17 of 2.99, so W_c must come from E - I's null space
    kraus_sets += [
        benchmark_kraus(),
        analytic_family("first", 0.1),
        jordan_decay(0.5, 0.3),
        reset_mixed_decay(0.5, 0.3, 0.05),
        direct_sum(jordan_decay(0.5, 0.3), jordan_decay(0.5, 0.3)),
    ]
    for ks in kraus_sets:
        transfer = transfer_matrix(ks)
        dev = np.abs(fixed_point(transfer) - reference_fixed_point(transfer)).max()
        assert dev <= 1e-13, (ks.case_tag, dev)


def test_fixed_point_of_a_fully_degenerate_cluster():
    """The identity channel on d_M = 4: all 16 eigenvalues sit in the fixed
    cluster, so W_c is every left singular vector of E - I = 0 and the
    cluster's system is 16 x 16."""
    identity = np.stack([np.eye(4, dtype=complex) / np.sqrt(3)] * 3)
    transfer = transfer_matrix(KrausSet(d_s=3, d_M=4, matrices=identity, case_tag="explicit"))
    assert np.abs(fixed_point(transfer) - np.eye(4) / 4).max() <= 1e-15


def test_fixed_point_singular_eigenvectors():
    # a defective fixed cluster: its two eigenvectors coincide, so W_c† V_c
    # is singular and the projector is undefined
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


@pytest.mark.parametrize("case", ["case1", "case2", "case3"])
@pytest.mark.parametrize("d_s, d_M", [(3, 4), (2, 6)])
def test_sample_iumps_rows_equal_the_one_stream_build(case, d_s, d_M):
    """The ensemble's build (``sample_iumps``) and the CLI's
    (``build_iumps(build_case(...))``) give every instance the same bits."""
    streams = [RandomStream(29, i) for i in range(5)]
    for stream, stacked in zip(streams, sample_iumps(case, d_s, d_M, streams), strict=True):
        alone = build_iumps(build_case(case, d_s, d_M, stream))
        assert isinstance(stacked, IuMps)
        assert stacked.kraus.matrices.tobytes() == alone.kraus.matrices.tobytes()
        t, u = stacked.transfer, alone.transfer
        assert t.e.tobytes() == u.e.tobytes()
        assert t.spectrum.values.tobytes() == u.spectrum.values.tobytes()
        assert t.spectrum.vectors.tobytes() == u.spectrum.vectors.tobytes()
        assert t.spectrum.residual == u.spectrum.residual
        assert np.array_equal(t.peripheral_indices, u.peripheral_indices)
        assert t.nu_gap == u.nu_gap
        assert stacked.sigma.tobytes() == alone.sigma.tobytes()


def test_transfer_matrices_rows_equal_one_set_builds():
    """Every row of one mixed stack (a Case-1 draw, a Case-2 draw, and
    {I/sqrt(3)} x 3, whose E = I leaves no gap) is the one-set
    ``transfer_matrix``, bit for bit."""
    sets = [
        build_case1(3, 4, RandomStream(31, 0)).matrices,
        build_case2(3, 4, RandomStream(31, 1)).matrices,
        np.stack([np.eye(4, dtype=complex) / np.sqrt(3)] * 3),
    ]
    rows = transfer_matrices(np.stack(sets))
    assert rows[2].nu_gap is None
    for matrices, t in zip(sets, rows, strict=True):
        u = transfer_matrix(KrausSet(d_s=3, d_M=4, matrices=matrices, case_tag="explicit"))
        assert t.e.tobytes() == u.e.tobytes()
        assert t.spectrum.values.tobytes() == u.spectrum.values.tobytes()
        assert t.spectrum.vectors.tobytes() == u.spectrum.vectors.tobytes()
        assert t.spectrum.residual == u.spectrum.residual
        assert np.array_equal(t.peripheral_indices, u.peripheral_indices)
        assert t.nu_gap == u.nu_gap


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
    for d_s, d_M in ((2, 2), (2, 4), (2, 6), (3, 2), (3, 4), (3, 6)):
        h = d_M // 2
        for builder, placed in ((build_case2, ((0, 0), (1, 1))), (build_case3, ((0, 1), (1, 0)))):
            mats = builder(d_s, d_M, stream).matrices
            for i, (row, col) in enumerate(placed):
                block = mats[:, h * row:h * row + h, h * col:h * col + h]
                expected = build_case1(d_s, h, stream.substream(i)).matrices
                assert block.tobytes() == expected.tobytes(), (d_s, d_M, i)
                assert not mats[:, h * row:h * row + h, h - h * col:d_M - h * col].any()


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


def real_form_kraus_sets():
    """Cases 1-3, the golden instance, both analytic families and amplitude
    damping (d_M = 2, fixed point |0><0|)."""
    sets = [
        build_case(case, 3, 4, RandomStream(20231, i))
        for case in ("case1", "case2", "case3")
        for i in range(3)
    ]
    sets += [benchmark_kraus(), analytic_family("first", 0.1), analytic_family("second", 0.3)]
    damping = np.array([[[1, 0], [0, 0.8]], [[0, 0.6], [0, 0]]], dtype=complex)
    return sets + [KrausSet(d_s=2, d_M=2, matrices=damping, case_tag="explicit")]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_hermitian_basis_is_orthonormal_and_hermitian(d):
    u, u_h = hermitian_basis(d)
    assert u.shape == (d * d, d * d) and np.array_equal(u_h, u.conj().T)
    assert np.abs(u_h @ u - np.eye(d * d)).max() <= 1e-15
    g = u.T.reshape(d * d, d, d)  # column k of U is vec(G_k)
    assert np.array_equal(g, g.conj().swapaxes(-1, -2))
    assert hermitian_basis(d)[0] is u and not u.flags.writeable


@pytest.mark.parametrize("ks", real_form_kraus_sets(), ids=lambda ks: ks.case_tag)
def test_real_form_spectrum_matches_the_complex_route(ks):
    transfer = transfer_matrix(ks)
    e, spectrum = transfer.e, transfer.spectrum
    u, u_h = hermitian_basis(ks.d_M)
    assert np.abs((u_h @ e @ u).imag).max() <= 1e-15 * np.linalg.norm(e)
    assert real_form(e).dtype == np.float64
    # each eigenvalue against its nearest zgeev eigenvalue of E, both ways
    oracle = complex_eigenvalues(e)
    gaps = np.abs(spectrum.values[:, None] - oracle[None, :])
    assert gaps.min(axis=1).max() <= 1e-13 and gaps.min(axis=0).max() <= 1e-13
    # E v = nu v in the E basis, and the reported residual is E's
    vectors, values = spectrum.vectors, spectrum.values
    residual = np.linalg.norm(e @ vectors - vectors * values, axis=0).max()
    assert residual <= 1e-13
    assert abs(residual - spectrum.residual) <= 1e-14
    # every non-real eigenvalue's conjugate is there, bit for bit
    for nu in values[values.imag != 0]:
        assert np.any(values == nu.conjugate())


def test_transfer_magnitudes_are_the_bits_of_transfer_spectrum_magnitudes():
    """Seeded Case 1-3 stacks, the golden instance, both analytic families
    and a stack of one: the magnitudes reader gives the magnitude of every
    value of the vector reader, bit for bit, stacked or alone."""
    stacks = [
        transfer_operators(sample_case(case, 3, 4, [RandomStream(20231, i) for i in range(5)]))
        for case in ("case1", "case2", "case3")
    ]
    singles = [
        transfer_matrix(ks).e
        for ks in (benchmark_kraus(), analytic_family("first", 0.1), analytic_family("second", 0.3))
    ]
    for e in stacks + singles + [stacks[1][:1]]:
        mags = transfer_magnitudes(e)
        assert mags.dtype == np.float64 and mags.shape == e.shape[:-1]
        assert mags.tobytes() == np.abs(transfer_spectrum(e).values).tobytes()
    for e in stacks[0]:
        assert transfer_magnitudes(e).tobytes() == np.abs(transfer_spectrum(e).values).tobytes()


def test_the_case1_isometry_is_built_once_and_read_only():
    from iumps.mps import _case1_isometry

    psi = _case1_isometry(3, 4)
    assert _case1_isometry(3, 4) is psi and not psi.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        psi[0, 0] = 0
    assert np.array_equal(psi, np.tile(np.eye(4), (3, 1)) / np.sqrt(3))
    assert _case1_isometry(2, 4).shape == (8, 4)


def test_both_transfer_readers_raise_the_same_nonconvergence(monkeypatch):
    real_eig = np.linalg.eig

    def second_vectors_off(a):
        values, vectors = real_eig(a)
        vectors = vectors.astype(complex)
        vectors[1, :, 0] += 1e-3  # breaks one eigenpair of the second matrix only
        return values, vectors

    e = transfer_operators(sample_case1(3, 4, [RandomStream(5, i) for i in range(3)]))
    monkeypatch.setattr(np.linalg, "eig", second_vectors_off)
    messages = []
    for reader in (transfer_magnitudes, transfer_spectrum):
        with pytest.raises(NonConvergence, match=r"\(matrix 1\)") as info:
            reader(e)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_real_form_rejects_a_map_that_breaks_hermiticity():
    e = transfer_operators(sample_case1(3, 4, [RandomStream(5, i) for i in range(3)]))
    transfer_spectrum(e)
    broken = e.copy()
    broken[1, 1, 0] += 1e-6  # E_00 -> Phi(E_00) + 1e-6 E_01, which is not Hermitian
    with pytest.raises(NotHermitian, match=r"\(matrix 1\)"):
        transfer_spectrum(broken)
    with pytest.raises(NotHermitian):
        real_form(1j * np.eye(4))


def test_sample_iumps_raises_when_one_fixed_point_fails(monkeypatch):
    """An instance whose fixed point fails raises for the whole stack; no
    error is returned as a list entry."""
    import iumps.mps
    from iumps import NotPositive

    calls = []

    def failing_on_row_2(transfer):
        calls.append(transfer)
        if len(calls) == 3:
            raise NotPositive("clipped weight 1.000e+00 exceeds budget of total 1.000e+00")
        return fixed_point(transfer)

    monkeypatch.setattr(iumps.mps, "fixed_point", failing_on_row_2)
    streams = [RandomStream(29, i) for i in range(4)]
    with pytest.raises(NotPositive, match="clipped weight"):
        sample_iumps("case1", 3, 4, streams)


def _over_budget(d_s, d_m):
    """The memory-budget refusal of a run at d_s x d_M."""
    charge = run_charge(d_s, d_m)
    return f"^a run at d_s = {d_s}, d_M = {d_m} charges {charge:,} bytes, above the 1 GiB memory"


def test_a_bond_dimension_above_the_transfer_size_cap_is_refused_before_any_allocation(monkeypatch):
    """A d_M whose transfer matrices put the run above mps.MEMORY_BUDGET
    (d_M = 40: 14.9 GB charged) is one ValueError, raised before any Haar draw
    or transfer matrix: by the case check every sampled path shares, and by
    KrausSet.validate.  d_M = 20, the largest admitted at d_s = 3, passes."""
    import iumps.experiments
    import iumps.mps
    from iumps.experiments import run_ensemble
    from iumps.mps import check_case

    def no_allocation(*args):
        raise AssertionError("allocated before the d_M check")

    monkeypatch.setattr(iumps.mps, "haar_unitaries", no_allocation)
    monkeypatch.setattr(iumps.mps, "transfer_operators", no_allocation)
    monkeypatch.setattr(iumps.experiments, "transfer_operators", no_allocation)
    stream, identity = RandomStream(3, 0), np.eye(40, dtype=complex)[None]
    refused = [
        lambda: check_case("case1", 3, 40),
        lambda: sample_case1(3, 40, [stream]),
        lambda: build_case("case1", 3, 40, stream),
        lambda: sample_iumps("case1", 3, 40, [stream]),
        lambda: run_ensemble(2, "case1", 1, 1, 3, d_m=40),
        lambda: iumps.experiments.gap_statistics(16, 3, 3, 40),
    ]
    for call in refused:
        with pytest.raises(ValueError, match=_over_budget(3, 40)):
            call()
    with pytest.raises(ValueError, match=_over_budget(1, 40)):
        KrausSet(d_s=1, d_M=40, matrices=identity, case_tag="explicit").validate()
    with pytest.raises(ValueError, match=_over_budget(3, 22)):
        check_case("case2", 3, 22)
    with pytest.raises(ValueError, match=_over_budget(3, 21)):
        check_case("case1", 3, 21)
    check_case("case1", 3, 20)
    check_case("case2", 3, 20)


def test_a_haar_dimension_above_the_cap_is_refused_before_any_draw(monkeypatch):
    """A Haar dimension d_s * d_M that puts the run above mps.MEMORY_BUDGET
    (d_s = 100000 at d_M = 4: 2.56e14 bytes charged) is one ValueError,
    raised before any Haar draw by the case check, which ``sample_case1``
    (the draw of every sampled path) also runs; 800 passes it at d_M = 4.
    A loaded Kraus set draws nothing, and validates at d_s * d_M = 260."""
    import iumps.mps
    from iumps.mps import check_case

    def no_draw(*args):
        raise AssertionError("drew before the Haar dimension check")

    monkeypatch.setattr(iumps.mps, "haar_unitaries", no_draw)
    with pytest.raises(ValueError, match=_over_budget(100_000, 4)):
        check_case("case2", 100_000, 4)
    with pytest.raises(ValueError, match=_over_budget(100_000, 4)):
        sample_case1(100_000, 4, [RandomStream(3, 0)])
    with pytest.raises(ValueError, match=_over_budget(205, 4)):
        check_case("case1", 205, 4)
    check_case("case1", 200, 4)
    check_case("case1", 64, 4)
    check_case("case2", 32, 8)
    identity = np.repeat(np.eye(4, dtype=complex)[None] / np.sqrt(65), 65, axis=0)
    KrausSet(d_s=65, d_M=4, matrices=identity, case_tag="explicit").validate()


# Case 2 and the golden instance: the two diagonal 2 x 2 blocks of d_M = 4
TWO_BLOCKS = np.kron(np.eye(2, dtype=bool), np.ones((2, 2), dtype=bool))


def _reach_by_powers(pattern):
    """Coordinates some product of length 1..d of the pattern is nonzero at,
    by integer matrix powers: no path of length above d reaches a new one."""
    p = pattern.astype(np.int64)
    power, seen = np.eye(len(p), dtype=np.int64), np.zeros(p.shape, dtype=bool)
    for _ in range(len(p)):
        power = np.minimum(power @ p, 1)
        seen |= power > 0
    return seen


@pytest.mark.parametrize("case", ["case1", "case2", "case3"])
def test_the_reach_of_each_sampled_case(case):
    """Every coordinate for Case 1, and for Case 3, whose odd products fill
    the anti-diagonal blocks and even ones the diagonal blocks; the two
    diagonal blocks, 8 of 16, for Case 2."""
    for i in range(5):
        mps = build_iumps(build_case(case, 3, 4, RandomStream(20231, i)))
        expected = TWO_BLOCKS if case == "case2" else np.ones((4, 4), dtype=bool)
        assert mps.reach.dtype == bool and np.array_equal(mps.reach, expected)
        assert mps.reach_root.shape == (expected.sum(),) * 2


def test_the_reach_of_the_golden_instance_is_its_two_blocks():
    mps = build_iumps(benchmark_kraus())
    assert np.array_equal(mps.reach, TWO_BLOCKS)
    assert not mps.reach.flags.writeable


@pytest.mark.parametrize(
    "nonzero, expected",
    [
        # a shift a -> a + 1 reaches a -> a + k after k steps: strictly upper
        ([(0, 1), (1, 2), (2, 3)], np.triu(np.ones((4, 4), dtype=bool), 1)),
        # a cyclic shift reaches everything, the diagonal only after 4 steps
        ([(0, 1), (1, 2), (2, 3), (3, 0)], np.ones((4, 4), dtype=bool)),
        # a shift on the first three coordinates, and a fixed last one
        ([(0, 1), (1, 2), (2, 0), (3, 3)], np.add.outer([0, 0, 0, 1], [0, 0, 0, 1]) != 1),
    ],
    ids=["shift", "cyclic", "cyclic-3"],
)
def test_the_reach_closes_a_shift_pattern_over_several_steps(nonzero, expected):
    """The closure of a hand-built pattern against products of every length
    up to d_M; each pattern is split over two Kraus matrices."""
    matrices = np.zeros((2, 4, 4), dtype=complex)
    for k, (a, b) in enumerate(nonzero):
        matrices[k % 2, a, b] = 0.5 + 0.25j
    pattern = (matrices != 0).any(axis=0)
    assert np.array_equal(kraus_reach(matrices), expected)
    assert np.array_equal(kraus_reach(matrices), _reach_by_powers(pattern))
    assert not np.array_equal(pattern, expected)


def test_the_reach_root_squares_to_i_kron_sigma_on_the_reach(case1_instance, case2_instance):
    """T^2 = (I kron sigma)_SS; for a full reach T is I kron sigma^(1/2) of
    one ``eigh``, equal entry for entry (``np.kron`` may sign its zeros)."""
    for mps in (case1_instance, case2_instance, build_iumps(benchmark_kraus())):
        on_reach = np.flatnonzero(mps.reach)
        target = np.kron(np.eye(4), mps.sigma)[np.ix_(on_reach, on_reach)]
        assert np.abs(mps.reach_root @ mps.reach_root - target).max() <= 1e-15
    lam, u = np.linalg.eigh(case1_instance.sigma)
    root = (u * np.sqrt(np.clip(lam, 0.0, None))) @ u.conj().T
    assert np.array_equal(case1_instance.reach_root, np.kron(np.eye(4), root))
