import numpy as np
import pytest
from scipy import stats

from iumps import (
    NonConvergence,
    NotHermitian,
    RandomStream,
    eig_general,
    eig_hermitian,
    eig_magnitudes,
    eigvals_hermitian,
    haar_unitaries,
    haar_unitary,
    mat_power,
)
from iumps.numerics import EIG_RESIDUAL_TOL


def gram_schmidt_unitary(rng):
    """Independent Haar sampler: orthonormalize Gaussian columns one by one."""
    dim = 4
    cols = []
    for _ in range(dim):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        for u in cols:
            v = v - (u.conj() @ v) * u
        cols.append(v / np.linalg.norm(v))
    return np.column_stack(cols)


def test_haar_unitary_is_unitary():
    for dim in (1, 4, 12):
        u = haar_unitary(dim, RandomStream(1, dim))
        dev = np.abs(u.conj().T @ u - np.eye(dim)).max()
        assert dev <= 1e-12
    u1 = haar_unitary(1, RandomStream(5, 0))
    assert abs(abs(u1[0, 0]) - 1.0) <= 1e-14


def test_haar_unitary_deterministic():
    a = haar_unitary(12, RandomStream(7, 3))
    b = haar_unitary(12, RandomStream(7, 3))
    assert np.array_equal(a, b)
    c = haar_unitary(12, RandomStream(7, 4))
    assert not np.allclose(a, c)


def test_haar_first_moment_against_independent_oracle():
    # E|U_00|^2 = 1/4 for dim 4; |U_00|^2 ~ Beta(1, 3), std = sqrt(3/80)
    n = 10_000
    se = np.sqrt(3.0 / 80.0) / np.sqrt(n)
    samples = np.array(
        [abs(haar_unitary(4, RandomStream(11, i))[0, 0]) ** 2 for i in range(n)]
    )
    assert abs(samples.mean() - 0.25) <= 3 * se
    rng = np.random.default_rng(2718)
    oracle = np.array([abs(gram_schmidt_unitary(rng)[0, 0]) ** 2 for _ in range(n)])
    assert abs(oracle.mean() - 0.25) <= 3 * se


def test_haar_left_invariance_ks():
    n = 10_000
    f = haar_unitary(4, RandomStream(99, 0))
    base = np.empty(n)
    rotated = np.empty(n)
    for i in range(n):
        u = haar_unitary(4, RandomStream(13, i))
        base[i] = abs(u[0, 0]) ** 2
        rotated[i] = abs((f @ u)[0, 0]) ** 2
    assert stats.ks_2samp(base, rotated).pvalue >= 0.01


def test_haar_unitaries_rows_equal_single_draws():
    for dim in (1, 4, 12):
        streams = [RandomStream(17, i) for i in range(5)] + [RandomStream(17, 2).substream(1)]
        stack = haar_unitaries(dim, streams)
        assert stack.shape == (len(streams), dim, dim)
        for row, stream in zip(stack, streams):
            assert row.tobytes() == haar_unitary(dim, stream).tobytes()


def test_haar_unitary_keeps_the_two_draw_construction():
    # one standard_normal((2, dim, dim)) draw gives the bits of the real and
    # imaginary parts drawn one after the other
    for i in range(4):
        rng = RandomStream(23, i).generator()
        z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        z /= np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        assert haar_unitary(12, RandomStream(23, i)).tobytes() == (q * (d / np.abs(d))).tobytes()


def unitary_from_draw(draw):
    """The Haar construction of ``haar_unitaries`` on one stream's draw."""
    z = draw[0] + 1j * draw[1]
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


EDGE_STREAMS = [
    RandomStream(seed, index, path)
    for seed in (0, 2**32 - 1, 2**32, 2**64 - 1)
    for index in (0, 2**32)
    for path in ((), (1,), (0, 1))
]


def test_haar_unitaries_draw_what_each_stream_generator_draws():
    """At the edge coordinates of the word assembly (seeds at and around the
    32-bit and 64-bit limits, an index of two words, paths of length 0-2,
    mixed in one call), each row is built from its stream's own
    ``generator()`` draw, and ``entropy_words`` gives that generator's
    pool."""
    dim = 4
    stack = haar_unitaries(dim, EDGE_STREAMS)
    for row, stream in zip(stack, EDGE_STREAMS, strict=True):
        seq = np.random.SeedSequence(
            stream.master_seed, spawn_key=(stream.stream_index, *stream.path)
        )
        assert np.array_equal(np.random.SeedSequence(stream.entropy_words()).pool, seq.pool)
        draw = stream.generator().standard_normal((2, dim, dim))
        assert row.tobytes() == unitary_from_draw(draw).tobytes()
        assert row.tobytes() == haar_unitary(dim, stream).tobytes()


def test_entropy_words_are_the_assembled_seed_words():
    assert RandomStream(0, 0).entropy_words().tolist() == [0, 0, 0, 0, 0]
    assert RandomStream(2**32, 2**32, (0, 1)).entropy_words().tolist() == [0, 1, 0, 0, 0, 1, 0, 1]
    words = RandomStream(2**64 - 1, 7, (2**40 + 3,)).entropy_words()
    assert words.dtype == np.uint32
    assert words.tolist() == [2**32 - 1, 2**32 - 1, 0, 0, 7, 3, 2**8]


def test_a_negative_stream_coordinate_is_refused():
    for index, path in [(-1, ()), (0, (-1,)), (3, (0, -2)), (-(2**32), (1,))]:
        with pytest.raises(ValueError, match="must be >= 0"):
            RandomStream(7, index, path)
    with pytest.raises(ValueError, match="must be >= 0"):
        RandomStream(7, 0).substream(-1)


def test_eig_magnitudes_are_the_bits_of_eig_general_magnitudes():
    rng = np.random.default_rng(8)
    complex_stack = rng.standard_normal((4, 16, 16)) + 1j * rng.standard_normal((4, 16, 16))
    real_stack = rng.standard_normal((4, 16, 16))
    ties = np.diag([1j, -1j, 1.0, -1.0])
    for a in (complex_stack, real_stack, complex_stack[0], real_stack[1], ties, np.eye(4)):
        mags = eig_magnitudes(a)
        assert mags.dtype == np.float64
        assert mags.tobytes() == np.abs(eig_general(a).values).tobytes()


def test_eig_general_identity():
    dec = eig_general(np.eye(4))
    assert np.allclose(dec.values, 1.0)
    assert dec.residual <= 1e-13


def test_eig_general_diagonal_ordering():
    dec = eig_general(np.diag([0.25, 1.0, 0.0, 0.5]))
    assert np.allclose(dec.values, [1.0, 0.5, 0.25, 0.0])


def test_eig_general_tie_break_on_exact_ties():
    dec = eig_general(np.diag([1j, -1j, 1.0, -1.0]))
    # magnitude ties: Re descends first (1 before +-i before -1), then Im
    assert np.allclose(dec.values, [1.0, 1j, -1j, -1.0])
    # same matrix twice: identical ordering
    again = eig_general(np.diag([1j, -1j, 1.0, -1.0]))
    assert np.array_equal(dec.values, again.values)


def test_eig_general_reconstruction():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        dec = eig_general(a)
        rec = dec.vectors @ np.diag(dec.values) @ np.linalg.inv(dec.vectors)
        assert np.linalg.norm(rec - a) <= 1e-9 * np.linalg.norm(a)
        assert np.allclose(np.linalg.norm(dec.vectors, axis=0), 1.0)


def test_eig_general_stack_equals_one_call_per_matrix():
    rng = np.random.default_rng(8)
    mats = rng.standard_normal((5, 16, 16)) + 1j * rng.standard_normal((5, 16, 16))
    ties = np.zeros((3, 16, 16), dtype=complex)
    ties[0, :4, :4] = np.diag([1j, -1j, 1.0, -1.0])
    ties[1, :4, :4] = np.diag([-1.0, 1.0, -1j, 1j])
    ties[2] = np.eye(16)
    stack = np.concatenate([mats[:2], ties[:1], mats[2:], ties[1:]])
    dec = eig_general(stack)
    assert dec.values.shape == (8, 16)
    assert dec.vectors.shape == (8, 16, 16)
    assert dec.residual.shape == (8,)
    for i, a in enumerate(stack):
        one = eig_general(a)
        assert one.values.tobytes() == dec.values[i].tobytes()
        assert one.vectors.tobytes() == np.ascontiguousarray(dec.vectors[i]).tobytes()
        assert isinstance(one.residual, float) and one.residual == dec.residual[i]
    # the exact-tie ordering holds in each row: Re descends, then Im
    assert np.array_equal(dec.values[2, :4], [1.0, 1j, -1j, -1.0])
    assert np.array_equal(dec.values[6, :4], [1.0, 1j, -1j, -1.0])


def test_eig_general_checks_the_residual_of_every_matrix(monkeypatch):
    real_eig = np.linalg.eig

    def last_vectors_off(a):
        values, vectors = real_eig(a)
        vectors = vectors.copy()
        vectors[-1, :, 0] += 1e-3  # breaks the contract of the last matrix only
        return values, vectors

    stack = np.stack([np.diag([1.0, 0.5, 0.25, 0.1]) + k * 0.01 for k in range(3)])
    assert eig_general(stack).residual.max() <= 1e-13
    monkeypatch.setattr(np.linalg, "eig", last_vectors_off)
    with pytest.raises(NonConvergence, match=r"\(matrix 2\)"):
        eig_general(stack)


def test_eig_general_real_input_returns_complex_fields():
    rng = np.random.default_rng(12)
    real_only = np.diag([0.25, 1.0, -0.5, 0.0])
    symmetric = rng.standard_normal((6, 6))
    for a in (real_only, symmetric + symmetric.T, rng.standard_normal((6, 6))):
        dec = eig_general(a)
        assert dec.values.dtype == complex and dec.vectors.dtype == complex
        assert dec.residual <= 1e-13 * np.linalg.norm(a)
    assert np.array_equal(eig_general(real_only).values, [1.0, -0.5, 0.25, 0.0])


def test_eig_general_real_stack_equals_one_call_per_matrix():
    """A real stack mixing matrices with only real eigenvalues and matrices
    with conjugate pairs: every row is the one-call bits, and each pair is
    exact, +Im first."""
    rng = np.random.default_rng(9)
    sym = rng.standard_normal((2, 16, 16))
    stack = np.concatenate([sym + sym.swapaxes(-1, -2), rng.standard_normal((3, 16, 16))])
    dec = eig_general(stack)
    assert dec.values.dtype == complex and dec.residual.shape == (5,)
    for i, a in enumerate(stack):
        one = eig_general(a)
        assert one.values.tobytes() == dec.values[i].tobytes()
        assert one.vectors.tobytes() == np.ascontiguousarray(dec.vectors[i]).tobytes()
        assert one.residual == dec.residual[i]
    for row in dec.values[2:]:
        upper = np.flatnonzero(row.imag > 0)
        assert upper.size and np.array_equal(row[upper + 1], row[upper].conjugate())


def test_eig_general_checks_the_residual_of_every_real_matrix(monkeypatch):
    real_eig = np.linalg.eig
    stack = np.random.default_rng(10).standard_normal((3, 8, 8))

    def middle_vectors_off(a):
        assert a.dtype == np.float64  # the real stack reaches real LAPACK
        values, vectors = real_eig(a)
        vectors = vectors.copy()
        vectors[1, :, 0] += 1e-3
        return values, vectors

    monkeypatch.setattr(np.linalg, "eig", middle_vectors_off)
    with pytest.raises(NonConvergence, match=r"\(matrix 1\)"):
        eig_general(stack)


def test_a_real_residual_in_real_arithmetic_matches_the_complex_route():
    """A real matrix's residual comes from one real matmul on the vectors'
    float64 view; on random real stacks, a symmetric stack (real vectors)
    and Case 1-3 real forms it is within a few ulp of ||A V - V diag(nu)||
    taken in complex arithmetic on the same vectors."""
    from iumps.mps import real_form, sample_case, transfer_operators
    from iumps.numerics import _eig_checked

    rng = np.random.default_rng(3)
    sym = rng.standard_normal((4, 16, 16))
    stacks = [rng.standard_normal((20, 16, 16)), sym + sym.swapaxes(-1, -2)]
    for case in ("case1", "case2", "case3"):
        streams = [RandomStream(1, i) for i in range(20)]
        stacks.append(real_form(transfer_operators(sample_case(case, 3, 4, streams))))
    for a in stacks:
        values, vectors, residual = _eig_checked(a)
        complex_route = np.linalg.norm(a @ vectors - vectors * values[..., None, :], axis=-2)
        np.testing.assert_array_max_ulp(residual, complex_route.max(axis=-1), maxulp=4)


def test_eig_readers_refuse_no_size():
    """The eigensolvers refuse no size: an 81 x 81 real stack (the transfer
    dimension of d_M = 9) and a 256 x 256 real matrix are solved with
    every eigenpair's residual under the tolerance, and the magnitudes are
    the bits of ``np.abs(eig_general(a).values)``."""
    rng = np.random.default_rng(13)
    real_stack = rng.standard_normal((2, 81, 81))
    real_one = rng.standard_normal((256, 256))
    for a in (real_stack, real_one):
        dec = eig_general(a)
        norm = np.linalg.norm(a, axis=(-2, -1))
        pairs = np.linalg.norm(a @ dec.vectors - dec.vectors * dec.values[..., None, :], axis=-2)
        assert np.all(pairs.max(axis=-1) <= EIG_RESIDUAL_TOL * norm)
        assert np.all(dec.residual <= EIG_RESIDUAL_TOL * norm)
        assert eig_magnitudes(a).tobytes() == np.abs(dec.values).tobytes()


def test_eig_hermitian_diagonal():
    dec = eig_hermitian(np.diag([1.0, 3.0, 2.0]))
    assert np.allclose(dec.values, [3.0, 2.0, 1.0])
    perm = np.abs(dec.vectors)
    assert np.allclose(perm @ perm.T, np.eye(3))


def test_eig_hermitian_rank_one_projector():
    v = np.array([1.0, 1j, -1.0, 2.0])
    v = v / np.linalg.norm(v)
    dec = eig_hermitian(np.outer(v, v.conj()))
    assert np.allclose(dec.values, [1.0, 0.0, 0.0, 0.0], atol=1e-13)


def test_eig_hermitian_reconstruction_random():
    rng = np.random.default_rng(17)
    z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    h = (z + z.conj().T) / 2
    dec = eig_hermitian(h)
    rec = (dec.vectors * dec.values) @ dec.vectors.conj().T
    assert np.linalg.norm(rec - h) <= 1e-12 * np.linalg.norm(h)
    assert np.abs(dec.vectors.conj().T @ dec.vectors - np.eye(16)).max() <= 1e-12


def test_eig_hermitian_rejects_non_hermitian():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian):
        eig_hermitian(a)
    # the guard reads h itself, not the Hermitian product k h k = 0
    with pytest.raises(NotHermitian):
        eigvals_hermitian(a, np.zeros((2, 2)))
    # and every matrix of a stack: only the last one is non-Hermitian
    stack = np.stack([np.eye(2), np.diag([1.0, -1.0]), a])
    assert eigvals_hermitian(stack[:2], np.eye(2)).shape == (2, 2)
    with pytest.raises(NotHermitian):
        eigvals_hermitian(stack, np.eye(2))


def test_eigvals_hermitian_congruence():
    rng = np.random.default_rng(23)
    z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    h = (z + z.conj().T) / 2
    y = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    k = y @ y.conj().T
    values = eigvals_hermitian(h, k)
    assert np.all(np.diff(values) <= 0)
    expected = eig_hermitian((k @ h @ k + (k @ h @ k).conj().T) / 2).values
    assert np.abs(values - expected).max() <= 1e-12 * np.linalg.norm(k @ h @ k)
    assert np.abs(eigvals_hermitian(h, np.eye(16)) - eig_hermitian(h).values).max() <= 1e-12
    # a stack gives, row by row, exactly the eigenvalues of one call per matrix
    stack = np.stack([h, k, h @ k + k @ h])
    assert np.array_equal(
        eigvals_hermitian(stack, k), np.stack([eigvals_hermitian(m, k) for m in stack])
    )


def test_mat_power_basics():
    a = np.diag([0.5])
    assert np.allclose(mat_power(a, 3), np.diag([0.125]))
    rng = np.random.default_rng(3)
    b = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    assert np.array_equal(mat_power(b, 0), np.eye(16))


def test_mat_power_matches_naive_product():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = a / (np.abs(np.linalg.eigvals(a)).max() * 1.01)
    naive = np.eye(6, dtype=complex)
    for _ in range(7):
        naive = naive @ a
    assert np.abs(mat_power(a, 7) - naive).max() <= 1e-12


def test_mat_power_homomorphism():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = a / (np.abs(np.linalg.eigvals(a)).max() * 1.05)  # spectral radius < 1
    lhs = mat_power(a, 9)
    rhs = mat_power(a, 4) @ mat_power(a, 5)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_random_stream_substreams_differ():
    s = RandomStream(42, 0)
    a = haar_unitary(4, s.substream(0))
    b = haar_unitary(4, s.substream(1))
    assert not np.allclose(a, b)


def test_preconditions_rejected():
    with pytest.raises(ValueError):
        RandomStream(-1, 0)
    with pytest.raises(ValueError):
        haar_unitary(0, RandomStream(1, 0))
    with pytest.raises(ValueError):
        mat_power(np.eye(2), -1)
    with pytest.raises(ValueError):
        eig_general(np.ones((2, 3)))


def _hermitian_check_reference(a):
    """The check as the symmetrising guard made it, with ``np.linalg.norm``:
    raise ``NotHermitian`` above 1e-10 relative asymmetry (Frobenius)."""
    a = np.asarray(a, dtype=complex)
    norm_a = np.linalg.norm(a, axis=(-2, -1))
    asym = np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1))
    bad = (norm_a > 0) & (asym > 1e-10 * norm_a)
    if np.any(bad):
        worst = float((asym[bad] / norm_a[bad]).max())
        raise NotHermitian(f"relative asymmetry {worst:.3e} exceeds 1e-10")


@pytest.mark.parametrize("count", [1, 17, 136])
def test_the_hermitian_check_passes_hermitian_stacks_and_makes_no_copy(count):
    """Stacks Hermitian to roundoff pass the check of ``eig_hermitian`` and
    ``eigvals_hermitian``, whose values match the symmetrised k h k's; a
    skewed stack raises the reference's message.  On 136 matrices
    ``eigvals_hermitian`` peaks under 2.1 times the stack (measured 2.01:
    the check's buffer, which takes k h k, and the product k h), where the
    symmetrised copy and its norms peaked at 2.24."""
    import tracemalloc

    rng = np.random.default_rng(count)
    g = rng.standard_normal((count, 16, 16)) + 1j * rng.standard_normal((count, 16, 16))
    h = g + g.conj().swapaxes(-1, -2)
    h += 1e-13 * (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))
    y = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    k = y @ y.conj().T
    for a in (h, h[0]):
        _hermitian_check_reference(a)
        khk = k @ a @ k
        expected = np.linalg.eigvalsh((khk + khk.conj().swapaxes(-1, -2)) / 2)[..., ::-1]
        got = eigvals_hermitian(a, k)
        assert np.abs(got - expected).max() <= 1e-12 * np.linalg.norm(khk, axis=(-2, -1)).max()
    expected = np.linalg.eigvalsh((h[0] + h[0].conj().T) / 2)[::-1]
    assert np.abs(eig_hermitian(h[0]).values - expected).max() <= 1e-12 * np.linalg.norm(h[0])
    if count == 136:  # large enough that numpy's fixed 64 KB reduce buffer is small beside it
        tracemalloc.start()
        eigvals_hermitian(h, k)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2.1 * h.nbytes
    skewed = h.copy()
    skewed[-1] += 1e-6 * rng.standard_normal((16, 16))
    skewed[0] += 1e-8 * rng.standard_normal((16, 16))
    with pytest.raises(NotHermitian) as ref:
        _hermitian_check_reference(skewed)
    with pytest.raises(NotHermitian, match="exceeds 1e-10") as got:
        eigvals_hermitian(skewed, k)
    assert str(got.value) == str(ref.value)
    with pytest.raises(NotHermitian) as got:  # the last matrix is the most skewed
        eig_hermitian(skewed[-1])
    assert str(got.value) == str(ref.value)
