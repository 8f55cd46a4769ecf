"""Dense linear-algebra kernels and deterministic random streams.

Everything here operates on plain ``numpy`` arrays, of any size (``mps`` caps
the transfer size).  The eigensolvers wrap LAPACK but pin down the ordering,
residual, and error contracts the rest of the package relies on.  A general
spectrum is one checked solve (``np.linalg.eig`` and its residual check over
every eigenpair) read by one of two readers: ``eig_magnitudes`` sorts the
eigenvalue magnitudes only, and ``eig_general`` sorts the values, then
renormalises and returns the vectors, for the callers that read them.  Both
follow their input's dtype: the transfer spectra reach them as real matrices
(``mps.real_form``) and take real LAPACK, and the residual of a real matrix
is checked in real arithmetic; ``eig_general`` returns complex fields either
way.

The Hermitian solvers check their input, and do not symmetrise it: every
matrix must be Hermitian to 1e-10 relative asymmetry (Frobenius) or
``NotHermitian`` is raised, and LAPACK then reads one triangle of the
checked matrix (``eigvalsh`` of ``k h k`` for ``eigvals_hermitian``).  The
check's one buffer of the input's size holds h - h† and then takes k h k.

The Haar sampler, both general readers and ``eigvals_hermitian`` also take
stacks: at these sizes much of a single call is per-call numpy overhead
around the LAPACK routine, which a stack pays once.  A stack returns, row by
row, the bits of one call per matrix, and ``haar_unitary`` and a
single-matrix ``eig_general`` are the one-element case of the stacked code.
Each stream of a Haar call draws through the call's one ``Philox`` generator:
the stream's key is set from the words of its coordinates
(``RandomStream.entropy_words``) with the counter at 0, so each draw has the
bits of the stream's own ``RandomStream.generator()``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .exceptions import NonConvergence, NotHermitian

EIG_RESIDUAL_TOL = 1e-11
_WORD = 2**32 - 1


class _StreamCoordinates(NamedTuple):
    master_seed: int
    stream_index: int
    path: tuple[int, ...] = ()


class RandomStream(_StreamCoordinates):
    """Counter-based random stream addressed by (master_seed, stream_index).

    Identical coordinates always reproduce identical draws, independent of
    execution order; distinct stream indices give statistically independent
    streams.  ``substream`` derives further independent streams for
    constructions that need more than one draw.  A ``master_seed`` outside
    [0, 2^64), or a negative ``stream_index`` or path element, is refused
    when the stream is made.
    """

    __slots__ = ()

    def __new__(cls, master_seed: int, stream_index: int, path: tuple[int, ...] = ()):
        if not 0 <= master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if stream_index < 0 or min(path, default=0) < 0:
            raise ValueError("stream_index and path elements must be >= 0")
        return super().__new__(cls, master_seed, stream_index, path)

    def entropy_words(self) -> np.ndarray:
        """The 32-bit words ``SeedSequence(master_seed, spawn_key=(stream_index,
        *path))`` assembles, as ``uint32``: master_seed's words zero-padded to
        the pool size 4, then each key element's words, each least
        significant first.  A master_seed below 2^64 has at most two words,
        so its four are its low word, its high word and two zeros.
        ``SeedSequence(entropy_words())`` has the pool of that SeedSequence."""
        words = [self.master_seed & _WORD, self.master_seed >> 32, 0, 0]
        for k in (self.stream_index, *self.path):
            words.append(k & _WORD)  # 0 is one word
            while k := k >> 32:
                words.append(k & _WORD)
        return np.array(words, dtype=np.uint32)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_index, *self.path)
        )
        return np.random.Generator(np.random.Philox(seq))

    def substream(self, k: int) -> "RandomStream":
        return RandomStream(self.master_seed, self.stream_index, self.path + (k,))


class EigenDecomposition(NamedTuple):
    """Full spectrum of a general complex matrix.

    ``values`` are sorted by descending magnitude, ties broken by descending
    real then imaginary part; ``vectors`` columns are unit-norm right
    eigenvectors aligned with ``values``; ``residual`` is
    ``max_i ||A v_i - nu_i v_i||_2``.  For a stack of matrices each field
    gains the stack's leading axes, and ``residual`` is an array.
    """

    values: np.ndarray
    vectors: np.ndarray
    residual: float | np.ndarray


class HermitianEigenDecomposition(NamedTuple):
    """Real eigenvalues (descending) and a unitary eigenvector matrix."""

    values: np.ndarray
    vectors: np.ndarray


def haar_unitaries(dim: int, streams: Sequence[RandomStream]) -> np.ndarray:
    """Draw one Haar-distributed ``dim x dim`` unitary per stream, stacked
    ``(len(streams), dim, dim)``.

    Complex Ginibre matrix followed by QR, with each column of Q rescaled by
    the phase of the corresponding diagonal entry of R so that the diagonal
    of R is real positive.  Without the phase fix the QR convention would
    bias the distribution.  Each stream draws its real and imaginary parts
    in one ``standard_normal((2, dim, dim))``, assigned as the real and
    imaginary parts of one complex stack, which then goes through one QR.
    Row i is, bit for bit, ``haar_unitary(dim, streams[i])``, and its draw
    that of ``streams[i].generator()``: the streams share one ``Philox``
    and ``Generator``, built on the first stream's key, and each later
    stream sets its own key, with the counter at 0 and an empty buffer,
    before it draws.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    draws = np.empty((len(streams), 2, dim, dim))
    bitgen = None
    for out, stream in zip(draws, streams):
        seq = np.random.SeedSequence(stream.entropy_words())
        if bitgen is None:  # built on the first stream's key: no placeholder to build
            bitgen = np.random.Philox(seq)
            gen = np.random.Generator(bitgen)
            state = bitgen.state  # counter 0 and an empty buffer, kept for the rest
        else:
            state["state"]["key"] = seq.generate_state(2, np.uint64)
            bitgen.state = state
        gen.standard_normal(out=out)
    z = np.empty((len(streams), dim, dim), dtype=complex)
    z.real, z.imag = draws[:, 0], draws[:, 1]
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(dim: int, stream: RandomStream) -> np.ndarray:
    """One Haar-distributed ``dim x dim`` unitary: ``haar_unitaries`` of the
    one stream."""
    return haar_unitaries(dim, (stream,))[0]


def _spectrum_order(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The index that sorts each row of ``values`` (a spectrum or a stack of
    them) into ``EigenDecomposition`` order."""
    # lexsort uses the last key as primary; each row of a stack sorts alone
    order = np.lexsort((-values.imag, -values.real, -np.abs(values)))
    return (*(i[..., None] for i in np.indices(order.shape[:-1], sparse=True)), order)


def flagged_at(bad: np.ndarray) -> str:
    """Where the first flagged matrix of a stack sits, as ``" (matrix i)"``;
    ``""`` for a single matrix or a stack of one, where a place names nothing."""
    if bad.size == 1:
        return ""
    index = tuple(int(i) for i in np.argwhere(bad)[0])
    return f" (matrix {index[0] if len(index) == 1 else index})"


def _eig_checked(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one checked solve behind ``eig_magnitudes`` and ``eig_general``:
    the values, vectors and residual of a square matrix, or of each matrix
    of a stack ``(..., m, m)``, of any size, in LAPACK's order, the vectors
    as LAPACK returns them (unit-norm columns), all complex.  The residual is
    ``max_i ||A v_i - nu_i v_i||_2`` over every eigenpair; one above
    ``EIG_RESIDUAL_TOL`` times the matrix's Frobenius norm raises
    ``NonConvergence`` naming the first failing matrix.  A real matrix's
    residual is taken in real arithmetic: A V is one real matmul on the
    ``float64`` view of V, whose columns alternate the real and imaginary
    parts of V's, and each column norm sums the squares of both parts."""
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    n = a.shape[-1]
    if a.ndim < 2 or a.shape[-2] != n:
        raise ValueError("matrix must be square")
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigensolver failed: {exc}") from exc
    # numpy hands back real arrays when a real stack has only real eigenvalues
    values = values.astype(complex, copy=False)
    vectors = np.ascontiguousarray(vectors, dtype=complex)
    scaled = vectors * values[..., None, :]
    if a.dtype == complex:
        residual = np.linalg.norm(a @ vectors - scaled, axis=-2)
    else:
        diff = a @ vectors.view(np.float64)
        diff -= scaled.view(np.float64)
        sq = np.square(diff, out=diff).sum(axis=-2)
        residual = np.sqrt(sq.reshape(*sq.shape[:-1], n, 2).sum(axis=-1))
    residual = residual.max(axis=-1)
    norm_a = np.linalg.norm(a, axis=(-2, -1))
    bad = (norm_a > 0) & (residual > EIG_RESIDUAL_TOL * norm_a)
    if bad.any():
        worst = float(np.max(residual, where=bad, initial=0.0))
        raise NonConvergence(
            f"eigenvector residual {worst:.3e} exceeds {EIG_RESIDUAL_TOL:.1e}*||a||{flagged_at(bad)}"
        )
    return values, vectors, residual


def eig_magnitudes(a: np.ndarray) -> np.ndarray:
    """``np.abs(eig_general(a).values)``, bit for bit, from the same checked
    solve: the eigenvalue magnitudes of a square matrix, or of each matrix of
    a stack, descending.  Only the magnitudes are sorted; no value is
    gathered and no eigenvector sorted or renormalised.  Every eigenpair's
    residual is checked as ``eig_general`` checks it, and a failing one
    raises the same ``NonConvergence``."""
    values, _, _ = _eig_checked(a)
    mags = np.abs(values)
    mags.sort(axis=-1)
    return mags[..., ::-1]


def eig_general(a: np.ndarray) -> EigenDecomposition:
    """Full spectrum of a square matrix, or of each matrix of a stack
    ``(..., m, m)``, of any dimension.

    The arithmetic follows the input's dtype: a real matrix goes to real
    LAPACK (``dgeev``), a complex one to complex LAPACK (``zgeev``).
    ``values`` and ``vectors`` come back complex either way, also when every
    eigenvalue is real.

    A stack gives ``values`` of shape ``(..., m)``, ``vectors`` of shape
    ``(..., m, m)`` and ``residual`` of shape ``(...)``, row by row the bits of
    one call per matrix, from one LAPACK-looping ``eig``; the ordering,
    normalisation and residual contract hold for every matrix.  The residual
    is that of the checked solve (``_eig_checked``), taken on LAPACK's
    vectors before they are sorted and renormalised; a residual above
    ``EIG_RESIDUAL_TOL`` times the matrix's Frobenius norm raises
    ``NonConvergence`` naming the first failing matrix.
    """
    values, vectors, residual = _eig_checked(a)
    index = _spectrum_order(values)
    # gathered as rows of V^T, each matrix's columns end up contiguous, the
    # layout ``vectors[:, order]`` has for one matrix: the norms then sum in
    # the same order whether or not the matrix is stacked
    vectors = vectors.swapaxes(-1, -2)[index].swapaxes(-1, -2)
    vectors = vectors / np.linalg.norm(vectors, axis=-2, keepdims=True)
    residual = residual if residual.ndim else float(residual)
    return EigenDecomposition(values=values[index], vectors=vectors, residual=residual)


def _check_hermitian(a: np.ndarray) -> np.ndarray:
    """Raise ``NotHermitian`` unless every matrix of ``a``, a C-contiguous
    complex matrix or stack ``(..., m, m)``, is Hermitian to a relative
    asymmetry ||a - a†||_F / ||a||_F of 1e-10; a zero matrix passes.

    Makes no Hermitian copy: the one buffer of ``a``'s size holds a - a†, and
    is returned for the caller to overwrite.  The norms are dot products of
    the ``float64`` views, which make no temporary of that size.
    """
    # the transposed copy, then conjugated in place: a ufunc reading the
    # transpose would add a buffer of its own
    diff = a.swapaxes(-1, -2).copy()
    np.subtract(a, np.conjugate(diff, out=diff), out=diff)
    flat = [x.reshape(*x.shape[:-2], -1).view(np.float64) for x in (a, diff)]
    norm_a, asym = (np.sqrt(np.einsum("...i,...i->...", v, v)) for v in flat)
    bad = (norm_a > 0) & (asym > 1e-10 * norm_a)
    if np.any(bad):
        worst = float((asym[bad] / norm_a[bad]).max())
        raise NotHermitian(f"relative asymmetry {worst:.3e} exceeds 1e-10")
    return diff


def eig_hermitian(a: np.ndarray) -> HermitianEigenDecomposition:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending.

    A relative asymmetry above 1e-10 (Frobenius) raises ``NotHermitian``.
    ``a`` is checked, not symmetrised: LAPACK's ``eigh`` reads its lower
    triangle.
    """
    a = np.ascontiguousarray(a, dtype=complex)
    _check_hermitian(a)
    values, vectors = np.linalg.eigh(a)
    return HermitianEigenDecomposition(values=values[::-1], vectors=vectors[:, ::-1])


def eigvals_hermitian(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Eigenvalues, descending, of ``k h k`` for Hermitian ``h`` and ``k``.

    ``h`` is one matrix or a stack ``(..., m, m)``; the result then has shape
    ``(..., m)``, row by row the eigenvalues of one call per matrix.
    Eigenvalues only, no eigenvectors.  Every matrix of ``h`` gets the check
    of ``eig_hermitian``: a relative asymmetry above 1e-10 (Frobenius) raises
    ``NotHermitian``.  ``k`` is trusted to be Hermitian, and broadcasts
    against ``h`` without enlarging it.  No symmetrised copy is made: the
    check's buffer takes ``k h k`` of the checked ``h``, and LAPACK's
    ``eigvalsh`` reads its lower triangle.
    """
    h = np.ascontiguousarray(h, dtype=complex)
    return np.linalg.eigvalsh(np.matmul(k @ h, k, out=_check_hermitian(h)))[..., ::-1]


def mat_power(a: np.ndarray, n: int) -> np.ndarray:
    """``a**n`` by binary exponentiation; ``a**0`` is the identity."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return np.linalg.matrix_power(np.asarray(a, dtype=complex), n)
