"""Dense complex linear-algebra kernels and deterministic random streams.

Everything here operates on plain ``numpy`` arrays at desk scale (matrices up
to 64x64).  The eigensolvers wrap LAPACK but pin down the ordering, residual,
and error contracts the rest of the package relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import NonConvergence, NotHermitian

MAX_EIG_DIM = 64
EIG_RESIDUAL_TOL = 1e-11


@dataclass(frozen=True)
class RandomStream:
    """Counter-based random stream addressed by (master_seed, stream_index).

    Identical coordinates always reproduce identical draws, independent of
    execution order; distinct stream indices give statistically independent
    streams.  ``substream`` derives further independent streams for
    constructions that need more than one draw.
    """

    master_seed: int
    stream_index: int
    path: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_index, *self.path)
        )
        return np.random.Generator(np.random.Philox(seq))

    def substream(self, k: int) -> "RandomStream":
        return RandomStream(self.master_seed, self.stream_index, self.path + (k,))


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum of a general complex matrix.

    ``values`` are sorted by descending magnitude, ties broken by descending
    real then imaginary part; ``vectors`` columns are unit-norm right
    eigenvectors aligned with ``values``; ``residual`` is
    ``max_i ||A v_i - nu_i v_i||_2``.
    """

    values: np.ndarray
    vectors: np.ndarray
    residual: float


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Real eigenvalues (descending) and a unitary eigenvector matrix."""

    values: np.ndarray
    vectors: np.ndarray


def haar_unitary(dim: int, stream: RandomStream) -> np.ndarray:
    """Draw a Haar-distributed ``dim x dim`` unitary.

    Complex Ginibre matrix followed by QR, with each column of Q rescaled by
    the phase of the corresponding diagonal entry of R so that the diagonal
    of R is real positive.  Without the phase fix the QR convention would
    bias the distribution.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = stream.generator()
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _sort_spectrum(values: np.ndarray) -> np.ndarray:
    # lexsort uses the last key as primary
    return np.lexsort((-values.imag, -values.real, -np.abs(values)))


def eig_general(a: np.ndarray) -> EigenDecomposition:
    """Full spectrum of a square complex matrix (dimension <= 64)."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n > MAX_EIG_DIM:
        raise ValueError(f"dimension {n} exceeds supported maximum {MAX_EIG_DIM}")
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigensolver failed: {exc}") from exc
    order = _sort_spectrum(values)
    values = values[order]
    vectors = vectors[:, order]
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    residual = float(np.linalg.norm(a @ vectors - vectors * values, axis=0).max())
    norm_a = float(np.linalg.norm(a))
    if norm_a > 0 and residual > EIG_RESIDUAL_TOL * norm_a:
        raise NonConvergence(
            f"eigenvector residual {residual:.3e} exceeds {EIG_RESIDUAL_TOL:.1e}*||a||"
        )
    return EigenDecomposition(values=values, vectors=vectors, residual=residual)


def _hermitized(a: np.ndarray) -> np.ndarray:
    """(a + a†)/2 for a matrix or a stack ``(..., m, m)`` of them, after checking
    that every matrix is Hermitian to 1e-10 relative asymmetry (Frobenius);
    raises ``NotHermitian`` otherwise."""
    a = np.asarray(a, dtype=complex)
    a_h = a.conj().swapaxes(-1, -2)
    norm_a = np.linalg.norm(a, axis=(-2, -1))
    asym = np.linalg.norm(a - a_h, axis=(-2, -1))
    bad = (norm_a > 0) & (asym > 1e-10 * norm_a)
    if np.any(bad):
        worst = float((asym[bad] / norm_a[bad]).max())
        raise NotHermitian(f"relative asymmetry {worst:.3e} exceeds 1e-10")
    return (a + a_h) / 2


def eig_hermitian(a: np.ndarray) -> HermitianEigenDecomposition:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending.

    The caller is expected to Hermitize first; a relative asymmetry above
    1e-10 (Frobenius) raises ``NotHermitian``.
    """
    values, vectors = np.linalg.eigh(_hermitized(a))
    return HermitianEigenDecomposition(values=values[::-1], vectors=vectors[:, ::-1])


def eigvals_hermitian(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Eigenvalues, descending, of ``k h k`` for Hermitian ``h`` and ``k``.

    ``h`` is one matrix or a stack ``(..., m, m)``; the result then has shape
    ``(..., m)``, row by row the eigenvalues of one call per matrix.
    Eigenvalues only, no eigenvectors.  Every matrix of ``h`` gets the guard
    of ``eig_hermitian``: a relative asymmetry above 1e-10 (Frobenius) raises
    ``NotHermitian``.  ``k`` is trusted to be Hermitian.
    """
    return np.linalg.eigvalsh(k @ _hermitized(h) @ k)[..., ::-1]


def mat_power(a: np.ndarray, n: int) -> np.ndarray:
    """``a**n`` by binary exponentiation; ``a**0`` is the identity."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return np.linalg.matrix_power(np.asarray(a, dtype=complex), n)
