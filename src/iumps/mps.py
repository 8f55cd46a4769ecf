"""Infinite uniform MPS construction: Kraus sets, transfer matrices, fixed points.

Index convention used throughout the package: ``vec`` is row-major, so
``vec(X)[i*d + j] = X[i, j]`` and ``vec(A X B^) = (A kron conj(B)) vec(X)``.
Under this convention ``vec(I)`` is a left fixed point of every canonical
transfer matrix.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateSpectrum, NoFixedPoint, NonConvergence, NotPositive
from .numerics import (
    EigenDecomposition,
    RandomStream,
    eig_general,
    flagged_at,
    haar_unitaries,
    haar_unitary,
)

CASE1 = "case1"
CASE2 = "case2"
CASE3 = "case3"
EXPLICIT = "explicit"

CANONICAL_TOL = 1e-10
FIXED_POINT_TOL = 1e-8
PERIPHERAL_TOL = 1e-8
CLIP_BUDGET = 1e-6


def vec(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=complex).reshape(-1)


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(d, d)


def canonical_deviations(matrices: np.ndarray) -> np.ndarray:
    """Max-norm deviation of sum_s M^s† M^s from the identity for each Kraus
    set of a stack ``(..., d_s, d_M, d_M)``; shape ``(...)``."""
    acc = np.einsum("...sji,...sjk->...ik", matrices.conj(), matrices)
    return np.abs(acc - np.eye(matrices.shape[-1])).max(axis=(-2, -1))


def check_canonical(matrices: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first Kraus set of a stack
    ``(..., d_s, d_M, d_M)`` that has a non-finite entry or deviates from
    canonical form by more than ``CANONICAL_TOL``."""
    finite = np.isfinite(matrices).all(axis=(-3, -2, -1))
    if not finite.all():
        raise ValueError(f"matrix entries must be finite{flagged_at(~finite)}")
    dev = canonical_deviations(matrices)
    bad = dev > CANONICAL_TOL
    if bad.any():
        worst = float(np.max(dev, where=bad, initial=0.0))
        raise ValueError(
            f"canonical-form deviation {worst:.3e} exceeds {CANONICAL_TOL:.1e}{flagged_at(bad)}"
        )


# Where each two-block case puts its two half-dimension instances, as (row,
# column) block indices; each block row holds one, so the other block of the
# row is exactly zero.
_BLOCK_LAYOUT = {CASE2: ((0, 0), (1, 1)), CASE3: ((0, 1), (1, 0))}


def _block(matrices: np.ndarray, row: int, col: int) -> np.ndarray:
    """The (row, col) half-dimension block of every M^s, as a view."""
    h = matrices.shape[-1] // 2
    halves = (slice(None, h), slice(h, None))
    return matrices[:, halves[row], halves[col]]


@dataclass(frozen=True)
class KrausSet:
    """Generating matrices {M^s} of an iuMPS, stored as a (d_s, d_M, d_M) array."""

    d_s: int
    d_M: int
    matrices: np.ndarray
    case_tag: str

    def canonical_deviation(self) -> float:
        """Max-norm deviation of sum_s M^s† M^s from the identity."""
        return float(canonical_deviations(self.matrices))

    def validate(self) -> None:
        if self.matrices.shape != (self.d_s, self.d_M, self.d_M):
            raise ValueError("matrices must have shape (d_s, d_M, d_M)")
        check_canonical(self.matrices)
        for row, col in _BLOCK_LAYOUT.get(self.case_tag, ()):
            if np.any(_block(self.matrices, row, 1 - col) != 0):
                raise ValueError(f"{self.case_tag} off-blocks must be exactly zero")

    def to_json(self) -> str:
        payload = {
            "d_s": self.d_s,
            "d_M": self.d_M,
            "case_tag": self.case_tag,
            "matrices": [
                [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
                for m in self.matrices
            ],
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "KrausSet":
        payload = json.loads(text)
        d_s, d_m = payload["d_s"], payload["d_M"]
        mats = np.array(
            [[complex(re, im) for re, im in m] for m in payload["matrices"]],
            dtype=complex,
        ).reshape(d_s, d_m, d_m)
        ks = KrausSet(d_s=d_s, d_M=d_m, matrices=mats, case_tag=payload["case_tag"])
        ks.validate()
        return ks


@dataclass(frozen=True)
class TransferMatrix:
    """E = sum_s M^s kron conj(M^s) with its spectrum and peripheral data.

    ``nu_gap`` is None when every eigenvalue is peripheral (identity channel);
    querying the gap through ``spectral_gap`` then raises DegenerateSpectrum.
    """

    e: np.ndarray
    spectrum: EigenDecomposition
    peripheral_indices: np.ndarray
    nu_gap: float | None
    _powers: list[np.ndarray] = field(default_factory=list, init=False, repr=False, compare=False)

    def power(self, n: int) -> np.ndarray:
        """E^n, the identity for n = 0; E^n is grown from E^(n-1) by one
        multiply and kept, so it is the same array whatever order n is asked in."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if not self._powers:
            self._powers.append(np.eye(self.e.shape[0], dtype=complex))
        while len(self._powers) <= n:
            self._powers.append(self._powers[-1] @ self.e)
        return self._powers[n]


@dataclass(frozen=True)
class IuMps:
    """A Kraus set together with its fixed-point density operator.

    ``entropies`` holds each region entropy S(n) once computed, keyed by
    ``n``, and ``qmi_ends`` the two |B|-independent contractions
    of rho_AC, keyed by ``(|A|, |C|)``; ``iumps.entropy`` fills both.
    """

    kraus: KrausSet
    sigma: np.ndarray
    transfer: TransferMatrix
    entropies: dict[int, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    qmi_ends: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @functools.cached_property
    def kron_sqrt_sigma(self) -> np.ndarray:
        """I kron sigma^(1/2), computed on first use and kept."""
        lam, u = np.linalg.eigh(self.sigma)
        root = (u * np.sqrt(np.clip(lam, 0.0, None))) @ u.conj().T
        return np.kron(np.eye(self.kraus.d_M), root)


@functools.cache
def _psi(d_s: int, d_m: int) -> np.ndarray:
    """The fixed isometry Psi = (1/sqrt(d_s)) * ones(d_s) kron I, built once
    per shape and read-only."""
    psi = np.kron(np.ones((d_s, 1)) / np.sqrt(d_s), np.eye(d_m))
    psi.flags.writeable = False
    return psi


def _case1_matrices(d_s: int, d_m: int, u: np.ndarray) -> np.ndarray:
    """M^s from a Haar unitary on dimension d_s*d_M applied to the fixed
    isometry ``_psi(d_s, d_M)``; a stack ``(..., d_s*d_M, d_s*d_M)`` of
    unitaries gives a stack ``(..., d_s, d_M, d_M)`` of Kraus sets."""
    mu = u @ _psi(d_s, d_m)  # rows indexed by the composite (s, i)
    return mu.reshape(*u.shape[:-2], d_s, d_m, d_m)


def _check_dims(d_s: int, d_m: int) -> None:
    if d_s < 1 or d_m < 1:
        raise ValueError("d_s and d_M must be >= 1")


def build_case1(d_s: int, d_m: int, stream: RandomStream) -> KrausSet:
    """Single-fixed-point instance from one Haar unitary."""
    _check_dims(d_s, d_m)
    u = haar_unitary(d_s * d_m, stream)
    ks = KrausSet(d_s=d_s, d_M=d_m, matrices=_case1_matrices(d_s, d_m, u), case_tag=CASE1)
    ks.validate()
    return ks


def sample_case1(d_s: int, d_m: int, streams: Sequence[RandomStream]) -> np.ndarray:
    """The matrices of ``build_case1`` for each stream, stacked
    ``(len(streams), d_s, d_M, d_M)`` and checked as ``KrausSet.validate``
    checks them: one stacked Haar draw and one vectorised canonical check.
    Row i is, bit for bit, ``build_case1(d_s, d_m, streams[i]).matrices``."""
    _check_dims(d_s, d_m)
    matrices = _case1_matrices(d_s, d_m, haar_unitaries(d_s * d_m, streams))
    check_canonical(matrices)
    return matrices


def _build_two_blocks(case_tag: str, d_s: int, d_m: int, stream: RandomStream) -> KrausSet:
    """Two independent half-dimension Case-1 instances, drawn from substreams
    0 and 1, placed where ``_BLOCK_LAYOUT[case_tag]`` says."""
    if d_m % 2 != 0:
        raise ValueError("d_M must be even")
    h = d_m // 2
    mats = np.zeros((d_s, d_m, d_m), dtype=complex)
    for i, (row, col) in enumerate(_BLOCK_LAYOUT[case_tag]):
        u = haar_unitary(d_s * h, stream.substream(i))
        _block(mats, row, col)[...] = _case1_matrices(d_s, h, u)
    ks = KrausSet(d_s=d_s, d_M=d_m, matrices=mats, case_tag=case_tag)
    ks.validate()
    return ks


def build_case2(d_s: int, d_m: int, stream: RandomStream) -> KrausSet:
    """Two independent half-dimension instances on the diagonal blocks."""
    return _build_two_blocks(CASE2, d_s, d_m, stream)


def build_case3(d_s: int, d_m: int, stream: RandomStream) -> KrausSet:
    """Two independent half-dimension instances on the anti-diagonal blocks."""
    return _build_two_blocks(CASE3, d_s, d_m, stream)


BUILDERS = {CASE1: build_case1, CASE2: build_case2, CASE3: build_case3}


def build_case(case_tag: str, d_s: int, d_m: int, stream: RandomStream) -> KrausSet:
    """Kraus set of a sampled case (``case1``, ``case2`` or ``case3``) drawn from ``stream``."""
    if case_tag not in BUILDERS:
        raise ValueError(f"unknown case {case_tag!r}; expected one of {sorted(BUILDERS)}")
    return BUILDERS[case_tag](d_s, d_m, stream)


def transfer_operators(matrices: np.ndarray) -> np.ndarray:
    """E = sum_s M^s kron conj(M^s) of each Kraus set of a stack
    ``(..., d_s, d_M, d_M)``; shape ``(..., d_M^2, d_M^2)``."""
    d2 = matrices.shape[-1] ** 2
    e = np.einsum("...sab,...scd->...acbd", matrices, matrices.conj())
    return e.reshape(*matrices.shape[:-3], d2, d2)


def transfer_matrix(kraus: KrausSet) -> TransferMatrix:
    """Assemble E, compute its full spectrum, and classify the peripheral set."""
    e = transfer_operators(kraus.matrices)
    spectrum = eig_general(e)
    mags = np.abs(spectrum.values)
    peripheral = np.flatnonzero(mags > 1 - PERIPHERAL_TOL)
    bulk = mags[mags <= 1 - PERIPHERAL_TOL]
    nu_gap = float(bulk.max()) if bulk.size else None
    return TransferMatrix(e=e, spectrum=spectrum, peripheral_indices=peripheral, nu_gap=nu_gap)


def spectral_gap(transfer: TransferMatrix) -> float:
    """Largest non-peripheral eigenvalue magnitude, in (0, 1)."""
    if transfer.nu_gap is None:
        raise DegenerateSpectrum("every eigenvalue is peripheral; the gap is undefined")
    return transfer.nu_gap


def fixed_point(transfer: TransferMatrix) -> np.ndarray:
    """Fixed-point density operator from the eigenvalue-1 cluster.

    When the eigenvalue 1 is degenerate the individual numerical eigenvectors
    are an arbitrary basis of the fixed subspace, so summing them is not
    well defined.  Instead the (oblique) spectral projector of the cluster,
    V_c (V^{-1})_c with V the eigenvector matrix of ``transfer.spectrum``, is
    applied to the maximally mixed state, which lands on the uniform
    combination of the extremal fixed points regardless of the eigenbasis
    returned by the solver.  The result is then Hermitized, clipped to be
    positive semidefinite, and normalized to unit trace.
    """
    d2 = transfer.e.shape[0]
    d = int(round(np.sqrt(d2)))
    values = transfer.spectrum.values
    cluster = np.flatnonzero(np.abs(values - 1.0) <= FIXED_POINT_TOL)
    if cluster.size == 0:
        raise NoFixedPoint("no eigenvalue within 1e-8 of 1")

    vectors = transfer.spectrum.vectors
    try:
        # rows of V^{-1} are the left eigenvectors dual to the columns of V
        coeff = np.linalg.solve(vectors, vec(np.eye(d) / d))[cluster]
    except np.linalg.LinAlgError as exc:
        raise NonConvergence("eigenvector matrix is numerically singular") from exc
    sigma = unvec(vectors[:, cluster] @ coeff, d)

    sigma = (sigma + sigma.conj().T) / 2
    eigvals, eigvecs = np.linalg.eigh(sigma)
    clipped = float(-eigvals[eigvals < 0].sum())
    total = float(np.abs(eigvals).sum())
    if total == 0 or clipped > CLIP_BUDGET * total:
        raise NotPositive(f"clipped weight {clipped:.3e} exceeds budget of total {total:.3e}")
    eigvals = np.clip(eigvals, 0.0, None)
    sigma = (eigvecs * eigvals) @ eigvecs.conj().T
    return sigma / np.trace(sigma).real


def build_iumps(kraus: KrausSet) -> IuMps:
    """Kraus set -> transfer matrix -> fixed point, bundled."""
    transfer = transfer_matrix(kraus)
    sigma = fixed_point(transfer)
    return IuMps(kraus=kraus, sigma=sigma, transfer=transfer)


def channel_apply(kraus: KrausSet, x: np.ndarray) -> np.ndarray:
    """One application of the quantum channel sum_s M^s X M^s†."""
    return np.einsum("sab,bc,sdc->ad", kraus.matrices, x, kraus.matrices.conj())
