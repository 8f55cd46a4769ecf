"""Infinite uniform MPS construction: Kraus sets, transfer matrices, fixed points.

Index convention used throughout the package: ``vec`` is row-major, so
``vec(X)[i*d + j] = X[i, j]`` and ``vec(A X B^) = (A kron conj(B)) vec(X)``.
Under this convention ``vec(I)`` is a left fixed point of every canonical
transfer matrix.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateSpectrum, NoFixedPoint, NonConvergence, NotPositive
from .numerics import EigenDecomposition, RandomStream, eig_general, haar_unitary

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


@dataclass(frozen=True)
class KrausSet:
    """Generating matrices {M^s} of an iuMPS, stored as a (d_s, d_M, d_M) array."""

    d_s: int
    d_M: int
    matrices: np.ndarray
    case_tag: str

    def canonical_deviation(self) -> float:
        """Max-norm deviation of sum_s M^s† M^s from the identity."""
        acc = np.einsum("sji,sjk->ik", self.matrices.conj(), self.matrices)
        return float(np.abs(acc - np.eye(self.d_M)).max())

    def validate(self) -> None:
        if self.matrices.shape != (self.d_s, self.d_M, self.d_M):
            raise ValueError("matrices must have shape (d_s, d_M, d_M)")
        if not np.all(np.isfinite(self.matrices.view(float))):
            raise ValueError("matrix entries must be finite")
        dev = self.canonical_deviation()
        if dev > CANONICAL_TOL:
            raise ValueError(f"canonical-form deviation {dev:.3e} exceeds {CANONICAL_TOL:.1e}")
        if self.case_tag in (CASE2, CASE3):
            h = self.d_M // 2
            if self.case_tag == CASE2:
                off = [self.matrices[:, :h, h:], self.matrices[:, h:, :h]]
            else:
                off = [self.matrices[:, :h, :h], self.matrices[:, h:, h:]]
            for block in off:
                if np.any(block != 0):
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


def _case1_matrices(d_s: int, d_m: int, stream: RandomStream) -> np.ndarray:
    """Sample M^s via a Haar unitary on dimension d_s*d_M applied to the
    fixed isometry Psi = (1/sqrt(d_s)) * ones(d_s) kron I."""
    u = haar_unitary(d_s * d_m, stream)
    psi = np.kron(np.ones((d_s, 1)) / np.sqrt(d_s), np.eye(d_m))
    mu = u @ psi  # rows indexed by the composite (s, i)
    return mu.reshape(d_s, d_m, d_m)


def build_case1(d_s: int, d_m: int, stream: RandomStream) -> KrausSet:
    """Single-fixed-point instance from one Haar unitary."""
    if d_s < 1 or d_m < 1:
        raise ValueError("d_s and d_M must be >= 1")
    ks = KrausSet(d_s=d_s, d_M=d_m, matrices=_case1_matrices(d_s, d_m, stream), case_tag=CASE1)
    ks.validate()
    return ks


def _two_blocks(d_s: int, d_m: int, stream: RandomStream) -> tuple[np.ndarray, np.ndarray]:
    if d_m % 2 != 0:
        raise ValueError("d_M must be even")
    h = d_m // 2
    b1 = _case1_matrices(d_s, h, stream.substream(0))
    b2 = _case1_matrices(d_s, h, stream.substream(1))
    return b1, b2


def build_case2(d_s: int, d_m: int, stream: RandomStream) -> KrausSet:
    """Two independent half-dimension instances on the diagonal blocks."""
    b1, b2 = _two_blocks(d_s, d_m, stream)
    h = d_m // 2
    mats = np.zeros((d_s, d_m, d_m), dtype=complex)
    mats[:, :h, :h] = b1
    mats[:, h:, h:] = b2
    ks = KrausSet(d_s=d_s, d_M=d_m, matrices=mats, case_tag=CASE2)
    ks.validate()
    return ks


def build_case3(d_s: int, d_m: int, stream: RandomStream) -> KrausSet:
    """Two independent half-dimension instances on the anti-diagonal blocks."""
    b1, b2 = _two_blocks(d_s, d_m, stream)
    h = d_m // 2
    mats = np.zeros((d_s, d_m, d_m), dtype=complex)
    mats[:, :h, h:] = b1
    mats[:, h:, :h] = b2
    ks = KrausSet(d_s=d_s, d_M=d_m, matrices=mats, case_tag=CASE3)
    ks.validate()
    return ks


BUILDERS = {CASE1: build_case1, CASE2: build_case2, CASE3: build_case3}


def build_case(case_tag: str, d_s: int, d_m: int, stream: RandomStream) -> KrausSet:
    """Kraus set of a sampled case (``case1``, ``case2`` or ``case3``) drawn from ``stream``."""
    if case_tag not in BUILDERS:
        raise ValueError(f"unknown case {case_tag!r}; expected one of {sorted(BUILDERS)}")
    return BUILDERS[case_tag](d_s, d_m, stream)


def transfer_matrix(kraus: KrausSet) -> TransferMatrix:
    """Assemble E, compute its full spectrum, and classify the peripheral set."""
    m = kraus.matrices
    e = np.einsum("sab,scd->acbd", m, m.conj()).reshape(kraus.d_M**2, kraus.d_M**2)
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
