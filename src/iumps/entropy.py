"""Reduced-density spectra and entropies via support projection.

The reduced state of ``n`` contiguous sites has rank at most d_M^2, so its
nonzero spectrum can be extracted from d_M^2 x d_M^2 objects built out of
E^n, at cost polynomial in ``n``.  Brute-force constructions of the full
d_s^n x d_s^n operators are kept alongside as oracles for small ``n``.

Resolved index orientation (fixed by matching the brute-force oracle, since
the composite-index layout is convention-dependent): with row-major ``vec``
and G = E^n having elements G[(j,j'),(i,i')] = sum (M_vec)_{ji} conj((M_vec)_{j'i'}),
the support Gram matrix is

    H[(i,j),(i',j')] = G[(i,i'),(j,j')]  (Hermitian PSD),

and with H = W diag(w) W† the projected density is

    rho_support = sqrt(w) W^T (I kron sigma) conj(W) sqrt(w),

equal to P† rho_n P for the isometry P = Phi conj(W) diag(w)^{-1/2}, where
Phi stacks the row-major vectorized site products.  ``support_decomposition``,
``projected_density`` and ``materialize_isometry`` build this explicit route.

``region_entropy`` needs only the spectrum.  Since Phi† Phi = conj(H), the
density rho_n = Phi (I kron sigma) Phi† has the nonzero spectrum of
K conj(H) K with K = I kron sigma^(1/2), so S(n) costs one d_M^2 x d_M^2
eigenvalue-only solve; K is computed once per instance.

Eigenvalues below ``THRESHOLD`` times the largest are outside the support
and carry no entropy.

A QCMI scan over |B| needs S(n) for every n up to |A| + |B| + |C| and E^|B|
for the QMI.  Each instance keeps all three: ``TransferMatrix.power`` grows
E^n by one d_M^2 x d_M^2 multiply per new region length, ``qcmi`` and
``qmi`` read each S(n) from ``IuMps.entropies``, computing a missing one once
through ``region_entropy``, and ``rho_disjoint`` keeps the two |B|-independent
contractions of rho_AC in ``IuMps.qmi_ends``, so a QMI point costs one
multiply by E^|B|, the final contraction and the spectrum of rho_AC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import TooLarge
from .mps import IuMps, KrausSet, TransferMatrix, vec
from .numerics import eig_hermitian, eigvals_hermitian, mat_power

THRESHOLD = 1e-12
BRUTE_FORCE_CAP = 1024


@dataclass(frozen=True)
class RegionSpec:
    """Contiguous region sizes |A|, |B|, |C| in lattice sites."""

    len_a: int
    len_b: int
    len_c: int

    def __post_init__(self) -> None:
        if min(self.len_a, self.len_b, self.len_c) < 0:
            raise ValueError("region lengths must be nonnegative")
        if self.len_a + self.len_b + self.len_c < 1:
            raise ValueError("total region length must be >= 1")


@dataclass(frozen=True)
class SupportProjection:
    """Spectral data of the support Gram matrix of rho_n.

    ``w`` holds the full unitary eigenvector matrix, ``sigma_diag`` the full
    descending eigenvalue list; only the first ``support_dim`` columns carry
    weight above ``THRESHOLD`` relative to the largest eigenvalue.
    """

    w: np.ndarray
    sigma_diag: np.ndarray
    support_dim: int


@dataclass(frozen=True)
class EntropyReport:
    region_len: int
    eigenvalues: np.ndarray
    entropy: float
    clipped_weight: float


def entropy_from_eigenvalues(lam: np.ndarray) -> float:
    """Shannon-type entropy in nats with the 0*ln(0) = 0 convention."""
    lam = np.asarray(lam, dtype=float)
    lam = lam[lam > 0]
    return float(-(lam * np.log(lam)).sum()) if lam.size else 0.0


def site_products(kraus: KrausSet, n: int) -> np.ndarray:
    """All n-fold products M^{s_n} ... M^{s_1}, shape (d_s^n, d_M, d_M).

    The composite index orders s_n slowest, matching the basis ordering
    |s_n> x ... x |s_1> of the reduced density operator.
    """
    d = kraus.d_M
    prods = np.eye(d, dtype=complex)[None, :, :]
    for _ in range(n):
        prods = np.einsum("sab,pbc->spac", kraus.matrices, prods).reshape(-1, d, d)
    return prods


def support_decomposition(transfer: TransferMatrix, n: int) -> SupportProjection:
    """Spectral decomposition of the support Gram matrix of rho_n.

    The permuted E^n is Hermitian analytically; ``eig_hermitian`` raises
    ``NotHermitian`` when it is not, which means the index convention was
    broken upstream.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d2 = transfer.e.shape[0]
    d = int(round(np.sqrt(d2)))
    h = transfer.power(n).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d2, d2)
    dec = eig_hermitian(h)
    top = dec.values[0]
    support_dim = int(np.count_nonzero(dec.values > THRESHOLD * top)) if top > 0 else 0
    return SupportProjection(w=dec.vectors, sigma_diag=dec.values, support_dim=support_dim)


def projected_density(sp: SupportProjection, sigma: np.ndarray) -> np.ndarray:
    """P† rho_n P on the retained support, Hermitian PSD with unit trace."""
    d = sigma.shape[0]
    w_r = sp.w[:, : sp.support_dim]
    s_r = np.sqrt(sp.sigma_diag[: sp.support_dim])
    mid = w_r.T @ np.kron(np.eye(d), sigma) @ w_r.conj()
    rho = (mid * s_r[None, :]) * s_r[:, None]
    return (rho + rho.conj().T) / 2


def region_entropy(mps: IuMps, n: int) -> EntropyReport:
    """Von Neumann entropy of n contiguous sites from one d_M^2 x d_M^2
    eigenvalue solve.

    rho_n = Phi (I kron sigma) Phi† and Phi† Phi = conj(H) for the support
    Gram matrix H of ``support_decomposition``, so rho_n has the nonzero
    spectrum of K conj(H) K with K = I kron sigma^(1/2) (kept on ``mps``).
    ``eigenvalues`` is the support spectrum: the eigenvalues above
    ``THRESHOLD`` times the largest, descending.  ``clipped_weight`` is the
    negative weight of the full d_M^2 spectrum, which the entropy drops.
    ``NotHermitian`` is raised when H is not Hermitian, as in
    ``support_decomposition``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = mps.kraus.d_M
    # conj(H) = H^T, read off E^n by a transpose of its four indices
    e4 = mps.transfer.power(n).reshape(d, d, d, d)
    h_conj = e4.transpose(1, 3, 0, 2).reshape(d * d, d * d)
    lam = eigvals_hermitian(h_conj, mps.kron_sqrt_sigma)
    clipped = float(-lam[lam < 0].sum())
    top = lam[0]
    lam = lam[lam > THRESHOLD * top] if top > 0 else lam[:0]
    return EntropyReport(
        region_len=n,
        eigenvalues=lam,
        entropy=entropy_from_eigenvalues(lam),
        clipped_weight=clipped,
    )


def _entropy(mps: IuMps, n: int) -> float:
    """S(n) of ``mps``, computed through ``region_entropy`` on first request."""
    if n not in mps.entropies:
        mps.entropies[n] = region_entropy(mps, n).entropy
    return mps.entropies[n]


def qcmi(mps: IuMps, region: RegionSpec) -> float:
    """I(A:C|B) = S(AB) + S(BC) - S(ABC) - S(B) for contiguous A,B,C.

    Each S(n) is computed once per instance, then reused.
    """
    if region.len_b < 1 or region.len_a < 1 or region.len_c < 1:
        raise ValueError("qcmi requires len_a, len_b, len_c >= 1")
    la, lb, lc = region.len_a, region.len_b, region.len_c
    s = lambda n: _entropy(mps, n)
    return s(la + lb) + s(lb + lc) - s(la + lb + lc) - s(lb)


def _qmi_ends(mps: IuMps, la: int, lc: int) -> tuple[np.ndarray, np.ndarray]:
    """The |B|-independent ends of rho_AC, computed once per ``(|A|, |C|)``."""
    if (la, lc) not in mps.qmi_ends:
        d = mps.kraus.d_M
        phi_a = site_products(mps.kraus, la)
        phi_c = site_products(mps.kraus, lc)
        # right[s, s'] = vec(M_s sigma M_s'†); left[t, t'] = vec(I)† (M_t kron conj(M_t'))
        right = np.einsum("pab,bc,qdc->pqad", phi_a, mps.sigma, phi_a.conj()).reshape(
            len(phi_a), len(phi_a), d * d
        )
        left = np.einsum("pae,qaf->pqef", phi_c, phi_c.conj()).reshape(
            len(phi_c), len(phi_c), d * d
        )
        mps.qmi_ends[la, lc] = (right, left)
    return mps.qmi_ends[la, lc]


def rho_disjoint(mps: IuMps, region: RegionSpec) -> np.ndarray:
    """Joint reduced state of A and C separated by |B| sites, E^{|B|} contracted.

    Basis ordering: A-site indices slow, C-site indices fast.  Exact at any
    separation; the physical dimension d_s^(|A|+|C|) must stay at oracle scale.
    """
    la, lb, lc = region.len_a, region.len_b, region.len_c
    if la < 1 or lc < 1:
        raise ValueError("rho_disjoint requires len_a, len_c >= 1")
    dim = mps.kraus.d_s ** (la + lc)
    if dim > BRUTE_FORCE_CAP:
        raise TooLarge(f"d_s^(|A|+|C|) = {dim} exceeds {BRUTE_FORCE_CAP}")
    right, left = _qmi_ends(mps, la, lc)
    rho = np.einsum("abv,cdv->cadb", left, right @ mps.transfer.power(lb).T).reshape(dim, dim)
    return (rho + rho.conj().T) / 2


def qmi(mps: IuMps, region: RegionSpec) -> float:
    """I(A:C) = S(A) + S(C) - S(AC) across the separating region B.

    S(A) and S(C) are the instance's S(|A|) and S(|C|), shared with ``qcmi``.
    """
    s_ac = entropy_from_eigenvalues(np.clip(np.linalg.eigvalsh(rho_disjoint(mps, region)), 0, None))
    return _entropy(mps, region.len_a) + _entropy(mps, region.len_c) - s_ac


def brute_force_density(mps: IuMps, n: int) -> np.ndarray:
    """Explicit d_s^n x d_s^n reduced density operator (oracle scale only)."""
    ds, d = mps.kraus.d_s, mps.kraus.d_M
    if ds**n > BRUTE_FORCE_CAP:
        raise TooLarge(f"d_s^n = {ds ** n} exceeds {BRUTE_FORCE_CAP}")
    phi = site_products(mps.kraus, n).reshape(ds**n, d * d)
    rho = phi @ np.kron(np.eye(d), mps.sigma) @ phi.conj().T
    return (rho + rho.conj().T) / 2


def brute_force_entropy(mps: IuMps, n: int) -> float:
    """Entropy by full diagonalization of the explicit reduced density."""
    lam = np.clip(np.linalg.eigvalsh(brute_force_density(mps, n)), 0.0, None)
    return entropy_from_eigenvalues(lam)


def materialize_isometry(sp: SupportProjection, kraus: KrausSet, n: int) -> np.ndarray:
    """Explicit isometry P with range supp(rho_n); P†P = I on the support.

    Exponentially large in n; intended for oracle-scale verification only.
    """
    if kraus.d_s**n > BRUTE_FORCE_CAP:
        raise TooLarge(f"d_s^n = {kraus.d_s ** n} exceeds {BRUTE_FORCE_CAP}")
    phi = site_products(kraus, n).reshape(kraus.d_s**n, kraus.d_M**2)
    w_r = sp.w[:, : sp.support_dim]
    return phi @ w_r.conj() / np.sqrt(sp.sigma_diag[: sp.support_dim])[None, :]


def purified_spectrum(mps: IuMps, n: int) -> np.ndarray:
    """Spectrum of (E^n kron id) applied to the purification of sigma.

    Equals the spectrum of rho_n; exercised as an independent route to the
    region entropy.  Returned descending.
    """
    d = mps.kraus.d_M
    lam, u = np.linalg.eigh(mps.sigma)
    sqrt_sigma = (u * np.sqrt(np.clip(lam, 0, None))) @ u.conj().T
    v = vec(sqrt_sigma)
    rho0 = np.outer(v, v.conj()).reshape(d, d, d, d)
    g4 = mat_power(mps.transfer.e, n).reshape(d, d, d, d)
    omega = np.einsum("aceg,ebgd->abcd", g4, rho0).reshape(d * d, d * d)
    omega = (omega + omega.conj().T) / 2
    return np.linalg.eigvalsh(omega)[::-1]
