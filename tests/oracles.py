"""Independent constructions the tests check the library against.

Each one rebuilds an object the library computes by another route, at
oracle scale only, or builds an instance whose spectrum is known in closed
form; ``qcmi_error_estimate`` is the worst-case entropy error criterion 7
checks.  None is called by the library itself.
"""

import numpy as np

from iumps import IuMps, KrausSet, SupportProjection, site_products, vec
from iumps.numerics import mat_power


def channel_apply(kraus: KrausSet, x: np.ndarray) -> np.ndarray:
    """One application of the quantum channel sum_s M^s X M^s†."""
    return np.einsum("sab,bc,sdc->ad", kraus.matrices, x, kraus.matrices.conj())


def materialize_isometry(sp: SupportProjection, kraus: KrausSet, n: int) -> np.ndarray:
    """Explicit isometry P = Phi conj(W) diag(w)^{-1/2} with range supp(rho_n);
    P†P = I on the support.

    Exponentially large in n; ``site_products`` raises ``TooLarge`` above
    ``BRUTE_FORCE_CAP``.
    """
    phi = site_products(kraus, n).reshape(kraus.d_s**n, kraus.d_M**2)
    w_r = sp.w[:, : sp.support_dim]
    return phi @ w_r.conj() / np.sqrt(sp.sigma_diag[: sp.support_dim])[None, :]


def purified_spectrum(mps: IuMps, n: int) -> np.ndarray:
    """Spectrum of (E^n kron id) applied to the purification of sigma.

    Equals the spectrum of rho_n; an independent route to the region
    entropy.  Returned descending.
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


def complex_eigenvalues(e: np.ndarray) -> np.ndarray:
    """Eigenvalues of E itself by complex LAPACK (``zgeev``), the route
    ``mps.transfer_spectrum`` replaced by the real form; unsorted."""
    return np.linalg.eigvals(np.asarray(e, dtype=complex))


def jordan_decay(gamma: float, p: float) -> KrausSet:
    """A canonical Kraus set (d_s = 6, d_M = 3) whose transfer matrix has a
    2x2 Jordan block at the gap magnitude 1 - gamma.

    The three-level decay |2> -> |1> -> |0> at equal rate gamma, M_0 =
    diag(1, sqrt(1-gamma), sqrt(1-gamma)), M_1 = sqrt(gamma)|0><1| and M_2 =
    sqrt(gamma)|1><2|, each also applied after the clock phase diag(1, w, w^2)
    (w = e^{2 pi i/3}) with probability p.
    """
    m = np.zeros((3, 3, 3), dtype=complex)
    m[0] = np.diag([1.0, np.sqrt(1 - gamma), np.sqrt(1 - gamma)])
    m[1, 0, 1] = m[2, 1, 2] = np.sqrt(gamma)
    clock = np.exp(2j * np.pi * np.arange(3) / 3)
    mats = np.concatenate([np.sqrt(1 - p) * m, np.sqrt(p) * m * clock])
    kraus = KrausSet(d_s=6, d_M=3, matrices=mats, case_tag="explicit")
    kraus.validate()
    return kraus


def reset_mixed_decay(gamma: float, p: float, eps: float) -> KrausSet:
    """``jordan_decay(gamma, p)`` mixed with the reset channel X -> tr(X) I/3
    at weight eps: the Kraus operators sqrt(1 - eps) M^s and sqrt(eps/3)|i><j|,
    so d_s = 15.  Its fixed point is full rank, and its transfer matrix keeps
    an exact 2x2 Jordan block at the gap magnitude (1 - eps)(1 - gamma)."""
    reset = np.eye(9, dtype=complex).reshape(9, 3, 3)  # reset[3i + j] = |i><j|
    decay = jordan_decay(gamma, p).matrices
    mats = np.concatenate([np.sqrt(1 - eps) * decay, np.sqrt(eps / 3) * reset])
    kraus = KrausSet(d_s=15, d_M=3, matrices=mats, case_tag="explicit")
    kraus.validate()
    return kraus


def direct_sum(first: KrausSet, second: KrausSet) -> KrausSet:
    """The block-diagonal Kraus set M^s = first.M^s (+) second.M^s of two sets
    with the same d_s: E has the eigenvalue-1 cluster of both, and each
    one's Jordan blocks."""
    d1, d2 = first.d_M, second.d_M
    mats = np.zeros((first.d_s, d1 + d2, d1 + d2), dtype=complex)
    mats[:, :d1, :d1] = first.matrices
    mats[:, d1:, d1:] = second.matrices
    kraus = KrausSet(d_s=first.d_s, d_M=d1 + d2, matrices=mats, case_tag="explicit")
    kraus.validate()
    return kraus


def qcmi_error_estimate(d_m: int, lambda_min: float, delta_lambda: float) -> float:
    """Worst-case entropy error d_M^2 * delta_lambda * ln(1/lambda_min)."""
    if not 0 < lambda_min <= 1:
        raise ValueError("lambda_min must lie in (0, 1]")
    if delta_lambda < 0:
        raise ValueError("delta_lambda must be nonnegative")
    return float(d_m**2 * delta_lambda * np.log(1.0 / lambda_min))
