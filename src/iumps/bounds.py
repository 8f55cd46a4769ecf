"""Decay-bound constants, the bounding function, and sufficiency checks.

The QCMI of contiguous regions A, C separated by |B| sites obeys

    I(A:C|B) <= Q * exp(-q*(|B| - K) + 2*K*ln|B|),

with q = 2*ln(1/nu_gap), Q = 16*d_M^3*c2^2/sigma_min^3, and K one less than
the largest Jordan-block dimension at eigenvalue magnitude nu_gap.  Haar
samples generically have K = 0; K > 0 is detected and reported, never
computed, since numerical Jordan structure is ill-conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NearDegenerate, Unsupported
from .mps import PERIPHERAL_TOL, IuMps, spectral_gap

DEGENERACY_TOL = 1e-8
SUFFICIENT_B_CAP = 1_000_000


@dataclass(frozen=True)
class BoundConstants:
    """Everything needed to evaluate the bounding function for one instance."""

    k_jordan: int
    nu_gap: float
    sigma_min: float
    c1: float
    c2: float
    c3: float
    cond_s: float
    big_q: float
    rate_q: float
    d_cap: int
    delta_spec: float
    d_M: int


def _distinct_clusters(values: np.ndarray, tol: float = DEGENERACY_TOL) -> np.ndarray:
    """Representatives of eigenvalues clustered at absolute tolerance ``tol``."""
    reps: list[complex] = []
    for v in values:
        if not any(abs(v - r) <= tol for r in reps):
            reps.append(complex(v))
    return np.array(reps)


def jordan_constants(mps: IuMps) -> BoundConstants:
    """Constants for the diagonalizable (K = 0) regime.

    Raises NearDegenerate when two distinct eigenvalues at magnitude nu_gap
    lie within 1e-8 of each other: a nontrivial Jordan block is then
    suspected and the constants cannot be computed reliably.
    """
    transfer = mps.transfer
    nu_gap = spectral_gap(transfer)
    values = transfer.spectrum.values

    # A defective pair perturbs into eigenvalues split at the sqrt(eps) scale,
    # so separations inside (1e-12, 1e-8] flag a suspected Jordan block; exact
    # symmetry-induced degeneracies reproduce to ~1e-15 and stay semisimple.
    shell = values[np.abs(np.abs(values) - nu_gap) <= DEGENERACY_TOL]
    for i in range(len(shell)):
        for j in range(i + 1, len(shell)):
            dist = abs(shell[i] - shell[j])
            if 1e-12 < dist <= DEGENERACY_TOL:
                raise NearDegenerate(
                    f"eigenvalues {shell[i]:.6g} and {shell[j]:.6g} at the gap "
                    "magnitude are within 1e-8; K > 0 suspected"
                )
    k = 0

    cond_s = float(np.linalg.cond(transfer.spectrum.vectors, 2))
    c1 = 1.0 / cond_s
    c2 = cond_s  # (K+1)*(e/K)^K -> 1 in the K = 0 limit

    clusters = _distinct_clusters(values)
    d_cap = len(clusters)  # sum of (K_nu + 1) with every K_nu = 0
    peripheral = clusters[np.abs(clusters) > 1 - PERIPHERAL_TOL]
    delta = min(
        abs(p - c) for p in peripheral for c in clusters if abs(p - c) > DEGENERACY_TOL
    )
    c3 = (
        16.0
        * np.e**2
        * np.sqrt(d_cap)
        * (d_cap + 1)
        / (np.sqrt(2.0) * (1 - nu_gap) ** 1.5)
        * (1 - nu_gap**2) ** (k + 1)
        * (2.0 / delta) ** (d_cap - k - 1)
    )

    d_m = mps.kraus.d_M
    sigma_min = float(np.linalg.eigvalsh(mps.sigma).min())
    big_q = 16.0 * d_m**3 * c2**2 / sigma_min**3
    rate_q = 2.0 * np.log(1.0 / nu_gap)
    return BoundConstants(
        k_jordan=k,
        nu_gap=nu_gap,
        sigma_min=sigma_min,
        c1=c1,
        c2=c2,
        c3=float(c3),
        cond_s=cond_s,
        big_q=big_q,
        rate_q=rate_q,
        d_cap=d_cap,
        delta_spec=float(delta),
        d_M=d_m,
    )


def decay_bound(constants: BoundConstants, b_len: int) -> float:
    """Value of the bounding function at separating-region size ``b_len``."""
    if b_len < 1:
        raise ValueError("b_len must be >= 1")
    k = constants.k_jordan
    return float(
        constants.big_q
        * np.exp(-constants.rate_q * (b_len - k) + 2 * k * np.log(b_len))
    )


def sufficient_b(constants: BoundConstants, d_s: int) -> int:
    """Least even |B| at which every sufficiency condition holds (K = 0 only).

    With K = 0 the dominance conditions over the non-extremal eigenvalues
    reduce to nu_gap >= |nu_i|, automatically true, so only the smallness
    condition on nu_gap^|B| and the requirement |B| >= 2 ln d_M / ln d_s bind.
    """
    if constants.k_jordan > 0:
        raise Unsupported("sufficient_b supports the K = 0 regime only")
    rhs = (
        (1.0 / (6.0 * np.sqrt(2.0)))
        * constants.sigma_min**2.5
        / (constants.c2 * constants.d_M**1.5)
        * min(1.0, (243.0 / 4.0) * constants.sigma_min**2)
    )
    b_dim = 2.0 * np.log(constants.d_M) / np.log(d_s)
    b = 2
    while b <= SUFFICIENT_B_CAP:
        if constants.nu_gap**b <= rhs and b >= b_dim:
            return b
        b += 2
    raise Unsupported(f"no sufficient |B| found below {SUFFICIENT_B_CAP}")


def qcmi_error_estimate(d_m: int, lambda_min: float, delta_lambda: float) -> float:
    """Worst-case entropy error d_M^2 * delta_lambda * ln(1/lambda_min)."""
    if not 0 < lambda_min <= 1:
        raise ValueError("lambda_min must lie in (0, 1]")
    if delta_lambda < 0:
        raise ValueError("delta_lambda must be nonnegative")
    return float(d_m**2 * delta_lambda * np.log(1.0 / lambda_min))
