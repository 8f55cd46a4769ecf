"""Decay-bound constants, the bounding function, and sufficiency checks.

The QCMI of contiguous regions A, C separated by |B| sites obeys

    I(A:C|B) <= Q * exp(-q*(|B| - K) + 2*K*ln|B|),

with q = 2*ln(1/nu_gap), Q = 16*d_M^3*c2^2/sigma_min^3, and K one less than
the largest Jordan-block dimension at eigenvalue magnitude nu_gap.  Haar
samples generically have K = 0; K > 0 is detected and reported, never
computed, since numerical Jordan structure is ill-conditioned: by a huge
condition number kappa = |v||w|/|w† v| (Wilkinson, 1965), not a small split.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .exceptions import NearDegenerate, Unsupported
from .mps import PERIPHERAL_TOL, IuMps, spectral_gap

DEGENERACY_TOL = 1e-8
# Largest kappa on the gap shell read as semisimple.  Measured: at most 10.2
# on 1,000 Haar instances (Cases 1-3 at (d_s, d_M) = (3, 4), Case 1 at (2, 8),
# (2, 2), (8, 4), Case 2 at (2, 8)); with an exact 2x2 Jordan block at the
# gap, 2.3e7-1.7e8 (jordan_decay mixed with a reset) and 2.9e15-1.0e16.
KAPPA_TOL = 1e4
SIGMA_RANK_TOL = 1e-12  # sigma_min up to this fraction of sigma_max is roundoff
SUFFICIENT_B_CAP = 1_000_000


class BoundConstants(NamedTuple):
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


def distinct_clusters(values: np.ndarray) -> np.ndarray:
    """Representatives of ``values`` clustered at absolute tolerance
    ``DEGENERACY_TOL``, in order: a value within it of an earlier representative
    joins it, any other starts a cluster.  The result has the dtype of ``values``.
    Python numbers give the bits of numpy scalars here, at half the cost."""
    reps: list = []
    for v in values.tolist():
        for r in reps:
            if abs(v - r) <= DEGENERACY_TOL:
                break
        else:
            reps.append(v)
    return np.array(reps, dtype=values.dtype)


def jordan_constants(mps: IuMps) -> BoundConstants:
    """Constants for the diagonalizable (K = 0) regime.

    Raises NearDegenerate when an eigenvalue at magnitude nu_gap has a
    condition number kappa above ``KAPPA_TOL``: a nontrivial Jordan block is
    then suspected.  Only after that test, raises Unsupported when sigma is
    not full rank: sigma_min, which Q divides by, is not above
    ``SIGMA_RANK_TOL`` times sigma's largest eigenvalue.
    """
    transfer = mps.transfer
    nu_gap = spectral_gap(transfer)
    values = transfer.spectrum.values

    # w_i† is row i of V^{-1}: with V = X S Y† and unit columns, kappa_i =
    # |Y[i, :] / S|.  A singular V gives kappa = cond_s = inf, with no warning.
    _, s, y_h = np.linalg.svd(transfer.spectrum.vectors)
    shell = np.abs(np.abs(values) - nu_gap) <= DEGENERACY_TOL
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kappa = float(np.linalg.norm(y_h[:, shell] / s[:, None], axis=0).max())
        cond_s = float(s[0] / s[-1])
    if not kappa <= KAPPA_TOL:
        raise NearDegenerate(
            f"an eigenvalue at the gap magnitude {nu_gap:.6g} has condition number "
            f"{kappa:.3e} > {KAPPA_TOL:.0e}; K > 0 suspected"
        )
    k = 0
    c1 = 1.0 / cond_s
    c2 = cond_s  # (K+1)*(e/K)^K -> 1 in the K = 0 limit

    clusters = distinct_clusters(values)
    d_cap = len(clusters)  # sum of (K_nu + 1) with every K_nu = 0
    peripheral = clusters[np.abs(clusters) > 1 - PERIPHERAL_TOL]
    cs = clusters.tolist()
    delta = min(
        abs(p - c) for p in peripheral.tolist() for c in cs if abs(p - c) > DEGENERACY_TOL
    )
    try:
        growth = (2.0 / delta) ** (d_cap - k - 1)
    except OverflowError:  # past the double range, as at d_M = 20, d_cap = 400
        growth = np.inf
    c3 = (
        16.0
        * np.e**2
        * np.sqrt(d_cap)
        * (d_cap + 1)
        / (np.sqrt(2.0) * (1 - nu_gap) ** 1.5)
        * (1 - nu_gap**2) ** (k + 1)
        * growth
    )

    d_m = mps.kraus.d_M
    sigma_min, sigma_max = map(float, np.linalg.eigvalsh(mps.sigma)[[0, -1]])
    if not sigma_min > SIGMA_RANK_TOL * sigma_max:
        raise Unsupported(f"sigma_min = {sigma_min:.3e}: the fixed point is not full rank")
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
