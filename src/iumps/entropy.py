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
Phi stacks the row-major vectorized site products.  ``support_decomposition``
and ``projected_density`` build this explicit route.

``region_entropy`` needs only the spectrum.  Since Phi† Phi = conj(H),
the density rho_n = Phi (I kron sigma) Phi† has the nonzero spectrum of
K conj(H) K with K = I kron sigma^(1/2).  conj(H) is exactly zero outside
S x S, S the r coordinates of ``IuMps.reach``, so that is the spectrum of
T conj(H)_SS T, T^2 = (I kron sigma)_SS (``IuMps.reach_root``), and S(n)
costs one r x r eigenvalue-only solve: r = 16 for Cases 1 and 3, where T
is K, and 8 for Case 2 and the golden instance.  At this size one solve
is mostly per-call overhead, so a scan puts the solves for several
lengths and instances into one stacked ``eigvalsh`` per reach
(``fill_entropies_chunk``), which returns, row by row, the eigenvalues of
one call per matrix.  ``region_entropy`` is the one-length, one-instance
case of that stack.

Eigenvalues below ``THRESHOLD`` times the largest are outside the support
and carry no entropy.

A QCMI scan over |B| needs S(|B|), S(|A|+|B|), S(|B|+|C|) and
S(|A|+|B|+|C|), and no rho_AC.  E^n has one chain, ``mps.PowerWindow``, read
as a list of ``(N, d_M^2, d_M^2)`` stacks over N instances, one per length:
a scan passes its window's stacks, ``qmi_curve`` and ``region_entropy``
stacks of one from ``mps.powers``.  Each instance keeps its S(n) in
``IuMps.entropies``, with the same bits whichever solved it.

The QMI is one instance at a time: only ``iumps scan``'s QMI column and the
golden benchmark read it.  ``qmi_of_powers`` takes rho_AC over many |B| from
``_rho_ac``'s one multiply of one |B|-independent end by every E^|B| and one
matmul with the other end, then one stacked ``eigvalsh``, a slice of at most
``QMI_SLICE`` |B| at a time, so a long curve holds no more.  ``iumps scan``
calls it once its scan is done, on the E^|B| the scan's window multiplied
out and the S(|A|), S(|C|) the scan's first stack solved;
``qmi_curve`` calls it on E^n from one ``mps.powers`` call, with the same
bits, and ``qmi`` is ``qmi_curve``'s one-|B| case.  The ends are bilinear
in the rows vec(M_s) of the site products Phi, so a factor R with
R† R = Phi† Phi (``_region_factor``, at most d_M^2 rows) changes rho_AC by
an isometry only and keeps its nonzero spectrum.
Each region so folds to min(d_s^n, d_M^2) matrices, so rho_AC's dimension
needs only d_s, d_M, |A| and |C|: ``check_rho_ac`` holds rho_AC's one cap
and needs no instance.  ``iumps scan`` runs it before it draws a sampled
instance or builds a loaded one's E, and ``region_factors`` before it
builds the factors.  ``rho_disjoint`` is the explicit site-basis rho_AC,
kept as an oracle, with its own oracle-scale check.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .exceptions import TooLarge
from .mps import IuMps, KrausSet, TransferMatrix, powers
from .numerics import eig_hermitian, eigvals_hermitian

THRESHOLD = 1e-12
BRUTE_FORCE_CAP = 1024
# |B| values whose rho_AC one QMI solve stacks.  rho_AC reaches 1024 x 1024,
# so a stack of a whole curve grew with the curve (361 MB at 120 points of
# 256 x 256); a slice bounds the peak, and each S(AC) keeps the bits of its
# own solve.  32 is the most |B| values a planned first block of a scan holds.
QMI_SLICE = 32


class SupportProjection(NamedTuple):
    """Spectral data of the support Gram matrix of rho_n.

    ``w`` holds the full unitary eigenvector matrix, ``sigma_diag`` the full
    descending eigenvalue list; only the first ``support_dim`` columns carry
    weight above ``THRESHOLD`` relative to the largest eigenvalue.
    """

    w: np.ndarray
    sigma_diag: np.ndarray
    support_dim: int


class EntropyReport(NamedTuple):
    region_len: int
    eigenvalues: np.ndarray
    entropy: float
    clipped_weight: float


def entropy_from_eigenvalues(lam: np.ndarray) -> float:
    """Shannon-type entropy in nats with the 0*ln(0) = 0 convention."""
    lam = np.asarray(lam, dtype=float)
    lam = lam[lam > 0]
    return float(-(lam * np.log(lam)).sum()) if lam.size else 0.0


def _site_step(kraus: KrausSet, prods: np.ndarray) -> np.ndarray:
    # M^s P for every Kraus matrix M^s and every P of prods, s slowest
    return np.einsum("sab,pbc->spac", kraus.matrices, prods).reshape(-1, *prods.shape[1:])


def site_products(kraus: KrausSet, n: int) -> np.ndarray:
    """All n-fold products M^{s_n} ... M^{s_1}, shape (d_s^n, d_M, d_M), with
    s_n slowest, matching the basis ordering |s_n> x ... x |s_1> of the reduced
    density operator; ``TooLarge`` when d_s^n is above ``BRUTE_FORCE_CAP``."""
    if kraus.d_s**n > BRUTE_FORCE_CAP:
        raise TooLarge(f"d_s^n = {kraus.d_s ** n} exceeds {BRUTE_FORCE_CAP}")
    prods = np.eye(kraus.d_M, dtype=complex)[None, :, :]
    for _ in range(n):
        prods = _site_step(kraus, prods)
    return prods


def _region_factor(kraus: KrausSet, n: int) -> np.ndarray:
    """At most d_M^2 matrices with the Gram matrix of ``site_products``: each
    step reads the products only through it, so whenever they outnumber d_M^2
    they fold to the R of their QR.  No fold, the same bits, while d_s^n <= d_M^2."""
    d = kraus.d_M
    prods = site_products(kraus, 0)
    for _ in range(n):
        prods = _site_step(kraus, prods)
        if len(prods) > d * d:
            prods = np.linalg.qr(prods.reshape(-1, d * d), mode="r").reshape(-1, d, d)
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
    h = powers(transfer.e, (n,))[0].reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d2, d2)
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


# A process meets few reaches, and building an index costs about as much as
# gathering with it.
@functools.lru_cache(maxsize=32)
def _reach_index(d: int, reach: bytes) -> np.ndarray:
    """The flat index into E^n of each entry of conj(H)_SS, ``(r, r)`` and
    read-only, for the reach with the bytes of a boolean ``(d, d)``:
    conj(H)[(a, b), (a', b')] = E^n[(a', a), (b', b)]."""
    a, b = np.nonzero(np.frombuffer(reach, dtype=bool).reshape(d, d))
    index = (a[None, :] * d + a[:, None]) * d * d + b[None, :] * d + b[:, None]
    index.flags.writeable = False
    return index


def _support_spectra(
    powers: Sequence[np.ndarray], rows: Sequence[int], reach: np.ndarray, roots: np.ndarray
) -> np.ndarray:
    """Spectra, descending, of T conj(H)_SS T for the support Gram matrix H of
    each E^n of ``powers``, shape ``(len(rows), len(powers), r)``.

    Every entry of ``powers`` is a stack ``(N, d_M^2, d_M^2)`` of instances'
    E^n, of which the instances ``rows`` share ``reach``; ``roots`` holds
    their ``IuMps.reach_root``, shape ``(len(rows), 1, r, r)``.
    """
    n, m = powers[0].shape[:2]
    index = _reach_index(math.isqrt(m), reach.tobytes())
    # conj(H)_SS gathered off the E^n before the rows are picked, so no full
    # copy is made twice; no name holds a copy, so each is freed once the
    # next is made
    return eigvals_hermitian(
        np.stack(powers, axis=1).reshape(n, len(powers), m * m).take(index, axis=-1)[
            np.asarray(rows)
        ],
        roots,
    )


def _support_entropies(spectra: np.ndarray, support: np.ndarray) -> np.ndarray:
    """-sum(l ln l) over the entries ``support`` marks in each row of
    ``spectra`` ``(..., m)``; shape ``(...)``.  Rows with equally many marked
    entries are summed together, each in row order exactly as
    ``entropy_from_eigenvalues`` sums its positive entries."""
    rows = spectra.reshape(-1, spectra.shape[-1])
    marked = support.reshape(rows.shape)
    counts = np.count_nonzero(marked, axis=-1)
    out = np.zeros(len(rows))
    for c in set(counts.tolist()) - {0}:
        sel = counts == c
        lam = rows[sel][marked[sel]].reshape(-1, c)
        out[sel] = -(lam * np.log(lam)).sum(axis=-1)
    return out.reshape(spectra.shape[:-1])


def _supports(spectra: np.ndarray) -> np.ndarray:
    # rows are descending, so each support is a prefix; none when the top is <= 0
    return spectra > THRESHOLD * spectra[..., :1]


def region_entropy(mps: IuMps, n: int) -> EntropyReport:
    """Von Neumann entropy of ``n`` contiguous sites from one r x r
    eigenvalue solve, r the number of coordinates ``mps.reach`` marks.

    rho_n = Phi (I kron sigma) Phi† and Phi† Phi = conj(H) for the support
    Gram matrix H of ``support_decomposition``, so rho_n has the nonzero
    spectrum of K conj(H) K with K = I kron sigma^(1/2), which is that of
    T conj(H)_SS T on the reach S (``mps.reach_root``).  The report's
    ``eigenvalues`` is the support spectrum: the eigenvalues above
    ``THRESHOLD`` times the largest, descending.  ``clipped_weight`` is the
    negative weight of the r eigenvalues solved, which the entropy drops.
    ``NotHermitian`` is raised when H is not Hermitian, as in
    ``support_decomposition``.  The entropy is, bit for bit, the S(n)
    ``fill_entropies_chunk`` keeps.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    e_n = powers(mps.transfer.e, (n,))[0]
    spectra = _support_spectra([e_n[None]], [0], mps.reach, mps.reach_root[None, None])[0]
    support = _supports(spectra)
    return EntropyReport(
        region_len=n,
        eigenvalues=spectra[0, : np.count_nonzero(support)],
        entropy=float(_support_entropies(spectra, support)[0]),
        clipped_weight=float(-np.minimum(spectra, 0.0).sum(axis=-1)[0]),
    )


def fill_entropies_chunk(
    instances: Sequence[IuMps], missing: Sequence[int], powers_n: Sequence[np.ndarray]
) -> None:
    """Keep S(n) on every instance for every n >= 1 in ``missing``, from one
    stacked eigenvalue solve per ``IuMps.reach`` among the instances.

    ``powers_n`` holds, for each n of ``missing``, the stack
    ``(len(instances), d_M^2, d_M^2)`` of the instances' E^n.  Each
    ``reach_root`` is broadcast over the lengths.  S(n) is the entropy
    ``region_entropy`` gives, which does not depend on the other lengths or
    instances of the stack; an S(n) an instance already keeps is not
    overwritten.
    """
    if not missing:
        return
    by_reach: dict[bytes, list[int]] = {}
    for row, mps in enumerate(instances):
        by_reach.setdefault(mps.reach.tobytes(), []).append(row)
    for rows in by_reach.values():
        group = [instances[row] for row in rows]
        roots = np.stack([mps.reach_root for mps in group])[:, None]
        spectra = _support_spectra(powers_n, rows, group[0].reach, roots)
        for mps, s_row in zip(group, _support_entropies(spectra, _supports(spectra)).tolist()):
            for n, s_n in zip(missing, s_row):
                mps.entropies.setdefault(n, s_n)


def _entropy(mps: IuMps, n: int) -> float:
    """S(n) of ``mps``, solved on first request and kept."""
    if n not in mps.entropies:
        mps.entropies[n] = region_entropy(mps, n).entropy
    return mps.entropies[n]


def qcmi(mps: IuMps, len_a: int, len_b: int, len_c: int) -> float:
    """I(A:C|B) = S(AB) + S(BC) - S(ABC) - S(B) for contiguous A, B, C of
    ``len_a``, ``len_b``, ``len_c`` sites.

    Each S(n) is computed once per instance, then reused.
    """
    if min(len_a, len_b, len_c) < 1:
        raise ValueError("qcmi requires len_a, len_b, len_c >= 1")
    s = lambda n: _entropy(mps, n)
    return s(len_a + len_b) + s(len_b + len_c) - s(len_a + len_b + len_c) - s(len_b)


def _cap(dim: int) -> int:
    if dim > BRUTE_FORCE_CAP:
        raise TooLarge(f"rho_AC dimension {dim} exceeds {BRUTE_FORCE_CAP}")
    return dim


def check_rho_ac(d_s: int, d_m: int, len_a: int, len_c: int) -> int:
    """The dimension of the rho_AC that ``qmi_of_powers`` builds for regions
    of ``len_a`` and ``len_c`` sites, each folded to min(d_s^n, d_M^2)
    matrices (``_region_factor``); ``TooLarge`` when it is above
    ``BRUTE_FORCE_CAP``, rho_AC's one cap.  It reads no instance, so a caller
    can run it before any draw or E.  A dimension below 1 gives 0, for the
    caller's own dimension check to refuse."""
    if d_s < 1 or d_m < 1:
        return 0
    d2 = d_m * d_m
    # d_s^bits > d2 once d_s >= 2, so no power past it is formed
    rows = lambda n: min(d_s ** min(n, d2.bit_length()), d2)
    return _cap(rows(len_a) * rows(len_c))


def region_factors(kraus: KrausSet, len_a: int, len_c: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``_region_factor`` of A and of C that ``qmi_curve`` contracts,
    built once ``check_rho_ac`` has passed their rho_AC."""
    check_rho_ac(kraus.d_s, kraus.d_M, len_a, len_c)
    return _region_factor(kraus, len_a), _region_factor(kraus, len_c)


def _rho_ac(
    mps: IuMps, phi_a: np.ndarray, powers_b: Sequence[np.ndarray], phi_c: np.ndarray
) -> np.ndarray:
    """rho_AC on the region factors ``phi_a``, ``phi_c`` across each |B| of
    ``powers_b``, a list of ``(d_M^2, d_M^2)`` E^|B|, stacked
    ``(len(powers_b), dim, dim)`` with dim = len(phi_a) len(phi_c): the two
    |B|-independent ends, one multiply of one end by every E^|B| and one
    matmul with the other."""
    na, nc = len(phi_a), len(phi_c)
    # right[s, s'] = vec(M_s sigma M_s'†); left[t, t'] = vec(I)† (M_t kron conj(M_t'))
    right = np.einsum("pab,bc,qdc->pqad", phi_a, mps.sigma, phi_a.conj()).reshape(na, na, -1)
    left = np.einsum("pae,qaf->pqef", phi_c, phi_c.conj()).reshape(nc * nc, -1)
    powers_t = np.stack([p.T for p in powers_b])[:, None]
    # rho[k, c, a, d, b] = sum_v left[a, b, v] (right E^|B|_k)[c, d, v]: one matmul
    rho = ((right @ powers_t).reshape(-1, left.shape[-1]) @ left.T).reshape(-1, na, na, nc, nc)
    rho = rho.transpose(0, 1, 3, 2, 4).reshape(-1, na * nc, na * nc)
    return (rho + rho.conj().swapaxes(-1, -2)) / 2


def rho_disjoint(mps: IuMps, len_a: int, len_b: int, len_c: int) -> np.ndarray:
    """Joint reduced state of A and C separated by ``len_b`` sites, E^{|B|}
    contracted, in the site basis (A-site indices slow, C-site indices fast):
    ``_rho_ac`` of the one separation on the site products.  Exact at any
    separation; d_s^(|A|+|C|) must stay at oracle scale."""
    if len_a < 1 or len_c < 1:
        raise ValueError("rho_disjoint requires len_a, len_c >= 1")
    phi_a, phi_c = site_products(mps.kraus, len_a), site_products(mps.kraus, len_c)
    _cap(len(phi_a) * len(phi_c))
    return _rho_ac(mps, phi_a, powers(mps.transfer.e, (len_b,)), phi_c)[0]


def qmi_of_powers(
    mps: IuMps,
    len_a: int,
    powers_b: Sequence[np.ndarray],
    len_c: int,
    factors: tuple[np.ndarray, np.ndarray],
) -> list[float]:
    """I(A:C) = S(A) + S(C) - S(AC) across B at each E^|B| of ``powers_b``,
    from one ``_rho_ac`` on the ``region_factors`` ``factors`` and one
    stacked ``eigvalsh`` per slice of at most ``QMI_SLICE`` |B|, so the
    memory held does not grow with the curve.  S(A) and S(C) are the S(|A|)
    and S(|C|) the instance keeps, which the caller has solved."""
    s_ac = []
    for start in range(0, len(powers_b), QMI_SLICE):
        rho = _rho_ac(mps, factors[0], powers_b[start : start + QMI_SLICE], factors[1])
        lam = np.clip(np.linalg.eigvalsh(rho), 0, None)
        del rho  # freed before the next slice's is built
        s_ac.append(_support_entropies(lam, lam > 0))
    return (mps.entropies[len_a] + mps.entropies[len_c] - np.concatenate(s_ac)).tolist()


def qmi_curve(mps: IuMps, len_a: int, sizes: Sequence[int], len_c: int) -> list[float]:
    """I(A:C) across B of each length in ``sizes``: ``qmi_of_powers`` on the
    ``region_factors`` and the E^|B| of one ``powers`` call.  The S(|A|) and
    S(|C|) the instance lacks are solved in one ``fill_entropies_chunk`` from
    the same call.  A scan given ``factors`` gives the same bits from its own
    E^|B| and solves."""
    factors = region_factors(mps.kraus, len_a, len_c)
    missing = sorted({len_a, len_c} - set(mps.entropies))
    powers_n = powers(mps.transfer.e, [*sizes, *missing])
    fill_entropies_chunk([mps], missing, [p[None] for p in powers_n[len(sizes) :]])
    return qmi_of_powers(mps, len_a, powers_n[: len(sizes)], len_c, factors)


def qmi(mps: IuMps, len_a: int, len_b: int, len_c: int) -> float:
    """I(A:C) across a separating region B of ``len_b`` sites: one-|B| ``qmi_curve``."""
    return qmi_curve(mps, len_a, (len_b,), len_c)[0]


def brute_force_density(mps: IuMps, n: int) -> np.ndarray:
    """Explicit d_s^n x d_s^n reduced density operator (oracle scale only)."""
    ds, d = mps.kraus.d_s, mps.kraus.d_M
    phi = site_products(mps.kraus, n).reshape(ds**n, d * d)
    rho = phi @ np.kron(np.eye(d), mps.sigma) @ phi.conj().T
    return (rho + rho.conj().T) / 2


def brute_force_entropy(mps: IuMps, n: int) -> float:
    """Entropy by full diagonalization of the explicit reduced density."""
    lam = np.clip(np.linalg.eigvalsh(brute_force_density(mps, n)), 0.0, None)
    return entropy_from_eigenvalues(lam)
