"""Infinite uniform MPS construction: Kraus sets, transfer matrices, fixed points.

Index convention used throughout the package: ``vec`` is row-major, so
``vec(X)[i*d + j] = X[i, j]`` and ``vec(A X B^) = (A kron conj(B)) vec(X)``.
Under this convention ``vec(I)`` is a left fixed point of every canonical
transfer matrix.

E maps vec(X) to vec(sum_s M^s X M^s†), a map that keeps Hermitian X
Hermitian.  In the orthonormal Hermitian basis of ``hermitian_basis``
(columns vec(G_k) of a unitary U) it is therefore the real matrix
R = U† E U (``real_form``), and every transfer spectrum is solved from R in
real arithmetic: ``transfer_spectrum`` with eigenvectors U V_R, or
``transfer_magnitudes`` for the eigenvalue magnitudes alone.  Either solve
checks every eigenpair's residual in real arithmetic too (``numerics``).

One memory budget, ``MEMORY_BUDGET``, is the only size rule: ``_check_dims``
refuses a run that ``run_charge`` puts above it, sampled or loaded, before
any draw or E is allocated.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .exceptions import (
    DegenerateSpectrum,
    NoFixedPoint,
    NonConvergence,
    NotHermitian,
    NotPositive,
)
from .numerics import (
    EigenDecomposition,
    RandomStream,
    eig_general,
    eig_magnitudes,
    flagged_at,
    haar_unitaries,
)

CASE1 = "case1"
CASE2 = "case2"
CASE3 = "case3"
EXPLICIT = "explicit"

CANONICAL_TOL = 1e-10
FIXED_POINT_TOL = 1e-8
PERIPHERAL_TOL = 1e-8
CLIP_BUDGET = 1e-6
# Least singular value of W_c† V_c that fixed_point accepts, both factors
# with unit columns: about 16 ulp, matrix_rank's default for a 16 x 16 matrix.
SINGULAR_TOL = 4e-15
# Largest imaginary entry of a real form, relative to its largest entry;
# rounding leaves about 1e-16.
REAL_FORM_TOL = 1e-12


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
    """The (row, col) half-dimension block of every M^s of a Kraus set or a
    stack of them, as a view."""
    h = matrices.shape[-1] // 2
    halves = (slice(None, h), slice(h, None))
    return matrices[..., halves[row], halves[col]]


class KrausSet(NamedTuple):
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
        _check_dims(self.d_s, self.d_M)
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


class TransferMatrix(NamedTuple):
    """E = sum_s M^s kron conj(M^s) with its spectrum and peripheral data.

    ``nu_gap`` is None when every eigenvalue is peripheral (identity channel);
    querying the gap through ``spectral_gap`` then raises DegenerateSpectrum.
    """

    e: np.ndarray
    spectrum: EigenDecomposition
    peripheral_indices: np.ndarray
    nu_gap: float | None


def kraus_reach(matrices: np.ndarray) -> np.ndarray:
    """The coordinates (a, b) at which some product of one or more of the
    Kraus matrices ``(d_s, d_M, d_M)`` can be nonzero, a boolean
    ``(d_M, d_M)``: the closure of the exact pattern OR_s (M^s != 0), so it
    needs no tolerance."""
    closure = matrices.any(axis=0)
    while not closure.all():
        grown = closure | closure @ closure
        if (grown == closure).all():
            break
        closure = grown
    return closure


class IuMps:
    """A Kraus set together with its fixed-point density operator.

    ``entropies`` holds each region entropy S(n) once computed, keyed by
    ``n``; ``iumps.entropy`` fills it, solving each S(n) on the coordinates
    of ``reach`` alone: every E^n, n >= 1, is exactly zero off them.
    """

    def __init__(self, kraus: KrausSet, sigma: np.ndarray, transfer: TransferMatrix) -> None:
        self.kraus = kraus
        self.sigma = sigma
        self.transfer = transfer
        self.entropies: dict[int, float] = {}

    @functools.cached_property
    def reach(self) -> np.ndarray:
        """``kraus_reach`` of the Kraus matrices, read-only."""
        closure = kraus_reach(self.kraus.matrices)
        closure.flags.writeable = False
        return closure

    @functools.cached_property
    def reach_root(self) -> np.ndarray:
        """T = (+)_a sigma[A_a, A_a]^(1/2), A_a row a of ``reach``: the root
        of (I kron sigma) on the reached (a, b), row-major.  Equal rows in a
        run share one ``eigh``, so a full reach gives I kron sigma^(1/2)."""
        size = int(self.reach.sum())
        root = np.zeros((size, size), dtype=complex)
        at = 0
        for row, run in itertools.groupby(self.reach.tolist()):
            cols = np.flatnonzero(row)
            lam, u = np.linalg.eigh(self.sigma[np.ix_(cols, cols)])
            block = (u * np.sqrt(np.clip(lam, 0.0, None))) @ u.conj().T
            for _ in run:
                root[at : at + len(cols), at : at + len(cols)] = block
                at += len(cols)
        return root


@functools.cache
def _case1_isometry(d_s: int, d_m: int) -> np.ndarray:
    """Psi = (1/sqrt(d_s)) * ones(d_s) kron I, ``(d_s*d_M, d_M)``, complex
    (the type its product with a unitary is taken in); built once per
    (d_s, d_M) and read-only."""
    psi = (np.tile(np.eye(d_m), (d_s, 1)) / np.sqrt(d_s)).astype(complex)
    psi.flags.writeable = False
    return psi


def _case1_matrices(d_s: int, d_m: int, u: np.ndarray) -> np.ndarray:
    """M^s from a Haar unitary on dimension d_s*d_M applied to the fixed
    isometry ``_case1_isometry``; a stack ``(..., d_s*d_M, d_s*d_M)`` of
    unitaries gives a stack ``(..., d_s, d_M, d_M)`` of Kraus sets."""
    mu = u @ _case1_isometry(d_s, d_m)  # rows: composite (s, i)
    return mu.reshape(*u.shape[:-2], d_s, d_m, d_m)


# The bytes a run may hold; ``_check_dims`` refuses a run that ``run_charge``
# puts above it before any draw or E.  The charge bounds the tracemalloc peak
# of every command at |A| = |C| = 1 over d_M 2-20 and d_s * d_M up to 512: per
# d_M^4 at most 4.95 kB (ensemble --n 4, d_M = 8; 4.72 kB at d_M = 20), per
# (d_s d_M)^2 of one chunk of Haar draws at most 1.35 kB, and at small d_M the
# ~1.2 MB a first call allocates, so the margins are 17%, 18% and 2 MiB.
# What a run holds besides, such as its instances' results or the powers and
# rho_AC of longer regions, its caller passes to ``check_case`` as ``held``.
MEMORY_BUDGET = 2**30
RUN_BASE = 2**21
TRANSFER_BYTES = 5800
HAAR_BYTES = 1600


def run_charge(d_s: int, d_m: int, extra: int = 0) -> int:
    """Bytes charged a run at d_s x d_M holding ``extra`` bytes of results."""
    return RUN_BASE + TRANSFER_BYTES * d_m**4 + HAAR_BYTES * (d_s * d_m) ** 2 + extra


def _check_dims(d_s: int, d_m: int, held: dict[str, int] | None = None) -> None:
    """Refuse dimensions below 1, and a run whose ``run_charge`` is above
    ``MEMORY_BUDGET``, before any draw or E is allocated; ``held`` maps what
    the run holds besides, such as ``"instance results"``, to its bytes."""
    if d_s < 1 or d_m < 1:
        raise ValueError("d_s and d_M must be >= 1")
    held = {what: n for what, n in (held or {}).items() if n}
    charge = run_charge(d_s, d_m, sum(held.values()))
    if charge > MEMORY_BUDGET:
        holding = " and ".join(f"{n:,} bytes of {what}" for what, n in held.items())
        holding = f" holding {holding}" if holding else ""
        raise ValueError(
            f"a run at d_s = {d_s}, d_M = {d_m}{holding} charges {charge:,} bytes, "
            f"above the {MEMORY_BUDGET >> 30} GiB memory budget"
        )


def sample_case1(d_s: int, d_m: int, streams: Sequence[RandomStream]) -> np.ndarray:
    """Case-1 Kraus matrices, one set per stream, stacked
    ``(len(streams), d_s, d_M, d_M)`` and checked as ``KrausSet.validate``
    checks them: one stacked Haar draw and one vectorised canonical check.
    Every sampled case draws its Kraus sets here.  Row i is, bit for bit,
    what a call on ``streams[i]`` alone gives."""
    check_case(CASE1, d_s, d_m)
    matrices = _case1_matrices(d_s, d_m, haar_unitaries(d_s * d_m, streams))
    check_canonical(matrices)
    return matrices


def check_case(case_tag: str, d_s: int, d_m: int, held: dict[str, int] | None = None) -> None:
    """Raise ``ValueError``, before anything is drawn, unless ``case_tag`` is
    a sampled case that can be drawn at d_s x d_M: an unknown case first,
    then an odd d_M for a two-block case, then ``_check_dims`` of the run,
    which holds the bytes of ``held`` besides.  A loaded Kraus set draws nothing;
    ``KrausSet.validate`` checks ``_check_dims`` only."""
    if case_tag != CASE1 and case_tag not in _BLOCK_LAYOUT:
        cases = sorted((CASE1, *_BLOCK_LAYOUT))
        raise ValueError(f"unknown case {case_tag!r}; expected one of {cases}")
    if case_tag in _BLOCK_LAYOUT and d_m % 2 != 0:
        raise ValueError("d_M must be even")
    _check_dims(d_s, d_m, held)


def sample_case(case_tag: str, d_s: int, d_m: int, streams: Sequence[RandomStream]) -> np.ndarray:
    """Kraus matrices of a sampled case, one set per stream, stacked
    ``(len(streams), d_s, d_M, d_M)``, from one ``sample_case1`` call; the
    one place a case tag is dispatched on, after ``check_case``.

    Case 1 is ``sample_case1`` itself.  A two-block case draws two independent
    half-dimension Case-1 sets per stream, on its substreams 0 and 1, and
    places them where ``_BLOCK_LAYOUT[case_tag]`` says; the other block of
    each row stays zero, so the layout holds by construction, and
    ``sample_case1`` has checked every block.  Block j of row i is, bit for
    bit, ``sample_case1(d_s, d_M // 2, (streams[i].substream(j),))[0]``, and
    row i what a call on ``streams[i]`` alone gives.  A set that fails the
    canonical check raises ``ValueError`` naming its matrix of the stack.
    """
    check_case(case_tag, d_s, d_m)
    if case_tag == CASE1:
        return sample_case1(d_s, d_m, streams)
    halves = sample_case1(d_s, d_m // 2, [s.substream(j) for s in streams for j in (0, 1)])
    mats = np.zeros((len(streams), d_s, d_m, d_m), dtype=complex)
    for j, (row, col) in enumerate(_BLOCK_LAYOUT[case_tag]):
        _block(mats, row, col)[...] = halves[j::2]
    return mats


def build_case(case_tag: str, d_s: int, d_m: int, stream: RandomStream) -> KrausSet:
    """Kraus set of a sampled case (``case1``, ``case2`` or ``case3``):
    ``sample_case`` of the one stream.  It is not validated again:
    ``sample_case`` builds it in shape and layout and checks it canonical."""
    matrices = sample_case(case_tag, d_s, d_m, (stream,))[0]
    return KrausSet(d_s=d_s, d_M=d_m, matrices=matrices, case_tag=case_tag)


def build_case1(d_s: int, d_m: int, stream: RandomStream) -> KrausSet:
    """Single-fixed-point instance: ``sample_case1`` of the one stream."""
    return build_case(CASE1, d_s, d_m, stream)


def build_case2(d_s: int, d_m: int, stream: RandomStream) -> KrausSet:
    """Two independent half-dimension instances on the diagonal blocks."""
    return build_case(CASE2, d_s, d_m, stream)


def build_case3(d_s: int, d_m: int, stream: RandomStream) -> KrausSet:
    """Two independent half-dimension instances on the anti-diagonal blocks."""
    return build_case(CASE3, d_s, d_m, stream)


def transfer_operators(matrices: np.ndarray) -> np.ndarray:
    """E = sum_s M^s kron conj(M^s) of each Kraus set of a stack
    ``(..., d_s, d_M, d_M)``; shape ``(..., d_M^2, d_M^2)``."""
    d2 = matrices.shape[-1] ** 2
    e = np.einsum("...sab,...scd->...acbd", matrices, matrices.conj())
    return e.reshape(*matrices.shape[:-3], d2, d2)


@functools.cache
def hermitian_basis(d: int) -> tuple[np.ndarray, np.ndarray]:
    """U and U†, where U's columns are vec(G_k) for the orthonormal basis of
    Hermitian d x d matrices E_ii, then (E_ij + E_ji)/sqrt(2) and
    i(E_ij - E_ji)/sqrt(2) for each i < j.  Built on first use, once per d,
    and read-only."""
    g = np.zeros((d * d, d, d), dtype=complex)  # g[k] = G_k
    g[np.arange(d), np.arange(d), np.arange(d)] = 1
    for k, (i, j) in enumerate(itertools.combinations(range(d), 2)):
        sym, anti = g[d + 2 * k], g[d + 2 * k + 1]
        sym[i, j] = sym[j, i] = 1 / np.sqrt(2.0)
        anti[i, j], anti[j, i] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
    u = g.reshape(d * d, d * d).T.copy()
    u_h = u.conj().T.copy()
    u.flags.writeable = u_h.flags.writeable = False
    return u, u_h


def real_form(e: np.ndarray) -> np.ndarray:
    """R = U† E U of each transfer matrix of a stack ``(..., d_M^2, d_M^2)``,
    U from ``hermitian_basis``: E maps Hermitian matrices to Hermitian ones,
    so R is real.  An imaginary part above ``REAL_FORM_TOL`` times the
    largest entry of R raises ``NotHermitian`` naming the first such matrix."""
    u, u_h = hermitian_basis(math.isqrt(e.shape[-1]))
    r = u_h @ e @ u
    im = np.abs(r.imag).max(axis=(-2, -1))
    bad = im > REAL_FORM_TOL * np.abs(r).max(axis=(-2, -1))
    if bad.any():
        worst = float(np.max(im, where=bad, initial=0.0))
        raise NotHermitian(
            f"transfer matrix does not preserve Hermiticity: imaginary entry {worst:.3e} of its "
            f"real form exceeds {REAL_FORM_TOL:.1e} times its largest entry{flagged_at(bad)}"
        )
    return r.real


def transfer_spectrum(e: np.ndarray) -> EigenDecomposition:
    """``eig_general`` of each transfer matrix of a stack ``(..., d_M^2,
    d_M^2)``, solved in real arithmetic: one real ``eig_general`` of
    ``real_form(e)``, whose eigenvectors V_R map back as U V_R.  The values,
    and the residual, are R's, the residual taken in real arithmetic; U is
    unitary, so they are E's.  It serves ``transfer_matrices``, which reads
    the vectors; ``transfer_magnitudes`` reads the magnitudes of the same
    solve."""
    spectrum = eig_general(real_form(e))
    u, _ = hermitian_basis(math.isqrt(e.shape[-1]))
    return EigenDecomposition(spectrum.values, u @ spectrum.vectors, spectrum.residual)


def transfer_magnitudes(e: np.ndarray) -> np.ndarray:
    """``np.abs(transfer_spectrum(e).values)``, bit for bit: the eigenvalue
    magnitudes, descending, of each transfer matrix of a stack, from
    ``eig_magnitudes`` of ``real_form(e)``, the same checked solve, with
    every residual checked, but no complex value sorted and no eigenvector
    sorted, renormalised or mapped back through U."""
    return eig_magnitudes(real_form(e))


def transfer_matrices(matrices: np.ndarray) -> list[TransferMatrix]:
    """The ``TransferMatrix`` of each Kraus set of a stack ``(N, d_s, d_M,
    d_M)``, from one ``transfer_operators`` and one stacked
    ``transfer_spectrum``; the one place a ``TransferMatrix`` is assembled.
    Entry i carries, bit for bit, ``transfer_matrix`` of set i alone.  A
    failing spectrum raises for the whole stack, naming the failing matrix
    by its place in it."""
    e = transfer_operators(matrices)
    spectrum = transfer_spectrum(e)
    out = []
    for i, values in enumerate(spectrum.values):
        mags = np.abs(values)
        bulk = mags[mags <= 1 - PERIPHERAL_TOL]
        out.append(
            TransferMatrix(
                e=e[i],
                spectrum=EigenDecomposition(
                    values=values,
                    vectors=spectrum.vectors[i],
                    residual=float(spectrum.residual[i]),
                ),
                peripheral_indices=np.flatnonzero(mags > 1 - PERIPHERAL_TOL),
                nu_gap=float(bulk.max()) if bulk.size else None,
            )
        )
    return out


def transfer_matrix(kraus: KrausSet) -> TransferMatrix:
    """Assemble E, compute its full spectrum, and classify the peripheral
    set: ``transfer_matrices`` of the one Kraus set."""
    return transfer_matrices(kraus.matrices[None])[0]


def spectral_gap(transfer: TransferMatrix) -> float:
    """Largest non-peripheral eigenvalue magnitude, in (0, 1); none, or 0 (a
    nilpotent bulk, with no decay rate 2 ln(1/nu_gap)), is DegenerateSpectrum."""
    if transfer.nu_gap is None:
        raise DegenerateSpectrum("every eigenvalue is peripheral; the gap is undefined")
    if transfer.nu_gap == 0:
        raise DegenerateSpectrum("the bulk is nilpotent: every non-peripheral eigenvalue is 0")
    return transfer.nu_gap


def fixed_point(transfer: TransferMatrix) -> np.ndarray:
    """Fixed-point density operator from the eigenvalue-1 cluster alone.

    The eigenvectors of a degenerate eigenvalue 1 are an arbitrary basis of
    the fixed subspace, so the cluster's oblique spectral projector
    V_c (W_c† V_c)^{-1} W_c† is applied to b = vec(I/d) instead: it lands on
    the uniform combination of the extremal fixed points whatever basis the
    solver returns.  V_c is the cluster's k columns of the eigenvectors of
    E; W_c spans the left null space of E - I: vec(I)/sqrt(d) for k = 1 (E
    is trace preserving), else the last k left singular vectors of E - I.
    A channel's peripheral eigenvalues are semisimple, so no other column of
    V enters, and E may be defective elsewhere.  The k x k system is solved
    through the SVD of W_c† V_c; a least singular value at or below
    ``SINGULAR_TOL`` (a defective cluster) is ``NonConvergence``.  The result
    is Hermitized, clipped to be positive semidefinite, and normalized.
    """
    d2 = transfer.e.shape[0]
    d = int(round(np.sqrt(d2)))
    near_one = np.abs(transfer.spectrum.values - 1.0) <= FIXED_POINT_TOL
    k = int(near_one.sum())
    if k == 0:
        raise NoFixedPoint("no eigenvalue within 1e-8 of 1")
    v_c = transfer.spectrum.vectors[:, near_one]
    if k == 1:
        trace = v_c[:: d + 1, 0].sum()
        s_min = abs(trace) / np.sqrt(d)
    else:
        w_c = np.linalg.svd(transfer.e - np.eye(d2))[0][:, -k:]
        x, s, y_h = np.linalg.svd(w_c.conj().T @ v_c)
        s_min = s[-1]
    if not s_min > SINGULAR_TOL:
        raise NonConvergence(f"defective eigenvalue-1 cluster: W_c† V_c has s_min {s_min:.3e}")
    if k == 1:
        sigma = unvec(v_c[:, 0] / trace, d)
    else:
        w_b = w_c[:: d + 1].conj().sum(axis=0) / d  # W_c† vec(I/d)
        sigma = unvec(v_c @ (y_h.conj().T @ (x.conj().T @ w_b / s)), d)

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


def sample_iumps(
    case_tag: str, d_s: int, d_m: int, streams: Sequence[RandomStream]
) -> list[IuMps]:
    """``build_iumps(build_case(case_tag, d_s, d_M, s))`` for each stream s,
    from one ``sample_case`` call and one ``transfer_matrices`` stack; each
    instance then gets its own ``fixed_point``.  ``run_ensemble`` builds
    every chunk, and every retried stream, here.

    Every instance carries the bits of the one-stream build.  Any failing
    step (the canonical check, the spectrum, an instance's ``fixed_point``)
    raises for the whole stack; a stacked step names the failing matrix by
    its place in the stack.
    """
    matrices = sample_case(case_tag, d_s, d_m, streams)
    return [
        IuMps(
            kraus=KrausSet(d_s=d_s, d_M=d_m, matrices=kraus_matrices, case_tag=case_tag),
            sigma=fixed_point(transfer),
            transfer=transfer,
        )
        for kraus_matrices, transfer in zip(matrices, transfer_matrices(matrices))
    ]


class PowerWindow:
    """E^n of a stack ``(N, m, m)`` of transfer matrices, for the n a block
    of a scan needs; the one place E^n is multiplied out.

    The window starts at E^0, the identity, and grows E^n from E^(n-1) by one
    batched multiply, so E^n does not depend on the order the n are asked
    in.  Only the powers from the lowest n asked for on are kept.
    """

    def __init__(self, e: np.ndarray) -> None:
        self.e = e
        self.top = np.broadcast_to(np.eye(e.shape[-1], dtype=complex), e.shape)
        self.n_top = 0
        self.powers: dict[int, np.ndarray] = {0: self.top}

    def extend(self, low: int, high: int) -> None:
        """Hold E^n for every n in ``low..high``; drop every power below ``low``."""
        self.powers = {n: p for n, p in self.powers.items() if n >= low}
        while self.n_top < high:
            self.top = self.top @ self.e
            self.n_top += 1
            if self.n_top >= low:
                self.powers[self.n_top] = self.top

    def keep(self, rows: Sequence[int]) -> None:
        """Keep only the matrices ``rows`` of the stack, in that order."""
        self.e, self.top = self.e[rows], self.top[rows]
        self.powers = {n: p[rows] for n, p in self.powers.items()}

    def __getitem__(self, n: int) -> np.ndarray:
        return self.powers[n]


def powers(e: np.ndarray, ns: Sequence[int]) -> list[np.ndarray]:
    """E^n of the one transfer matrix ``e`` for each n >= 0 of ``ns``: the
    rows of a one-matrix ``PowerWindow``, so each carries the bits of its
    row in any window that holds ``e``."""
    if min(ns) < 0:
        raise ValueError("n must be >= 0")
    window = PowerWindow(e[None])
    window.extend(min(ns), max(ns))
    return [window[n][0] for n in ns]

