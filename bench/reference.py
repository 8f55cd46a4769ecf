"""A fixed numpy-only reference kernel that measures how fast the machine is right now.

The benchmark runs the kernel between timing blocks and divides each block's
time by the kernel's time next to it, so machine drift (other tenants,
frequency changes) cancels out of ``instances_per_ref_unit``.  The kernel
imitates the instruction mix of iumps at its working size, 16x16 complex
matrices:

- a *spectrum step* is a Haar-style QR with phase fix, a Kraus contraction
  into a transfer matrix, and a general eigensolve with sorting and residual;
- an *entropy step* is a matrix power, an index permutation, a Hermitian
  eigensolve, a projection and an entropy.

One kernel serves every workload.  On the same eight ``gapstats`` seeds, a
spectrum-only kernel gave no steadier ratio (IQR/median 0.043) than this
mixed one (0.037).  The many small numpy calls matter: they make the kernel
as sensitive to interpreter and cache contention as the workloads are, which
LAPACK calls alone are not.

The kernel uses no iumps code, so a change to the program never changes it.
Do not edit it either: every recorded ``instances_per_ref_unit`` is in its
units.
"""

from __future__ import annotations

import time

import numpy as np

# steps per kernel run, about 12-14 ms on a 2-core Xeon
SPECTRUM_STEPS = 6
ENTROPY_STEPS = 36
POWERS = (3, 6, 9, 12)


class ReferenceKernel:
    def __init__(self) -> None:
        rng = np.random.default_rng(20221112)
        self.z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        self.psi = np.kron(np.ones((3, 1)) / np.sqrt(3.0), np.eye(4))
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
        m = np.ascontiguousarray(q[:, :4]).reshape(3, 4, 4)
        self.e = np.einsum("sab,scd->acbd", m, m.conj()).reshape(16, 16)
        self.sigma = np.eye(4) / 4

    def run(self) -> float:
        """Seconds taken by one fixed batch of work."""
        start = time.perf_counter()
        for _ in range(SPECTRUM_STEPS):
            self._spectrum_step()
        for i in range(ENTROPY_STEPS):
            self._entropy_step(POWERS[i % len(POWERS)])
        return time.perf_counter() - start

    def _spectrum_step(self) -> float:
        q, r = np.linalg.qr(self.z / np.sqrt(2.0))
        d = np.diagonal(r)
        m = ((q * (d / np.abs(d))) @ self.psi).reshape(3, 4, 4)
        e = np.einsum("sab,scd->acbd", m, m.conj()).reshape(16, 16)
        w, v = np.linalg.eig(e)
        order = np.lexsort((-w.imag, -w.real, -np.abs(w)))
        w, v = w[order], v[:, order]
        v = v / np.linalg.norm(v, axis=0)
        return float(np.linalg.norm(e @ v - v * w, axis=0).max())

    def _entropy_step(self, n: int) -> float:
        g = np.linalg.matrix_power(self.e, n)
        h = g.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)
        asym = float(np.linalg.norm(h - h.conj().T)) / float(np.linalg.norm(h))
        lam, u = np.linalg.eigh((h + h.conj().T) / 2)
        lam, u = lam[::-1], u[:, ::-1]
        k = int(np.count_nonzero(lam > 1e-12 * lam[0]))
        s = np.sqrt(np.abs(lam[:k]))
        mid = u[:, :k].T @ np.kron(np.eye(4), self.sigma) @ u[:, :k].conj()
        rho = (mid * s[None, :]) * s[:, None]
        p = np.clip(np.linalg.eigvalsh((rho + rho.conj().T) / 2), 0.0, None)
        p = p[p > 0]
        return asym - float((p * np.log(p)).sum())
