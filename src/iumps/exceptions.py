"""Exception types shared across the package."""


class IumpsError(Exception):
    """Base class for all package-specific errors."""


class NonConvergence(IumpsError):
    """The iterative eigensolver failed to converge."""


class NotHermitian(IumpsError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class DegenerateSpectrum(IumpsError):
    """Every transfer-matrix eigenvalue is peripheral, or every other one is
    zero; no gap, or no finite decay rate, exists."""


class NoFixedPoint(IumpsError):
    """No transfer-matrix eigenvalue lies within tolerance of 1."""


class NotPositive(IumpsError):
    """Positivization removed more weight than the accepted budget."""


class TooLarge(IumpsError):
    """A brute-force computation exceeds its dimension cap."""


class EmptyCurve(IumpsError):
    """The QCMI already sits at the numerical floor at the smallest |B|."""


class TooFewPoints(IumpsError):
    """Not enough curve points for the requested regression window."""


class NearDegenerate(IumpsError):
    """An eigenvalue at the gap magnitude is too ill-conditioned to be
    semisimple: a Jordan block at the gap is suspected."""


class Unsupported(IumpsError):
    """The requested computation is outside the supported regime."""


class BenchmarkFailed(IumpsError):
    """A golden-benchmark assertion failed; the message names the quantity."""
