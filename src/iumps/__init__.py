"""Random infinite uniform matrix product states and their information decay.

Construct iuMPS from Haar-sampled isometries, characterize the transfer
matrix spectrum, compute region entropies and (conditional) mutual
information through support projection, and test the exponential decay of
the conditional mutual information against its spectral bounding function.
"""

from .bounds import BoundConstants, jordan_constants, sufficient_b, decay_bound
from .entropy import (
    EntropyReport,
    SupportProjection,
    brute_force_density,
    brute_force_entropy,
    projected_density,
    qcmi,
    qmi,
    region_entropy,
    rho_disjoint,
    site_products,
    support_decomposition,
)
from .exceptions import (
    BenchmarkFailed,
    DegenerateSpectrum,
    EmptyCurve,
    IumpsError,
    NearDegenerate,
    NoFixedPoint,
    NonConvergence,
    NotHermitian,
    NotPositive,
    TooFewPoints,
    TooLarge,
    Unsupported,
)
from .experiments import (
    I_TH,
    BenchmarkReport,
    DecayCurve,
    EnsembleSummary,
    GapStatistics,
    analytic_family,
    benchmark_kraus,
    golden_benchmark,
    build_instance,
    distinct_magnitudes,
    extract_rate,
    gap_statistics,
    reference_rho_a,
    reference_rho_ac,
    run_ensemble,
    scan_instance,
    shift_graph,
)
from .mps import (
    CASE1,
    CASE2,
    CASE3,
    EXPLICIT,
    IuMps,
    KrausSet,
    TransferMatrix,
    build_case1,
    build_case2,
    build_case3,
    build_iumps,
    fixed_point,
    sample_case1,
    spectral_gap,
    transfer_magnitudes,
    transfer_matrix,
    transfer_operators,
    unvec,
    vec,
)
from .numerics import (
    EigenDecomposition,
    HermitianEigenDecomposition,
    RandomStream,
    eig_general,
    eig_hermitian,
    eig_magnitudes,
    eigvals_hermitian,
    haar_unitaries,
    haar_unitary,
    mat_power,
)

__version__ = "0.1.0"
