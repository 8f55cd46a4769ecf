import numpy as np
import pytest

from iumps import (
    KrausSet,
    Unsupported,
    build_iumps,
    jordan_constants,
    qcmi,
    qcmi_error_estimate,
    sufficient_b,
    decay_bound,
)
from iumps.bounds import BoundConstants


def pauli_channel_mps(p=0.7, q=0.2, r=0.1):
    """Normal transfer matrix with real spectrum {1, 1-2r, 1-2q, 1-2q-2r}."""
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    mats = np.stack(
        [np.sqrt(p) * np.eye(2), np.sqrt(q) * z, np.sqrt(r) * x]
    ).astype(complex)
    ks = KrausSet(d_s=3, d_M=2, matrices=mats, case_tag="explicit")
    ks.validate()
    return build_iumps(ks)


def test_normal_channel_has_unit_condition_number():
    constants = jordan_constants(pauli_channel_mps())
    assert constants.k_jordan == 0
    assert abs(constants.cond_s - 1.0) <= 1e-8
    assert abs(constants.c1 - 1.0) <= 1e-8
    assert abs(constants.c2 - 1.0) <= 1e-8
    assert constants.rate_q == pytest.approx(2 * np.log(1 / constants.nu_gap))


def test_haar_instances_have_trivial_jordan_structure(case1_instance):
    constants = jordan_constants(case1_instance)
    assert constants.k_jordan == 0
    assert constants.cond_s >= 1.0
    assert constants.big_q == pytest.approx(
        16 * 4**3 * constants.c2**2 / constants.sigma_min**3
    )
    assert constants.d_cap <= 16
    assert constants.delta_spec > 0
    assert constants.c3 > 0


def test_constants_are_reproducible(case1_instance):
    a = jordan_constants(case1_instance)
    b = jordan_constants(case1_instance)
    assert abs(a.c2 - b.c2) <= 1e-6 * abs(a.c2)
    assert a == b


def test_rate_improvement_factor_identity(case1_instance):
    constants = jordan_constants(case1_instance)
    assert constants.rate_q / (0.5 * np.log(1 / constants.nu_gap)) == pytest.approx(4.0)


def test_decay_bound_arithmetic():
    constants = BoundConstants(
        k_jordan=0, nu_gap=0.5, sigma_min=0.25, c1=1.0, c2=1.0, c3=1.0,
        cond_s=1.0, big_q=1.0, rate_q=np.log(4.0), d_cap=4, delta_spec=0.1, d_M=4,
    )
    assert decay_bound(constants, 2) == pytest.approx(1.0 / 16.0)
    # exponential law: doubling b adds -q*b to the log-bound when K = 0
    for b in (3, 5, 8):
        lhs = np.log(decay_bound(constants, 2 * b)) - np.log(decay_bound(constants, b))
        assert lhs == pytest.approx(-constants.rate_q * b)


def test_decay_bound_strictly_decreasing(case1_instance):
    constants = jordan_constants(case1_instance)
    values = [decay_bound(constants, b) for b in range(1, 41)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bound_dominates_measured_qcmi_on_benchmark():
    from iumps import benchmark_kraus, scan_instance

    mps = build_iumps(benchmark_kraus())
    constants = jordan_constants(mps)
    curve = scan_instance(mps, 1, 1, 40, 12)
    for p in curve.points:
        assert decay_bound(constants, p.b_len) >= p.qcmi


def test_sufficient_b_frozen_example():
    constants = BoundConstants(
        k_jordan=0, nu_gap=0.5, sigma_min=0.25, c1=1.0, c2=1.0, c3=1.0,
        cond_s=1.0, big_q=1.0, rate_q=np.log(4.0), d_cap=4, delta_spec=0.1, d_M=4,
    )
    # 0.5^b <= (1/(6 sqrt 2)) * 0.25^2.5 / 8 * min(1, 60.75*0.0625) = 4.6036e-4
    # first even b: 12; the dimension condition 2 ln4/ln3 = 2.52 is weaker
    rhs = (1 / (6 * np.sqrt(2))) * 0.25**2.5 / 8 * min(1.0, (243 / 4) * 0.25**2)
    scan = 2
    while 0.5**scan > rhs or scan < 2 * np.log(4) / np.log(3):
        scan += 2
    assert scan == 12
    assert sufficient_b(constants, 3) == 12
    assert sufficient_b(constants, 3) == sufficient_b(constants, 3)


def test_sufficient_b_dimension_condition_binds():
    constants = BoundConstants(
        k_jordan=0, nu_gap=1e-6, sigma_min=0.999999, c1=1.0, c2=1.0, c3=1.0,
        cond_s=1.0, big_q=1.0, rate_q=1.0, d_cap=4, delta_spec=0.1, d_M=4,
    )
    # smallness condition already holds at b = 2; 2 ln4 / ln3 = 2.52 forces 4
    assert sufficient_b(constants, 3) == 4


def test_sufficient_b_rejects_jordan_regime():
    constants = BoundConstants(
        k_jordan=1, nu_gap=0.5, sigma_min=0.25, c1=1.0, c2=1.0, c3=1.0,
        cond_s=1.0, big_q=1.0, rate_q=1.0, d_cap=4, delta_spec=0.1, d_M=4,
    )
    with pytest.raises(Unsupported):
        sufficient_b(constants, 3)


def test_qcmi_error_estimate():
    val = qcmi_error_estimate(4, 1e-14, 1e-14)
    assert val == pytest.approx(16 * 1e-14 * np.log(1e14))
    assert 1e-13 <= val <= 1e-11  # the order-1e-12 figure
    assert qcmi_error_estimate(4, 0.5, 0.0) == 0.0
    assert qcmi_error_estimate(4, 1.0, 1e-10) == 0.0
    with pytest.raises(ValueError):
        qcmi_error_estimate(4, 0.0, 1e-14)
    with pytest.raises(ValueError):
        qcmi_error_estimate(4, 0.5, -1e-14)


def test_decay_bound_rejects_nonpositive_b():
    constants = BoundConstants(
        k_jordan=0, nu_gap=0.5, sigma_min=0.25, c1=1.0, c2=1.0, c3=1.0,
        cond_s=1.0, big_q=1.0, rate_q=1.0, d_cap=4, delta_spec=0.1, d_M=4,
    )
    with pytest.raises(ValueError):
        decay_bound(constants, 0)
