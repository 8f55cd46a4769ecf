"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The first-family half of criterion 5 pins two closed forms of that family's
transfer spectrum {1, 1-beta, 1-2*beta}: the population-sector split
|nu1| - |nu_pop| = 2*beta, with nu_pop found by the structure of its
eigenvector, and the leading gap |nu1| - |nu2| = beta that ``nu_gap`` and
the bound consume.  See the repository README for the derivation.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from iumps import (
    NearDegenerate,
    RandomStream,
    golden_benchmark,
    brute_force_density,
    brute_force_entropy,
    build_instance,
    distinct_magnitudes,
    gap_statistics,
    jordan_constants,
    qcmi,
    region_entropy,
    rho_disjoint,
    support_decomposition,
    decay_bound,
    transfer_matrix,
    analytic_family,
)
from iumps.cli import main as cli_main
from oracles import materialize_isometry, qcmi_error_estimate

ACCEPT_SEED = 20250809
ENSEMBLE_N = 500
B_MAX_LIMIT = 40
FLOOR = 1e-12
BURN_IN = 3


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@dataclass
class ScanRecord:
    instance_id: int
    mps: object
    nu_gap: float
    computed: list  # every evaluated (b, qcmi), including the sub-floor stop
    retained: list  # stopping-rule curve
    b_max: int | None
    rate: float | None


@pytest.fixture(scope="module")
def ensemble():
    records = []
    for i in range(ENSEMBLE_N):
        mps = build_instance("case1", 3, 4, RandomStream(ACCEPT_SEED, i))
        nu_gap = mps.transfer.nu_gap
        computed, retained = [], []
        for b in range(2, B_MAX_LIMIT + 1, 2):
            v = qcmi(mps, 1, b, 1)
            computed.append((b, v))
            if v <= FLOOR:
                break
            retained.append((b, v))
        rate = None
        if len(retained) >= BURN_IN + 2:
            norm = 2 * math.log(1 / nu_gap)
            xs = np.array([b for b, _ in retained[BURN_IN:]], dtype=float)
            ys = np.array([math.log(v) / norm for _, v in retained[BURN_IN:]])
            rate = float(-np.polyfit(xs, ys, 1)[0])
        records.append(
            ScanRecord(
                instance_id=i,
                mps=mps,
                nu_gap=nu_gap,
                computed=computed,
                retained=retained,
                b_max=retained[-1][0] if retained else None,
                rate=rate,
            )
        )
    return records


def test_criterion_1_golden_benchmark():
    from iumps import benchmark_kraus, build_iumps

    report = golden_benchmark()
    rho_ac = rho_disjoint(build_iumps(benchmark_kraus()), 1, 26, 1)
    rho_a = np.einsum("acbc->ab", rho_ac.reshape(3, 3, 3, 3))
    rho_a_dev_26 = float(np.abs(rho_a - np.diag([2.0, 3.0, 3.0]) / 8).max())
    tail = np.log([q for _, q in report.qcmi_curve[-10:]])
    monotone = bool(np.all(np.diff(tail) < 0))
    ok = report.qmi_dev <= 1e-12 and rho_a_dev_26 <= 1e-10 and monotone
    verdict(
        "1",
        ok,
        f"|QMI(26) - I_th| = {report.qmi_dev:.2e} (<= 1e-12), "
        f"rho_A(26) dev = {rho_a_dev_26:.2e} (<= 1e-10), "
        f"ln QCMI monotone over last 10 points = {monotone}",
    )


def test_criterion_2_oracle_equivalence():
    cases = ("case1", "case2", "case3")
    worst_entropy, worst_spectrum, worst_isometry = 0.0, 0.0, 0.0
    for i in range(100):
        mps = build_instance(cases[i % 3], 3, 4, RandomStream(ACCEPT_SEED + 1, i))
        for n in range(1, 6):
            report = region_entropy(mps, n)
            brute = brute_force_density(mps, n)
            brute_spec = np.sort(np.clip(np.linalg.eigvalsh(brute), 0, None))[::-1]
            ent_dev = abs(report.entropy - brute_force_entropy(mps, n))
            m = report.eigenvalues.size
            spec_dev = float(np.abs(report.eigenvalues - brute_spec[:m]).max())
            spec_dev = max(spec_dev, float(np.abs(brute_spec[m:]).max(initial=0.0)))
            worst_entropy = max(worst_entropy, ent_dev)
            worst_spectrum = max(worst_spectrum, spec_dev)
            if n <= 4:
                sp = support_decomposition(mps.transfer, n)
                p = materialize_isometry(sp, mps.kraus, n)
                iso_dev = float(np.abs(p.conj().T @ p - np.eye(sp.support_dim)).max())
                worst_isometry = max(worst_isometry, iso_dev)
    ok = worst_entropy <= 1e-9 and worst_spectrum <= 1e-9 and worst_isometry <= 1e-10
    verdict(
        "2",
        ok,
        f"100 instances, n in 1..5: max entropy dev {worst_entropy:.2e} (<= 1e-9), "
        f"max spectrum dev {worst_spectrum:.2e} (<= 1e-9), "
        f"max ||P'P - I|| {worst_isometry:.2e} (<= 1e-10)",
    )


def test_criterion_3_strong_subadditivity(ensemble):
    lowest = min(v for rec in ensemble for _, v in rec.computed)
    n_vals = sum(len(rec.computed) for rec in ensemble)
    ok = lowest >= -1e-9
    verdict(
        "3",
        ok,
        f"{ENSEMBLE_N} instances, {n_vals} QCMI evaluations, min = {lowest:.2e} (>= -1e-9)",
    )


def test_criterion_4_decay_rate_statistics(ensemble):
    full = [rec.rate for rec in ensemble if rec.b_max == B_MAX_LIMIT and rec.rate is not None]
    assert full, "no instance retained the full |B| = 40 curve at this seed"
    frac = sum(1 for r in full if r >= 0.95) / len(full)
    ok = frac >= 0.60
    verdict(
        "4",
        ok,
        f"{len(full)} full-range instances, fraction with rate >= 0.95: {frac:.2f} (>= 0.60)"
        " [statistical, seed-pinned]",
    )


def _off_block_weight(vector: np.ndarray) -> float:
    """Norm of a transfer eigenvector, reshaped to a 4x4 operator on
    (first qubit) x (idle qubit), off the diagonal blocks of the first qubit."""
    op = vector.reshape(2, 2, 2, 2)  # (q, idle, q', idle')
    return float(np.linalg.norm(op[0, :, 1, :]) + np.linalg.norm(op[1, :, 0, :]))


def test_criterion_5_first_family():
    # Populations of the first qubit map as p0' = (1-beta) p0 + beta p1
    # (eigenvalues 1, 1-2*beta) and coherences as rho01 -> (1-beta) rho01, so
    # the spectrum is {1, 1-beta, 1-2*beta}.  Pin the population-sector split
    # |nu1| - |nu_pop| = 2*beta, taking nu_pop from the non-peripheral
    # eigenvectors with no coherence weight, and the leading gap
    # |nu1| - |nu2| = beta.
    pop_devs, gap_devs = [], []
    for beta in (0.1, 0.01):
        transfer = transfer_matrix(analytic_family("first", beta))
        values, vectors = transfer.spectrum.values, transfer.spectrum.vectors
        nu1 = abs(values[0])
        pop = [
            abs(values[k])
            for k in range(values.size)
            if k not in transfer.peripheral_indices and _off_block_weight(vectors[:, k]) <= 1e-8
        ]
        pop_devs.append(abs((nu1 - max(pop)) - 2 * beta) if pop else math.inf)
        mags = distinct_magnitudes(values)
        gap_devs.append(abs((mags[0] - mags[1]) - beta))
    ok = max(pop_devs) <= 1e-10 and max(gap_devs) <= 1e-10
    verdict(
        "5a",
        ok,
        f"first family |nu1|-|nu_pop| vs 2*beta, deviations {pop_devs[0]:.3e}, "
        f"{pop_devs[1]:.3e}; |nu1|-|nu2| vs beta, deviations {gap_devs[0]:.3e}, "
        f"{gap_devs[1]:.3e} (<= 1e-10)",
    )


def test_criterion_5_second_family():
    coeff = (math.sqrt(6) - 2) / math.sqrt(3)
    devs = []
    for beta in (1e-3, 1e-4):
        fam = analytic_family("second", beta)
        mags = distinct_magnitudes(transfer_matrix(fam).spectrum.values)
        devs.append(abs((mags[1] - mags[2]) - coeff * beta))
    ok = devs[0] <= 10 * 1e-3**2 and devs[1] <= 10 * 1e-4**2
    verdict(
        "5b",
        ok,
        f"second family ||nu2|-|nu3| - {coeff:.4f}*beta|: {devs[0]:.2e} (<= 1e-5), "
        f"{devs[1]:.2e} (<= 1e-7)",
    )


def test_criterion_6_eigensolver_fidelity():
    stats = gap_statistics(20_000, ACCEPT_SEED + 2)
    worst = stats.markers()["max_one_minus_nu1"]
    ok = worst <= 1e-12
    verdict("6", ok, f"2e4 Haar samples, max |1 - |nu1|| = {worst:.2e} (<= 1e-12)")


def test_criterion_7_bound_consistency(ensemble):
    violations = 0
    skipped = 0
    worst_margin = np.inf
    for rec in ensemble:
        try:
            constants = jordan_constants(rec.mps)
        except NearDegenerate:
            skipped += 1
            continue
        for b, v in rec.computed:
            bound = decay_bound(constants, b)
            worst_margin = min(worst_margin, bound / max(v, 1e-300))
            if bound < v:
                violations += 1
    err = qcmi_error_estimate(4, 1e-14, 1e-14)
    err_ok = 1e-13 <= err <= 1e-11
    ok = violations == 0 and err_ok
    verdict(
        "7",
        ok,
        f"bound >= measured at every scanned |B| ({violations} violations, "
        f"{skipped} skipped as near-degenerate, min bound/QCMI = {worst_margin:.1e}); "
        f"error estimate {err:.2e} within factor 10 of 1e-12: {err_ok}",
    )


def test_criterion_8_determinism(tmp_path):
    # identical config (including the output directory) run twice: every
    # produced file must be byte-identical across the runs
    pairs = []
    for name, args in (
        ("scan", ["scan", "--case", "1", "--seed", "17"]),
        ("spectrum", ["spectrum", "--case", "3", "--seed", "17"]),
        ("ensemble", ["ensemble", "--case", "1", "--n", "5", "--seed", "17", "--b-max", "16"]),
    ):
        out = tmp_path / name
        assert cli_main([*args, "--out", str(out)]) == 0
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        assert cli_main([*args, "--out", str(out)]) == 0
        for fname, blob in sorted(first.items()):
            pairs.append((f"{name}/{fname}", (out / fname).read_bytes() == blob))
    bad = [n for n, same in pairs if not same]
    verdict("8", not bad, f"{len(pairs)} output files byte-identical across reruns"
            + (f"; mismatches: {bad}" if bad else ""))
