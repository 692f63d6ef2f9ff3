"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 1 is marked as a strict expected failure: its reference
tridiagonal target matrix is inconsistent with the generating matrix it is
paired with, in exactly the (1,1) entry (1 instead of 1 + phi^2); the
companion check pins the inverse the construction actually forces.
"""

import time

import numpy as np
import pytest
from scipy import stats

from tailgraph import (
    Partition,
    TailSample,
    ar1_matrix,
    conditional_ipm,
    construct,
    coverage_study,
    estimate_sigma_u,
    estimate_tau2,
    estimate_tpdm,
    invert_ipm,
    project_onto_span,
    ptc,
    ptc_from_inverse,
    residuals,
    sample_noise,
    size_power_study,
    softplus_inv,
    solve_b,
    solve_delta,
    t_statistic,
    theoretical_ipm,
    theoretical_tpdm,
)
from tailgraph.cli import read_csv_matrix
from tailgraph.graphx import graph_from_stats
from conftest import DATA_DIR, edge_set, random_spd

PHIS = (0.3, 0.5, 0.7, 0.9)


def announce(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status}  {detail}")
    return ok


def stated_target_matrix(phi):
    """Reference tridiagonal target as given, with 1 in the corner entry."""
    return np.array([
        [1.0, -phi, 0, 0],
        [-phi, 1 + phi ** 2, -phi, 0],
        [0, -phi, 1 + phi ** 2, -phi],
        [0, 0, -phi, 1.0],
    ])


@pytest.mark.xfail(strict=True, reason=(
    "stated target matrix is inconsistent with the generating construction: "
    "the (1,1) entry of the true inverse is 1 + phi^2, not 1"))
def test_criterion_1_inverse_ipm_as_stated():
    start = time.perf_counter()
    worst = 0.0
    for phi in PHIS:
        Q = invert_ipm(theoretical_ipm(ar1_matrix(phi, 4))).entries
        worst = max(worst, np.abs(Q - stated_target_matrix(phi)).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    announce(1, ok, f"max dev from stated matrix {worst:.3e} (defect documented), {elapsed:.2f}s")
    assert ok


def test_criterion_1_companion_construction_forced_inverse():
    # the inverse forced by Gamma = A A' (bidiagonal factor argument):
    # corner entries (1+phi^2, ..., 1), off-diagonal -phi
    start = time.perf_counter()
    worst = 0.0
    for phi in PHIS:
        expected = stated_target_matrix(phi)
        expected[0, 0] = 1 + phi ** 2
        Q = invert_ipm(theoretical_ipm(ar1_matrix(phi, 4))).entries
        worst = max(worst, np.abs(Q - expected).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    assert announce("1b", ok, f"max dev from forced inverse {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_optimal_weights():
    start = time.perf_counter()
    worst = 0.0
    for phi in PHIS:
        b = solve_b(theoretical_ipm(ar1_matrix(phi, 4)), Partition.single(3, 4))
        worst = max(worst, np.abs(b - np.array([0.0, 0.0, phi])).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    assert announce(2, ok, f"max |b - (0,0,phi)| = {worst:.3e}, {elapsed:.2f}s")


def test_criterion_3_ptc_dual_path():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(1000):
        p = 3 + trial % 6
        G = random_spd(rng, p)
        Ginv = invert_ipm(G).entries
        i, j = rng.choice(p, size=2, replace=False)
        dev = abs(ptc(G, int(i), int(j)) - ptc_from_inverse(Ginv, int(i), int(j)))
        worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    assert announce(3, ok, f"max |ptc - ptc_from_inverse| = {worst:.3e} over 1000 draws, {elapsed:.1f}s")


def test_criterion_4_projection_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_orth = worst_recon = worst_lin = worst_lsq = 0.0
    for _ in range(500):
        m, q = int(rng.integers(2, 5)), int(rng.integers(5, 9))
        A2 = rng.normal(size=(m, q)) * rng.uniform(0.5, 3)
        x = rng.normal(size=q) * rng.uniform(0.5, 3)
        proj, resid = project_onto_span(x, A2)
        worst_orth = max(worst_orth, np.abs(A2 @ resid).max())
        worst_recon = max(worst_recon, np.abs(proj + resid - x).max())
        coef, *_ = np.linalg.lstsq(A2.T, x, rcond=None)
        worst_lsq = max(worst_lsq, np.abs(proj - coef @ A2).max())
        y = rng.normal(size=q)
        a, b = rng.normal(size=2)
        pz, _ = project_onto_span(a * x + b * y, A2)
        px, _ = project_onto_span(x, A2)
        py, _ = project_onto_span(y, A2)
        worst_lin = max(worst_lin, np.abs(pz - (a * px + b * py)).max())
    elapsed = time.perf_counter() - start
    ok = (worst_orth < 1e-10 and worst_recon < 1e-12 and worst_lin < 1e-10
          and worst_lsq < 1e-9 and elapsed < 10.0)
    assert announce(4, ok, f"orth {worst_orth:.1e}, recon {worst_recon:.1e}, "
                           f"lin {worst_lin:.1e}, lsq {worst_lsq:.1e}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def coverage_run():
    return coverage_study(phi=0.7, n=10_000, reps=500, q_radial=0.98,
                          level=0.95, seed=0)


def test_criterion_5_coverage(coverage_run):
    ok = 0.92 <= coverage_run.coverage <= 0.98 and coverage_run.failed == 0
    assert announce(5, ok, f"coverage {coverage_run.coverage:.3f} over 500 replications")


def test_criterion_6_estimator_agreement(coverage_run):
    diff = np.abs(coverage_run.partition_estimates - coverage_run.residual_estimates)
    ok = float(diff.mean()) < 0.05
    assert announce(6, ok, f"mean |partition - residual| = {diff.mean():.4f}")


def test_criterion_7_tpdm_consistency():
    A = ar1_matrix(0.7, 4)
    target = theoretical_tpdm(A).entries
    m_true = float(np.trace(target))

    def run(n, seed_base, mass):
        errs = []
        for s in range(100):
            X = construct(A, sample_noise(4, n, seed=seed_base + s))
            S = estimate_tpdm(TailSample(X), 0.98, mode="global", mass=mass)
            errs.append(np.abs(S.entries - target).max())
        return float(np.median(errs))

    med5 = run(10 ** 5, 1000, m_true)
    med4 = run(10 ** 4, 5000, m_true)
    ok = med5 < 0.15 and med5 < med4
    # estimated total mass converges more slowly (radial scale enters at
    # first order); report it alongside the gate
    med5_est = run(10 ** 5, 1000, "estimate")
    med4_est = run(10 ** 4, 5000, "estimate")
    assert med5_est < med4_est
    assert announce(7, ok, f"median max-entry error {med5:.4f} (n=1e5) vs {med4:.4f} (n=1e4); "
                           f"estimated-mass variant {med5_est:.4f} vs {med4_est:.4f}")


def test_criterion_8_delta_reproduction():
    delta = solve_delta()
    rng = np.random.default_rng(17)
    x = 1.0 / np.sqrt(1.0 - rng.random(10 ** 6)) - delta
    mc_mean = float(np.mean(softplus_inv(x)))
    ok = abs(delta - 0.9352) < 5e-4 and abs(mc_mean) < 3e-3
    assert announce(8, ok, f"delta {delta:.6f}, Monte Carlo preimage mean {mc_mean:+.5f}")


def test_criterion_9_reference_table_fixtures():
    import os

    cols5, T5 = read_csv_matrix(os.path.join(DATA_DIR, "no2_tstats.csv"))
    g5 = graph_from_stats(T5, cols5, 4.797)
    five_ok = edge_set(g5) == {(0, 4), (1, 2), (1, 3), (3, 4)}

    cols10, T10 = read_csv_matrix(os.path.join(DATA_DIR, "danube_tstats.csv"))
    g10 = graph_from_stats(T10, cols10, 5.847)
    chain = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (7, 8), (8, 9)}
    ten_ok = edge_set(g10) == chain

    ok = five_ok and ten_ok
    assert announce(9, ok, f"5-station edges {sorted(edge_set(g5))}; "
                           f"10-station edge count {len(g10.edges)}")


def test_criterion_10_size_and_power():
    seeds = 200
    rejections, _, failures = size_power_study(phi=0.7, n=10 ** 4, reps=seeds, p=4,
                                               q_radial=0.98, q_pred=0.98,
                                               cv_method="bonferroni", alpha=0.05, seed=123000)
    rates = {pair: count / seeds for pair, count in rejections.items()}
    power = {k: rates[k] for k in [(0, 1), (1, 2), (2, 3)]}
    size = {k: rates[k] for k in [(0, 2), (1, 3), (0, 3)]}
    ok = (all(v >= 0.80 for v in power.values()) and all(v <= 0.10 for v in size.values())
          and not failures)
    assert announce(10, ok, f"adjacent rejection rates {power}; lag>=2 rates {size}")


def test_criterion_11_null_t_distribution():
    A = ar1_matrix(0.7, 4)
    n = 30_000
    q = 1.0 - 200.0 / n
    part = Partition.pair(1, 3, 4)
    ts, ks = [], []
    for s in range(500):
        X = construct(A, sample_noise(4, n, seed=37000 + s))
        sample = TailSample(X)
        S = estimate_tpdm(sample, 0.98, mode="global", mass="estimate")
        b = solve_b(S, part)
        cond = conditional_ipm(S, part)
        res = residuals(sample, part, b, q_pred=q, m_trace=float(np.trace(cond)))
        sigma_u, m_tilde, k = estimate_sigma_u(res, mass="trace")
        ts.append(t_statistic(sigma_u, estimate_tau2(res, m_tilde), k))
        ks.append(k)
    df = int(np.median(ks)) - 1
    pval = float(stats.kstest(np.asarray(ts), "t", args=(df,)).pvalue)
    ok = pval >= 0.01
    assert announce(11, ok, f"KS p-value {pval:.4f} against t(df={df}) over 500 seeds")
