"""End-to-end statistical guarantees, one test per numbered criterion.

Each test prints a single "[criterion NN] PASS/FAIL ..." line (visible
with ``pytest -s``) and then asserts, so the suite doubles as a checklist.
These are slower than the unit tests: the whole file takes a minute or two.
"""

import math

import numpy as np
import pytest
from scipy.special import gammainc

from mcoutput import (
    ChainMatrix,
    RngStream,
    batch_means_sigma,
    chi2_quantile,
    default_batch_size,
    ess,
    flat_top_sigma,
    hotelling_region,
    min_ess_cutoff,
    quantile_ci,
    rhat_from_ess,
    sample_cov_lambda,
)
from mcoutput.lcd_demo import (
    LAMBDA_PRIOR_RATE,
    LCD_FAILURE_HOURS,
    POSTERIOR_LAMBDA_SHAPE,
    gibbs_lambda,
    mh_beta,
    run_demo,
    sum_t_pow,
    weibull_mle_beta,
)
from oracles import Ar1Spec, generate_ar1, log_unnormalized_posterior


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_cutoff_reproduction():
    cutoff = min_ess_cutoff(0.05, 0.05, 2)
    ok = cutoff.rounded == 7529 and 7529.0 < cutoff.value < 7529.5
    _report(1, ok, f"min ESS cutoff value {cutoff.value!r} rounds to {cutoff.rounded}")


def test_criterion_02_univariate_closed_form():
    worst = 0.0
    for alpha in (0.01, 0.05, 0.1):
        for epsilon in (0.01, 0.05, 0.1):
            closed = 4.0 * chi2_quantile(1.0 - alpha, 1) / epsilon**2
            got = min_ess_cutoff(alpha, epsilon, 1).value
            worst = max(worst, abs(got / closed - 1.0))
    ok = worst < 1e-9
    _report(2, ok, f"p=1 cutoff vs 4*chi2/eps^2, worst rel err {worst:.3g}")


def test_criterion_03_ar1_oracle_suite():
    n = 100_000
    b = 316  # square-root batches: the rho=0.9 chain needs the low bias
    worst_sig = 0.0
    worst_ess = 0.0
    for ri, rho in enumerate((0.0, 0.3, 0.5, 0.9)):
        gamma0 = 1.0 / (1.0 - rho**2)
        sigma_truth = (1.0 + rho) / (1.0 - rho) * gamma0
        ess_truth = (1.0 - rho) / (1.0 + rho)
        sig_acc = 0.0
        ess_acc = 0.0
        for s in range(20):
            chain = ChainMatrix(
                _ar1_series(rho, n, RngStream(1000 + 100 * ri + s))
            )
            lam = sample_cov_lambda(chain)
            sig = batch_means_sigma(chain, b)
            sig_acc += float(sig.matrix[0, 0])
            ess_acc += ess(n, lam, sig) / n
        worst_sig = max(worst_sig, abs(sig_acc / 20.0 / sigma_truth - 1.0))
        worst_ess = max(worst_ess, abs(ess_acc / 20.0 / ess_truth - 1.0))
    ok = worst_sig < 0.15 and worst_ess < 0.15
    _report(
        3,
        ok,
        f"AR(1) grid, worst rel err: sigma {worst_sig:.3f}, "
        f"ess/n {worst_ess:.3f} (20 seeds, b={b})",
    )


def _ar1_series(rho, n, rng):
    return generate_ar1(Ar1Spec(rho=rho), n, rng).values[:, 0]


def test_criterion_04_hand_arithmetic():
    chain = ChainMatrix(np.array([1.0, 2.0, 3.0, 4.0]))
    bm = float(batch_means_sigma(chain, 2).matrix[0, 0])
    ft = float(flat_top_sigma(chain, 2).matrix[0, 0])
    lam = float(sample_cov_lambda(chain).matrix[0, 0])
    ok = bm == 4.0 and ft == pytest.approx(19.0 / 3.0, rel=1e-15) and lam == 1.25
    _report(4, ok, f"batch means {bm}, flat-top {ft}, target cov {lam}")


def test_criterion_05_region_coverage():
    n, reps = 4_000, 1_000
    b = default_batch_size(n)
    a = n // b
    q = a - 2
    hits = 0
    for s in range(reps):
        rng = RngStream(40_000 + s)
        chain = ChainMatrix(rng.normal(size=(n, 2)))
        sig = batch_means_sigma(chain, b)
        region = hotelling_region(
            chain.values.mean(axis=0), sig, n, 0.05, q
        )
        hits += region.contains([0.0, 0.0])
    rate = hits / reps
    ok = 0.93 <= rate <= 0.97
    _report(5, ok, f"95% region covered true mean in {rate:.3f} of {reps} runs")


def test_criterion_06_demo_reproduction():
    passes = 0
    ess_seen = []
    for seed in range(20):
        rep = run_demo(seed=seed)
        mttf, rel = rep.summary.mean
        mttf_ci = [qe.point for qe in rep.summary.quantiles[0]]
        rel_ci = [qe.point for qe in rep.summary.quantiles[1]]
        final_ess = rep.final.ess
        ess_seen.append(final_ess)
        seed_ok = (
            abs(mttf - 596.8) <= 5.0
            and abs(rel - 0.073) <= 0.005
            and abs(mttf_ci[0] - 434.0) <= 10.0
            and abs(mttf_ci[1] - 834.0) <= 10.0
            and abs(rel_ci[0] - 0.020) <= 0.01
            and abs(rel_ci[1] - 0.163) <= 0.01
            and rep.terminated
            and final_ess >= 7529.0
            and 9_000.0 <= final_ess <= 15_000.0
        )
        passes += seed_ok
    ok = passes >= 18
    _report(
        6,
        ok,
        f"demo bands held for {passes}/20 seeds, "
        f"terminal ESS range [{min(ess_seen):.0f}, {max(ess_seen):.0f}]",
    )


def test_criterion_07_weibull_mle():
    bhat = weibull_mle_beta(LCD_FAILURE_HOURS)
    ok = abs(bhat - 1.12) <= 0.01
    _report(7, ok, f"profile MLE beta {bhat:.4f}")


def test_criterion_08_stopping_rule_consistency():
    cutoff = min_ess_cutoff(0.05, 0.05, 2)
    threshold = rhat_from_ess(cutoff.value)
    grid = np.linspace(0.5 * cutoff.value, 2.0 * cutoff.value, 1_000)
    agree = all(
        (e >= cutoff.value) == (rhat_from_ess(float(e)) <= threshold)
        for e in grid
    )
    chain = ChainMatrix(_ar1_series(0.5, 20_000, RngStream(90)))
    base = ess(20_000, sample_cov_lambda(chain), batch_means_sigma(chain, 26))
    worst = 0.0
    for c in (1e-3, 1.0, 1e3):
        scaled = ChainMatrix(c * chain.values)
        e = ess(
            20_000, sample_cov_lambda(scaled), batch_means_sigma(scaled, 26)
        )
        worst = max(worst, abs(e / base - 1.0))
    ok = agree and worst < 1e-10
    _report(
        8,
        ok,
        f"rules agree on 1000-point grid: {agree}; "
        f"scale drift {worst:.2e} over c in {{1e-3, 1, 1e3}}",
    )


def test_criterion_09_quantile_clt():
    z = 1.95996
    covered = 0
    first_point = None
    for s in range(100):
        arr = RngStream(70_000 + s).normal(size=100_000)
        est = quantile_ci(arr, 0.975, 0.05, 316)
        if first_point is None:
            first_point = est.point
        covered += est.ci[0] <= z <= est.ci[1]
    ok = abs(first_point - z) <= 0.03 and covered >= 90
    _report(
        9,
        ok,
        f"0.975 quantile {first_point:.4f} (truth {z}), "
        f"CI covered in {covered}/100 runs",
    )


def test_criterion_10_kernel_fidelity():
    rate = LAMBDA_PRIOR_RATE + sum(LCD_FAILURE_HOURS)

    # exact-draw kernel: empirical CDF against the conjugate Gamma
    rng = RngStream(91)
    s_one = sum_t_pow(1.0)
    draws = np.sort([gibbs_lambda(s_one, rng) for _ in range(100_000)])
    cdf = gammainc(POSTERIOR_LAMBDA_SHAPE, rate * draws)
    n = draws.size
    upper = np.abs(np.arange(1, n + 1) / n - cdf).max()
    lower = np.abs(np.arange(0, n) / n - cdf).max()
    ks = max(upper, lower)

    # Metropolis kernel: long frozen-lambda run against the normalized
    # conditional density, compared bin probability by bin probability
    lam = POSTERIOR_LAMBDA_SHAPE / rate
    rng = RngStream(92)
    beta = 1.1
    s_cur = sum_t_pow(beta)
    betas = np.empty(1_000_000)
    for i in range(betas.size):
        beta, s_cur, _ = mh_beta(lam, beta, s_cur, 0.1, rng)
        betas[i] = beta
    edges = np.linspace(betas.min(), betas.max(), 41)
    counts, _ = np.histogram(betas, bins=edges)
    grid = np.linspace(edges[0], edges[-1], 8_001)
    log_dens = np.array([log_unnormalized_posterior(lam, float(g)) for g in grid])
    dens = np.exp(log_dens - log_dens.max())
    total = np.trapezoid(dens, grid)
    bin_prob = np.empty(40)
    for k in range(40):
        mask = (grid >= edges[k]) & (grid <= edges[k + 1])
        bin_prob[k] = np.trapezoid(dens[mask], grid[mask]) / total
    sup = np.abs(counts / betas.size - bin_prob).max()

    ok = ks < 0.01 and sup < 0.02
    _report(10, ok, f"Gamma-draw KS {ks:.4f}; Metropolis binned sup {sup:.4f}")
