"""End-to-end acceptance checks, one per shipped guarantee.

Each test measures one headline guarantee at its stated tolerance and
prints a single pass/fail line with the observed margin before
asserting, so a full run reads as a checklist.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from basishedge.engine import decompose
from basishedge.payoffs import call_claim, call_measure, power_claim
from basishedge.pde import DiffusionSpec, GridConfig, monte_carlo_representation, solve
from basishedge.simulation import (
    HedgeFold,
    MartingaleFold,
    MomentFold,
    PathStream,
    TradeoffFold,
    baseline_comparison,
    hedge_run,
    run_folds,
    simulate,
    tradeoff_check,
)

from oracles import GaussianJumps, generator_gap, lognormal_call, rk4_backward


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def merton_suite(merton_model, merton_call_x):
    """Full-scale validation battery on the jump model: one streamed pass, timed as a whole."""
    t0 = time.perf_counter()
    paths = PathStream(merton_model, 100_000, 250, seed=17)
    freqs = [(0.5 + u * 1j, 0.0) for u in (1.0, 3.7, 8.2, 14.9, 20.0)]
    folds = (
        HedgeFold(merton_call_x, paths),
        MartingaleFold(merton_model, paths, exponents=freqs),
        MomentFold(merton_model, paths),
        TradeoffFold(merton_model, paths),
    )
    run_folds(paths, *folds)
    run, mart, mom, trade = (fold.finish() for fold in folds)
    elapsed = time.perf_counter() - t0
    return {"run": run, "mart": mart, "mom": mom, "tradeoff": trade, "elapsed": elapsed}


@pytest.fixture(scope="module")
def bs_suite(bs_model, bs_call_x):
    ens = simulate(bs_model, 20_000, 125, seed=7)
    run = hedge_run(bs_call_x, ens)
    return {"ens": ens, "run": run}


def test_01_payoff_inversion_accuracy_and_speed():
    worst_ratio = 0.0
    slowest = 0.0
    for strike in (50.0, 100.0, 150.0):
        start = time.perf_counter()
        measure = call_measure(strike, abscissa=0.5)
        s = np.geomspace(strike / 4.0, 4.0 * strike, 50)
        got = measure.evaluate(np.ones_like(s), s)
        want = np.maximum(s - strike, 0.0) - s
        elapsed = time.perf_counter() - start
        err = float(np.max(np.abs(got - want)))
        worst_ratio = max(worst_ratio, err / (1e-6 * (1.0 + strike)))
        slowest = max(slowest, elapsed)
    ok = worst_ratio <= 1.0 and slowest < 1.0
    _report(
        1, "payoff-inversion", ok,
        f"worst error at {worst_ratio:.2e} of the 1e-6(1+K) budget, "
        f"slowest strike {slowest:.2f}s < 1s",
    )


def test_02_trivial_claim_replication(bs_model, merton_model):
    gap_surface = 0.0
    gap_paths_traded = 0.0
    gap_paths_const = 0.0
    ts = np.array([0.0, 0.4, 0.9])
    xs = np.array([80.0, 120.0])
    ss = np.array([90.0, 110.0])
    for model in (bs_model, merton_model):
        dec_s = decompose(model, power_claim(0.0, 1.0))
        dec_1 = decompose(model, power_claim(0.0, 0.0))
        for t in ts:
            for x in xs:
                for s in ss:
                    y, z = dec_s.value_and_hedge(t, x, s)
                    gap_surface = max(
                        gap_surface, abs(complex(y) - s) / s, abs(complex(z) - 1.0)
                    )
                    y, z = dec_1.value_and_hedge(t, x, s)
                    gap_surface = max(
                        gap_surface, abs(complex(y) - 1.0), abs(complex(z))
                    )
        ens = simulate(model, 2000, 25, seed=1)
        run_s = hedge_run(dec_s, ens)
        run_1 = hedge_run(dec_1, ens)
        gap_paths_traded = max(gap_paths_traded, float(np.max(np.abs(run_s.residuals))))
        gap_paths_const = max(gap_paths_const, float(np.max(np.abs(run_1.residuals))))
    ok = gap_surface <= 1e-10 and gap_paths_traded <= 1e-8 * 100.0 and gap_paths_const <= 1e-12
    _report(
        2, "trivial-claim-replication", ok,
        f"(y,z) off by {gap_surface:.1e} <= 1e-10; pathwise residuals "
        f"{gap_paths_traded:.1e} (traded) / {gap_paths_const:.1e} (constant)",
    )


def test_03_propagation_matches_backward_ode(merton_model):
    rng = np.random.default_rng(42)
    model = merton_model
    T = model.horizon
    worst = 0.0
    terminal_exact = True
    for u in rng.uniform(0.0, 20.0, size=10):
        z1, z2 = 0.5 + u * 1j, 0.0
        eta = model.eta_rate(z1, z2)
        ode = rk4_backward(lambda t: -eta, 0.0, T, 4000)
        closed = complex(model.lambda_coeff(0.0, z1, z2))
        worst = max(worst, abs(closed - ode) / abs(closed))
        terminal_exact &= complex(model.lambda_coeff(T, z1, z2)) == 1.0 + 0.0j
    ok = worst <= 1e-7 and terminal_exact
    _report(
        3, "propagation-ode-consistency", ok,
        f"worst relative gap {worst:.1e} <= 1e-7 over 10 contour frequencies; "
        f"terminal value exactly one: {terminal_exact}",
    )


def test_04_traded_call_closed_form(bs_model):
    start = time.perf_counter()
    dec = decompose(bs_model, call_claim(100.0, axis=2))
    elapsed = time.perf_counter() - start
    want = lognormal_call(100.0, 100.0, float(bs_model.covariance[1, 1]) * bs_model.horizon)
    rel = abs(dec.h0 - want) / want
    ok = rel <= 1e-5 and elapsed < 5.0
    _report(
        4, "traded-call-closed-form", ok,
        f"relative gap {rel:.1e} <= 1e-5 against the zero-drift lognormal value, "
        f"{elapsed:.2f}s < 5s",
    )


def test_05_three_route_agreement(bs_model, bs_call_x):
    claim = call_claim(100.0, axis=1)
    spec = DiffusionSpec.from_additive(bs_model)
    sol = solve(spec, claim, GridConfig(nx=201, ns=201, nt=21))
    h0_f = bs_call_x.h0
    h0_mc, se = monte_carlo_representation(
        spec, claim, 0.0, 100.0, 100.0, n_paths=400_000, seed=5
    )
    lim_mc = max(1e-2, 3.0 * se)
    pair_gaps = (
        (abs(h0_f - sol.h0), 1e-2),
        (abs(h0_f - h0_mc), lim_mc),
        (abs(sol.h0 - h0_mc), lim_mc),
    )
    ok = all(g <= lim for g, lim in pair_gaps)

    T = bs_model.horizon
    half_x = 2.0 * math.sqrt(float(bs_model.covariance[0, 0]) * T)
    half_s = 2.0 * math.sqrt(float(bs_model.covariance[1, 1]) * T)
    ix = np.abs(np.log(sol.x / 100.0)) <= half_x
    isl = np.abs(np.log(sol.s / 100.0)) <= half_s
    xs, ss = sol.x[ix], sol.s[isl]
    gap_y = gap_z = 0.0
    for k, t in enumerate(sol.times):
        if t > 0.9 * T:
            continue
        yf, zf = bs_call_x.hedge_surface([t], xs, ss)
        yp = sol.y[k][np.ix_(ix, isl)]
        zp = sol.z[k][np.ix_(ix, isl)]
        gap_y = max(gap_y, float(np.max(np.abs(yp - yf[0]) / np.maximum(np.abs(yf[0]), 1.0))))
        gap_z = max(gap_z, float(np.max(np.abs(zp - zf[0]) / np.maximum(np.abs(zf[0]), 0.05))))
    ok = ok and gap_y <= 2e-2 and gap_z <= 2e-2
    _report(
        5, "three-route-agreement", ok,
        f"h0 gaps f-p {pair_gaps[0][0]:.1e}, f-mc {pair_gaps[1][0]:.1e}, "
        f"p-mc {pair_gaps[2][0]:.1e} within max(1e-2, 3se); interior surface "
        f"gaps y {gap_y:.1e}, z {gap_z:.1e} <= 2e-2",
    )


def test_06_orthogonality_and_martingale_suite(merton_suite):
    run = merton_suite["run"]
    mart_t = merton_suite["mart"]["max_tstat"]
    mom_t = merton_suite["mom"]["max_tstat"]
    elapsed = merton_suite["elapsed"]
    ok = (
        abs(run.residual_mean) <= 3.0 * run.residual_stderr
        and abs(run.orthogonality_corr) < 0.02
        and mart_t < 3.0
        and mom_t <= 3.0
        and elapsed < 60.0
    )
    _report(
        6, "orthogonality-martingale-suite", ok,
        f"residual t {run.residual_tstat:.2f} <= 3; corr "
        f"{run.orthogonality_corr:.1e} < 0.02; propagated-power t {mart_t:.2f} < 3; "
        f"normalized-exponential t {mom_t:.2f} <= 3; {elapsed:.0f}s < 60s",
    )


def test_07_tradeoff_closed_form(bs_model, bs_suite, merton_suite):
    out_bs = tradeoff_check(bs_model, bs_suite["ens"])
    out_mj = merton_suite["tradeoff"]
    ok = out_bs["rel_error"] <= 0.05 and out_mj["rel_error"] <= 0.10
    _report(
        7, "mean-variance-tradeoff", ok,
        f"realized vs analytic off by {out_bs['rel_error']:.1%} <= 5% (diffusion) "
        f"and {out_mj['rel_error']:.1%} <= 10% (jumps)",
    )


def test_08_generator_on_square():
    marginal = GaussianJumps(intensity=1.1, mean=0.6, std=0.45)
    lam, m, sd = marginal.intensity, marginal.mean, marginal.std
    small, _ = integrate.quad(
        lambda y: y * stats.norm.pdf(y, loc=m, scale=sd), -1.0, 1.0
    )
    c1 = lam * (m - small)
    c2 = lam * (m * m + sd * sd)
    worst = 0.0
    for s in np.linspace(0.5, 5.0, 10):
        chk = generator_gap(
            marginal, lambda v: v**2, lambda v: 2.0 * v, float(s), dt=1e-3
        )
        want = 2.0 * float(s) * c1 + c2
        worst = max(worst, abs(chk.finite_difference - want) / abs(want))
    ok = worst <= 0.01
    _report(
        8, "generator-on-square", ok,
        f"finite-difference generator off by {worst:.2%} <= 1% at 10 points",
    )


def test_09_baseline_dominance(bs_call_x, bs_suite):
    out = baseline_comparison(bs_call_x, bs_suite["ens"], bs_suite["run"])
    margin_naive = 2.0 * math.hypot(
        out["fs_variance_stderr"], out["naive_delta_variance_stderr"]
    )
    margin_none = 2.0 * math.hypot(
        out["fs_variance_stderr"], out["no_hedge_variance_stderr"]
    )
    ok = (
        out["fs_variance"] <= out["naive_delta_variance"] - margin_naive
        and out["fs_variance"] <= out["no_hedge_variance"] - margin_none
    )
    _report(
        9, "baseline-dominance", ok,
        f"residual variance {out['fs_variance']:.1f} <= naive "
        f"{out['naive_delta_variance']:.1f} - {margin_naive:.1f} and no-hedge "
        f"{out['no_hedge_variance']:.1f} - {margin_none:.1f}",
    )
