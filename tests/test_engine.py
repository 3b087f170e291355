"""Value/hedge surfaces against lognormal closed forms and identities."""

import gc
import warnings
import weakref
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st
from scipy.stats import norm

import oracles
from basishedge import engine, payoffs
from basishedge.config import load_config
from basishedge.engine import HedgeDecomposition, decompose
from basishedge.errors import AssumptionError, ConvergenceError, DomainError
from basishedge.models import AdditiveModel, PiecewiseAdditiveModel, vols_to_covariance
from basishedge.payoffs import (
    PayoffMeasure,
    call_claim,
    call_measure,
    power_claim,
    put_claim,
    put_measure,
)


def _basis_call_closed_form(model, strike, t, x, s):
    """Reference value/hedge for a call on the non-traded asset.

    Under the hedging measure X grows at rate B = psi_x - (c12/c22)psi_s,
    stays lognormal with variance c11*tau, and the hedge passes through
    the covariance ratio.
    """
    c = model.covariance
    tau = model.horizon - t
    psi_s = complex(model.psi(0.0, 1.0)).real
    growth = complex(model.psi(1.0, 0.0)).real - (c[0, 1] / c[1, 1]) * psi_s
    fwd = x * np.exp(growth * tau)
    total_var = c[0, 0] * tau
    value = oracles.lognormal_call(fwd, strike, total_var)
    sd = np.sqrt(total_var)
    d1 = (np.log(fwd / strike) + 0.5 * total_var) / sd
    hedge = (c[0, 1] / c[1, 1]) * fwd * norm.cdf(d1) / s
    return value, hedge


def test_traded_call_is_driftless_lognormal(bs_model):
    dec = decompose(bs_model, call_claim(100.0, axis=2))
    c22 = bs_model.covariance[1, 1]
    want = oracles.lognormal_call(100.0, 100.0, c22 * 1.0)
    assert abs(dec.h0 - want) <= 1e-10 * want
    # interior point: forward stays at s, hedge is the lognormal delta
    t, s = 0.35, 117.0
    tau = bs_model.horizon - t
    got = dec.value(t, 88.0, s)
    assert abs(got - oracles.lognormal_call(s, 100.0, c22 * tau)) <= 1e-9 * s
    sd = np.sqrt(c22 * tau)
    d1 = (np.log(s / 100.0) + 0.5 * c22 * tau) / sd
    assert abs(dec.hedge(t, 88.0, s) - norm.cdf(d1)) <= 1e-9


def test_basis_call_matches_adjusted_lognormal(bs_call_x, bs_model):
    want0, _ = _basis_call_closed_form(bs_model, 100.0, 0.0, 100.0, 100.0)
    assert abs(bs_call_x.h0 - want0) <= 1e-9 * want0
    for t, x, s in [(0.0, 100.0, 100.0), (0.4, 80.0, 123.0), (0.93, 131.0, 77.0)]:
        vw, hw = _basis_call_closed_form(bs_model, 100.0, t, x, s)
        v, h = bs_call_x.value_and_hedge(t, x, s)
        assert abs(v - vw) <= 1e-9 * (1.0 + abs(vw))
        assert abs(h - hw) <= 1e-9 * (1.0 + abs(hw))


def test_basis_call_initial_capital_pinned(bs_call_x):
    # correlated lognormal benchmark: 30%/25% vols, correlation 0.8,
    # at-the-money unit-horizon call on the non-traded leg
    assert abs(bs_call_x.h0 - 13.2245726163) < 1e-6


def test_trivial_claims_have_exact_decompositions(any_model_dec):
    model, dec_s, dec_1 = any_model_dec
    t, x, s = 0.3, 92.0, 108.0
    v, h = dec_s.value_and_hedge(t, x, s)
    assert abs(v - s) <= 1e-10 * s
    assert abs(h - 1.0) <= 1e-10
    v, h = dec_1.value_and_hedge(t, x, s)
    assert abs(v - 1.0) <= 1e-12
    assert abs(h) <= 1e-12


@pytest.fixture(params=["bs_model", "merton_model"])
def any_model_dec(request):
    model = request.getfixturevalue(request.param)
    return (
        model,
        decompose(model, power_claim(0.0, 1.0)),
        decompose(model, power_claim(0.0, 0.0)),
    )


def test_terminal_surface_reproduces_payoff(merton_call_x):
    x = np.array([25.0, 84.0, 100.0, 129.0, 397.0])
    got = merton_call_x.value(merton_call_x.model.horizon, x, np.full_like(x, 100.0))
    want = np.maximum(x - 100.0, 0.0)
    # the residues leave the rounding of the unit atom: 1.13e-15 * 101 measured
    assert np.max(np.abs(got - want)) <= 1e-14 * 101.0


def test_put_decomposition_prices_under_jumps(merton_model):
    # terminal reproduction plus parity of initial capitals: the claim
    # (x - K)^+ - (K - x)^+ = x - K must price to forward minus strike
    dec_put = decompose(merton_model, put_claim(90.0, axis=1))
    x = np.array([40.0, 90.0, 260.0])
    got = dec_put.value(merton_model.horizon, x, np.full_like(x, 100.0))
    # the residues of a line left of both poles are the put itself
    assert np.array_equal(got, np.maximum(90.0 - x, 0.0))
    dec_call = decompose(merton_model, call_claim(90.0, axis=1))
    fwd = oracles.adjusted_forward(merton_model, 1)
    assert abs((dec_call.h0 - dec_put.h0) - (fwd - 90.0)) <= 1e-6 * 91.0


def test_joint_and_separate_evaluation_agree(merton_call_x):
    t, x, s = 0.2, 111.0, 94.0
    v, h = merton_call_x.value_and_hedge(t, x, s)
    assert abs(v - merton_call_x.value(t, x, s)) <= 1e-7 * (1.0 + abs(v))
    assert abs(h - merton_call_x.hedge(t, x, s)) <= 1e-7 * (1.0 + abs(h))


def test_hedge_surface_matches_pointwise(bs_call_x):
    times = np.array([0.0, 0.5])
    xs = np.array([80.0, 100.0, 125.0])
    ss = np.array([90.0, 110.0])
    y, z = bs_call_x.hedge_surface(times, xs, ss)
    assert y.shape == z.shape == (2, 3, 2)
    for (i, t), (j, xv), (k, sv) in [
        ((0, 0.0), (1, 100.0), (0, 90.0)),
        ((1, 0.5), (2, 125.0), (1, 110.0)),
    ]:
        vv, hh = bs_call_x.value_and_hedge(t, xv, sv)
        assert abs(y[i, j, k] - vv) <= 1e-6 * (1.0 + abs(vv))
        assert abs(z[i, j, k] - hh) <= 1e-6 * (1.0 + abs(hh))


@pytest.mark.parametrize("point", [(0.37, 104.0, 91.0), (0.7, 95.0, 112.0)])
def test_value_surface_solves_pricing_equation(merton_call_x, point):
    # d/dt y + (generator y) - psi(0,1) * s * hedge = 0, with the generator
    # applied to the value surface by an independent oracle
    t, x, s = point
    dec = merton_call_x
    h = 1e-4
    dy_dt = (dec.value(t + h, x, s) - dec.value(t - h, x, s)) / (2.0 * h)
    gen = oracles.generator_fd(dec, t, x, s)
    mu = dec.model.traded_growth_rate
    resid = dy_dt + gen - mu * s * dec.hedge(t, x, s)
    assert abs(resid) <= 2e-5 * max(1.0, abs(gen))


def test_assumption_report_names_all_checks(bs_call_x):
    assert set(bs_call_x.assumptions) == {
        "strictly-increasing-bracket",
        "integrable-claim-transform",
        "cumulant-domain-contains-support",
        "bounded-cumulant-derivative",
    }
    assert bs_call_x.assumptions["strictly-increasing-bracket"] > 0.0


def test_non_integrable_transform_is_rejected(bs_model):
    bad = call_measure(100.0, axis=2) * float("inf")
    with pytest.raises(AssumptionError, match="integrable-claim-transform"):
        decompose(bs_model, bad)


def test_uncontrolled_tail_without_claim_spread_is_rejected():
    # no diffusion and no jump variance in the claim coordinate: the
    # propagation factor never decays along the contour, so the cutoff
    # error cannot be certified
    model = AdditiveModel(
        drift=[0.01, 0.0],
        covariance=[[0.0, 0.0], [0.0, 0.04]],
        horizon=1.0,
        spot=[100.0, 100.0],
        jump_intensity=0.5,
        jump_mean=[-0.1, 0.0],
    )
    with pytest.raises(ConvergenceError, match="tail of line"):
        decompose(model, call_claim(100.0, axis=1))


def _still_x():
    """A diffusion that leaves X at its spot: no spread in the claim coordinate."""
    return AdditiveModel(drift=[0.0, 0.0], covariance=[[0.0, 0.0], [0.0, 0.04]],
                         horizon=1.0, spot=[100.0, 100.0])


def test_uncontrolled_tail_names_its_cause():
    # with diffusion in the claim coordinate the plan runs out of
    # extensions only this close to maturity
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "hulley_mcwalter.json"))
    dec = decompose(cfg.model, cfg.measure)
    with pytest.raises(ConvergenceError, match=r"at T - t = 1e-07 \(bound .*\): at 64 times the "
                       "nominal truncation it is still above the floor 1.01e-07: too little "
                       "claim-coordinate spread is left before maturity"):
        dec.value_and_hedge(1.0 - 1e-7, 100.0, 100.0)
    # without spread in the claim coordinate no time is close enough
    with pytest.raises(ConvergenceError, match=r"at T - t = 1 \(bound 2.49e-03\): the model has "
                       "no diffusion or jump spread in the claim coordinate") as err:
        decompose(_still_x(), call_claim(100.0, axis=1))
    assert err.value.residual == pytest.approx(2.5e-3, rel=0.01)


@pytest.mark.parametrize("tau", [1e-3, 1e-5, 1e-8, 1e-9, 1e-10, 1e-12])
def test_near_maturity_a_value_is_right_or_raises(tau):
    # the call on X of the shipped Black-Scholes config at the strike: X is
    # lognormal under the hedging measure, with its adjusted growth rate
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "hulley_mcwalter.json"))
    model, strike = cfg.model, 100.0
    dec = decompose(model, cfg.measure)
    T = model.horizon
    growth = np.log(oracles.adjusted_forward(model, 1) / model.spot[0]) / T
    try:
        got = dec.value_and_hedge(T - tau * T, strike, 100.0)[0]
    except ConvergenceError:
        pass
    else:
        want = oracles.lognormal_call(strike * np.exp(growth * tau * T), strike,
                                      model.covariance[0, 0] * tau * T)
        assert abs(got - want) <= 1e-8 * (1.0 + strike), f"{got} against {want}"
    # at maturity the value is the payoff
    assert abs(dec.value(T, strike, 100.0) - cfg.measure.payoff(strike, 100.0)) <= 1e-8 * (
        1.0 + strike)


def _merton_without_claim_spread():
    """The model of configs/merton_validation.json with jump_vol_x 0: each
    jump moves X by the factor exp(-0.05) exactly."""
    return AdditiveModel.merton(
        log_drift=[0.03, 0.025], vol_x=0.25, vol_s=0.2, corr=0.6,
        jump_intensity=0.7, jump_mean=[-0.05, -0.04], jump_vol_x=0.0,
        jump_vol_s=0.1, jump_corr=0.5, horizon=1.0, spot=[100.0, 100.0],
    )


@pytest.mark.parametrize(
    "claim, spread",
    [(call_claim(100.0, axis=1), False), (put_claim(100.0, axis=1), False),
     (call_claim(100.0, axis=1), True), (put_claim(100.0, axis=1), True)],
    ids=["call", "put", "call-claim-spread", "put-claim-spread"],
)
def test_terminal_hedge_keeps_the_tail_of_an_oscillating_gamma(merton_model, claim, spread):
    # along the line gamma = g0 + g1 z + amp exp(rate z) + r(z); the hedge at
    # T takes the affine part from the residues, and r, which is 0 unless the
    # jumps spread the claim coordinate, by quadrature: either way it must
    # meet the hedge just before T
    model = merton_model if spread else _merton_without_claim_spread()
    dec = decompose(model, claim)
    x = np.array([80.0, 90.0, 95.0, 99.0, 101.0, 105.0, 110.0, 120.0])
    T = model.horizon
    gap = np.abs(dec.hedge(T, x, 99.0) - dec.hedge(T - 1e-5, x, 99.0))
    if spread:
        # measured at most 1.4e-6 where |log(x/K)| > 0.1 and 2.6e-6 nearer
        # the strike, with or without the residues
        assert gap.max() <= 5e-6
        assert gap[[0, 1, 7]].max() <= 2e-6
        return
    # a jump takes x in (100, 105.1) across the strike, with probability
    # 0.7 * 1e-5 in the time left: that much time value remains there
    assert gap.max() <= 1e-4
    assert gap[[0, 1, 6, 7]].max() <= 2e-7


@pytest.mark.parametrize("model_name, spread", [("bs_model", False), ("still-jumps", False),
                                               ("merton_model", True)])
def test_the_hedge_at_maturity_integrates_only_a_residual_that_is_not_zero(
        request, monkeypatch, model_name, spread):
    # gamma equals its asymptote unless the jumps spread the claim coordinate:
    # only then is there a residual to integrate at T
    model = (_merton_without_claim_spread() if model_name == "still-jumps"
             else request.getfixturevalue(model_name))
    dec = decompose(model, call_claim(97.0, axis=1))
    calls = []
    refine = engine.refine_line

    def counted(*args):
        calls.append(args)
        return refine(*args)

    monkeypatch.setattr(engine, "refine_line", counted)
    y, z = dec.value_and_hedge(model.horizon, np.array([90.0, 97.0, 104.0]), 99.0)
    assert bool(calls) == spread
    assert np.isfinite(z).all()


@pytest.mark.parametrize("axis", [1, 2])
@pytest.mark.parametrize("model_name", ["bs_model", "still-jumps"])
def test_complex_weight_scales_value_and_hedge(request, model_name, axis):
    # a complex weight leaves a line without conjugate symmetry: it is
    # integrated over the whole of u and, at maturity, taken whole from the
    # residues, the hedge's at the strike included
    model = (_merton_without_claim_spread() if model_name == "still-jumps"
             else request.getfixturevalue(model_name))
    w = 1 + 2j
    claim = call_measure(100.0, axis=axis)
    plain, weighted = decompose(model, claim), decompose(model, claim * w)
    v = np.array([60.0, 95.0, 100.0, 104.0, 150.0])
    for t in (0.5, model.horizon):
        for want, got in zip(plain.value_and_hedge(t, v, v[::-1]),
                             weighted.value_and_hedge(t, v, v[::-1])):
            assert np.max(np.abs(got - w * want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_evaluation_domain_guards(bs_call_x):
    with pytest.raises(DomainError, match="time"):
        bs_call_x.value(-0.1, 100.0, 100.0)
    with pytest.raises(DomainError, match="time"):
        bs_call_x.value(1.6, 100.0, 100.0)
    with pytest.raises(DomainError, match="positive"):
        bs_call_x.value(0.5, -3.0, 100.0)


@pytest.mark.parametrize("t", [-0.1, 1.6, np.nan])
def test_every_entry_point_checks_the_time(bs_call_x, t):
    x, s = np.array([90.0, 110.0]), np.array([100.0, 100.0])
    entry_points = [bs_call_x.value, bs_call_x.hedge, bs_call_x.value_and_hedge,
                    bs_call_x.hedge_surface,
                    lambda t, x, s: bs_call_x._broadcast(t, x, s, True, 33)]
    for evaluate in entry_points:
        with pytest.raises(DomainError, match="time must lie"):
            evaluate(t, x, s)


def test_path_slice_checks_the_prices(bs_call_x):
    # an underflowed path price is refused, not taken through log(0), and a
    # NaN price is refused too, by pointwise evaluation and the grid alike
    with pytest.raises(DomainError, match="strictly positive"):
        bs_call_x._broadcast(0.5, np.array([90.0, 0.0]), np.array([100.0, 100.0]), True, 33)
    x, s = np.array([90.0, 110.0]), np.array([100.0, 100.0])
    for bad in ((np.array([90.0, np.nan]), s), (x, np.array([np.nan, 100.0]))):
        for evaluate in (bs_call_x.value_and_hedge,
                         lambda t, x, s: bs_call_x._broadcast(t, x, s, True, 33)):
            with pytest.raises(DomainError, match="strictly positive"):
                evaluate(0.5, *bad)


def test_quadrature_report(merton_call_x):
    rep = merton_call_x.quadrature_report()
    assert rep["h0_im_residual"] <= 1e-8
    assert rep["settings"]["panel_budget"] >= 32
    assert len(rep["lines"]) == len(merton_call_x.measure.lines)
    # the report gives the multiple the plan picked: h0 alone needs under 1
    fresh = decompose(merton_call_x.model, merton_call_x.measure).quadrature_report()
    assert 0 < fresh["lines"][0]["umult"] < 1


@pytest.mark.parametrize("kind", ["call", "put"])
@pytest.mark.parametrize("axis", [1, 2])
def test_black_scholes_terminal_hedge_is_the_payoff_delta(bs_model, kind, axis):
    # at T the hedge of a claim on X is (c12/c22) (x/s) 1{x > K} for a call,
    # minus 1{x < K} for a put, and that of a call on S is 1{s > K}; at the
    # strike, the midpoint 1/2.  The residues give it, with the hedge's
    # weight gamma affine along the line
    make = call_claim if kind == "call" else put_claim
    dec = decompose(bs_model, make(100.0, axis=axis))
    x = np.array([55.0, 80.0, 99.9, 100.0, 100.0, 100.1, 131.0, 240.0, 100.0])
    s = np.array([140.0, 95.0, 100.0, 100.0, 70.0, 100.05, 99.98, 60.0, 100.2])
    got = dec.hedge(bs_model.horizon, x, s)
    want = oracles.black_scholes_terminal_hedge(bs_model, kind, 100.0, axis, x, s)
    v = x if axis == 1 else s
    assert {-1, 0, 1} <= set(np.sign(v - 100.0))
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("build", [call_measure, put_measure])
@pytest.mark.parametrize("axis", [1, 2])
def test_measure_evaluate_is_the_kernel_at_maturity(merton_model, build, axis):
    # the payoff is the value surface at T, where the propagation factor is 1
    measure = build(100.0, axis=axis)
    x = np.array([55.0, 80.0, 100.0, 100.0, 131.0, 240.0])
    s = np.array([140.0, 95.0, 100.0, 70.0, 100.0, 60.0])
    got = measure.evaluate(x, s)
    want = decompose(merton_model, measure).value(merton_model.horizon, x, s)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["black-scholes", "merton", "two-season"])
def test_hedge_surface_matches_pointwise_evaluation(name, bs_model, merton_model):
    model = {
        "black-scholes": bs_model,
        "merton": merton_model,
        "two-season": PiecewiseAdditiveModel([(0.5, bs_model), (0.5, merton_model)]),
    }[name]
    dec = decompose(model, call_claim(100.0, axis=1))
    times = [0.0, 0.3, 0.5, 0.8, 1.0]
    xs = np.linspace(70.0, 140.0, 6)
    ss = np.linspace(80.0, 125.0, 4)
    y, z = dec.hedge_surface(times, xs, ss)
    for i, t in enumerate(times):
        for j, x in enumerate(xs):
            for k, s in enumerate(ss):
                v, h = dec.value_and_hedge(t, x, s)
                assert abs(y[i, j, k] - v) <= 1e-8 * (1.0 + abs(v))
                assert abs(z[i, j, k] - h) <= 1e-8 * (1.0 + abs(h))


def test_piecewise_equal_segments_match_homogeneous(bs_model, bs_call_x):
    pm = PiecewiseAdditiveModel([(0.5, bs_model), (0.5, bs_model)])
    dec = decompose(pm, call_claim(100.0, axis=1))
    assert abs(dec.h0 - bs_call_x.h0) <= 1e-9 * bs_call_x.h0
    t, x, s = 0.31, 112.0, 95.0
    v, h = dec.value_and_hedge(t, x, s)
    vw, hw = bs_call_x.value_and_hedge(t, x, s)
    assert abs(v - vw) <= 1e-8 * (1.0 + abs(vw))
    assert abs(h - hw) <= 1e-8 * (1.0 + abs(hw))


def test_piecewise_surface_accepts_vector_times(bs_model):
    # the point-mass part of a call claim feeds the whole time vector to
    # the propagation factor at once; the piecewise model must broadcast
    pm = PiecewiseAdditiveModel([(0.5, bs_model), (0.5, bs_model)])
    dec = decompose(pm, call_claim(100.0, axis=1))
    times = np.array([0.0, 0.25, 0.75])
    y, z = dec.hedge_surface(times, np.array([90.0, 110.0]), np.array([100.0]))
    assert y.shape == z.shape == (3, 2, 1)
    v, h = dec.value_and_hedge(0.25, 110.0, 100.0)
    assert abs(y[1, 1, 0] - v) <= 1e-8 * (1.0 + abs(v))
    assert abs(z[1, 1, 0] - h) <= 1e-8 * (1.0 + abs(h))


def test_piecewise_future_segment_governs_late_values(bs_model):
    late = AdditiveModel.black_scholes(
        log_drift=[0.01, 0.04], vol_x=0.45, vol_s=0.2, corr=0.5,
        horizon=1.0, spot=[100.0, 100.0],
    )
    pm = PiecewiseAdditiveModel([(0.5, bs_model), (0.5, late)])
    dec_pm = decompose(pm, call_claim(100.0, axis=1))
    dec_late = decompose(late, call_claim(100.0, axis=1))
    for t in (0.5, 0.75):
        for x, s in [(100.0, 100.0), (83.0, 120.0)]:
            v, h = dec_pm.value_and_hedge(t, x, s)
            vw, hw = dec_late.value_and_hedge(t, x, s)
            assert abs(v - vw) <= 1e-8 * (1.0 + abs(vw))
            assert abs(h - hw) <= 1e-8 * (1.0 + abs(hw))


@hyp_settings(max_examples=12, deadline=None)
@given(
    strike=st.floats(60.0, 160.0),
    corr=st.floats(-0.9, 0.9),
    vol_x=st.floats(0.1, 0.5),
)
def test_initial_capital_between_convexity_bounds(strike, corr, vol_x):
    model = AdditiveModel.black_scholes(
        log_drift=[0.03, 0.02], vol_x=vol_x, vol_s=0.25, corr=corr,
        horizon=1.0, spot=[100.0, 100.0],
    )
    dec = decompose(model, call_claim(strike, axis=1))
    fwd = oracles.adjusted_forward(model, 1)
    assert max(fwd - strike, 0.0) - 1e-7 <= dec.h0 <= fwd + 1e-7


# -- path slices on uniform line grids (Monte Carlo replay) -----------------------


def _two_seasons():
    calm = AdditiveModel.black_scholes(
        log_drift=[0.03, 0.02], vol_x=0.20, vol_s=0.18, corr=0.85,
        horizon=0.5, spot=[100.0, 100.0],
    )
    stressed = AdditiveModel.merton(
        log_drift=[0.01, 0.005], vol_x=0.35, vol_s=0.30, corr=0.65,
        jump_intensity=1.5, jump_mean=[-0.08, -0.06], jump_vol_x=0.15,
        jump_vol_s=0.12, jump_corr=0.6, horizon=0.5, spot=[100.0, 100.0],
    )
    return PiecewiseAdditiveModel([(0.5, calm), (0.5, stressed)])


def _slice_prices(dec, glx):
    """(x, s) at the prices exp(glx) of the claim line's varying coordinate."""
    v = np.exp(glx)
    other = np.full(v.shape, 100.0)
    return (v, other) if dec.measure.lines[0].axis == 1 else (other, v)


def _grid_error(dec, t, glx):
    """Path-slice values at the prices exp(glx), which span its line grid,
    against exact evaluation, scaled as in hedge_run's self-check."""
    x, s = _slice_prices(dec, glx)
    gy, gz = dec._broadcast(t, x, s, True, glx.size)
    pick = np.arange(0, glx.size, 16)
    y, z = dec.value_and_hedge(t, x[pick], s[pick])
    sc_y = max(1.0, float(np.max(np.abs(y))))
    return max(
        float(np.max(np.abs(gy[pick] - y))) / sc_y,
        float(np.max(np.abs(gz[pick] - z))),
    )


@pytest.mark.parametrize(
    "model_name, measure, fractions",
    [
        ("merton_model", call_measure(100.0, axis=1), (0.0, 0.5, 0.9)),
        ("bs_model", put_measure(100.0, abscissa=1.5, axis=2), (0.0, 0.5, 0.9)),
        ("seasons", call_measure(100.0, axis=1), (0.0, 0.3, 0.7, 0.95)),
    ],
    ids=["merton-call-x", "bs-put-s", "two-seasons-call-x"],
)
def test_line_grid_matches_exact_evaluation(request, model_name, measure, fractions):
    model = _two_seasons() if model_name == "seasons" else request.getfixturevalue(model_name)
    dec = decompose(model, measure)
    glx = np.linspace(np.log(60.0), np.log(160.0), 257)
    for frac in fractions:
        t = frac * model.horizon
        assert _grid_error(dec, t, glx) <= 1e-8, f"t={t}"


def test_line_grid_covers_extended_truncation(merton_model):
    # near maturity the propagation factor decays slowly, so the grid
    # runs over a doubled truncation
    dec = decompose(merton_model, call_measure(100.0, axis=1))
    glx = np.linspace(np.log(60.0), np.log(160.0), 257)
    t = 0.99 * merton_model.horizon
    assert dec._tail_plan(0, t, np.exp(glx), np.ones(1))[0] > 1
    assert _grid_error(dec, t, glx) <= 1e-8


def test_line_grid_reports_its_tail_mode(merton_model):
    # the doubled truncation near maturity shows in the report as "extended"
    dec = decompose(merton_model, call_claim(100.0, axis=1))
    assert dec.quadrature_report()["lines"][0]["tail_mode"] == "skipped-negligible"
    glx = np.linspace(np.log(50.0), np.log(200.0), 512)
    dec._broadcast(0.99 * merton_model.horizon, *_slice_prices(dec, glx), True, glx.size)
    line = dec.quadrature_report()["lines"][0]
    assert (line["umult"], line["tail_mode"]) == (2, "extended")


def test_line_grid_plan_covers_the_fixed_coordinate(merton_model, monkeypatch):
    # a line scaled by s: the replay's truncation plan covers the paths'
    # fixed factors, as exact evaluation of the same paths does
    line = replace(call_measure(100.0, axis=1).lines[0], fixed_exponent=1.0)
    dec = decompose(merton_model, PayoffMeasure(lines=(line,)))
    x, s = 100.0 * np.exp(0.3 * np.random.default_rng(0).standard_normal((2, 2000)))
    plan = dec._tail_plan

    def picked(evaluate):
        umults = []

        def spy(*args):
            out = plan(*args)
            umults.append(out[0])
            return out

        monkeypatch.setattr(dec, "_tail_plan", spy)
        evaluate()
        return umults

    exact = picked(lambda: dec.value_and_hedge(0.0, x[:20], s[:20]))
    assert exact == [0.25]
    assert picked(lambda: dec._broadcast(0.0, x, s, True, 257)) == exact


def test_line_grid_single_point(merton_model):
    # at the first replay step every path sits at spot
    dec = decompose(merton_model, call_measure(100.0, axis=1))
    glx = np.full(3, np.log(100.0))
    gy, gz = dec._broadcast(0.0, *_slice_prices(dec, glx), True, 4096)
    assert gy.shape == gz.shape == (3,)
    assert gy[0] == gy[1] == gy[2] and gz[0] == gz[1] == gz[2]
    assert _grid_error(dec, 0.0, glx) <= 1e-8


def test_line_grid_rejects_terminal_time(bs_model):
    dec = decompose(bs_model, call_measure(100.0, axis=1))
    glx = np.linspace(np.log(60.0), np.log(160.0), 33)
    with pytest.raises(DomainError, match="terminal time"):
        dec._broadcast(bs_model.horizon, *_slice_prices(dec, glx), True, glx.size)


def test_line_grid_refinement_is_capped_by_the_panel_budget(bs_model, monkeypatch):
    # the grid's node count comes from the refinement at its two ends, under
    # the same budget as a point's: log-moneyness out to 13.8 needs more
    monkeypatch.setattr(payoffs, "_PANEL_BUDGET", 128)
    dec = decompose(bs_model, call_measure(100.0, axis=1))
    assert _grid_error(dec, 0.0, np.linspace(np.log(60.0), np.log(160.0), 33)) <= 1e-8
    glx = np.linspace(np.log(1e-2), np.log(1e8), 33)
    with pytest.raises(ConvergenceError, match="did not stabilise within 16 panels"):
        dec._broadcast(0.0, *_slice_prices(dec, glx), True, glx.size)


# -- truncation plans follow the decay of lambda -----------------------------------

# h0, then (value, hedge) at (t, 97, 104) for t = 0, 0.5, 0.97, of strike-100
# claims, computed while every plan ran out to the nominal truncation or beyond
_NOMINAL_TRUNCATION_PINS = {
    ("bs_model", "call", 1): (
        13.224572616258897,
        11.478596343749928, 0.5027017494897181,
        7.447019566108239, 0.4582530293020481,
        0.9014939261499251, 0.2617133105886461,
    ),
    ("bs_model", "call", 2): (
        9.947644966022622,
        12.270540077670788, 0.610983330881254,
        9.35966952719707, 0.6218161736499723,
        4.438763627262446, 0.8231442414466149,
    ),
    ("bs_model", "put", 1): (
        10.959296238795705,
        12.28127825761069, -0.4129658020746469,
        9.354512949366704, -0.4472162625447997,
        3.8362880194193827, -0.634273205473485,
    ),
    ("bs_model", "put", 2): (
        9.947644966022821,
        8.270540077671072, -0.3890166691187461,
        5.359669527197374, -0.3781838263500277,
        0.4387636272626705, -0.17685575855338495,
    ),
    ("merton_model", "call", 1): (
        11.720896900337607,
        10.012762910345856, 0.3663411002493388,
        6.4611058848671235, 0.3322315086159074,
        0.6724964059587819, 0.16991814712180042,
    ),
    ("merton_model", "call", 2): (
        8.684687795252145,
        11.020958404224473, 0.6068470260627166,
        8.475413317291483, 0.6199343390677189,
        4.301069268188357, 0.8125558647339344,
    ),
    ("merton_model", "put", 1): (
        10.056245062123253,
        11.398050627277973, -0.3321231599652651,
        8.657081982690379, -0.3604908410144182,
        3.6244419088464115, -0.5174498532534413,
    ),
    ("merton_model", "put", 2): (
        8.684687795252355,
        7.02095840422477, -0.3931529739372836,
        4.475413317291766, -0.38006566093228117,
        0.30106926818873564, -0.187444135266057,
    ),
    ("seasons", "call", 1): (
        12.767437890356476,
        11.095105325717242, 0.473803189327519,
        9.373487030449795, 0.35139020962032247,
        1.3212428188441265, 0.21526053031620818,
    ),
    ("seasons", "call", 2): (
        10.730306877842708,
        13.080042118775381, 0.6155703633594729,
        11.80389038945951, 0.598213875117263,
        4.862286859220859, 0.7094121434722668,
    ),
    ("seasons", "put", 1): (
        12.346968319276897,
        13.68724984177009, -0.41077669487499513,
        12.732658876204933, -0.36715659013143104,
        4.342830724014531, -0.5057962837306176,
    ),
    ("seasons", "put", 2): (
        10.730306877842914,
        9.080042118775657, -0.38442963664052726,
        7.803890389459779, -0.401786124882737,
        0.8622868592211228, -0.290587856527733,
    ),
}


@pytest.mark.parametrize("kind", ["call", "put"])
@pytest.mark.parametrize("axis", [1, 2])
@pytest.mark.parametrize("model_name", ["bs_model", "merton_model", "seasons"])
def test_shrunk_truncation_keeps_the_numbers(request, model_name, kind, axis):
    model = _two_seasons() if model_name == "seasons" else request.getfixturevalue(model_name)
    dec = decompose(model, (call_claim if kind == "call" else put_claim)(100.0, axis=axis))
    got = [dec.h0]
    for t in (0.0, 0.5, 0.97):
        got += dec.value_and_hedge(t, 97.0, 104.0)
    assert got == pytest.approx(_NOMINAL_TRUNCATION_PINS[model_name, kind, axis], rel=1e-9, abs=0.0)


def test_a_quote_builds_a_fraction_of_the_nominal_power_matrix(monkeypatch, bs_model):
    # refine_line builds one power-matrix entry per point and node and level;
    # with the truncation held at its nominal 200 a t = 0 quote built 15,360
    entries = []
    refine = engine.refine_line

    def spy(ln, logv, coefficients, *args):
        def counted(level):
            u, coefs = coefficients(level)
            entries.append(logv.size * u.size)
            return u, coefs

        return refine(ln, logv, counted, *args)

    monkeypatch.setattr(engine, "refine_line", spy)
    dec = decompose(bs_model, call_claim(100.0, axis=1))
    dec.value_and_hedge(0.0, *bs_model.spot)
    assert 0 < sum(entries) <= 15_360 // 4
    # the 32-panel kernel line shrinks to an eighth of its cutoff at t = 0
    assert dec.quadrature_report()["lines"][0]["umult"] == 0.125


# -- line rates shared by every claim on one model -----------------------------


def _fresh_bs():
    return AdditiveModel.black_scholes(
        log_drift=[0.035, 0.02875], vol_x=0.3, vol_s=0.25, corr=0.8,
        horizon=1.0, spot=[100.0, 100.0],
    )


def _fresh_merton():
    return AdditiveModel.merton(
        log_drift=[0.03, 0.025], vol_x=0.25, vol_s=0.2, corr=0.6,
        jump_intensity=0.7, jump_mean=[-0.05, -0.04], jump_vol_x=0.12,
        jump_vol_s=0.1, jump_corr=0.5, horizon=1.0, spot=[100.0, 100.0],
    )


def test_claims_on_one_model_share_line_rates(monkeypatch):
    model = _fresh_bs()
    first = decompose(model, call_claim(100.0, axis=1))
    psi = AdditiveModel.psi
    node_calls = []

    def spy(self, z1, z2):
        if np.ndim(z1) or np.ndim(z2):
            node_calls.append(np.size(z1))
        return psi(self, z1, z2)

    monkeypatch.setattr(AdditiveModel, "psi", spy)
    second = decompose(model, call_claim(104.0, axis=1))
    assert node_calls == []
    (_, a_wd, a_rates), (_, b_wd, b_rates) = first._nodes(0, 0, 1), second._nodes(0, 0, 1)
    assert b_rates[model] is a_rates[model]
    assert all(x is y for x, y in zip(a_rates[model], b_rates[model]))
    # only the density carries the strike
    assert not np.array_equal(a_wd, b_wd)
    # a model and its shared rates are immutable, so the rates cannot go stale
    with pytest.raises(FrozenInstanceError):
        model.covariance = np.eye(2)
    with pytest.raises(ValueError, match="read-only"):
        a_rates[model][0][0] = 0.0


def test_a_second_claim_with_the_same_support_makes_no_psi_call(monkeypatch):
    # line nodes, plan cutoffs, the restoring atom and the support's corners
    # all come from the model's shared rates
    model = _fresh_merton()
    decompose(model, call_claim(100.0, axis=1)).value_and_hedge(0.37, 93.0, 108.0)
    psi = AdditiveModel.psi
    calls = []

    def spy(self, z1, z2):
        calls.append((z1, z2))
        return psi(self, z1, z2)

    monkeypatch.setattr(AdditiveModel, "psi", spy)
    second = decompose(model, call_claim(101.0, axis=1))
    second.value_and_hedge(0.37, 93.0, 108.0)
    assert calls == []
    # every line of a symmetry shares one read-only node table
    nodes = decompose(_fresh_bs(), put_claim(90.0, axis=2))._nodes(0, 0, 1)[0]
    assert nodes is second._nodes(0, 0, 1)[0]
    with pytest.raises(ValueError, match="read-only"):
        nodes[0] = 1.0


_BOOK_MODELS = pytest.mark.parametrize("build", [_fresh_bs, _fresh_merton, _two_seasons],
                                       ids=["black-scholes", "merton", "two-seasons"])


@_BOOK_MODELS
@pytest.mark.parametrize("make, axis", [(call_claim, 1), (call_claim, 2), (put_claim, 1),
                                        (put_claim, 2)], ids=["call-x", "call-s", "put-x", "put-s"])
@pytest.mark.parametrize("need_z", [False, True], ids=["value", "value-and-hedge"])
def test_a_one_point_call_matches_the_grouped_path(build, make, axis, need_z):
    # a single time or point skips the grouping of points by time and by
    # varying coordinate, and must give the grouped path's bits and report
    model = build()
    claim = make(97.0, axis=axis)
    times = [0.0, 0.37, model.horizon]
    x, s = 93.0, 108.0

    def evaluate(dec, *args):
        out = dec.value_and_hedge(*args) if need_z else (dec.value(*args),)
        return [np.asarray(a, dtype=float) for a in out]

    # each time holds only copies of the point, so each group's plan and
    # levels are the point's own
    grouped, single = decompose(model, claim), decompose(model, claim)
    assert grouped.quadrature_report() == single.quadrature_report()
    got = evaluate(grouped, np.tile(times, 2), np.full(6, x), np.full(6, s))
    for i, t in enumerate(times):
        alone = evaluate(single, t, x, s)
        for a, g in zip(alone, got):
            assert a.tobytes() == g[i].tobytes() == g[i + 3].tobytes(), t
    # the grouped pass runs its times in ascending order, as the single calls did
    assert grouped.quadrature_report() == single.quadrature_report()

    # one time over several points
    xs, ss = np.array([x, 121.0]), np.array([s, 88.0])
    grouped, single = decompose(model, claim), decompose(model, claim)
    for got, want in zip(evaluate(single, 0.37, xs, ss), evaluate(grouped, np.full(2, 0.37), xs, ss)):
        assert got.tobytes() == want.tobytes()
    assert grouped.quadrature_report() == single.quadrature_report()


@_BOOK_MODELS
def test_warm_rates_are_bit_identical_to_a_fresh_model(build):
    warm = build()
    # near maturity the Merton lines run over a doubled truncation
    times, xs, ss = [0.0, 0.3, 0.99, 1.0], np.linspace(70.0, 140.0, 9), [85.0, 100.0, 120.0]
    # the slice prices run over the grid in both coordinates
    v = np.exp(np.linspace(np.log(60.0), np.log(160.0), 65))
    # lines that differ from the first claim's in one field of the shape each
    line = call_measure(100.0, axis=1).lines[0]
    variants = [replace(line, fixed_exponent=1.0), replace(line, scale=1j)]
    claims = [call_claim(100.0, axis=1), put_claim(95.0, axis=2), call_claim(112.0, axis=2),
              *(PayoffMeasure(lines=(ln,)) for ln in variants)]

    def outputs(dec):
        return [np.array(dec.h0), *dec.value_and_hedge(0.4, xs, 100.0),
                *dec.hedge_surface(times, xs, ss), *dec._broadcast(0.5, v, v, True, v.size)]

    for claim in claims:
        outputs(decompose(warm, claim))
    for claim in claims:
        hot, cold = decompose(warm, claim), decompose(build(), claim)
        got, want = outputs(hot), outputs(cold)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        # a wrong shared rate can hide behind refinement, but not from the levels
        assert hot.quadrature_report() == cold.quadrature_report()


def test_rates_die_with_the_model():
    before = len(engine._RATES)
    model = _two_seasons()
    dec = decompose(model, call_claim(100.0, axis=1))
    dec.value(0.5, 100.0, 100.0)
    segments = [weakref.ref(seg) for _, _, seg in model.segments]
    assert len(engine._RATES) == before + len(segments)
    del model, dec
    gc.collect()
    assert all(ref() is None for ref in segments)
    assert len(engine._RATES) <= before


@_BOOK_MODELS
@pytest.mark.parametrize("make", [call_claim, put_claim], ids=["call", "put"])
@pytest.mark.parametrize("axis", [1, 2], ids=["x", "s"])
def test_the_spot_pass_gives_the_kernels_bits(build, make, axis):
    # h0 and the hedge at the spot come from one pass, with the bits that the
    # kernel gives at the spot on its own: a value-only pass for h0, and the
    # joint pass for the pair (array arguments always run the kernel)
    model = build()
    dec = decompose(model, make(97.0, axis=axis))
    x0, s0 = (float(a) for a in model.spot)
    value = dec.value([0.0], [x0], [s0])
    y, z = dec.value_and_hedge([0.0], [x0], [s0])
    assert np.float64(dec.h0).tobytes() == value.tobytes() == y.tobytes()
    pair = dec.value_and_hedge(0.0, x0, s0)
    assert np.array(pair).tobytes() == np.concatenate([y, z]).tobytes()
    assert dec.value(0.0, x0, s0) == dec.h0 and dec.hedge(0.0, x0, s0) == pair[1]


def test_a_second_quote_reads_the_shared_tables(monkeypatch):
    # a quote is decompose, then value_and_hedge at the spot: an equal claim
    # (a distinct object) finds its weighted nodes in the line's shared
    # table, and the quote's pair is the spot pass's
    model = _fresh_merton()
    first = call_claim(100.0, axis=1)
    decompose(model, first).value_and_hedge(0.0, *model.spot)
    calls = {"density": 0, "refine_line": 0}
    density, refine = payoffs.ContourLine.density, engine.refine_line

    def counted_density(self, u):
        calls["density"] += 1
        return density(self, u)

    def counted_refine(*args):
        calls["refine_line"] += 1
        return refine(*args)

    monkeypatch.setattr(payoffs.ContourLine, "density", counted_density)
    # the engine's own binding of payoffs.refine_line
    monkeypatch.setattr(engine, "refine_line", counted_refine)
    claim = call_claim(100.0, axis=1)
    assert claim.lines[0] == first.lines[0] and claim.lines[0] is not first.lines[0]
    dec = decompose(model, claim)
    assert calls["density"] == 0
    spot_pass = calls["refine_line"]
    assert spot_pass > 0
    assert dec.value_and_hedge(0.0, *model.spot) == (dec.h0, dec.hedge(0.0, *model.spot))
    assert calls == {"density": 0, "refine_line": spot_pass}
    # both decompositions read one read-only array
    tag = (0, 1, payoffs._TRUNCATION, payoffs._PANELS)
    wd = dec._nodes(0, 0, 1)[1]
    assert wd is engine._WEIGHTS[first.lines[0]][tag]
    with pytest.raises(ValueError, match="read-only"):
        wd[0] = 0.0


def test_shared_weights_die_with_their_line():
    # a strike no other test uses, so that this line is the table's key
    claim = put_claim(91.37, axis=2)
    decompose(_fresh_bs(), claim)
    line = weakref.ref(claim.lines[0])
    equal = put_claim(91.37, axis=2).lines[0]
    assert equal in engine._WEIGHTS
    del claim
    gc.collect()
    assert line() is None
    assert equal not in engine._WEIGHTS


def _bs_for_the_store():
    """A Black-Scholes model of its own, so the shared rates start cold."""
    return AdditiveModel.black_scholes(log_drift=[0.035, 0.02875], vol_x=0.3, vol_s=0.25,
                                       corr=0.8, horizon=1.0, spot=[100.0, 100.0])


def test_the_rate_store_keys_the_nodes_constants(monkeypatch):
    # a patched cutoff moves every node, so a warm model must not serve the old rates
    warm, claim = _bs_for_the_store(), call_claim(100.0, axis=1)
    decompose(warm, claim)
    monkeypatch.setattr(payoffs, "_TRUNCATION", 100.0)
    hot, cold = decompose(warm, claim).h0, decompose(_bs_for_the_store(), claim).h0
    assert hot == cold == pytest.approx(13.2245726, rel=1e-7)


def test_the_rate_store_keys_the_plan_constants(monkeypatch):
    # more extensions mean more plan cutoffs than a warm model stored
    warm, claim = _bs_for_the_store(), call_claim(100.0, axis=1)
    decompose(warm, claim).value_and_hedge(0.5, 100.0, 100.0)
    monkeypatch.setattr(engine, "_MAX_EXTENSION", 9)
    t = 1.0 - 1e-7
    hot = decompose(warm, claim).value_and_hedge(t, 100.0, 100.0)
    cold = decompose(_bs_for_the_store(), claim).value_and_hedge(t, 100.0, 100.0)
    assert hot == cold
    assert hot[0] == pytest.approx(0.0037848, rel=1e-4)


def test_non_finite_fourier_result_is_rejected(bs_model, monkeypatch):
    dec = decompose(bs_model, call_claim(100.0, axis=1))
    propagate = HedgeDecomposition._propagate

    def nan_inside(self, rates, ti):
        # NaN at every quadrature node but the last, so the tail plan passes only at
        # its largest cutoff, and an atom, with one node, stays finite
        lam, gam = propagate(self, rates, ti)
        lam = lam.copy()
        lam[:-1] = np.nan
        return lam, gam

    monkeypatch.setattr(HedgeDecomposition, "_propagate", nan_inside)
    with pytest.raises(ConvergenceError, match="not finite at 1 of 1 points"):
        decompose(bs_model, call_claim(100.0, axis=1))
    for evaluate in (dec.value, dec.hedge, dec.value_and_hedge):
        with pytest.raises(ConvergenceError, match="not finite at 1 of 1 points"):
            evaluate(0.5, 100.0, 100.0)
    with pytest.raises(ConvergenceError, match="not finite"):
        dec.hedge_surface([0.25, 0.5], [90.0, 110.0], [100.0])
    with pytest.raises(ConvergenceError, match="not finite at 2 of 2 points"):
        dec._broadcast(0.5, np.array([90.0, 110.0]), np.array([100.0, 100.0]), True, 33)


def test_every_entry_point_returns_through_the_guard(bs_model, monkeypatch):
    # with no residual allowed, every evaluation fails the symmetry check
    claim = call_claim(100.0, axis=1)
    dec = decompose(bs_model, claim)
    monkeypatch.setattr(engine, "_IM_ABORT", -1.0)
    x, s = np.array([90.0, 110.0]), np.array([100.0, 100.0])
    entry_points = [
        lambda: decompose(bs_model, claim),
        lambda: dec.value(0.5, x, s),
        lambda: dec.hedge(0.5, x, s),
        lambda: dec.value_and_hedge(0.5, x, s),
        lambda: dec.hedge_surface([0.5], x, s),
        lambda: dec._broadcast(0.5, x, s, True, 33),
    ]
    for evaluate in entry_points:
        with pytest.raises(ConvergenceError, match="conjugate-symmetry residual"):
            evaluate()


def test_conjugate_atom_pair_is_twice_the_real_part_of_one(merton_model):
    w, z1, z2 = 0.3 + 0.2j, 0.5 + 1.5j, 0.5
    claim = power_claim(z1, z2, w) + power_claim(np.conj(z1), z2, np.conj(w))
    assert claim.is_real_claim()
    dec = decompose(merton_model, claim)
    t = 0.4
    x, s = np.array([80.0, 100.0, 125.0]), np.array([90.0, 100.0, 110.0])

    def twice_one_atom(x, s):
        y = w * x**z1 * s**z2 * complex(merton_model.lambda_coeff(t, z1, z2))
        gam = complex(merton_model.segment_at(t).gamma(z1, z2))
        return 2.0 * y.real, 2.0 * (y * gam / s).real

    want_y, want_z = twice_one_atom(x, s)
    np.testing.assert_allclose(dec.value(t, x, s), want_y, rtol=1e-13)
    for got_y, got_z in (dec.value_and_hedge(t, x, s), dec._broadcast(t, x, s, True, 33)):
        np.testing.assert_allclose(got_y, want_y, rtol=1e-13)
        np.testing.assert_allclose(got_z, want_z, rtol=1e-13)
    sy, sz = dec.hedge_surface([t], x, s)
    want_y, want_z = twice_one_atom(*np.meshgrid(x, s, indexing="ij"))
    np.testing.assert_allclose(sy[0], want_y, rtol=1e-13)
    np.testing.assert_allclose(sz[0], want_z, rtol=1e-13)
    assert dec.quadrature_report()["h0_im_residual"] <= 1e-14


@pytest.mark.parametrize("model_name", ["bs_model", "merton_model", "seasons"])
def test_every_evaluation_takes_one_path(request, model_name):
    # h0 is the value surface at the spot, and hedge is the joint pass's hedge
    model = _two_seasons() if model_name == "seasons" else request.getfixturevalue(model_name)
    T = model.horizon
    points = [
        (0.0, 100.0, 100.0),
        (0.5 * T, 90.0, 110.0),
        (T, 110.0, 90.0),
        (np.array([0.0, 0.3 * T, 0.7 * T, T]), np.array([80.0, 95.0, 100.0, 120.0]), 100.0),
    ]
    for claim in (call_claim(100.0, axis=1), put_claim(95.0, axis=2)):
        dec = decompose(model, claim)
        assert dec.h0 == dec.value(0.0, *model.spot)
        for t, x, s in points:
            y, z = dec.value_and_hedge(t, x, s)
            assert np.all(dec.value(t, x, s) == y)
            assert np.all(dec.hedge(t, x, s) == z)


@pytest.mark.parametrize(
    "claim", [call_claim(100.0, axis=1), power_claim(1.0, 0.0)], ids=["lines", "atoms-only"]
)
def test_empty_inputs_give_empty_outputs(bs_model, claim):
    dec = decompose(bs_model, claim)
    assert dec.value([], [], []).shape == (0,)
    assert dec.hedge([], [], []).shape == (0,)
    y, z = dec.value_and_hedge([], [], [])
    assert y.shape == z.shape == (0,)
    y, z = dec.hedge_surface([], [90.0], [100.0])
    assert y.shape == z.shape == (0, 1, 1)


# -- identities over drawn models -------------------------------------------------


@st.composite
def _drawn_models(draw):
    """Black-Scholes and Merton pairs inside the documented domains (volatilities
    nonnegative, correlations in [-1, 1], intensity nonnegative, horizon and
    spot positive), bounded to finite ranges; the traded volatility and the
    correlations keep off the degenerate bracket of StructureConditionError."""
    numbers = dict(
        log_drift=[draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2))],
        vol_x=draw(st.floats(0.0, 1.0)),
        vol_s=draw(st.floats(0.05, 1.0)),
        corr=draw(st.floats(-0.95, 0.95)),
        horizon=draw(st.floats(0.05, 5.0)),
        spot=[draw(st.floats(20.0, 500.0)), draw(st.floats(20.0, 500.0))],
    )
    if draw(st.booleans()):
        return AdditiveModel.black_scholes(**numbers)
    return AdditiveModel.merton(
        **numbers,
        jump_intensity=draw(st.floats(0.0, 3.0)),
        jump_mean=[draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.3, 0.3))],
        jump_vol_x=draw(st.floats(0.0, 0.5)),
        jump_vol_s=draw(st.floats(0.0, 0.5)),
        jump_corr=draw(st.floats(-0.95, 0.95)),
    )


def _value_and_hedge(dec, t, x, s):
    """value(t, x, s), which must equal value_and_hedge's value bit for bit,
    and the hedge; both finite."""
    y = dec.value(t, x, s)
    y2, z = dec.value_and_hedge(t, x, s)
    assert np.asarray(y).tobytes() == np.asarray(y2).tobytes()
    assert np.isfinite(y) and np.isfinite(z), (y, z)
    return float(y)


@hyp_settings(max_examples=40, deadline=None, derandomize=True)
# at T a put's value refined alone stopped a level before the joint pass
@example(
    model=AdditiveModel.black_scholes(log_drift=[0.0, 0.0], vol_x=1.0, vol_s=1.0, corr=0.5,
                                      horizon=1.0, spot=[20.0, 20.0]),
    axis=1, moneyness=2.0, when=0.0, point=(0.5, 1.0),
)
@given(
    model=_drawn_models(),
    axis=st.sampled_from([1, 2]),
    moneyness=st.floats(0.5, 2.0),
    when=st.floats(0.0, 1.0),
    point=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
)
def test_parity_and_terminal_payoff_hold_for_drawn_models(model, axis, moneyness, when, point):
    strike = moneyness * float(model.spot[axis - 1])
    x, s = point[0] * float(model.spot[0]), point[1] * float(model.spot[1])
    v = x if axis == 1 else s
    t, horizon = when * model.horizon, model.horizon
    tol = 1e-6 * (1.0 + strike)
    forward_claim = power_claim(*((1.0, 0.0) if axis == 1 else (0.0, 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call, put, forward = (
                decompose(model, claim)
                for claim in (call_claim(strike, axis=axis), put_claim(strike, axis=axis),
                              forward_claim)
            )
            now = [_value_and_hedge(dec, t, x, s) for dec in (call, put, forward)]
            at_t = [_value_and_hedge(dec, horizon, x, s) for dec in (call, put, forward)]
        except (ConvergenceError, DomainError):
            return
    assert abs((now[0] - now[1]) - (now[2] - strike)) <= tol
    # at T the residues give the put exactly, and the call and the forward
    # up to the rounding of the unit atom: over 1,500 draws at most
    # 1.8e-15 (1 + strike) and 5.0e-16 v, against bounds 5.6 and 20 times that
    assert abs(at_t[0] - max(v - strike, 0.0)) <= 1e-14 * (1.0 + strike)
    assert at_t[1] == max(strike - v, 0.0)
    assert abs(at_t[2] - v) <= 1e-14 * v


def _value_only_h0(model, claim):
    """h0 from a spot pass that asks for the value alone."""
    broadcast = HedgeDecomposition._broadcast

    def value_only(self, t, x, s, need_z, grid_points=0):
        return broadcast(self, t, x, s, False, grid_points)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HedgeDecomposition, "_broadcast", value_only)
        return decompose(model, claim).h0


@hyp_settings(max_examples=100, deadline=None, derandomize=True)
# a call near the pole at 1: its hedge at the spot, held to its own small
# scale, needed a level past the panel budget while the value did not
@example(
    model=AdditiveModel.black_scholes(
        log_drift=[-0.019783971421556773, 0.07948507670852867], vol_x=0.6863151564657385,
        vol_s=0.19392099262534396, corr=0.6433230765519649, horizon=1.8218842095829828,
        spot=[78.39651391677712, 221.1679036245583]),
    kind="call", axis=2, moneyness=135.3317833080098 / 221.1679036245583,
    call_abscissa=0.9221328178355911, put_abscissa=1.5,
)
@given(
    model=_drawn_models(),
    kind=st.sampled_from(["call", "put"]),
    axis=st.sampled_from([1, 2]),
    moneyness=st.floats(0.5, 2.0),
    call_abscissa=st.floats(0.05, 0.95),
    put_abscissa=st.floats(0.1, 3.0),
)
def test_the_spot_pass_fails_only_where_the_value_does(model, kind, axis, moneyness,
                                                       call_abscissa, put_abscissa):
    # decompose takes the hedge at the spot with h0: wherever a value-only h0
    # succeeds, it must succeed too, with the same h0
    strike = moneyness * float(model.spot[axis - 1])
    claim = (call_claim(strike, call_abscissa, axis) if kind == "call"
             else put_claim(strike, put_abscissa, axis))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            h0 = _value_only_h0(model, claim)
        except (AssumptionError, ConvergenceError, DomainError):
            return
        dec = decompose(model, claim)
    assert np.float64(dec.h0).tobytes() == np.float64(h0).tobytes()
    assert np.isfinite(dec.hedge(0.0, *model.spot))


def test_a_value_at_its_rounding_floor_is_refused():
    # a put with its contour far left: the terms of the line's sum add up to
    # 5e7 times its value, so its rounding, 1.2e-8 of it, is above _REL_TOL,
    # which the gaps between nested levels, sharing that rounding, do not
    # show (taken there, h0 was off by 8.6e-9); value and hedge both refuse
    model = AdditiveModel.merton(
        log_drift=[0.031101822242099786, -0.13493165026539047], vol_x=0.7240797155870501,
        vol_s=0.9136302162462973, corr=-0.07595574756231593, horizon=4.34899477662431,
        spot=[304.79848058341446, 147.43942057084664], jump_intensity=2.2317288760548526,
        jump_mean=[0.2877151240634132, 0.06603184551420399], jump_vol_x=0.37160425536868685,
        jump_vol_s=0.13719469157932213, jump_corr=0.05465983142221398)
    claim = put_claim(225.39413001791735, abscissa=2.8334042374246926, axis=2)
    for build in (_value_only_h0, decompose):
        with pytest.raises(ConvergenceError, match="did not stabilise"):
            build(model, claim)
    # the same claim on the default contour cancels little
    assert decompose(model, put_claim(225.39413001791735, axis=2)).h0 == pytest.approx(
        166.5713773, rel=1e-8)


# -- each contour integral at the level its aliasing bound asks for -------------

_HULLEY_MCWALTER = Path(__file__).resolve().parents[1] / "configs" / "hulley_mcwalter.json"


@pytest.mark.parametrize("kind", ["call", "put"])
@pytest.mark.parametrize("axis", [1, 2])
def test_the_strike_sweep_is_right_or_refused(kind, axis):
    # strikes 1e-12 to 1e30 on the shipped Black-Scholes model: each h0 is the
    # lognormal value to 1e-8 (1 + K) or raises; levels that agree on an
    # aliased sum once returned 9.05e40 for the put at 1e20 and a call at
    # 1e-12 off by 8.7e-8
    model = load_config(str(_HULLEY_MCWALTER)).model
    forward = oracles.adjusted_forward(model, axis)
    var = model.covariance[axis - 1, axis - 1] * model.horizon
    make, price = ((call_claim, oracles.lognormal_call) if kind == "call"
                   else (put_claim, oracles.lognormal_put))
    refused = []
    for k in range(-12, 31):
        strike = 10.0 ** k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                dec = decompose(model, make(strike, axis=axis))
            except ConvergenceError:
                refused.append(k)
                continue
        assert abs(dec.h0 - price(forward, strike, var)) <= 1e-8 * (1.0 + strike), strike
        assert np.isfinite(dec.hedge(0.0, *model.spot))
    # strikes within a few decades of the spot are always priced
    assert not set(refused) & set(range(-2, 5))


def test_a_drawn_put_at_its_rounding_limit_is_right_or_refused():
    # a contour far left under a volatile model: the line's terms cancel to
    # about 1.7e-7 of the value, which a gap between nested levels did not
    # show (h0 was taken 1.5e-8 off)
    model = AdditiveModel.black_scholes(log_drift=[0.1384, -0.0425], vol_x=0.292, vol_s=0.904,
                                        corr=-0.103, horizon=4.70, spot=[344.25, 300.30])
    want = oracles.lognormal_put(oracles.adjusted_forward(model, 2), 164.10,
                                 model.covariance[1, 1] * model.horizon)
    try:
        h0 = decompose(model, put_claim(164.10, abscissa=2.986, axis=2)).h0
    except ConvergenceError as exc:
        assert "did not stabilise" in str(exc)
    else:
        assert h0 == pytest.approx(want, rel=1e-8)
    assert decompose(model, put_claim(164.10, axis=2)).h0 == pytest.approx(want, rel=1e-12)


@_BOOK_MODELS
@pytest.mark.parametrize("make, axis", [(call_claim, 1), (call_claim, 2), (put_claim, 1),
                                        (put_claim, 2)], ids=["call-x", "call-s", "put-x", "put-s"])
def test_a_point_takes_one_coefficient_pass_per_line(build, make, axis, monkeypatch):
    # the level comes from the bound, so a point before T builds each line's
    # coefficients once, at that level
    dec = decompose(build(), make(97.0, axis=axis))
    passes = []
    coefficients = HedgeDecomposition._coefficients

    def counted(self, idx, *args):
        passes.append(idx)
        return coefficients(self, idx, *args)

    monkeypatch.setattr(HedgeDecomposition, "_coefficients", counted)
    dec.value_and_hedge(0.37, 93.0, 108.0)
    assert sorted(passes) == list(range(len(dec.measure.lines)))


def test_a_replay_grid_takes_its_level_without_refinement(bs_model, monkeypatch):
    # one path slice: the grid's rule comes from the bound over its range, by
    # one coefficient pass and one chirp-z transform per line, with no point
    # evaluation at its ends
    dec = decompose(bs_model, call_claim(100.0, axis=1))
    calls = {"_line_group": 0, "_coefficients": 0, "_chirp_z": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(HedgeDecomposition, "_line_group")
    counting(HedgeDecomposition, "_coefficients")
    counting(engine, "_chirp_z")
    glx = np.linspace(np.log(60.0), np.log(160.0), 257)
    dec._broadcast(0.5, *_slice_prices(dec, glx), True, glx.size)
    assert calls == {"_line_group": 0, "_coefficients": 1, "_chirp_z": 1}


def test_the_shipped_call_takes_level_two():
    # level 2 already errs by about 3e-14; a rule of agreeing levels paid for
    # level 3 to accept it
    cfg = load_config(str(_HULLEY_MCWALTER))
    line = decompose(cfg.model, cfg.measure).quadrature_report()["lines"][0]
    assert line["levels"] == 2
    assert 0.0 < line["alias_bound"] <= 0.1 * payoffs._REL_TOL * (1.0 + 100.0)
