"""Value/hedge surfaces against lognormal closed forms and identities."""

import gc
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy.stats import norm

import oracles
from basishedge import engine
from basishedge.engine import HedgeDecomposition, decompose
from basishedge.errors import AssumptionError, ConvergenceError, DomainError
from basishedge.models import AdditiveModel, PiecewiseAdditiveModel, vols_to_covariance
from basishedge.payoffs import (
    ContourLine,
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
    assert np.max(np.abs(got - want)) <= 1e-7 * 101.0


def test_put_decomposition_prices_under_jumps(merton_model):
    # terminal reproduction plus parity of initial capitals: the claim
    # (x - K)^+ - (K - x)^+ = x - K must price to forward minus strike
    dec_put = decompose(merton_model, put_claim(90.0, axis=1))
    x = np.array([40.0, 90.0, 260.0])
    got = dec_put.value(merton_model.horizon, x, np.full_like(x, 100.0))
    assert np.max(np.abs(got - np.maximum(90.0 - x, 0.0))) <= 1e-7 * 91.0
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
    bad = PayoffMeasure(
        lines=(
            ContourLine(
                axis=2,
                fixed_exponent=0.0,
                abscissa=0.5,
                density=lambda u: np.full(np.shape(u), np.nan),
            ),
        )
    )
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


def test_evaluation_domain_guards(bs_call_x):
    with pytest.raises(DomainError, match="time"):
        bs_call_x.value(-0.1, 100.0, 100.0)
    with pytest.raises(DomainError, match="time"):
        bs_call_x.value(1.6, 100.0, 100.0)
    with pytest.raises(DomainError, match="positive"):
        bs_call_x.value(0.5, -3.0, 100.0)


def test_quadrature_report(merton_call_x):
    rep = merton_call_x.quadrature_report()
    assert rep["h0_im_residual"] <= 1e-8
    assert rep["settings"]["panel_budget"] >= 32
    assert len(rep["lines"]) == len(merton_call_x.measure.lines)


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
    gy, gz = dec._path_slice(t, x, s, glx.size)
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
        # without the kernel marker the node step assumes a narrower strip
        (
            "bs_model",
            PayoffMeasure(lines=(replace(call_measure(100.0, axis=1).lines[0], tail=None),)),
            (0.0, 0.5, 0.9),
        ),
    ],
    ids=["merton-call-x", "bs-put-s", "two-seasons-call-x", "untagged-line"],
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
    assert dec._tail_plan(0, t, np.exp(glx), np.ones(1), True)[0] > 1
    assert _grid_error(dec, t, glx) <= 1e-8


def test_line_grid_reports_its_tail_mode(merton_model):
    # the doubled truncation near maturity shows in the report as "extended"
    dec = decompose(merton_model, call_claim(100.0, axis=1))
    assert dec.quadrature_report()["lines"][0]["tail_mode"] == "skipped-negligible"
    glx = np.linspace(np.log(50.0), np.log(200.0), 512)
    dec._path_slice(0.99 * merton_model.horizon, *_slice_prices(dec, glx), glx.size)
    line = dec.quadrature_report()["lines"][0]
    assert (line["umult"], line["tail_mode"]) == (2, "extended")


def test_line_grid_single_point(merton_model):
    # at the first replay step every path sits at spot
    dec = decompose(merton_model, call_measure(100.0, axis=1))
    glx = np.full(3, np.log(100.0))
    gy, gz = dec._path_slice(0.0, *_slice_prices(dec, glx), 4096)
    assert gy.shape == gz.shape == (3,)
    assert gy[0] == gy[1] == gy[2] and gz[0] == gz[1] == gz[2]
    assert _grid_error(dec, 0.0, glx) <= 1e-8


def test_line_grid_rejects_terminal_time(bs_model):
    dec = decompose(bs_model, call_measure(100.0, axis=1))
    glx = np.linspace(np.log(60.0), np.log(160.0), 33)
    with pytest.raises(DomainError, match="terminal time"):
        dec._path_slice(bs_model.horizon, *_slice_prices(dec, glx), glx.size)


def test_line_grid_node_count_is_capped(bs_model):
    dec = decompose(bs_model, call_measure(100.0, axis=1))
    glx = np.linspace(np.log(60.0), np.log(160.0), 33)
    assert dec._uniform_count(0, 1, glx) == 2048
    with pytest.raises(ConvergenceError, match="uniform quadrature"):
        dec._uniform_count(0, 1 << 12, glx)


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
    a, b = first._nodes(0, 0, 1), second._nodes(0, 0, 1)
    assert b.rates[model] is a.rates[model]
    assert all(x is y for x, y in zip(a.rates[model], b.rates[model]))
    # only the density carries the strike
    assert not np.array_equal(a.dens, b.dens)
    # a model and its shared rates are immutable, so the rates cannot go stale
    with pytest.raises(FrozenInstanceError):
        model.covariance = np.eye(2)
    with pytest.raises(ValueError, match="read-only"):
        a.rates[model][0][0] = 0.0


@pytest.mark.parametrize("build", [_fresh_bs, _fresh_merton, _two_seasons],
                         ids=["black-scholes", "merton", "two-seasons"])
def test_warm_rates_are_bit_identical_to_a_fresh_model(build):
    warm = build()
    # near maturity the Merton lines run over a doubled truncation
    times, xs, ss = [0.0, 0.3, 0.99, 1.0], np.linspace(70.0, 140.0, 9), [85.0, 100.0, 120.0]
    # the slice prices run over the grid in both coordinates
    v = np.exp(np.linspace(np.log(60.0), np.log(160.0), 65))
    # lines that differ from the first claim's in one field of the shape each
    line = call_measure(100.0, axis=1).lines[0]
    variants = [replace(line, fixed_exponent=1.0), replace(line, truncation=120.0),
                replace(line, panels=24), replace(line, symmetric=False)]
    claims = [call_claim(100.0, axis=1), put_claim(95.0, axis=2), call_claim(112.0, axis=2),
              *(PayoffMeasure(lines=(ln,)) for ln in variants)]

    def outputs(dec):
        return [np.array(dec.h0), *dec.value_and_hedge(0.4, xs, 100.0),
                *dec.hedge_surface(times, xs, ss), *dec._path_slice(0.5, v, v, v.size)]

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


def test_non_finite_fourier_result_is_rejected(bs_model, monkeypatch):
    dec = decompose(bs_model, call_claim(100.0, axis=1))
    propagate = HedgeDecomposition._propagate

    def nan_inside(self, rates, ti):
        # NaN at every quadrature node; the tail plan reads only the last node
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
