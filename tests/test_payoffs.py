"""Claim-measure construction, quadrature, and the vanilla kernel tails."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import oracles
from basishedge import payoffs
from basishedge.errors import ConvergenceError, DomainError
from basishedge.payoffs import (
    ContourLine,
    ExponentAtom,
    PayoffMeasure,
    QuadratureSettings,
    call_claim,
    call_measure,
    combine,
    panel_nodes,
    power_claim,
    put_claim,
    put_measure,
    rational_tail_integral,
)


def test_panel_nodes_integrate_polynomials_exactly():
    # 16-point Gauss-Legendre is exact through degree 31 on each panel
    u, w = panel_nodes(0.0, 1.0, 3)
    assert abs(w @ u ** 20 - 1.0 / 21.0) < 1e-14
    u, w = panel_nodes(-3.0, 7.0, 5)
    exact = (7.0 ** 4 - 3.0 ** 4) / 4.0 - (7.0 ** 2 - 3.0 ** 2)
    assert abs(w @ (u ** 3 - 2.0 * u) - exact) < 1e-10 * abs(exact)


@pytest.mark.parametrize("strike", [50.0, 100.0, 150.0])
def test_call_measure_matches_payoff_identity(strike):
    s = np.concatenate([np.linspace(strike / 4, 4 * strike, 41), [strike]])
    got = call_measure(strike).evaluate(1.0, s)
    want = np.maximum(s - strike, 0.0) - s
    assert np.max(np.abs(got - want)) <= 1e-7 * (1.0 + strike)


@pytest.mark.parametrize("abscissa", [0.2, 0.5, 0.8])
def test_call_measure_is_abscissa_independent(abscissa):
    s = np.array([25.0, 80.0, 100.0, 137.0, 390.0])
    got = call_measure(100.0, abscissa=abscissa).evaluate(1.0, s)
    want = np.maximum(s - 100.0, 0.0) - s
    assert np.max(np.abs(got - want)) <= 1e-6 * 101.0


def test_extreme_abscissa_converges_with_larger_budget():
    # near the kernel poles the u = 0 peak narrows; the default budget
    # refuses, a raised one resolves it to full accuracy
    s = np.array([25.0, 100.0, 390.0])
    m = call_measure(100.0, abscissa=0.05)
    with pytest.raises(ConvergenceError):
        m.evaluate(1.0, s)
    got = m.evaluate(1.0, s, QuadratureSettings(panel_budget=4096))
    want = np.maximum(s - 100.0, 0.0) - s
    assert np.max(np.abs(got - want)) <= 1e-8 * 101.0


@pytest.mark.parametrize("abscissa", [0.5, 1.5, 3.0])
def test_put_measure_matches_payoff(abscissa):
    s = np.array([20.0, 60.0, 100.0, 133.0, 250.0])
    got = put_measure(100.0, abscissa=abscissa).evaluate(1.0, s)
    want = np.maximum(100.0 - s, 0.0)
    assert np.max(np.abs(got - want)) <= 1e-6 * 101.0


@pytest.mark.parametrize("axis", [1, 2])
def test_call_claim_recovers_plain_call_on_either_coordinate(axis):
    v = np.array([40.0, 95.0, 100.0, 104.0, 310.0])
    other = np.full_like(v, 77.0)
    x, s = (v, other) if axis == 1 else (other, v)
    got = call_claim(100.0, axis=axis).evaluate(x, s)
    assert np.max(np.abs(got - np.maximum(v - 100.0, 0.0))) <= 1e-6 * 101.0


def test_power_claim_evaluates_exact_powers():
    x = np.array([0.5, 2.0, 31.0])
    s = np.array([1.5, 9.0, 0.25])
    got = power_claim(2.0, -1.0, weight=3.0).evaluate(x, s)
    assert np.allclose(got, 3.0 * x ** 2 / s, rtol=1e-14)
    z1 = 0.5 + 1.5j
    got_c = power_claim(z1, 0.0).evaluate(x, s)
    assert np.allclose(got_c, np.exp(z1 * np.log(x)), rtol=1e-13)
    assert np.iscomplexobj(got_c)


def test_measure_algebra_is_linear():
    x, s = 90.0, 120.0
    call = call_claim(100.0)
    cube = power_claim(0.0, 3.0, weight=1e-4)
    both = call + cube
    assert abs(both.evaluate(x, s) - call.evaluate(x, s) - cube.evaluate(x, s)) < 1e-9
    scaled = 2.5 * call
    assert abs(scaled.evaluate(x, s) - 2.5 * call.evaluate(x, s)) < 1e-9
    mix = combine([(2.0, call), (-0.5, cube)])
    want = 2.0 * call.evaluate(x, s) - 0.5 * cube.evaluate(x, s)
    assert abs(mix.evaluate(x, s) - want) < 1e-9


def test_call_put_parity():
    strike = 100.0
    parity = combine([(1.0, call_claim(strike)), (-1.0, put_claim(strike))])
    s = np.array([40.0, 100.0, 260.0])
    got = parity.evaluate(1.0, s)
    assert np.max(np.abs(got - (s - strike))) <= 2e-6 * (1.0 + strike)


def test_combine_keeps_the_closed_form():
    call, put = call_claim(100.0, axis=1), put_claim(90.0, axis=1)
    mix = combine([(1, call), (0.5, put)])
    assert mix.closed_form is not None
    x = np.linspace(50.0, 150.0, 2001)
    s = np.full_like(x, 100.0)
    assert np.array_equal(mix.payoff(x, s), (1 * call + 0.5 * put).payoff(x, s))
    empty = combine([])
    assert (empty.atoms, empty.lines, empty.closed_form) == ((), (), None)


def test_power_matrix_is_built_in_bounded_blocks(monkeypatch):
    # 300 points on a line refined to 8192 nodes: one whole power matrix
    # holds 2.5 million complex entries (39 MB)
    m = call_measure(100.0, axis=1)
    x = np.linspace(50.0, 200.0, 300)
    s = np.ones_like(x)
    whole = m.evaluate(x, s)
    monkeypatch.setattr(payoffs, "_BLOCK", 1 << 12)
    tracemalloc.start()
    try:
        blocked = m.evaluate(x, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(blocked - whole)) <= 1e-12 * max(1.0, np.abs(whole).max())
    assert peak < 4e6


def test_payoff_uses_closed_form():
    m = call_claim(100.0, axis=1)
    x = np.array([60.0, 100.0, 180.0])
    assert np.array_equal(m.payoff(x, np.full_like(x, 5.0)), np.maximum(x - 100.0, 0.0))


def test_scalar_and_array_evaluation_agree():
    m = call_measure(80.0)
    scalar = m.evaluate(1.0, 95.0)
    assert isinstance(scalar, float)
    arr = m.evaluate(np.ones(3), np.array([95.0, 95.0, 95.0]))
    assert np.allclose(arr, scalar, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "p0,p1,r,w,u_hi",
    [
        (1.0, 0.0, 0.5, 0.3, 40.0),
        (1.0, 0.0, 0.5, -0.7, 35.0),
        (0.5, 1.0, 0.5, 0.45, 50.0),
        (1.0, 0.0, 1.5, 0.2, 30.0),
        (2.0, 0.0, 0.5, 0.0, 25.0),
    ],
)
def test_rational_tail_matches_brute_force_quadrature(p0, p1, r, w, u_hi):
    got = rational_tail_integral(p0, p1, r, w, u_hi)
    want = oracles.brute_force_tail(p0, p1, r, w, u_hi)
    assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_affine_tail_at_kink_needs_symmetry_flag():
    with pytest.raises(ConvergenceError, match="zero log-moneyness"):
        rational_tail_integral(0.3, 1.0, 0.5, 0.0, 30.0)
    got = rational_tail_integral(0.3, 1.0, 0.5, 0.0, 30.0, symmetric_real=True)
    want = oracles.brute_force_tail(0.3, 1.0, 0.5, 0.0, 30.0, real_only=True)
    assert abs(got.imag) == 0.0
    assert abs(got.real - want.real) <= 1e-10 * (1.0 + abs(want.real))


def test_digest_tracks_value_semantics():
    assert call_claim(100.0).digest() == call_claim(100.0).digest()
    assert call_claim(100.0).digest() != call_claim(101.0).digest()
    a = ExponentAtom(1.0, 2.0, 0.0)
    b = ExponentAtom(0.5 + 0.5j, 0.0, 1.0 + 1.0j)
    assert PayoffMeasure(atoms=(a, b)).digest() == PayoffMeasure(atoms=(b, a)).digest()


def test_real_claim_detection():
    assert call_claim(100.0).is_real_claim()
    assert not power_claim(0.5 + 1.5j, 0.0).is_real_claim()
    z = 0.5 + 1.5j
    pair = power_claim(z, 0.0, weight=0.5 - 0.25j) + power_claim(
        np.conj(z), 0.0, weight=0.5 + 0.25j
    )
    assert pair.is_real_claim()
    x, s = np.array([3.0, 40.0]), np.ones(2)
    assert np.max(np.abs(pair.evaluate(x, s).imag)) == 0.0


def test_real_support_box():
    (lo1, hi1), (lo2, hi2) = call_claim(100.0, axis=2).real_support()
    assert (lo1, hi1) == (0.0, 0.0)
    assert (lo2, hi2) == (0.5, 1.0)
    # the put contour sits in the left half-plane, so hedging it needs a
    # negative moment of the claim coordinate and the box must say so
    (_, _), (lo2, hi2) = put_claim(100.0, abscissa=1.5).real_support()
    assert (lo2, hi2) == (-1.5, -1.5)
    (lo1, hi1), (lo2, hi2) = power_claim(2.0, -1.0).real_support()
    assert (lo1, hi1, lo2, hi2) == (2.0, 2.0, -1.0, -1.0)


def test_construction_rejects_bad_inputs():
    with pytest.raises(DomainError, match="strike"):
        call_measure(-5.0)
    for strike in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="strike"):
            call_measure(strike)
        with pytest.raises(DomainError, match="strike"):
            put_measure(strike)
    with pytest.raises(DomainError, match="abscissa"):
        call_measure(100.0, abscissa=1.0)
    with pytest.raises(DomainError, match="abscissa"):
        put_measure(100.0, abscissa=0.0)
    with pytest.raises(DomainError, match="axis"):
        ContourLine(axis=3, fixed_exponent=0.0, abscissa=0.5, density=lambda u: u)
    with pytest.raises(DomainError, match="finite"):
        ExponentAtom(float("nan"), 1.0, 0.0)
    with pytest.raises(DomainError, match="strictly positive"):
        call_measure(100.0).evaluate(1.0, np.array([50.0, -1.0]))


def test_quadrature_budget_errors():
    m = call_measure(100.0)
    with pytest.raises(ConvergenceError, match="below the base panel count"):
        m.evaluate(1.0, 90.0, QuadratureSettings(panel_budget=16))
    with pytest.raises(ConvergenceError, match="did not stabilise"):
        m.evaluate(1.0, 90.0, QuadratureSettings(rel_tol=1e-14, panel_budget=32))


@pytest.mark.parametrize(
    "key, value",
    [("rel_tol", 0.0), ("rel_tol", -1e-8), ("rel_tol", float("nan")), ("rel_tol", float("inf")),
     ("panel_budget", 0), ("max_extension", -1)],
)
def test_quadrature_settings_reject_bad_values(key, value):
    # a malformed setting fails where it is made, not as a quadrature failure later
    with pytest.raises(DomainError, match=key):
        QuadratureSettings(**{key: value})


@hyp_settings(max_examples=30, deadline=None)
@given(
    strike=st.floats(5.0, 500.0),
    log_moneyness=st.floats(-1.2, 1.2),
    abscissa=st.floats(0.15, 0.85),
)
def test_call_identity_holds_across_parameters(strike, log_moneyness, abscissa):
    s = strike * np.exp(log_moneyness)
    got = call_measure(strike, abscissa=abscissa).evaluate(1.0, s)
    want = max(s - strike, 0.0) - s
    assert abs(got - want) <= 1e-6 * (1.0 + strike)


@hyp_settings(max_examples=20, deadline=None)
@given(scale=st.floats(-4.0, 4.0))
def test_scaling_commutes_with_evaluation(scale):
    m = call_measure(100.0)
    got = (scale * m).evaluate(1.0, 117.0)
    assert abs(got - scale * m.evaluate(1.0, 117.0)) <= 1e-8 * (1.0 + abs(scale))
