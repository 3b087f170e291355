"""Claim-measure construction, quadrature, and the kernel's residues at maturity."""

import tracemalloc

import numpy as np
import pytest
from dataclasses import replace

from hypothesis import example, given, settings as hyp_settings, strategies as st

import oracles
from basishedge import payoffs
from basishedge.engine import decompose
from basishedge.errors import ConvergenceError, DomainError
from basishedge.payoffs import (
    ContourLine,
    ExponentAtom,
    PayoffMeasure,
    call_claim,
    call_measure,
    combine,
    line_nodes,
    power_claim,
    put_claim,
    put_measure,
)


def test_line_nodes_integrate_polynomials_exactly(monkeypatch):
    # the trapezoid rule with Gregory ends at both cuts is exact through degree 7
    monkeypatch.setattr(payoffs, "_TRUNCATION", 3.0)
    monkeypatch.setattr(payoffs, "_PANELS", 1)
    line = replace(call_measure(100.0).lines[0], scale=1j)
    u, w = line_nodes(line, 0)
    assert u[0] == -3.0 and u[-1] == 3.0
    for p in range(8):
        exact = (3.0 ** (p + 1) - (-3.0) ** (p + 1)) / (p + 1)
        assert abs(w @ u ** p - exact) <= 1e-13 * max(1.0, 3.0 ** p)


@pytest.mark.parametrize("symmetric", [True, False])
def test_each_level_is_the_whole_rule_at_half_the_spacing(symmetric):
    # every level is one whole rule over the same cutoff: the spacing halves,
    # each coarser node stays a node, and on the half line of a symmetric
    # line (a real scale) or the whole of the other the rules agree on a
    # smooth even integrand, as the trapezoid rule does on such a function
    line = replace(call_measure(100.0).lines[0], scale=1.0 if symmetric else 1j)
    assert line.symmetric == symmetric

    def f(u):
        return np.exp(-u * u / 5.0) * np.cos(u / 3.0)

    prev = None
    for level in range(4):
        u, w = line_nodes(line, level, 0.125)
        h = np.diff(u)
        assert np.allclose(h, 25.0 * (1 + (not symmetric)) / 64 / 2 ** level, rtol=1e-12)
        assert u[0] == (0.0 if symmetric else -25.0) and u[-1] == 25.0
        if prev is not None:
            assert np.array_equal(u[::2], prev[0])
            assert abs(w @ f(u) - prev[1] @ f(prev[0])) <= 1e-13 * abs(w @ f(u))
        prev = u, w


@pytest.mark.parametrize("abscissa", [0.1, 0.9])
@pytest.mark.parametrize("strike", [5.0, 100.0, 500.0])
def test_call_measure_near_a_pole_matches_payoff(strike, abscissa):
    # the kernel's poles at 0 and 1 narrow the u = 0 peak, which the
    # residues at maturity do not see
    s = strike * np.exp(np.linspace(-1.2, 1.2, 13))
    got = call_measure(strike, abscissa=abscissa).evaluate(1.0, s)
    want = np.maximum(s - strike, 0.0) - s
    assert np.max(np.abs(got - want)) <= 1e-6 * (1.0 + strike)


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


def test_extreme_abscissa_converges_with_larger_budget(monkeypatch, bs_model):
    # near the kernel poles the u = 0 peak narrows; before maturity the
    # default budget refuses, h0 first, and a raised one resolves it to
    # full accuracy: S is a driftless lognormal under the hedging measure
    s = np.array([25.0, 100.0, 390.0])
    m = call_measure(100.0, abscissa=0.05)
    with pytest.raises(ConvergenceError, match="did not stabilise"):
        decompose(bs_model, m)
    monkeypatch.setattr(payoffs, "_PANEL_BUDGET", 4096)
    got = decompose(bs_model, m).value(0.5, 1.0, s)
    var = 0.5 * bs_model.covariance[1, 1]
    want = np.array([oracles.lognormal_call(v, 100.0, var) for v in s]) - s
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


def test_power_matrix_is_built_in_bounded_blocks(monkeypatch, bs_model):
    # 300 points on a line of 8192 nodes or more 1e-4 before maturity: one
    # whole power matrix holds 2.5 million complex entries (39 MB)
    dec = decompose(bs_model, call_measure(100.0, axis=1))
    t = bs_model.horizon - 1e-4
    x = np.linspace(50.0, 200.0, 300)
    s = np.full_like(x, 100.0)
    whole = dec.value(t, x, s)
    assert dec.quadrature_report()["lines"][0]["umult"] >= 16
    monkeypatch.setattr(payoffs, "_BLOCK", 1 << 12)
    tracemalloc.start()
    try:
        blocked = dec.value(t, x, s)
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


def test_line_right_of_both_poles_is_the_call():
    # both residues lie left of the line: (v - K)^+ with nothing taken off
    line = ContourLine(axis=2, fixed_exponent=0.0, abscissa=1.5, strike=100.0)
    s = np.array([20.0, 99.0, 100.0, 101.0, 250.0])
    got = PayoffMeasure(lines=(line,)).evaluate(1.0, s)
    assert np.array_equal(got, np.maximum(s - 100.0, 0.0))


# (abscissa, scale, weight as affine = (g0, g1, amp, rate), v): the three
# strips, a complex scale, the hedge's weight z and a full asymptote of gamma,
# each where the answer is not 0 and |log(v/K)| >= 0.5 (v exp(rate) too):
# quadosc holds 1e-10 there, but not near the strike
_QUADOSC_CASES = [
    (-1.5, 1.0, (1.0, 0.0, 0.0, 0.0), 40.0),
    (0.5, 0.3 - 2j, (1.0, 0.0, 0.0, 0.0), 60.0),
    (1.5, 1.0, (1.0, 0.0, 0.0, 0.0), 300.0),
    (0.5, 1.0, (0.0, 1.0, 0.0, 0.0), 40.0),
    (-1.5, 0.3 - 2j, (0.0, 1.0, 0.0, 0.0), 30.0),
    (1.5, 1.0, (0.4, -0.7, 0.25, -0.1), 300.0),
]


@pytest.mark.parametrize("abscissa, scale, affine, v", _QUADOSC_CASES)
def test_line_integral_matches_oscillatory_quadrature(abscissa, scale, affine, v):
    import mpmath as mp

    g0, g1, amp, rate = affine
    line = ContourLine(axis=1, fixed_exponent=0.0, abscissa=abscissa, strike=100.0, scale=scale)
    got = complex(line.integral(v, affine))
    assert got != 0

    def weight(z):
        return g0 + g1 * z + amp * mp.exp(rate * z)

    want = oracles.quadosc_line(abscissa, 100.0, scale, v, weight)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_put_far_left_of_the_poles_is_exact():
    # the residues give the payoff wherever the contour sits
    assert put_measure(100.0, abscissa=100.0).evaluate(1.0, 60.0) == 40.0


def test_digest_tracks_value_semantics():
    assert call_claim(100.0).digest() == call_claim(100.0).digest()
    assert call_claim(100.0).digest() != call_claim(101.0).digest()
    a = ExponentAtom(1.0, 2.0, 0.0)
    b = ExponentAtom(0.5 + 0.5j, 0.0, 1.0 + 1.0j)
    assert PayoffMeasure(atoms=(a, b)).digest() == PayoffMeasure(atoms=(b, a)).digest()


# every report carries its claim's measure_digest: these pin its value for
# each kind of line the command line and the API build
_PINNED_DIGESTS = [
    (lambda: call_claim(100.0, axis=1), "e82c611b6ed00560"),
    (lambda: put_claim(95.0, axis=2), "f082af0684fd9dfa"),
    (lambda: call_measure(110.0, axis=2), "c342dd77eb40f9fb"),
    (lambda: 2.0 * call_claim(100.0, axis=1), "5bc916a21e349e1a"),
    # the sum of a config's payoff block: each term times its weight
    (lambda: (2.0 * call_claim(100.0, axis=1) + (-0.3) * put_claim(90.0, axis=2)
              + (-1.0) * power_claim(0.0, 1.0)), "e2ec6235624c9287"),
]


@pytest.mark.parametrize("build, digest", _PINNED_DIGESTS,
                         ids=["call-x", "put-s", "call-measure-s", "weighted-call", "sum"])
def test_digest_is_pinned(build, digest):
    assert build().digest() == digest


def test_real_claim_detection():
    assert call_claim(100.0).is_real_claim()
    # a complex weight breaks a line's conjugate symmetry, a real one keeps it
    twisted = call_measure(100.0, axis=1) * (1 + 2j)
    assert not twisted.lines[0].symmetric and not twisted.is_real_claim()
    negated = call_measure(100.0, axis=1) * -2.0
    assert negated.lines[0].symmetric and negated.is_real_claim()
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
        ContourLine(axis=3, fixed_exponent=0.0, abscissa=0.5, strike=100.0)
    # the residue form has no value on a pole of the kernel
    for pole in (0.0, 1.0):
        with pytest.raises(DomainError, match="pole"):
            ContourLine(axis=2, fixed_exponent=0.0, abscissa=pole, strike=100.0)
    with pytest.raises(DomainError, match="finite"):
        ExponentAtom(float("nan"), 1.0, 0.0)
    with pytest.raises(DomainError, match="strictly positive"):
        call_measure(100.0).evaluate(1.0, np.array([50.0, -1.0]))
    for x, s in ((np.nan, 100.0), (100.0, np.array([50.0, np.nan]))):
        with pytest.raises(DomainError, match="strictly positive"):
            call_claim(100.0, axis=1).evaluate(x, s)


def test_quadrature_budget_errors(monkeypatch, bs_model):
    dec = decompose(bs_model, call_measure(100.0))
    monkeypatch.setattr(payoffs, "_PANEL_BUDGET", 32)
    monkeypatch.setattr(payoffs, "_REL_TOL", 1e-14)
    with pytest.raises(ConvergenceError, match="did not stabilise"):
        dec.value(0.5, 100.0, 90.0)


@hyp_settings(max_examples=30, deadline=None)
@given(
    strike=st.floats(5.0, 500.0),
    log_moneyness=st.floats(-1.2, 1.2),
    abscissa=st.floats(0.15, 0.85),
)
# here a rule stopped a level early leaves a residual of 1.07e-8 against 1e-8
@example(strike=5.0, log_moneyness=-1.0, abscissa=0.150390625)
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


def test_complex_weight_scales_the_whole_line():
    # the weighted line is integrated over the whole of u, not doubled
    m = call_measure(100.0, axis=1)
    x = np.array([40.0, 95.0, 100.0, 117.0, 310.0])
    want = (1 + 2j) * m.evaluate(x, 1.0)
    got = (m * (1 + 2j)).evaluate(x, 1.0)
    assert np.iscomplexobj(got)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
