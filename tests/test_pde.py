"""Finite-difference route: regime guards, accuracy, and the MC cross-check."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import oracles
from basishedge.errors import AssumptionError, DomainError, RegimeError
from basishedge.models import PiecewiseAdditiveModel
from basishedge.pde import (
    DiffusionSpec,
    GridConfig,
    _hedging_drift,
    monte_carlo_representation,
    solve,
)
from basishedge.payoffs import call_claim, combine, power_claim, put_claim


@pytest.fixture(scope="module")
def bs_spec(bs_model):
    return DiffusionSpec.from_additive(bs_model)


@pytest.fixture(scope="module")
def bs_solution(bs_spec):
    return solve(bs_spec, call_claim(100.0, axis=1), GridConfig(nx=121, ns=121, nt=11))


def test_grid_config_validation():
    with pytest.raises(DomainError, match="at least 5"):
        GridConfig(nx=4)
    with pytest.raises(DomainError, match="at least 2"):
        GridConfig(nt=1)


def test_spec_regime_validation(merton_model, bs_model):
    with pytest.raises(RegimeError, match="ellipticity"):
        DiffusionSpec(
            horizon=1.0, spot=[100.0, 100.0],
            coefficients=dict(b1=0.0, b2=0.0, c11=0.04, c12=0.02, c22=0.01),
        )
    with pytest.raises(RegimeError, match="a number or a callable for each of"):
        DiffusionSpec(
            horizon=1.0, spot=[100.0, 100.0],
            coefficients={"b1": lambda t, x, s: 0.0},
        )
    with pytest.raises(RegimeError, match="jumps"):
        DiffusionSpec.from_additive(merton_model)
    with pytest.raises(RegimeError, match="piecewise"):
        DiffusionSpec.from_additive(
            PiecewiseAdditiveModel([(0.5, bs_model), (0.5, bs_model)])
        )
    with pytest.raises(DomainError, match="spot"):
        DiffusionSpec(
            horizon=1.0, spot=[100.0, -5.0],
            coefficients=dict(b1=0.0, b2=0.0, c11=0.04, c12=0.0, c22=0.04),
        )


def test_adjusted_drift_makes_traded_asset_driftless(bs_spec, bs_model):
    assert bs_spec.constant
    b1, b2, c11, c12, c22 = bs_spec.fields(0.0, 100.0, 100.0)
    bh1, bh2 = _hedging_drift(b1, b2, c12, c22)
    b, c = bs_model.drift, bs_model.covariance
    assert (b1, b2, c11, c12, c22) == (b[0], b[1], c[0, 0], c[0, 1], c[1, 1])
    assert abs(bh2 + 0.5 * c[1, 1]) < 1e-15
    growth = b[1] + 0.5 * c[1, 1]
    want = b[0] - (c[0, 1] / c[1, 1]) * growth
    assert abs(bh1 - want) < 1e-15


def test_field_guards_catch_bad_coefficients():
    base = dict(horizon=1.0, spot=[100.0, 100.0])
    flat = {
        "b1": lambda t, x, s: 0.0,
        "b2": lambda t, x, s: 0.0,
        "c11": lambda t, x, s: 0.04,
        "c12": lambda t, x, s: 0.04,
        "c22": lambda t, x, s: 0.04,
    }
    spec = DiffusionSpec(**base, coefficients=flat)
    with pytest.raises(RegimeError, match="ellipticity"):
        spec.check_fields(0.0, np.array([90.0, 110.0]), np.array([100.0, 100.0]))
    spec = DiffusionSpec(
        **base, coefficients={**flat, "c11": lambda t, x, s: 2e4, "c12": lambda t, x, s: 0.0}
    )
    with pytest.raises(RegimeError, match="boundedness guard"):
        spec.check_fields(0.0, 100.0, 100.0)
    spec = DiffusionSpec(
        **base, coefficients={**flat, "b1": lambda t, x, s: np.nan, "c12": lambda t, x, s: 0.0}
    )
    with pytest.raises(RegimeError, match="not finite"):
        spec.check_fields(0.0, 100.0, 100.0)


def test_solution_shapes_and_terminal_payoff(bs_solution):
    sol = bs_solution
    assert sol.y.shape == sol.z.shape == (11, 121, 121)
    assert sol.times.shape == (11,)
    assert sol.steps % 10 == 0
    xx, ss = np.meshgrid(sol.x, sol.s, indexing="ij")
    assert np.array_equal(sol.y[-1], np.maximum(xx - 100.0, 0.0))
    assert sol.cfl_number <= 0.4 + 1e-12


def test_pde_matches_fourier_route(bs_solution, bs_call_x, bs_model):
    assert abs(bs_solution.h0 - bs_call_x.h0) <= 5e-3 * bs_call_x.h0
    # interior comparison away from the terminal kink
    sd_x = np.sqrt(bs_model.covariance[0, 0])
    for t in (0.0, 0.5):
        for bump_x in (-1.0, 0.0, 1.2):
            x = 100.0 * np.exp(sd_x * bump_x)
            vw, hw = bs_call_x.value_and_hedge(t, x, 100.0)
            v = bs_solution.value_at(t, x, 100.0)
            h = bs_solution.hedge_at(t, x, 100.0)
            assert abs(v - vw) <= 2e-2 * max(1.0, abs(vw))
            assert abs(h - hw) <= 3e-2 * max(0.05, abs(hw))


@pytest.mark.parametrize("n", [100, 200])
def test_even_grid_reads_h0_at_the_spot(bs_spec, bs_call_x, n):
    # an even axis has no node at the spot (here s; x has one on the strike);
    # read at the centre node, half a cell off, h0 missed by 8% (100) and 4% (200)
    sol = solve(bs_spec, call_claim(100.0, axis=1), GridConfig(nx=n, ns=n, nt=2))
    assert sol.h0 == sol.value_at(0.0, 100.0, 100.0)
    # within the default compare.h0_limit
    assert abs(sol.h0 - bs_call_x.h0) <= 1e-2 * abs(bs_call_x.h0)


def test_grid_puts_a_node_on_the_strike_nearest_the_spot(bs_spec):
    grid = GridConfig(nx=21, ns=20, nt=2)
    centred = solve(bs_spec, power_claim(1.0, 0.0), grid)
    # a strike at the spot of an odd grid leaves the grid as it was, bit for bit
    at_spot = solve(bs_spec, call_claim(100.0, axis=1), grid)
    assert np.array_equal(at_spot.x, centred.x) and np.array_equal(at_spot.s, centred.s)
    for claim, axis, strike in [
        (call_claim(103.0, axis=1), 1, 103.0),
        # the spot lies half a cell off the nodes of the even axis
        (put_claim(100.0, axis=2), 2, 100.0),
        # the strike nearer the spot is anchored, on its own axis
        (combine([(1.0, call_claim(130.0, axis=1)), (1.0, put_claim(97.0, axis=2))]), 2, 97.0),
    ]:
        sol = solve(bs_spec, claim, grid)
        moved, ref, kept, same = (
            (sol.x, centred.x, sol.s, centred.s) if axis == 1 else (sol.s, centred.s, sol.x, centred.x)
        )
        assert np.min(np.abs(np.log(moved) - np.log(strike))) < 1e-12
        cell = np.log(ref[1] / ref[0])
        assert np.max(np.abs(np.log(moved / ref))) <= 0.5 * cell + 1e-12
        assert np.array_equal(kept, same)


def test_interpolation_reproduces_grid_nodes(bs_solution):
    sol = bs_solution
    for it, ix, is_ in [(0, 60, 60), (5, 30, 81), (10, 97, 12)]:
        t, xv, sv = sol.times[it], sol.x[ix], sol.s[is_]
        assert abs(sol.value_at(t, xv, sv) - sol.y[it, ix, is_]) < 1e-11
        assert abs(sol.hedge_at(t, xv, sv) - sol.z[it, ix, is_]) < 1e-11


def _callables(coefficients):
    """The same coefficients as constant callables, which march the full grid."""
    return {k: (lambda t, x, s, v=v: v) for k, v in coefficients.items()}


def _assert_line_matches_full_march(line, full):
    # a line sums the weights of the shifts that read one view, so it
    # rounds apart from the full march, by far less than 2e-13
    assert line.marched_shape != full.marched_shape
    assert (line.steps, line.cfl_number) == (full.steps, full.cfl_number)
    assert np.max(np.abs(line.y - full.y)) <= 2e-13 * np.max(np.abs(full.y))
    assert np.max(np.abs(line.z - full.z)) <= 2e-13 * np.max(np.abs(full.z))


@pytest.mark.parametrize(
    "t, x, s",
    [
        (0.0, 1000.0, 100.0),  # past the grid's top in x (626.5)
        (0.0, 100.0, 5.0),  # below its bottom in s (15.96)
        (1.5, 100.0, 100.0),
        (-1e-9, 100.0, 100.0),
        (np.nan, 100.0, 100.0),
        (0.0, np.nan, 100.0),
        (0.0, 100.0, np.inf),
        (0.0, 0.0, 100.0),
        (0.0, -5.0, 100.0),
        (0.0, [100.0, 1000.0], 100.0),
    ],
)
def test_interpolation_outside_the_solved_box_raises(bs_solution, t, x, s):
    for read in (bs_solution.value_at, bs_solution.hedge_at):
        with pytest.raises(DomainError):
            read(t, x, s)


def test_interpolation_reaches_the_corners_of_the_box(bs_solution):
    sol = bs_solution
    for it, ix, is_ in [(0, 0, 0), (-1, -1, -1), (0, -1, 0), (-1, 0, -1)]:
        t, xv, sv = sol.times[it], sol.x[ix], sol.s[is_]
        assert sol.value_at(t, xv, sv) == sol.y[it, ix, is_]
        assert sol.hedge_at(t, xv, sv) == sol.z[it, ix, is_]


def test_reads_only_at_snapshot_times(bs_spec, bs_call_x):
    # two snapshots, t = 0 and T: halfway the surfaces are not the straight
    # line between them (a linear read gave 6.61 where the engine gives 9.07)
    sol = solve(bs_spec, call_claim(100.0, axis=1), GridConfig(nx=201, ns=201, nt=2))
    assert float(bs_call_x.value(0.5, 100.0, 100.0)) == pytest.approx(9.0695, abs=1e-4)
    for read in (sol.value_at, sol.hedge_at):
        for t in (0.5, 1e-12, 1.0 - 1e-12, [0.0, 0.5]):
            with pytest.raises(DomainError, match="snapshot"):
                read(t, 100.0, 100.0)
    # at a snapshot the read is bilinear in (ln x, ln s) between the nodes
    x, s = np.array([83.1, 100.0, 117.4]), np.array([91.6, 100.0, 100.0])
    ix = np.searchsorted(sol.x, x) - 1
    is_ = np.searchsorted(sol.s, s) - 1
    wx = np.log(x / sol.x[ix]) / np.log(sol.x[ix + 1] / sol.x[ix])
    ws = np.log(s / sol.s[is_]) / np.log(sol.s[is_ + 1] / sol.s[is_])
    for it, t in enumerate(sol.times):
        for read, cube in ((sol.value_at, sol.y), (sol.hedge_at, sol.z)):
            c = cube[it]
            want = ((1 - wx) * (1 - ws) * c[ix, is_] + (1 - wx) * ws * c[ix, is_ + 1]
                    + wx * (1 - ws) * c[ix + 1, is_] + wx * ws * c[ix + 1, is_ + 1])
            np.testing.assert_allclose(read(t, x, s), want, rtol=1e-12, atol=1e-14)
    assert sol.value_at(sol.times[0], *sol.spot) == sol.h0


@pytest.mark.parametrize(
    "measure, exact",
    [
        pytest.param(call_claim(100.0, axis=1), False, id="call-x"),
        pytest.param(put_claim(100.0, axis=2), False, id="put-s"),
        pytest.param(power_claim(0.5, 0.5), True, id="power"),
    ],
)
def test_constant_callables_reduce_to_static_regime(bs_model, measure, exact):
    # callables march the full grid with per-point weights: the constant
    # spec's full march (a claim on both assets) equals it bit for bit and
    # its line (a claim on one asset) to 2e-13; rho < 0 makes the other
    # cross diagonal live, and rho = 0 drops both
    b = bs_model.drift
    c11, c22 = bs_model.covariance[0, 0], bs_model.covariance[1, 1]
    parities = set()
    for rho in (0.8, -0.5, 0.0):
        c12 = rho * np.sqrt(c11 * c22)
        static = DiffusionSpec(
            horizon=1.0,
            spot=[100.0, 100.0],
            coefficients=dict(b1=b[0], b2=b[1], c11=c11, c12=c12, c22=c22),
        )
        dyn = DiffusionSpec(
            horizon=1.0,
            spot=[100.0, 100.0],
            coefficients={
                "b1": lambda t, x, s: b[0],
                "b2": lambda t, x, s: b[1],
                "c11": lambda t, x, s: c11,
                "c12": lambda t, x, s, c12=c12: c12,
                "c22": lambda t, x, s: c22,
            },
        )
        for grid in (
            GridConfig(nx=41, ns=53, nt=5),
            GridConfig(nx=17, ns=13, nt=2),
            GridConfig(nx=11, ns=13, nt=2),
        ):
            a = solve(static, measure, grid)
            d = solve(dyn, measure, grid)
            assert d.marched_shape == (grid.nx, grid.ns)
            if exact:
                assert np.array_equal(a.y, d.y)
                assert np.array_equal(a.z, d.z)
                assert (a.h0, a.steps, a.cfl_number) == (d.h0, d.steps, d.cfl_number)
            else:
                _assert_line_matches_full_march(a, d)
            parities.add((rho, a.steps % 2))
    # the two buffers alternate: each spec marches an odd and an even step count
    assert parities == {(rho, p) for rho in (0.8, -0.5, 0.0) for p in (0, 1)}


@hyp_settings(max_examples=25, deadline=None)
@given(
    vols=st.tuples(st.floats(0.05, 0.6), st.floats(0.05, 0.6)),
    corr=st.one_of(st.just(0.0), st.floats(-0.95, 0.95)),
    drifts=st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
    horizon=st.floats(0.25, 2.0),
    shape=st.tuples(st.integers(5, 31), st.integers(5, 31), st.integers(2, 4)),
)
def test_a_line_matches_the_full_march_over_drawn_specs(vols, corr, drifts, horizon, shape):
    (vol_x, vol_s), (b1, b2) = vols, drifts
    coefficients = dict(b1=b1, b2=b2, c11=vol_x**2, c12=corr * vol_x * vol_s, c22=vol_s**2)
    static, dyn = (
        DiffusionSpec(horizon=horizon, spot=[100.0, 100.0], coefficients=c)
        for c in (coefficients, _callables(coefficients))
    )
    grid = GridConfig(*shape)
    for measure in (call_claim(100.0, axis=1), put_claim(100.0, axis=2)):
        _assert_line_matches_full_march(solve(static, measure, grid), solve(dyn, measure, grid))
    a, d = (solve(spec, power_claim(0.5, 0.5), grid) for spec in (static, dyn))
    assert np.array_equal(a.y, d.y) and np.array_equal(a.z, d.z)


def test_a_claim_on_one_asset_marches_a_line(bs_spec, tanh_spec):
    full = GridConfig(nx=201, ns=201, nt=2)
    assert solve(bs_spec, call_claim(100.0, axis=1), full).marched_shape == (201, 1)
    assert solve(bs_spec, put_claim(100.0, axis=2), full).marched_shape == (1, 201)
    grid = GridConfig(nx=41, ns=53, nt=2)
    assert solve(bs_spec, power_claim(0.5, 0.5), grid).marched_shape == (41, 53)
    # coefficient fields keep the full grid, whatever the claim
    assert solve(tanh_spec, call_claim(100.0, axis=1), grid).marched_shape == (41, 53)


def test_fields_are_checked_at_maturity_before_the_step_is_sized():
    # finite at 0, NaN at T: the step is sized from the fields at T
    spec = DiffusionSpec(
        horizon=1.0,
        spot=[100.0, 100.0],
        coefficients=dict(
            b1=0.0,
            b2=0.0,
            c11=lambda t, x, s: 0.04 + 0 * x if t < 1 else np.nan + 0 * x,
            c12=0.0,
            c22=0.04,
        ),
    )
    with pytest.raises(RegimeError, match="c11 is not finite"):
        solve(spec, call_claim(100.0, axis=1), GridConfig(nx=11, ns=11, nt=2))


@pytest.fixture(scope="module")
def tanh_spec():
    # state-dependent vols with negative correlation, exercising the
    # downward-sloping branch of the cross stencil
    def c11(t, x, s):
        return 0.04 * (1.0 + 0.25 * np.tanh(np.log(np.asarray(x) / 100.0)))

    def c22(t, x, s):
        return 0.0625 * (1.0 + 0.2 * np.tanh(np.log(np.asarray(s) / 100.0)))

    return DiffusionSpec(
        horizon=1.0,
        spot=[100.0, 100.0],
        coefficients={
            "b1": lambda t, x, s: 0.02,
            "b2": lambda t, x, s: 0.01,
            "c11": c11,
            "c22": c22,
            "c12": lambda t, x, s: -0.35 * np.sqrt(c11(t, x, s) * c22(t, x, s)),
        },
    )


def test_state_dependent_solve_agrees_with_simulation(tanh_spec):
    measure = call_claim(100.0, axis=2)
    sol = solve(tanh_spec, measure, GridConfig(nx=101, ns=101, nt=9))
    est, serr = monte_carlo_representation(
        tanh_spec, measure, 0.0, 100.0, 100.0, n_paths=200_000, n_steps=96, seed=11
    )
    assert abs(sol.h0 - est) <= max(4.0 * serr, 1.5e-2 * est)


def test_numeric_drift_with_callable_covariance_solves_as_all_callable(tanh_spec):
    coef = tanh_spec.coefficients
    mixed = DiffusionSpec(
        horizon=1.0, spot=[100.0, 100.0], coefficients={**coef, "b1": 0.02, "b2": 0.01}
    )
    assert not mixed.constant and not tanh_spec.constant
    measure = power_claim(0.5, 0.5)
    grid = GridConfig(nx=31, ns=37, nt=3)
    a, b = solve(mixed, measure, grid), solve(tanh_spec, measure, grid)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.z, b.z)


@pytest.mark.parametrize("size", [{"n_paths": 0}, {"n_steps": 0}, {"n_paths": -3}])
def test_mc_representation_rejects_empty_sizes(size, bs_spec, tanh_spec):
    for spec in (bs_spec, tanh_spec):
        with pytest.raises(DomainError, match="at least one path and one step"):
            monte_carlo_representation(spec, call_claim(100.0, axis=1), 0.0, 100.0, 100.0, **size)


@pytest.mark.parametrize("case", ["bs-corr-pos", "bs-corr-neg", "tanh", "bs-line-odd"])
def test_march_matches_term_by_term_reference(case, bs_spec, tanh_spec):
    # the payoff couples both prices, so the cross stencil matters; unequal
    # axes, so a transposed flat index cannot pass
    measure = power_claim(0.5, 0.5)
    grid = GridConfig(nx=41, ns=53, nt=3)
    if case in ("bs-corr-pos", "bs-line-odd"):
        spec = bs_spec
    elif case == "bs-corr-neg":
        cross = -0.6 * 0.3 * 0.25
        spec = DiffusionSpec(
            horizon=1.0, spot=[100.0, 100.0],
            coefficients=dict(b1=0.035, b2=0.02875, c11=0.09, c12=cross, c22=0.0625),
        )
    else:
        spec = tanh_spec
    if case == "bs-line-odd":
        # a claim on X alone marches a line, here for an odd number of steps,
        # which must start from the payoff's buffer
        measure, grid = call_claim(100.0, axis=1), GridConfig(nx=17, ns=13, nt=2)
    sol = solve(spec, measure, grid)
    if case == "bs-line-odd":
        assert sol.marched_shape == (17, 1) and sol.steps % 2 == 1
    per_snap = sol.steps // (grid.nt - 1)
    want = oracles.explicit_march(spec, measure.payoff, sol.x, sol.s, sol.steps, per_snap)
    assert want.shape == sol.y.shape
    assert np.max(np.abs(sol.y - want)) <= 1e-12 * np.max(np.abs(want))


def test_shipped_grid_steps_and_cfl_are_pinned(bs_spec):
    # configs/hulley_mcwalter.json on the 201 x 201 grid with two snapshots
    sol = solve(bs_spec, call_claim(100.0, axis=1), GridConfig(nx=201, ns=201, nt=2))
    assert sol.steps == 2415
    assert sol.cfl_number == 0.3998984261404446


def test_solve_rejects_complex_claim(bs_spec):
    with pytest.raises(AssumptionError, match="real-valued claim"):
        solve(bs_spec, power_claim(0.5 + 1.0j, 0.0), GridConfig(nx=11, ns=11, nt=2))


def test_mc_representation_is_unbiased_for_lognormal(bs_spec, bs_model):
    measure = call_claim(100.0, axis=1)
    est, serr = monte_carlo_representation(
        bs_spec, measure, 0.0, 100.0, 100.0, n_paths=300_000, seed=3
    )
    c = bs_model.covariance
    growth = (
        bs_model.drift[0] + 0.5 * c[0, 0]
        - (c[0, 1] / c[1, 1]) * (bs_model.drift[1] + 0.5 * c[1, 1])
    )
    want = oracles.lognormal_call(100.0 * np.exp(growth), 100.0, c[0, 0])
    assert serr > 0.0
    assert abs(est - want) <= 4.0 * serr


@pytest.mark.parametrize("x, s", [(0.0, 100.0), (-1.0, 100.0), (100.0, np.nan), (np.inf, 100.0)])
def test_mc_representation_rejects_prices_that_are_not_positive(bs_spec, tanh_spec, x, s):
    for spec in (bs_spec, tanh_spec):
        with pytest.raises(DomainError, match="prices must be strictly positive"):
            monte_carlo_representation(spec, call_claim(100.0, axis=1), 0.0, x, s)


def test_mc_representation_terminal_is_exact(bs_spec):
    est, serr = monte_carlo_representation(
        bs_spec, call_claim(100.0, axis=1), 1.0, 137.5, 90.0
    )
    assert (est, serr) == (37.5, 0.0)
    with pytest.raises(DomainError, match="horizon"):
        monte_carlo_representation(bs_spec, call_claim(100.0, axis=1), 1.5, 100.0, 100.0)
