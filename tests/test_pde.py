"""Finite-difference route: regime guards, accuracy, and the MC cross-check."""

import numpy as np
import pytest

import oracles
from basishedge.errors import AssumptionError, DomainError, RegimeError
from basishedge.models import PiecewiseAdditiveModel
from basishedge.pde import (
    DiffusionSpec,
    GridConfig,
    monte_carlo_representation,
    solve,
)
from basishedge.payoffs import call_claim, power_claim


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
    with pytest.raises(DomainError, match="cfl_fraction"):
        GridConfig(cfl_fraction=0.95)
    with pytest.raises(DomainError, match="radius_stddevs"):
        GridConfig(radius_stddevs=1.0)


def test_spec_regime_validation(merton_model, bs_model):
    with pytest.raises(RegimeError, match="unsupported coefficient regime"):
        DiffusionSpec(horizon=1.0, spot=[100.0, 100.0], regime="heston")
    with pytest.raises(RegimeError, match="positive definite"):
        DiffusionSpec(
            horizon=1.0, spot=[100.0, 100.0],
            drift=[0.0, 0.0], covariance=[[0.04, 0.02], [0.02, 0.01]],
        )
    with pytest.raises(RegimeError, match="needs callables"):
        DiffusionSpec(
            horizon=1.0, spot=[100.0, 100.0], regime="bounded-elliptic",
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
            drift=[0.0, 0.0], covariance=[[0.04, 0.0], [0.0, 0.04]],
        )


def test_adjusted_drift_makes_traded_asset_driftless(bs_spec):
    bh1, bh2 = bs_spec.adjusted_drift(0.0, 100.0, 100.0)
    c = bs_spec.covariance
    assert abs(bh2 + 0.5 * c[1, 1]) < 1e-15
    growth = bs_spec.drift[1] + 0.5 * c[1, 1]
    want = bs_spec.drift[0] - (c[0, 1] / c[1, 1]) * growth
    assert abs(bh1 - want) < 1e-15


def test_field_guards_catch_bad_coefficients():
    base = dict(horizon=1.0, spot=[100.0, 100.0], regime="bounded-elliptic")
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
    # an even grid has no node at the spot; the centre node lies half a
    # cell below it, and read there h0 missed by 8% (100) and 4% (200)
    sol = solve(bs_spec, call_claim(100.0, axis=1), GridConfig(nx=n, ns=n, nt=2))
    assert sol.h0 == sol.value_at(0.0, 100.0, 100.0)
    # within the default compare.h0_limit
    assert abs(sol.h0 - bs_call_x.h0) <= 1e-2 * abs(bs_call_x.h0)


def test_interpolation_reproduces_grid_nodes(bs_solution):
    sol = bs_solution
    for it, ix, is_ in [(0, 60, 60), (5, 30, 81), (10, 97, 12)]:
        t, xv, sv = sol.times[it], sol.x[ix], sol.s[is_]
        assert abs(sol.value_at(t, xv, sv) - sol.y[it, ix, is_]) < 1e-11
        assert abs(sol.hedge_at(t, xv, sv) - sol.z[it, ix, is_]) < 1e-11


def test_constant_callables_reduce_to_static_regime(bs_model, bs_spec):
    c = bs_model.covariance
    b = bs_model.drift
    dyn = DiffusionSpec(
        horizon=1.0,
        spot=[100.0, 100.0],
        regime="bounded-elliptic",
        coefficients={
            "b1": lambda t, x, s: b[0],
            "b2": lambda t, x, s: b[1],
            "c11": lambda t, x, s: c[0, 0],
            "c12": lambda t, x, s: c[0, 1],
            "c22": lambda t, x, s: c[1, 1],
        },
    )
    grid = GridConfig(nx=61, ns=61, nt=5)
    measure = call_claim(100.0, axis=1)
    a = solve(bs_spec, measure, grid)
    d = solve(dyn, measure, grid)
    assert np.allclose(a.y, d.y, rtol=0, atol=1e-10)
    assert np.allclose(a.z, d.z, rtol=0, atol=1e-10)


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
        regime="bounded-elliptic",
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


@pytest.mark.parametrize("case", ["bs-corr-pos", "bs-corr-neg", "tanh"])
def test_march_matches_term_by_term_reference(case, bs_spec, tanh_spec):
    if case == "bs-corr-pos":
        spec = bs_spec
    elif case == "bs-corr-neg":
        cross = -0.6 * 0.3 * 0.25
        spec = DiffusionSpec(
            horizon=1.0, spot=[100.0, 100.0], drift=[0.035, 0.02875],
            covariance=[[0.09, cross], [cross, 0.0625]],
        )
    else:
        spec = tanh_spec
    # the payoff couples both prices, so the cross stencil matters; unequal
    # axes, so a transposed flat index cannot pass
    measure = power_claim(0.5, 0.5)
    sol = solve(spec, measure, GridConfig(nx=41, ns=53, nt=3))
    want = oracles.explicit_march(spec, measure.payoff, sol.x, sol.s, sol.steps, sol.steps // 2)
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


def test_mc_representation_terminal_is_exact(bs_spec):
    est, serr = monte_carlo_representation(
        bs_spec, call_claim(100.0, axis=1), 1.0, 137.5, 90.0
    )
    assert (est, serr) == (37.5, 0.0)
    with pytest.raises(DomainError, match="horizon"):
        monte_carlo_representation(bs_spec, call_claim(100.0, axis=1), 1.5, 100.0, 100.0)
