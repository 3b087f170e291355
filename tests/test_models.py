"""Cumulant machinery, hedge weights, and the jump generator check."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy.integrate import quad
from scipy.stats import norm

import oracles
from basishedge.errors import DomainError, StructureConditionError
from basishedge.models import AdditiveModel, PiecewiseAdditiveModel, vols_to_covariance
from oracles import FixedJumps, GaussianJumps, generator_gap


@pytest.fixture(params=["bs_model", "merton_model"])
def any_model(request):
    return request.getfixturevalue(request.param)


# -- cumulants against fresh Monte Carlo ---------------------------------------

@pytest.mark.parametrize("z1,z2", [(1.0, 0.0), (0.0, 1.0), (0.8, -0.3)])
def test_kappa_matches_fresh_monte_carlo(any_model, z1, z2):
    m = any_model
    want, serr = oracles.mc_exponential_moment(m, z1, z2, 400_000, seed=31)
    got = np.exp(complex(m.kappa(m.horizon, z1, z2)))
    assert abs(got - want) <= 4.0 * serr


def test_kappa_matches_monte_carlo_at_complex_exponent(bs_model):
    z1, z2 = 0.5 + 1.5j, 0.5
    want, serr = oracles.mc_exponential_moment(bs_model, z1, z2, 400_000, seed=32)
    got = np.exp(complex(bs_model.kappa(bs_model.horizon, z1, z2)))
    assert abs(got - want) <= 4.0 * serr


def test_cumulant_conjugate_symmetry(any_model):
    z1, z2 = 0.3 + 2.1j, -0.4 + 1.3j
    a = complex(any_model.psi(np.conj(z1), np.conj(z2)))
    b = complex(any_model.psi(z1, z2))
    assert abs(a - np.conj(b)) < 1e-13 * (1.0 + abs(b))


# -- hedge-weight identities ---------------------------------------------------

def test_hedge_weight_identities(any_model):
    m = any_model
    assert abs(complex(m.gamma(0.0, 1.0)) - 1.0) < 1e-14
    assert abs(complex(m.gamma(0.0, 0.0))) < 1e-14
    assert abs(complex(m.eta_rate(0.0, 1.0))) < 1e-16
    # at maturity the propagation factor is exactly one, not approximately
    assert complex(m.lambda_coeff(m.horizon, 0.5 + 9.0j, 1.2)) == 1.0 + 0.0j


def test_bracket_rate_closed_form(bs_model, merton_model):
    assert abs(bs_model.rho_bar - 0.25 ** 2) < 1e-15
    lam = merton_model.jump_intensity
    m2 = merton_model.jump_mean[1]
    d22 = merton_model.jump_cov[1, 1]
    want = merton_model.covariance[1, 1] + lam * (
        np.exp(2.0 * m2 + 2.0 * d22) - 2.0 * np.exp(m2 + 0.5 * d22) + 1.0
    )
    assert abs(merton_model.rho_bar - want) < 1e-14 * want


def test_bracket_cumulant_consistency(any_model):
    # the bracket rate is the covariation cumulant psi(0,2) - 2 psi(0,1)
    m = any_model
    rho = complex(m.psi(0.0, 2.0) - 2.0 * m.psi(0.0, 1.0))
    assert abs(rho - m.rho_bar) < 1e-14 * (1.0 + abs(rho))


def test_gaussian_hedge_weight_is_affine(bs_model):
    c = bs_model.covariance
    for z1, z2 in [(0.5 + 3.0j, 0.25), (1.0, -2.0 + 7.0j), (0.0 + 0.0j, 0.5)]:
        want = (c[0, 1] * z1 + c[1, 1] * z2) / c[1, 1]
        assert abs(complex(bs_model.gamma(z1, z2)) - want) < 1e-13 * (1.0 + abs(want))


def test_traded_growth_rate(merton_model):
    assert abs(
        merton_model.traded_growth_rate - complex(merton_model.psi(0.0, 1.0)).real
    ) < 1e-16


# -- propagation factor vs backward ODE ----------------------------------------

@pytest.mark.parametrize("t0", [0.0, 0.3])
def test_lambda_solves_backward_ode(any_model, t0):
    m = any_model
    z1, z2 = 0.5 + 3.7j, 0.25
    got = complex(m.lambda_coeff(t0, z1, z2))
    want = oracles.rk4_backward(
        lambda t: -complex(m.eta_rate(z1, z2)), t0, m.horizon, 2000
    )
    assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


# -- affine asymptote of the hedge weight along contours -----------------------

def test_affine_asymptote_exact_for_gaussian(bs_model):
    for axis, f in ((1, 0.7), (2, -0.4 + 0.0j)):
        g0, g1, amp, _ = bs_model.gamma_affine(axis, f)
        assert amp == 0.0
        for u in (0.3, 5.0, 50.0):
            z = 0.5 + 1j * u
            pair = (z, f) if axis == 1 else (f, z)
            want = g0 + g1 * z
            assert abs(complex(bs_model.gamma(*pair)) - want) < 1e-12 * (1 + abs(want))


def test_affine_asymptote_reached_under_jump_spread(merton_model):
    # jump variance in the running coordinate damps the kernel term like
    # exp(-d22 u^2 / 2), so by u = 100 the affine form is exact to rounding
    g0, g1, amp, _ = merton_model.gamma_affine(2, 0.8)
    assert amp == 0.0
    z = -0.5 + 100.0j
    want = g0 + g1 * z
    got = complex(merton_model.gamma(0.8, z))
    assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


@pytest.mark.parametrize("axis, f", [(1, 0.5), (2, -0.3), (2, 0.0)])
def test_asymptote_exact_when_the_kernel_oscillates(axis, f):
    # jump means without jump variance: the kernel term does not decay
    # along the line but is exactly amp * exp(rate * z_axis)
    m = AdditiveModel(
        drift=[0.01, 0.0],
        covariance=vols_to_covariance(0.2, 0.25, 0.3),
        horizon=1.0,
        spot=[100.0, 100.0],
        jump_intensity=0.5,
        jump_mean=[0.1, -0.07],
    )
    g0, g1, amp, rate = m.gamma_affine(axis, f)
    assert rate == m.jump_mean[axis - 1] and amp != 0.0
    for u in (0.3, 5.0, 50.0, 400.0):
        z = 0.5 + 1j * u
        pair = (z, f) if axis == 1 else (f, z)
        want = g0 + g1 * z + amp * np.exp(rate * z)
        assert abs(complex(m.gamma(*pair)) - want) < 1e-12 * (1.0 + abs(want))


def test_affine_asymptote_exact_when_jumps_avoid_the_line():
    # jumps only in the traded coordinate: along an x-exponent line the
    # kernel term is a constant, making gamma exactly affine everywhere
    m = AdditiveModel(
        drift=[0.02, 0.01],
        covariance=vols_to_covariance(0.3, 0.25, 0.5),
        horizon=1.0,
        spot=[100.0, 100.0],
        jump_intensity=0.8,
        jump_mean=[0.0, -0.1],
        jump_cov=[[0.0, 0.0], [0.0, 0.04]],
    )
    g0, g1, amp, _ = m.gamma_affine(1, 1.3)
    assert amp == 0.0
    for u in (0.5, 7.0):
        z = 0.5 + 1j * u
        want = g0 + g1 * z
        assert abs(complex(m.gamma(z, 1.3)) - want) < 1e-12 * (1.0 + abs(want))


# -- piecewise composition ------------------------------------------------------

@pytest.fixture()
def two_piece(bs_model, merton_model):
    return PiecewiseAdditiveModel([(0.4, bs_model), (0.6, merton_model)])


def test_piecewise_cumulant_is_segment_weighted(two_piece, bs_model, merton_model):
    z = (0.5 + 2.0j, 0.3)
    for t, wa, wb in ((1.0, 0.4, 0.6), (0.7, 0.4, 0.3), (0.25, 0.25, 0.0)):
        want = wa * complex(bs_model.psi(*z)) + wb * complex(merton_model.psi(*z))
        assert abs(complex(two_piece.kappa(t, *z)) - want) < 1e-13 * (1 + abs(want))


def test_piecewise_propagation_multiplies_segments(two_piece, bs_model, merton_model):
    z = (0.5 + 2.0j, 0.3)
    want = np.exp(
        0.4 * complex(bs_model.eta_rate(*z)) + 0.6 * complex(merton_model.eta_rate(*z))
    )
    got = complex(two_piece.lambda_coeff(0.0, *z))
    assert abs(got - want) < 1e-13 * (1.0 + abs(want))
    assert complex(two_piece.lambda_coeff(two_piece.horizon, *z)) == 1.0 + 0.0j


def test_piecewise_bracket_and_tradeoff(two_piece, bs_model, merton_model):
    want = (
        0.4 * bs_model.traded_growth_rate ** 2 / bs_model.rho_bar
        + 0.6 * merton_model.traded_growth_rate ** 2 / merton_model.rho_bar
    )
    assert abs(two_piece.tradeoff(1.0) - want) < 1e-14
    assert two_piece.segment_at(0.1).rho_bar == bs_model.rho_bar
    assert two_piece.segment_at(0.9).rho_bar == merton_model.rho_bar


def test_piecewise_integrals_vectorise_in_time(two_piece):
    z = (0.5 + 2.0j, 0.3)
    times = np.array([0.0, 0.1, 0.4, 0.55, 0.9, 1.0])
    for fn in (two_piece.kappa, two_piece.lambda_coeff):
        vec = fn(times, *z)
        assert vec.shape == times.shape
        for t, got in zip(times, vec):
            want = complex(fn(float(t), *z))
            assert abs(got - want) <= 1e-13 * (1.0 + abs(want))
        for bad in (-0.1, 1.2, np.array([0.5, 1.5])):
            with pytest.raises(DomainError, match="time"):
                fn(bad, *z)


def test_homogeneous_model_is_one_segment(bs_model):
    assert bs_model.segments == ((0.0, bs_model.horizon, bs_model),)
    assert bs_model.segment_at(0.7) is bs_model
    with pytest.raises(DomainError, match="time"):
        bs_model.segment_at(1.5)


@pytest.mark.parametrize("t", [np.array([0.2, 0.7]), np.array([0.5]), [0.2]])
def test_segment_at_takes_one_time(two_piece, t):
    with pytest.raises(DomainError, match="takes one time"):
        two_piece.segment_at(t)
    # a zero-dimensional array is one time
    assert two_piece.segment_at(np.array(0.9)) is two_piece.segment_at(0.9)


def test_piecewise_boundary_belongs_to_next_segment(two_piece, merton_model):
    z = (1.0, 0.5)
    assert complex(two_piece.segment_at(0.4).psi(*z)) == complex(merton_model.psi(*z))
    assert two_piece.kind == "piecewise"


def test_equal_segments_reduce_to_homogeneous(bs_model):
    pm = PiecewiseAdditiveModel([(0.5, bs_model), (0.5, bs_model)])
    z = (0.5 + 4.0j, 0.7)
    for t in (0.0, 0.31, 1.0):
        a = complex(pm.kappa(t, *z))
        b = complex(bs_model.kappa(t, *z))
        assert abs(a - b) < 1e-13 * (1.0 + abs(b))
        a = complex(pm.lambda_coeff(t, *z))
        b = complex(bs_model.lambda_coeff(t, *z))
        assert abs(a - b) < 1e-13 * (1.0 + abs(b))
    assert abs(pm.tradeoff(1.0) - bs_model.tradeoff(1.0)) < 1e-15


def test_piecewise_rejects_bad_pieces(bs_model):
    with pytest.raises(DomainError, match="at least one"):
        PiecewiseAdditiveModel([])
    with pytest.raises(DomainError, match="durations"):
        PiecewiseAdditiveModel([(0.0, bs_model)])
    other = AdditiveModel.black_scholes(
        log_drift=[0.0, 0.0], vol_x=0.2, vol_s=0.2, corr=0.0,
        horizon=1.0, spot=[50.0, 50.0],
    )
    with pytest.raises(DomainError, match="initial prices"):
        PiecewiseAdditiveModel([(0.5, bs_model), (0.5, other)])


def test_piecewise_digest_tracks_order(two_piece, bs_model, merton_model):
    again = PiecewiseAdditiveModel([(0.4, bs_model), (0.6, merton_model)])
    flipped = PiecewiseAdditiveModel([(0.6, merton_model), (0.4, bs_model)])
    assert two_piece.digest() == again.digest()
    assert two_piece.digest() != flipped.digest()


# -- parameter validation --------------------------------------------------------

def test_covariance_helpers_validate():
    with pytest.raises(DomainError, match="volatilities"):
        vols_to_covariance(-0.1, 0.2, 0.0)
    with pytest.raises(DomainError, match="correlation"):
        vols_to_covariance(0.1, 0.2, 1.5)


def test_model_construction_rejects_bad_inputs():
    ok = dict(drift=[0.0, 0.0], covariance=vols_to_covariance(0.2, 0.2, 0.5),
              horizon=1.0, spot=[100.0, 100.0])
    with pytest.raises(DomainError, match="symmetric"):
        AdditiveModel(**{**ok, "covariance": [[0.04, 0.01], [0.02, 0.04]]})
    with pytest.raises(DomainError, match="positive semidefinite"):
        AdditiveModel(**{**ok, "covariance": [[1.0, 2.0], [2.0, 1.0]]})
    with pytest.raises(DomainError, match="horizon"):
        AdditiveModel(**{**ok, "horizon": 0.0})
    with pytest.raises(DomainError, match="spot"):
        AdditiveModel(**{**ok, "spot": [100.0, -1.0]})
    with pytest.raises(DomainError, match="intensity"):
        AdditiveModel(**ok, jump_intensity=-0.5)
    with pytest.raises(DomainError, match="2x2"):
        AdditiveModel(**{**ok, "covariance": [0.04, 0.04]})


def test_degenerate_traded_bracket_is_rejected():
    with pytest.raises(StructureConditionError, match="bracket rate"):
        AdditiveModel.black_scholes(
            log_drift=[0.03, 0.02], vol_x=0.3, vol_s=0.0, corr=0.0,
            horizon=1.0, spot=[100.0, 100.0],
        )
    # jumps in S this wide overflow psi(0, 2): the bracket rate is NaN
    with pytest.raises(StructureConditionError, match="bracket rate .* = nan"):
        AdditiveModel.merton(
            log_drift=[0.03, 0.025], vol_x=0.25, vol_s=0.2, corr=0.6,
            jump_intensity=0.7, jump_mean=[-0.05, -0.04], jump_vol_x=0.12,
            jump_vol_s=100.0, jump_corr=0.5, horizon=1.0, spot=[100.0, 100.0],
        )


def test_jump_only_traded_variance_is_accepted():
    m = AdditiveModel(
        drift=[0.0, 0.0],
        covariance=[[0.04, 0.0], [0.0, 0.0]],
        horizon=1.0,
        spot=[100.0, 100.0],
        jump_intensity=1.0,
        jump_mean=[0.0, 0.1],
    )
    assert m.kind == "merton"
    assert abs(m.rho_bar - (np.exp(0.1) - 1.0) ** 2) < 1e-14


def test_time_domain_is_enforced(bs_model):
    with pytest.raises(DomainError, match="time"):
        bs_model.kappa(-0.1, 1.0, 0.0)
    with pytest.raises(DomainError, match="time"):
        bs_model.lambda_coeff(bs_model.horizon + 0.5, 0.0, 1.0)


@pytest.mark.parametrize("t", [np.nan, np.array([0.5, np.nan])])
def test_a_nan_time_is_outside_the_domain(two_piece, t):
    for evaluate in (two_piece.segment_at, lambda t: two_piece.kappa(t, 1.0, 0.0),
                     lambda t: two_piece.lambda_coeff(t, 0.5, 0.0), two_piece.tradeoff):
        with pytest.raises(DomainError, match="time must lie"):
            evaluate(t)


def test_model_digest_tracks_parameters(bs_model):
    twin = AdditiveModel.black_scholes(
        log_drift=[0.035, 0.02875], vol_x=0.3, vol_s=0.25, corr=0.8,
        horizon=1.0, spot=[100.0, 100.0],
    )
    assert bs_model.digest() == twin.digest()
    bumped = AdditiveModel.black_scholes(
        log_drift=[0.036, 0.02875], vol_x=0.3, vol_s=0.25, corr=0.8,
        horizon=1.0, spot=[100.0, 100.0],
    )
    assert bs_model.digest() != bumped.digest()


def test_model_arrays_are_frozen(bs_model):
    with pytest.raises(ValueError):
        bs_model.drift[0] = 1.0


# -- small-time generator check ---------------------------------------------------

def test_generator_matches_quadrature_for_gaussian_jumps():
    marg = GaussianJumps(intensity=1.1, mean=0.6, std=0.45)
    s = 2.0
    lam, m, sd = marg.intensity, marg.mean, marg.std
    trunc_mean = lam * quad(lambda y: y * norm.pdf(y, m, sd), -1.0, 1.0)[0]
    c1 = lam * m - trunc_mean
    c2 = lam * (m * m + sd * sd)
    want = 2.0 * s * c1 + c2
    gc = generator_gap(marg, lambda v: v ** 2, lambda v: 2.0 * v, s, dt=1e-3)
    assert abs(gc.generator - want) < 1e-9 * (1.0 + abs(want))
    assert abs(gc.gap) < 0.01 * abs(want)


@pytest.mark.parametrize(
    "size,c1_factor",
    [(1.5, 1.5), (0.5, 0.0)],  # only jumps of magnitude >= 1 contribute drift
)
def test_generator_closed_form_for_fixed_jumps(size, c1_factor):
    lam = 2.0
    marg = FixedJumps(intensity=lam, size=size)
    s = 3.0
    want = 2.0 * s * lam * c1_factor + lam * size * size
    gc = generator_gap(marg, lambda v: v ** 2, lambda v: 2.0 * v, s, dt=1e-3)
    assert abs(gc.generator - want) < 1e-12 * (1.0 + abs(want))
    assert abs(gc.finite_difference - want) < 0.01 * (1.0 + abs(want))


def test_generator_check_validates_inputs():
    with pytest.raises(DomainError, match="dt"):
        generator_gap(FixedJumps(1.0, 0.5), lambda v: v, lambda v: 1.0, 1.0, dt=0.0)
    with pytest.raises(DomainError, match="intensity"):
        GaussianJumps(-1.0, 0.0, 0.1)
    with pytest.raises(DomainError, match="intensity"):
        FixedJumps(-1.0, 0.5)


# -- property-based invariants -----------------------------------------------------

@hyp_settings(max_examples=40, deadline=None)
@given(
    vol_x=st.floats(0.05, 0.6),
    vol_s=st.floats(0.05, 0.6),
    corr=st.floats(-0.95, 0.95),
    b1=st.floats(-0.2, 0.2),
    b2=st.floats(-0.2, 0.2),
    lam=st.floats(0.0, 2.0),
    jm2=st.floats(-0.3, 0.3),
    horizon=st.floats(0.25, 3.0),
)
def test_model_invariants_hold_across_parameters(vol_x, vol_s, corr, b1, b2, lam, jm2, horizon):
    m = AdditiveModel(
        drift=[b1, b2],
        covariance=vols_to_covariance(vol_x, vol_s, corr),
        horizon=horizon,
        spot=[100.0, 90.0],
        jump_intensity=lam,
        jump_mean=[0.0, jm2],
        jump_cov=[[0.02, 0.0], [0.0, 0.01]],
    )
    assert m.rho_bar > 0.0
    z1, z2 = 0.5 + 2.5j, -0.3 + 1.0j
    a = complex(m.psi(np.conj(z1), np.conj(z2)))
    b = complex(m.psi(z1, z2))
    assert abs(a - np.conj(b)) < 1e-12 * (1.0 + abs(b))
    assert abs(complex(m.gamma(0.0, 1.0)) - 1.0) < 1e-10
    assert complex(m.lambda_coeff(m.horizon, z1, z2)) == 1.0 + 0.0j
