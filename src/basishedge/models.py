"""Bivariate exponential additive models and their cumulant machinery.

The pair of prices is (X, S) = (exp(Z1), exp(Z2)) where Z is an additive
process built from a correlated Brownian part plus an optional compound
Poisson stream with jointly Gaussian jump sizes.  Everything the hedging
engine needs reduces to the cumulant rate

    psi(z) = b.z + z'Sigma z/2 + lam*(exp(m.z + z'Delta z/2) - 1)

evaluated at complex exponent pairs: covariation rates, the hedge ratio
weight gamma, and the time-propagation coefficient lambda of the power
claims.  All quantities are entire in z for this family, so contours can
sit anywhere in C^2.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, StructureConditionError

__all__ = ["AdditiveModel", "PiecewiseAdditiveModel"]


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.shape != (2, 2):
        raise DomainError(f"{name} must be a 2x2 matrix, got shape {m.shape}")
    if not np.allclose(m, m.T, atol=1e-12):
        raise DomainError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(m).min() < -1e-10 * (1.0 + np.abs(m).max()):
        raise DomainError(f"{name} must be positive semidefinite")
    return 0.5 * (m + m.T)


def _psd_factor(m: np.ndarray) -> np.ndarray:
    """A 2x2 factor L with L L' = m, stable for singular matrices."""
    vals, vecs = np.linalg.eigh(m)
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


class PiecewiseAdditiveModel:
    """Exponential additive pair with piecewise-constant parameters in time.

    Built from (duration, AdditiveModel) pieces sharing the same spot.
    Every model is a tuple of constant segments (start, end, model); the
    cumulant integrals are sums of segment overlaps times the segment
    rates, e.g. log lambda(t, z) = sum_k |[t, T] & [a_k, b_k]| eta_rate_k(z).
    Every segment must satisfy the bracket condition on its own
    (degenerate segments are rejected, since the hedge ratio is undefined
    on them).
    """

    def __init__(self, pieces: Sequence[tuple[float, "AdditiveModel"]]):
        if not pieces:
            raise DomainError("need at least one segment")
        spans = []
        t0 = 0.0
        spot = pieces[0][1].spot
        for dur, seg in pieces:
            if dur <= 0:
                raise DomainError("segment durations must be positive")
            if not np.allclose(seg.spot, spot):
                raise DomainError("all segments must share the initial prices")
            # AdditiveModel construction already rejects rho_bar <= 0
            spans.append((t0, t0 + dur, seg))
            t0 += dur
        self.segments = tuple(spans)
        self.horizon = t0
        self.spot = spot

    kind = "piecewise"

    def segment_at(self, t) -> "AdditiveModel":
        """Constant segment in force at time t; a boundary belongs to the later one."""
        self._check_time(t)
        if np.ndim(t):
            raise DomainError("segment_at takes one time, not an array of times")
        return self._segment_at(t)

    def _segment_at(self, t) -> "AdditiveModel":
        """segment_at for a time already checked."""
        ends = [b for _, b, _ in self.segments]
        return self.segments[min(bisect.bisect_right(ends, float(t)), len(ends) - 1)][2]

    def _integral(self, lo, hi, term):
        """Sum over segments of term(overlap of [lo, hi] with the segment, segment)."""
        total = None
        for a, b, seg in self.segments:
            part = term(np.maximum(0.0, np.minimum(hi, b) - np.maximum(lo, a)), seg)
            total = part if total is None else total + part
        return total

    def kappa(self, t, z1, z2):
        """Cumulant of the log pair over [0, t]."""
        self._check_time(t)
        return self._integral(0.0, t, lambda w, seg: w * seg.psi(z1, z2))

    def lambda_coeff(self, t, z1, z2):
        """Propagation factor exp(integral_t^T eta_rate(z)); equals 1 at T."""
        self._check_time(t)
        return np.exp(self._integral(t, self.horizon, lambda w, seg: w * seg.eta_rate(z1, z2)))

    def tradeoff(self, t):
        """Mean-variance trade-off K_t = integral_0^t psi(0,1)^2 / rho_bar."""
        self._check_time(t)
        return self._integral(
            0.0, t, lambda w, seg: w * seg.traded_growth_rate ** 2 / seg.rho_bar
        )

    def digest(self) -> str:
        blob = "|".join(
            f"{b - a:.14g}:{seg.digest()}" for a, b, seg in self.segments
        ).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def _check_time(self, t):
        t = np.asarray(t, dtype=float)
        # negated, so that a NaN fails it
        if not ((t >= -1e-12).all() and (t <= self.horizon * (1.0 + 1e-12)).all()):
            raise DomainError(f"time must lie in [0, {self.horizon}]")


@dataclass(eq=False, frozen=True)
class AdditiveModel(PiecewiseAdditiveModel):
    """Time-homogeneous exponential additive pair: the one-segment model.

    drift: log-price drift vector b per unit time.
    covariance: diffusion covariance Sigma per unit time.
    horizon: claim maturity T.
    spot: initial prices (X0, S0).
    jump_intensity, jump_mean, jump_cov: compound Poisson stream with
        N(jump_mean, jump_cov) jumps in the log pair; intensity zero
        gives the plain correlated lognormal model.
    """

    drift: np.ndarray
    covariance: np.ndarray
    horizon: float
    spot: np.ndarray
    jump_intensity: float = 0.0
    jump_mean: np.ndarray | None = None
    jump_cov: np.ndarray | None = None

    def __post_init__(self):
        # frozen: the engine shares the line rates of a segment across claims
        put = lambda name, value: object.__setattr__(self, name, value)  # noqa: E731
        put("drift", np.asarray(self.drift, dtype=float).reshape(2))
        put("covariance", _as_matrix(self.covariance, "covariance"))
        put("spot", np.asarray(self.spot, dtype=float).reshape(2))
        put("jump_mean", np.zeros(2) if self.jump_mean is None
            else np.asarray(self.jump_mean, dtype=float).reshape(2))
        put("jump_cov", np.zeros((2, 2)) if self.jump_cov is None
            else _as_matrix(self.jump_cov, "jump_cov"))
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise DomainError("horizon must be a positive float")
        if np.any(self.spot <= 0) or not np.all(np.isfinite(self.spot)):
            raise DomainError("spot prices must be strictly positive")
        if self.jump_intensity < 0 or not np.isfinite(self.jump_intensity):
            raise DomainError("jump intensity must be nonnegative")
        put("horizon", float(self.horizon))
        put("jump_intensity", float(self.jump_intensity))
        for a in (self.drift, self.covariance, self.spot, self.jump_mean, self.jump_cov):
            a.flags.writeable = False
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            rb = float(np.real(self.psi(0.0, 2.0) - 2.0 * self.psi(0.0, 1.0)))
        # the negated test rejects NaN
        if not 0.0 < rb < np.inf:
            raise StructureConditionError(
                "martingale part of the traded asset is degenerate: the "
                f"bracket rate psi(0,2) - 2*psi(0,1) = {rb:.3e} must be "
                "positive and finite for the hedge ratio to be defined"
            )
        put("_rho_bar", rb)

    @property
    def segments(self) -> tuple:
        return ((0.0, self.horizon, self),)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def black_scholes(
        cls,
        *,
        log_drift: Sequence[float],
        vol_x: float,
        vol_s: float,
        corr: float,
        horizon: float,
        spot: Sequence[float],
    ) -> "AdditiveModel":
        cov = vols_to_covariance(vol_x, vol_s, corr)
        return cls(drift=np.asarray(log_drift), covariance=cov, horizon=horizon, spot=np.asarray(spot))

    @classmethod
    def merton(
        cls,
        *,
        log_drift: Sequence[float],
        vol_x: float,
        vol_s: float,
        corr: float,
        jump_intensity: float,
        jump_mean: Sequence[float],
        jump_vol_x: float,
        jump_vol_s: float,
        jump_corr: float,
        horizon: float,
        spot: Sequence[float],
    ) -> "AdditiveModel":
        return cls(
            drift=np.asarray(log_drift),
            covariance=vols_to_covariance(vol_x, vol_s, corr),
            horizon=horizon,
            spot=np.asarray(spot),
            jump_intensity=jump_intensity,
            jump_mean=np.asarray(jump_mean),
            jump_cov=vols_to_covariance(jump_vol_x, jump_vol_s, jump_corr),
        )

    @property
    def kind(self) -> str:
        return "black-scholes" if self.jump_intensity == 0.0 else "merton"

    # -- cumulant rates of the segment ------------------------------------------

    def psi(self, z1, z2):
        """Cumulant rate: E[(X_t/X_0)^z1 (S_t/S_0)^z2] = exp(t*psi(z))."""
        z1 = np.asarray(z1, dtype=complex)
        z2 = np.asarray(z2, dtype=complex)
        b, c = self.drift, self.covariance
        quad = 0.5 * (c[0, 0] * z1 * z1 + 2.0 * c[0, 1] * z1 * z2 + c[1, 1] * z2 * z2)
        out = b[0] * z1 + b[1] * z2 + quad
        if self.jump_intensity > 0.0:
            m, d = self.jump_mean, self.jump_cov
            ex = (
                m[0] * z1 + m[1] * z2
                + 0.5 * (d[0, 0] * z1 * z1 + 2.0 * d[0, 1] * z1 * z2 + d[1, 1] * z2 * z2)
            )
            out = out + self.jump_intensity * (np.exp(ex) - 1.0)
        return out

    @property
    def rho_bar(self) -> float:
        """Bracket rate of the martingale part of S; strictly positive."""
        return self._rho_bar

    @property
    def traded_growth_rate(self) -> float:
        """psi(0,1): exponential growth rate of E[S_t]."""
        return float(np.real(self.psi(0.0, 1.0)))

    def rates(self, z1, z2):
        """(gamma, eta_rate, psi) at z from psi(z), psi(z + e2) and psi(0, 1).

        gamma, the hedge-ratio weight of x**z1 s**z2, is the (claim, S)
        covariation rate over the bracket rate of S: gamma(0,1) = 1 and
        gamma(0,0) = 0.  eta_rate = psi - gamma psi(0,1) is the log-rate of lambda.
        """
        p, p01 = self.psi(z1, z2), self.psi(0.0, 1.0)
        g = (self.psi(z1, np.asarray(z2, dtype=complex) + 1.0) - p - p01) / self._rho_bar
        return g, p - g * p01, p

    def gamma(self, z1, z2):
        """Hedge-ratio weight of the power claim x**z1 s**z2 (see rates)."""
        return self.rates(z1, z2)[0]

    def eta_rate(self, z1, z2):
        return self.rates(z1, z2)[1]

    def gamma_affine(self, axis: int, fixed_exponent: complex):
        """Asymptote (g0, g1, amp, rate) of gamma along a contour.

        Along a line in coordinate `axis` with the other exponent held
        at f, gamma(z) = g0 + g1*z_axis + amp*exp(rate*z_axis) + r(z)
        with r(z) -> 0 as |Im z_axis| grows.  The Gaussian part is
        exactly affine.  The jump part tends to a constant when the jumps
        spread the varying coordinate, and r is its kernel term.  Without
        that spread r is 0: the kernel term is amp*exp(rate*z_axis), with
        rate the jump mean of the varying coordinate, and it is folded
        into g0 (amp = 0) when that rate is 0.
        """
        c = self.covariance
        f = complex(fixed_exponent)
        if axis == 1:
            g1 = c[0, 1]
            g0 = c[1, 1] * f
        else:
            g1 = c[1, 1]
            g0 = c[0, 1] * f
        amp = rate = 0.0
        if self.jump_intensity > 0.0:
            m, d = self.jump_mean, self.jump_cov
            ks = m[1] + 0.5 * d[1, 1]  # jump cumulant at the unit S exponent
            a = axis - 1
            o = 1 - a
            # the jump part of -psi(0,1); jump spread in the running
            # coordinate kills the kernel term
            g0 = g0 - self.jump_intensity * (np.exp(ks) - 1.0)
            if d[a, a] == 0.0:
                # without it the kernel term is exp(m_a z_a) times a constant
                # along the line (d[a,a]=0 forces d[a,o]=0)
                cf = m[o] * f + 0.5 * d[o, o] * f * f
                shift = d[1, 0] * (f if a == 1 else 0.0) + d[1, 1] * (f if a == 0 else 0.0)
                amp = self.jump_intensity * np.exp(cf) * (np.exp(ks + shift) - 1.0)
                rate = m[a]
                if rate == 0.0:
                    g0, amp = g0 + amp, 0.0
        return (g0 / self._rho_bar, g1 / self._rho_bar, amp / self._rho_bar, rate)

    # -- misc -----------------------------------------------------------------

    def diffusion_factor(self) -> np.ndarray:
        return _psd_factor(self.covariance)

    def jump_factor(self) -> np.ndarray:
        return _psd_factor(self.jump_cov)

    def digest(self) -> str:
        def rounded(a):
            # np.round scales by 1e14 first; a value that would overflow stays as it is
            with np.errstate(over="ignore"):
                r = np.round(a, 14)
            return np.where(np.isfinite(r), r, a).tolist()

        blob = json.dumps(
            {
                "drift": rounded(self.drift),
                "cov": rounded(self.covariance),
                "horizon": round(self.horizon, 14),
                "spot": rounded(self.spot),
                "ji": round(self.jump_intensity, 14),
                "jm": rounded(self.jump_mean),
                "jc": rounded(self.jump_cov),
            },
            sort_keys=True,
        ).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def vols_to_covariance(vol_x: float, vol_s: float, corr: float) -> np.ndarray:
    if vol_x < 0 or vol_s < 0:
        raise DomainError("volatilities must be nonnegative")
    if not -1.0 <= corr <= 1.0:
        raise DomainError("correlation must lie in [-1, 1]")
    return np.array(
        [
            [vol_x ** 2, corr * vol_x * vol_s],
            [corr * vol_x * vol_s, vol_s ** 2],
        ]
    )
