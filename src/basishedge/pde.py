"""Finite-difference route for hedging values of diffusion pairs.

Solves the pricing equation of the locally risk-minimising value
y(t, x, s) in log coordinates (xi, eta) = (ln x, ln s):

    y_t + bh1 y_xi + bh2 y_eta
        + 0.5 (c11 y_xixi + 2 c12 y_xieta + c22 y_etaeta) = 0,
    y(T, .) = payoff,

where (bh1, bh2) is the drift after the hedging-measure adjustment

    bh1 = b1 - (c12 / c22) (b2 + c22 / 2),      bh2 = -c22 / 2,

so that the traded asset is driftless.  The hedge ratio is read off the
solution gradient: z = (y_eta + (c12 / c22) y_xi) / s.

Two coefficient regimes are supported: constant coefficients
("black-scholes") and bounded elliptic coefficient fields given by
callables of (t, x, s) ("bounded-elliptic").  Anything else, including
models with jumps, is rejected with RegimeError.

The scheme is explicit Euler in time with central differences and a
sign-adapted cross term, written as one linear update over the nine
points of a 3x3 stencil, y_new = sum_k w_k shift_k(y).  The dt-scaled
weights are scalars for constant coefficients and per-point arrays,
rebuilt each step, for coefficient fields.  Each shift is one contiguous
slice of the C-ordered grid seen as a flat array.  The time step obeys a
CFL bound and boundary values are linearly extrapolated each step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import AssumptionError, DomainError, RegimeError
from .simulation import _sample_var

__all__ = [
    "DiffusionSpec",
    "GridConfig",
    "PDESolution",
    "solve",
    "monte_carlo_representation",
]

_REGIMES = ("black-scholes", "bounded-elliptic")
# ellipticity guards for the callable regime, checked on the grid
_MIN_EIG = 1e-10
_MAX_EIG = 1e4
# largest log-price whose exponential is a finite float
_LOG_MAX = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class GridConfig:
    """Spatial/temporal resolution of the finite-difference solve."""

    nx: int = 161
    ns: int = 161
    nt: int = 41
    radius_stddevs: float = 6.0
    cfl_fraction: float = 0.4

    def __post_init__(self):
        if self.nx < 5 or self.ns < 5:
            raise DomainError("grids need at least 5 points per axis")
        if self.nt < 2:
            raise DomainError("need at least 2 snapshot times")
        if not 0 < self.cfl_fraction <= 0.9:
            raise DomainError("cfl_fraction must lie in (0, 0.9]")
        if self.radius_stddevs <= 1.0:
            raise DomainError("radius_stddevs must exceed 1")


def _hedging_drift(b1, b2, c12, c22):
    """(bh1, bh2): the log drift after the hedging-measure adjustment."""
    return b1 - (c12 / c22) * (b2 + 0.5 * c22), -0.5 * c22


class DiffusionSpec:
    """Diffusion pair accepted by the finite-difference solver.

    regime "black-scholes": constant log-drift vector and log-covariance
    matrix.  regime "bounded-elliptic": `coefficients` maps the names
    b1, b2, c11, c12, c22 to callables of (t, x, s) returning
    elementwise log-drift and log-covariance fields.
    """

    def __init__(
        self,
        *,
        horizon: float,
        spot,
        regime: str = "black-scholes",
        drift=None,
        covariance=None,
        coefficients: Optional[dict] = None,
    ):
        if regime not in _REGIMES:
            raise RegimeError(
                f"unsupported coefficient regime {regime!r}; expected one of {_REGIMES}"
            )
        self.regime = regime
        self.horizon = float(horizon)
        if not self.horizon > 0:
            raise DomainError("horizon must be positive")
        self.spot = np.asarray(spot, dtype=float)
        if self.spot.shape != (2,) or np.any(self.spot <= 0):
            raise DomainError("spot must be two positive prices")
        if regime == "black-scholes":
            self.drift = np.asarray(drift, dtype=float).reshape(2)
            cov = np.asarray(covariance, dtype=float).reshape(2, 2)
            if not np.allclose(cov, cov.T):
                raise DomainError("covariance must be symmetric")
            eig = np.linalg.eigvalsh(cov)
            if eig.min() <= 0 or cov[1, 1] <= 0:
                raise RegimeError(
                    "constant-coefficient regime requires a positive definite "
                    "log-covariance; got eigenvalues " + repr(eig.tolist())
                )
            self.covariance = cov
            self.coefficients = None
        else:
            needed = ("b1", "b2", "c11", "c12", "c22")
            if coefficients is None or any(k not in coefficients for k in needed):
                raise RegimeError(
                    "bounded-elliptic regime needs callables " + ", ".join(needed)
                )
            self.coefficients = {k: coefficients[k] for k in needed}
            self.drift = None
            self.covariance = None

    @classmethod
    def from_additive(cls, model) -> "DiffusionSpec":
        """Adopt a continuous additive model; jump models are rejected."""
        if len(model.segments) > 1:
            raise RegimeError("piecewise models are outside the PDE regimes")
        seg = model.segments[0][2]
        if seg.jump_intensity > 0:
            raise RegimeError(
                "the finite-difference route covers diffusions only; "
                f"this model carries jumps at rate {seg.jump_intensity:g}"
            )
        return cls(
            horizon=model.horizon,
            spot=model.spot,
            regime="black-scholes",
            drift=seg.drift,
            covariance=seg.covariance,
        )

    def fields(self, t: float, x, s):
        """Coefficient arrays (b1, b2, c11, c12, c22) at time t on (x, s)."""
        if self.regime == "black-scholes":
            shp = np.broadcast(x, s).shape
            b, c = self.drift, self.covariance
            return tuple(
                np.full(shp, v)
                for v in (b[0], b[1], c[0, 0], c[0, 1], c[1, 1])
            )
        vals = tuple(
            np.asarray(self.coefficients[k](t, x, s), dtype=float)
            for k in ("b1", "b2", "c11", "c12", "c22")
        )
        b1, b2, c11, c12, c22 = (np.broadcast_to(v, np.broadcast(x, s).shape) for v in vals)
        return b1, b2, c11, c12, c22

    def check_fields(self, t: float, x, s):
        """Ellipticity and boundedness on sample points; RegimeError if violated."""
        b1, b2, c11, c12, c22 = self.fields(t, x, s)
        for name, arr in (("b1", b1), ("b2", b2), ("c11", c11), ("c12", c12), ("c22", c22)):
            if not np.all(np.isfinite(arr)):
                raise RegimeError(f"coefficient {name} is not finite on the grid")
        tr = c11 + c22
        det = c11 * c22 - c12 * c12
        lo = 0.5 * (tr - np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))
        hi = 0.5 * (tr + np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))
        if float(lo.min()) <= _MIN_EIG:
            raise RegimeError(
                f"coefficients lose ellipticity on the grid (min eig {float(lo.min()):.3e})"
            )
        if float(hi.max()) >= _MAX_EIG:
            raise RegimeError(
                f"coefficients exceed the boundedness guard (max eig {float(hi.max()):.3e})"
            )
        return float(lo.min()), float(hi.max())

    def adjusted_drift(self, t: float, x, s):
        """Drift (bh1, bh2) under the hedging measure; traded asset driftless."""
        b1, b2, _, c12, c22 = self.fields(t, x, s)
        return _hedging_drift(b1, b2, c12, c22)


@dataclass
class PDESolution:
    """Snapshots of the value/hedge surfaces on a price grid."""

    times: np.ndarray
    x: np.ndarray
    s: np.ndarray
    y: np.ndarray
    z: np.ndarray
    cfl_number: float
    steps: int
    spot: tuple[float, float]
    h0: float = field(init=False)

    def __post_init__(self):
        # the spot is the centre node of an odd grid and lies between
        # two nodes of an even one
        self.h0 = float(self.value_at(0.0, *self.spot))

    def _interp(self, cube, t, x, s):
        t = np.asarray(t, dtype=float)
        xi = np.log(np.asarray(x, dtype=float))
        eta = np.log(np.asarray(s, dtype=float))
        tg = self.times
        xg, sg = np.log(self.x), np.log(self.s)
        t_b, xi_b, eta_b = np.broadcast_arrays(t, xi, eta)
        shape = t_b.shape
        tf, xf, sf = t_b.ravel(), xi_b.ravel(), eta_b.ravel()

        def locate(grid, q):
            i = np.clip(np.searchsorted(grid, q) - 1, 0, len(grid) - 2)
            w = (q - grid[i]) / (grid[i + 1] - grid[i])
            return i, np.clip(w, 0.0, 1.0)

        it, wt = locate(tg, tf)
        ix, wx = locate(xg, xf)
        is_, ws = locate(sg, sf)
        out = np.zeros(tf.shape)
        for dt_, wt_ in ((0, 1 - wt), (1, wt)):
            for dx_, wx_ in ((0, 1 - wx), (1, wx)):
                for ds_, ws_ in ((0, 1 - ws), (1, ws)):
                    out += wt_ * wx_ * ws_ * cube[it + dt_, ix + dx_, is_ + ds_]
        out = out.reshape(shape)
        return out[()] if shape == () else out

    def value_at(self, t, x, s):
        return self._interp(self.y, t, x, s)

    def hedge_at(self, t, x, s):
        return self._interp(self.z, t, x, s)


def _weights(bh1, bh2, c11, c12, c22, dxi, deta, dt):
    """dt-scaled weights of the explicit step, keyed by the (xi, eta) offset.

    Central differences for the drift and the pure second derivatives;
    the cross term is sign-adapted, c12+ on the NE/SW diagonal and c12-
    on the NW/SE diagonal.
    """
    q = dt / (2.0 * dxi * deta)
    p = q * np.maximum(c12, 0.0)
    m = q * np.minimum(c12, 0.0)
    ax = 0.5 * dt * c11 / dxi**2 - p + m
    ae = 0.5 * dt * c22 / deta**2 - p + m
    vx = 0.5 * dt * bh1 / dxi
    ve = 0.5 * dt * bh2 / deta
    return {
        (0, 0): 1.0 - dt * (c11 / dxi**2 + c22 / deta**2) + 2.0 * (p - m),
        (1, 0): ax + vx,
        (-1, 0): ax - vx,
        (0, 1): ae + ve,
        (0, -1): ae - ve,
        (1, 1): p,
        (-1, -1): p,
        (1, -1): -m,
        (-1, 1): -m,
    }


def solve(spec: DiffusionSpec, measure, grid: GridConfig = GridConfig()) -> PDESolution:
    """March the pricing equation backward from the payoff.

    `measure` provides payoff(x, s) of a real claim; the returned solution
    holds value and hedge snapshots on grid.nt times spanning [0, horizon].
    A price grid that overflows, or a snapshot that is not finite, raises
    DomainError.
    """
    if not measure.is_real_claim():
        raise AssumptionError("the finite-difference route requires a real-valued claim")
    T = spec.horizon
    x0, s0 = float(spec.spot[0]), float(spec.spot[1])

    b1c, b2c, c11c, c12c, c22c = (
        float(np.asarray(v).ravel()[0]) for v in spec.fields(0.0, x0, s0)
    )
    half_x = grid.radius_stddevs * np.sqrt(c11c * T) + abs(b1c) * T
    half_s = grid.radius_stddevs * np.sqrt(c22c * T) + abs(b2c) * T
    xi = np.log(x0) + np.linspace(-half_x, half_x, grid.nx)
    eta = np.log(s0) + np.linspace(-half_s, half_s, grid.ns)
    if not max(np.abs(xi).max(), np.abs(eta).max()) < _LOG_MAX:
        raise DomainError(
            f"the price grid overflows: log-price half-widths {half_x:.3g} and "
            f"{half_s:.3g}; lower pde_grid.radius_stddevs"
        )
    dxi = xi[1] - xi[0]
    deta = eta[1] - eta[0]
    xg, sg = np.exp(xi), np.exp(eta)
    xx, ss = np.meshgrid(xg, sg, indexing="ij")

    spec.check_fields(0.0, xx, ss)
    static = spec.regime == "black-scholes"
    # constant coefficients stay scalars; fields are taken on the flat C-ordered grid
    points = (x0, s0) if static else (xx.ravel(), ss.ravel())
    nx, ns = grid.nx, grid.ns
    # the interior in flat order, with the edge columns of rows 1..nx-2
    run = slice(ns + 1, nx * ns - ns - 1)

    def adjusted(t):
        b1, b2, c11, c12, c22 = spec.fields(t, *points)
        bh1, bh2 = _hedging_drift(b1, b2, c12, c22)
        denom = (
            c11 / dxi**2
            + c22 / deta**2
            + 2.0 * np.abs(c12) / (dxi * deta)
            + np.abs(bh1) / dxi
            + np.abs(bh2) / deta
        )
        if not static:
            bh1, bh2, c11, c12, c22 = (v[run] for v in (bh1, bh2, c11, c12, c22))
        return (bh1, bh2, c11, c12, c22), float(denom.max())

    coeffs, denom_max = adjusted(T)
    dt_cfl = grid.cfl_fraction / denom_max
    per_snap = max(1, int(np.ceil((T / (grid.nt - 1)) / dt_cfl)))
    steps = per_snap * (grid.nt - 1)
    dt = T / steps

    times = np.linspace(0.0, T, grid.nt)
    y_snap = np.empty((grid.nt, nx, ns))
    z_snap = np.empty_like(y_snap)

    def snapshot(k, yarr, t):
        y_snap[k] = yarr
        _, _, _, c12t, c22t = spec.fields(t, xx, ss)
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            dyx = np.gradient(y_snap[k], dxi, axis=0)
            dys = np.gradient(y_snap[k], deta, axis=1)
            z_snap[k] = (dys + (c12t / c22t) * dyx) / ss
        if not (np.isfinite(y_snap[k]).all() and np.isfinite(z_snap[k]).all()):
            raise DomainError(
                f"the finite-difference solution is not finite at t={t:g}; "
                "lower pde_grid.radius_stddevs"
            )

    snapshot(-1, measure.payoff(xx, ss), T)

    # y_new = sum_k w_k shift_k(y) on the flat run, two buffers in turn
    shifts = {
        (di, dj): slice(run.start + di * ns + dj, run.stop + di * ns + dj)
        for di in (-1, 0, 1)
        for dj in (-1, 0, 1)
    }

    def stencil(coeffs):
        # a scalar zero weight, the idle cross diagonal, drops out
        weights = _weights(*coeffs, dxi, deta, dt)
        return [(shifts[k], w) for k, w in weights.items() if np.ndim(w) or w]

    cur = y_snap[-1].ravel().copy()
    nxt = np.zeros_like(cur)
    term = np.empty(run.stop - run.start)
    terms = stencil(coeffs)
    cfl_seen = 0.0
    for n in range(steps, 0, -1):
        t_next = n * dt  # level where y currently lives
        if not static:
            coeffs, denom_max = adjusted(t_next)
            if n % max(1, steps // 8) == 0:
                spec.check_fields(t_next, xx, ss)
            terms = stencil(coeffs)
        cfl_seen = max(cfl_seen, dt * denom_max)

        acc = nxt[run]
        (src, w), *rest = terms
        np.multiply(w, cur[src], out=acc)
        for src, w in rest:
            np.multiply(w, cur[src], out=term)
            acc += term
        g = nxt.reshape(nx, ns)
        g[0, :] = 2.0 * g[1, :] - g[2, :]
        g[-1, :] = 2.0 * g[-2, :] - g[-3, :]
        g[:, 0] = 2.0 * g[:, 1] - g[:, 2]
        g[:, -1] = 2.0 * g[:, -2] - g[:, -3]
        # corners after edges
        g[0, 0] = 2.0 * g[1, 1] - g[2, 2]
        g[0, -1] = 2.0 * g[1, -2] - g[2, -3]
        g[-1, 0] = 2.0 * g[-2, 1] - g[-3, 2]
        g[-1, -1] = 2.0 * g[-2, -2] - g[-3, -3]
        cur, nxt = nxt, cur

        if (n - 1) % per_snap == 0:
            snapshot((n - 1) // per_snap, g, (n - 1) * dt)

    return PDESolution(
        times=times,
        x=xg,
        s=sg,
        y=y_snap,
        z=z_snap,
        cfl_number=cfl_seen,
        steps=steps,
        spot=(x0, s0),
    )


def monte_carlo_representation(
    spec: DiffusionSpec,
    measure,
    t: float,
    x: float,
    s: float,
    n_paths: int = 20000,
    n_steps: int = 64,
    seed: int = 0,
):
    """Probabilistic value at (t, x, s): mean payoff under the hedging measure.

    Exact lognormal sampling in the constant-coefficient regime, Euler
    stepping otherwise.  Returns (estimate, standard_error); serves as an
    independent cross-check of the finite-difference solution.
    """
    if not 0.0 <= t <= spec.horizon:
        raise DomainError("t outside [0, horizon]")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tau = spec.horizon - t
    if tau == 0.0:
        v = float(np.asarray(measure.payoff(x, s)).ravel()[0])
        return v, 0.0
    if spec.regime == "black-scholes":
        bh1, bh2 = (float(np.asarray(v).ravel()[0]) for v in spec.adjusted_drift(t, x, s))
        cov = spec.covariance * tau
        l = np.linalg.cholesky(cov)
        g = rng.standard_normal((n_paths, 2)) @ l.T
        lx = np.log(x) + bh1 * tau + g[:, 0]
        ls = np.log(s) + bh2 * tau + g[:, 1]
    else:
        dt = tau / n_steps
        lx = np.full(n_paths, np.log(x))
        ls = np.full(n_paths, np.log(s))
        for k in range(n_steps):
            tk = t + k * dt
            xk, sk = np.exp(lx), np.exp(ls)
            b1, b2, c11, c12, c22 = spec.fields(tk, xk, sk)
            bh1, bh2 = _hedging_drift(b1, b2, c12, c22)
            z1 = rng.standard_normal(n_paths)
            z2 = rng.standard_normal(n_paths)
            sx = np.sqrt(c11)
            rho = np.clip(c12 / np.sqrt(c11 * c22), -1.0, 1.0)
            ssd = np.sqrt(c22)
            w1 = z1
            w2 = rho * z1 + np.sqrt(np.maximum(1.0 - rho * rho, 0.0)) * z2
            lx = lx + bh1 * dt + sx * np.sqrt(dt) * w1
            ls = ls + bh2 * dt + ssd * np.sqrt(dt) * w2
    vals = np.asarray(measure.payoff(np.exp(lx), np.exp(ls)), dtype=float)
    est = float(vals.mean())
    serr = float(np.sqrt(_sample_var(vals)) / np.sqrt(n_paths))
    return est, serr
