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

Each coefficient is a number or a bounded elliptic field given by a
callable of (t, x, s); when all five are numbers (the correlated
lognormal pair) the solver takes its constant fast path.  Models with
jumps are rejected with RegimeError.

The scheme is explicit Euler in time with central differences and a
sign-adapted cross term, written as one linear update over the nine
points of a 3x3 stencil, y_new = sum_k w_k shift_k(y).  The dt-scaled
weights are scalars for constant coefficients and per-point arrays,
rebuilt each step, for coefficient fields.  Each shift is one contiguous
slice of the C-ordered grid seen as a flat array.  The time step obeys a
CFL bound and boundary values are linearly extrapolated each step.

With scalar weights the step keeps a grid that is constant along an axis
constant along it, bit for bit: the shifts along that axis read equal
values, the edge extrapolation 2f - f returns f exactly and the corner
rule repeats the edge rule.  A claim whose payoff on the grid is constant
along an axis (a claim on the other asset alone) is therefore marched as
a line: that axis keeps one node, of flat stride 0, so its shifts read
the node itself.  The stencil has one term per distinct shifted view,
whose weight sums those of the shifts that read it, so a line marches
three terms with the 1-D scheme's weights (the cross term cancels) and
extrapolates its two end nodes.  On the full grid the nine views are
distinct and nothing is summed.  Each snapshot of a line is broadcast
back over the grid; the sums round apart from the full march's nine
products, so a line equals the full march to 2e-13 of its largest value,
at a fraction of its cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

_NAMES = ("b1", "b2", "c11", "c12", "c22")
# ellipticity guards, checked at the spot of a constant spec and on the grid
_MIN_EIG = 1e-10
_MAX_EIG = 1e4
# largest log-price whose exponential is a finite float
_LOG_MAX = float(np.log(np.finfo(float).max))
# the grid spans this many log standard deviations (plus the drift) around
# the spot, and the time step takes this fraction of the CFL limit
_RADIUS_STDDEVS = 6.0
_CFL_FRACTION = 0.4
# measure components whose payoff has a kink at their strike
_VANILLA = ("call", "call-minus-underlying", "put")


@dataclass(frozen=True)
class GridConfig:
    """Spatial/temporal resolution of the finite-difference solve."""

    nx: int = 161
    ns: int = 161
    nt: int = 41

    def __post_init__(self):
        if self.nx < 5 or self.ns < 5:
            raise DomainError("grids need at least 5 points per axis")
        if self.nt < 2:
            raise DomainError("need at least 2 snapshot times")


def _hedging_drift(b1, b2, c12, c22):
    """(bh1, bh2): the log drift after the hedging-measure adjustment."""
    return b1 - (c12 / c22) * (b2 + 0.5 * c22), -0.5 * c22


class DiffusionSpec:
    """Diffusion pair accepted by the finite-difference solver.

    `coefficients` maps each of b1, b2 (log drift) and c11, c12, c22 (log
    covariance) to a number or to a callable of (t, x, s) returning an
    elementwise field.  A spec whose five coefficients are all numbers is
    `constant`: its ellipticity is checked at the spot on construction,
    `solve` marches it with scalar weights and `monte_carlo_representation`
    samples it exactly.
    """

    def __init__(self, *, horizon: float, spot, coefficients: dict):
        self.horizon = float(horizon)
        if not self.horizon > 0:
            raise DomainError("horizon must be positive")
        self.spot = np.asarray(spot, dtype=float)
        if self.spot.shape != (2,) or np.any(self.spot <= 0):
            raise DomainError("spot must be two positive prices")
        if any(k not in coefficients for k in _NAMES):
            raise RegimeError(
                "coefficients need a number or a callable for each of " + ", ".join(_NAMES)
            )
        self.coefficients = {
            k: coefficients[k] if callable(coefficients[k]) else float(coefficients[k])
            for k in _NAMES
        }
        self.constant = not any(map(callable, self.coefficients.values()))
        if self.constant:
            self.check_fields(0.0, *self.spot)

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
        (c11, c12), (_, c22) = seg.covariance
        return cls(
            horizon=model.horizon,
            spot=model.spot,
            coefficients=dict(b1=seg.drift[0], b2=seg.drift[1], c11=c11, c12=c12, c22=c22),
        )

    def fields(self, t: float, x, s):
        """Coefficient arrays (b1, b2, c11, c12, c22) at time t on (x, s)."""
        shape = np.broadcast(x, s).shape
        return tuple(
            np.broadcast_to(np.asarray(f(t, x, s) if callable(f) else f, dtype=float), shape)
            for f in self.coefficients.values()
        )

    def check_fields(self, t: float, x, s):
        """Ellipticity and boundedness on sample points; RegimeError if violated."""
        vals = self.fields(t, x, s)
        for name, arr in zip(_NAMES, vals):
            if not np.isfinite(arr).all():
                raise RegimeError(f"coefficient {name} is not finite at the sample points")
        _, _, c11, c12, c22 = vals
        tr = c11 + c22
        root = np.sqrt(np.maximum(tr * tr - 4.0 * (c11 * c22 - c12 * c12), 0.0))
        lo, hi = float((0.5 * (tr - root)).min()), float((0.5 * (tr + root)).max())
        if lo <= _MIN_EIG:
            raise RegimeError(f"coefficients lose ellipticity (min eig {lo:.3e})")
        if hi >= _MAX_EIG:
            raise RegimeError(f"coefficients exceed the boundedness guard (max eig {hi:.3e})")
        return lo, hi


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
    # shape of the grid the march updated: (nx, ns), or a line (nx, 1) or (1, ns)
    marched_shape: tuple[int, int]
    spot: tuple[float, float]
    h0: float = field(init=False)

    def __post_init__(self):
        # the spot need not be a node (see solve)
        self.h0 = float(self.value_at(0.0, *self.spot))

    def _interp(self, cube, t, x, s):
        """Bilinear in (ln x, ln s) on the snapshot at t; DomainError outside
        the solved box and at a t between snapshots, where the surfaces are
        not linear in time."""
        t, x, s = (np.asarray(a, dtype=float) for a in (t, x, s))
        tg = self.times
        it = np.clip(np.searchsorted(tg, t), 0, len(tg) - 1)
        # negated, so that a NaN fails it
        if not (tg[it] == t).all():
            raise DomainError(f"t is not a snapshot time: {', '.join(f'{v:.6g}' for v in tg)}")
        if not ((x > 0) & (s > 0)).all():
            raise DomainError("prices must be strictly positive")
        xi, eta = np.log(x), np.log(s)
        xg, sg = np.log(self.x), np.log(self.s)
        # in the log coordinates of the nodes, so that every node is inside
        if not ((xi >= xg[0]) & (xi <= xg[-1]) & (eta >= sg[0]) & (eta <= sg[-1])).all():
            raise DomainError(
                f"prices outside the solved grid: x in [{self.x[0]:.6g}, {self.x[-1]:.6g}], "
                f"s in [{self.s[0]:.6g}, {self.s[-1]:.6g}]"
            )
        it, xi_b, eta_b = np.broadcast_arrays(it, xi, eta)
        shape = it.shape
        it, xf, sf = it.ravel(), xi_b.ravel(), eta_b.ravel()

        def locate(grid, q):
            i = np.clip(np.searchsorted(grid, q) - 1, 0, len(grid) - 2)
            return i, (q - grid[i]) / (grid[i + 1] - grid[i])

        ix, wx = locate(xg, xf)
        is_, ws = locate(sg, sf)
        out = np.zeros(it.shape)
        for dx_, wx_ in ((0, 1 - wx), (1, wx)):
            for ds_, ws_ in ((0, 1 - ws), (1, ws)):
                out += wx_ * ws_ * cube[it, ix + dx_, is_ + ds_]
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

    The log grid of each axis is centred on the spot, except that the
    axis of the claim's vanilla component (call or put) whose strike lies
    nearest the spot is shifted by at most half a cell, so that a node
    sits on the log strike; a claim without one keeps the centred grid.
    A strike off the nodes costs the hedge most: on the shipped 201**2
    diffusion config, `compare`'s interior hedge gap then reached 0.035
    against its 0.02 limit.  With the anchor it measured 0.012-0.017 for
    calls and puts struck from 90 to 110, so the margin under the limit
    is about 20% (15% at worst).

    A constant spec whose payoff is constant along an axis marches a line,
    (nx, 1) or (1, ns), with one node of stride 0 across that axis, and
    each snapshot broadcasts it over the grid.  The line marches one term
    per distinct shift, which is the 1-D scheme, and equals the full march
    to 2e-13 of its largest value at a fraction of its cost (see the
    module docstring).  `marched_shape` records it.
    """
    if not measure.is_real_claim():
        raise AssumptionError("the finite-difference route requires a real-valued claim")
    T = spec.horizon
    x0, s0 = float(spec.spot[0]), float(spec.spot[1])

    b1c, b2c, c11c, _, c22c = map(float, spec.fields(0.0, x0, s0))
    half_x = _RADIUS_STDDEVS * np.sqrt(c11c * T) + abs(b1c) * T
    half_s = _RADIUS_STDDEVS * np.sqrt(c22c * T) + abs(b2c) * T
    xi = np.log(x0) + np.linspace(-half_x, half_x, grid.nx)
    eta = np.log(s0) + np.linspace(-half_s, half_s, grid.ns)
    kinks = [(abs(np.log(c[1]) - np.log(spec.spot[c[2] - 1])), c[1], c[2])
             for c in measure.components if c[0] in _VANILLA]
    if kinks:
        _, strike, axis = min(kinks)
        axis_grid = xi if axis == 1 else eta
        cell = axis_grid[1] - axis_grid[0]
        # the strike's offset from the spot in cells, from a node: the spot
        # is a node of an odd grid and half a cell off the nodes of an even one
        r = (np.log(strike) - np.log(spec.spot[axis - 1])) / cell
        r -= 0.5 * (axis_grid.size % 2 == 0)
        axis_grid += (r - np.round(r)) * cell
    if not max(np.abs(xi).max(), np.abs(eta).max()) < _LOG_MAX:
        raise DomainError(
            f"the price grid overflows: log-price half-widths {half_x:.3g} and "
            f"{half_s:.3g} around the spot reach past the largest float"
        )
    dxi = xi[1] - xi[0]
    deta = eta[1] - eta[0]
    xg, sg = np.exp(xi), np.exp(eta)
    xx, ss = np.meshgrid(xg, sg, indexing="ij")

    spec.check_fields(0.0, xx, ss)
    if not spec.constant:
        # the step is sized from the fields at T, which must be checked first
        spec.check_fields(T, xx, ss)
    times = np.linspace(0.0, T, grid.nt)
    y_snap = np.empty((grid.nt, grid.nx, grid.ns))
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
                f"the finite-difference solution is not finite at t={t:g} on log-price "
                f"half-widths {half_x:.3g} and {half_s:.3g}"
            )

    snapshot(-1, measure.payoff(xx, ss), T)

    # the marched grid: an axis along which a constant spec's payoff is
    # constant to the bit is marched as one node of flat stride 0, so that
    # the shifts along it read the node itself (see the module docstring)
    bits = y_snap[-1].view(np.int64)
    nx, ns = grid.nx, grid.ns
    if spec.constant and (bits == bits[:, :1]).all():
        ns = 1
    elif spec.constant and (bits == bits[:1]).all():
        nx = 1
    stride_x, stride_s = ns * (nx > 1), int(ns > 1)
    # constant coefficients stay scalars; fields are taken on the flat C-ordered grid
    points = (x0, s0) if spec.constant else (xx.ravel(), ss.ravel())
    # the interior in flat order, with the edge columns of rows 1..nx-2
    run = slice(stride_x + stride_s, nx * ns - stride_x - stride_s)

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
        if not spec.constant:
            bh1, bh2, c11, c12, c22 = (v[run] for v in (bh1, bh2, c11, c12, c22))
        return (bh1, bh2, c11, c12, c22), float(denom.max())

    coeffs, denom_max = adjusted(T)
    dt_cfl = _CFL_FRACTION / denom_max
    per_snap = max(1, int(np.ceil((T / (grid.nt - 1)) / dt_cfl)))
    steps = per_snap * (grid.nt - 1)
    dt = T / steps

    # y_new = sum_k w_k shift_k(y) on the flat run, two buffers in turn,
    # each with its run and its shifted views built once; a view is keyed
    # by its flat offset, so that a line's stride-0 shifts share one view
    offsets = {(di, dj): di * stride_x + dj * stride_s for di in (-1, 0, 1) for dj in (-1, 0, 1)}

    def buffer(flat):
        """A buffer's shifted views, its run and its grid."""
        views = {k: flat[run.start + k:run.stop + k] for k in offsets.values()}
        return views, flat[run], flat.reshape(nx, ns)

    def stencil(coeffs):
        # the weights of one view are summed in _weights' order, at the place
        # of its first; a scalar zero weight, the idle cross diagonal, drops out
        by_view = {}
        for key, w in _weights(*coeffs, dxi, deta, dt).items():
            k = offsets[key]
            by_view[k] = by_view[k] + w if k in by_view else w
        terms = [(k, w) for k, w in by_view.items() if np.ndim(w) or w]
        return terms[0], terms[1:]

    # linear extrapolation to the edges of the marched axes, as (target, a, b)
    # indices of the grid for g[target] = 2 g[a] - g[b]: rows, columns, then
    # corners; a line's edges are its two end nodes
    along_x, along_s = (slice(None) if size > 1 else 0 for size in (nx, ns))
    ends = ((0, 1), (-1, -1))  # an end node and the step inward
    edges = []
    if nx > 1:
        edges += [((e, along_s), (e + d, along_s), (e + 2 * d, along_s)) for e, d in ends]
    if ns > 1:
        edges += [((along_x, e), (along_x, e + d), (along_x, e + 2 * d)) for e, d in ends]
    if nx > 1 and ns > 1:
        edges += [((e, f), (e + d, f + c), (e + 2 * d, f + 2 * c))
                  for e, d in ends for f, c in ends]

    cur = buffer(y_snap[-1, :nx, :ns].flatten())
    nxt = buffer(np.zeros(nx * ns))
    term = np.empty(run.stop - run.start)
    first, rest = stencil(coeffs)
    cfl_seen = dt * denom_max if spec.constant else 0.0
    for n in range(steps, 0, -1):
        if not spec.constant:
            t_next = n * dt  # level where y currently lives
            coeffs, denom_max = adjusted(t_next)
            if n % max(1, steps // 8) == 0:
                spec.check_fields(t_next, xx, ss)
            first, rest = stencil(coeffs)
            cfl_seen = max(cfl_seen, dt * denom_max)

        views, (_, acc, g) = cur[0], nxt
        k, w = first
        np.multiply(w, views[k], out=acc)
        for k, w in rest:
            np.multiply(w, views[k], out=term)
            acc += term
        for target, a, b in edges:
            g[target] = 2.0 * g[a] - g[b]
        cur, nxt = nxt, cur

        if (n - 1) % per_snap == 0:
            y_grid = np.broadcast_to(g, (grid.nx, grid.ns))
            snapshot((n - 1) // per_snap, y_grid, (n - 1) * dt)

    return PDESolution(
        times=times,
        x=xg,
        s=sg,
        y=y_snap,
        z=z_snap,
        cfl_number=cfl_seen,
        steps=steps,
        marched_shape=(nx, ns),
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

    Exact lognormal sampling for a constant spec, Euler stepping
    otherwise.  Returns (estimate, standard_error); serves as an
    independent cross-check of the finite-difference solution.
    """
    if not 0.0 <= t <= spec.horizon:
        raise DomainError("t outside [0, horizon]")
    if not all(np.isfinite(v) and v > 0 for v in (x, s)):
        raise DomainError("prices must be strictly positive")
    if n_paths < 1 or n_steps < 1:
        raise DomainError("need at least one path and one step")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tau = spec.horizon - t
    if tau == 0.0:
        v = float(np.asarray(measure.payoff(x, s)).ravel()[0])
        return v, 0.0
    if spec.constant:
        b1, b2, c11, c12, c22 = spec.fields(t, x, s)
        bh1, bh2 = _hedging_drift(b1, b2, c12, c22)
        l = np.linalg.cholesky(np.array([[c11, c12], [c12, c22]]) * tau)
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
