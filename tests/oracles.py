"""Independent oracles for the test suite.

Everything here is derived from first principles with stock scipy/numpy
tools, sharing no code paths with the package internals it checks:
lognormal pricing via the normal CDF, ODE integration by explicit RK4,
cumulants by fresh Monte Carlo with a different RNG family, a whole
contour line by oscillatory quadrature, the Black-Scholes hedge at
maturity as the payoff's delta, a small-time check of the
jump generator, the generator of the log pair applied to a value
surface by finite differences and Gauss-Hermite quadrature, and the
block-by-block path simulation that the step stream must reproduce
(with `stacked_paths`, the stream's steps laid out the same way).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.stats import norm

from basishedge.errors import DomainError

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def panel_nodes(lo: float, hi: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite 16-point Gauss-Legendre rule on [lo, hi], a reference rule."""
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    u = (mids[:, None] + half * _GL_X[None, :]).ravel()
    w = np.tile(half * _GL_W, n_panels)
    return u, w


def lognormal_call(forward: float, strike: float, total_var: float) -> float:
    """E[(F e^{sqrt(v) Z - v/2} - K)^+] for standard normal Z."""
    if total_var <= 0:
        return max(forward - strike, 0.0)
    sd = np.sqrt(total_var)
    d1 = (np.log(forward / strike) + 0.5 * total_var) / sd
    return forward * norm.cdf(d1) - strike * norm.cdf(d1 - sd)


def lognormal_put(forward: float, strike: float, total_var: float) -> float:
    return lognormal_call(forward, strike, total_var) - forward + strike


def adjusted_forward(model, asset: int) -> float:
    """E[asset_T] under the hedging measure, from first principles.

    The drift adjustment removes the traded growth rate scaled by the
    covariance ratio of the asset's log increments with the traded one.
    """
    z = (1.0, 0.0) if asset == 1 else (0.0, 1.0)
    psi_a = complex(model.psi(*z)).real
    psi_s = complex(model.psi(0.0, 1.0)).real
    cov_rate = complex(
        model.psi(z[0], z[1] + 1.0) - model.psi(*z) - model.psi(0.0, 1.0)
    ).real
    var_rate = complex(model.psi(0.0, 2.0) - 2.0 * model.psi(0.0, 1.0)).real
    growth = psi_a - (cov_rate / var_rate) * psi_s
    spot = float(model.spot[0] if asset == 1 else model.spot[1])
    return spot * np.exp(growth * model.horizon)


def black_scholes_terminal_hedge(model, kind: str, strike: float, axis: int, x, s):
    """Hedge of a call or put on a Black-Scholes pair at maturity.

    At T the hedge is the payoff's delta against S: for a claim on S it
    is the step dg/ds, and for a claim on X it is (c12/c22) (x/s) dg/dx,
    the delta of the regression of log X on log S.  At the strike the step
    is its midpoint, 1/2, as a symmetric contour integral gives it.
    """
    x, s = np.asarray(x, dtype=float), np.asarray(s, dtype=float)
    v = x if axis == 1 else s
    step = np.where(v > strike, 1.0, 0.0) if kind == "call" else np.where(v < strike, -1.0, 0.0)
    step = np.where(v == strike, 0.5 if kind == "call" else -0.5, step)
    if axis == 2:
        return step
    c = np.asarray(model.covariance, dtype=float)
    return step * (c[0, 1] / c[1, 1]) * x / s


def quadosc_line(abscissa: float, strike: float, scale: complex, v: float,
                 weight: Callable) -> complex:
    """mpmath quadosc of the rational kernel's whole line at the point v.

    integral du scale K**(1-z) v**z weight(z) / (2 pi z (z-1)) over all real
    u at z = abscissa + i*u, folded onto u > 0; the integrand oscillates
    like exp(i u w) with w = log(v/K), so it needs |w| well away from 0.
    """
    import mpmath as mp

    w = mp.log(mp.mpf(v) / strike)

    def f(u):
        z = mp.mpc(abscissa, u)
        return scale * strike * mp.exp(z * w) * weight(z) / (2 * mp.pi * z * (z - 1))

    with mp.workdps(15):
        return complex(mp.quadosc(lambda u: f(u) + f(-u), [0, mp.inf], omega=abs(w)))


def rk4_backward(rate, t0: float, t1: float, n: int) -> complex:
    """Solve f' = rate(t) * f backward from f(t1) = 1 down to t0 by RK4."""
    h = (t1 - t0) / n
    f = 1.0 + 0.0j
    t = t1
    for _ in range(n):
        k1 = -rate(t) * f
        k2 = -rate(t - 0.5 * h) * (f + 0.5 * h * k1)
        k3 = -rate(t - 0.5 * h) * (f + 0.5 * h * k2)
        k4 = -rate(t - h) * (f + h * k3)
        f = f + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t -= h
    return f


# probabilists' Gauss-Hermite rule: E f(N(0, 1)) = sum(w f(x)) / sqrt(2 pi)
_GHE_X, _GHE_W = np.polynomial.hermite_e.hermegauss(20)


def generator_fd(dec, t: float, x: float, s: float, h: float = 2.5e-4) -> float:
    """L y at (t, x, s), from the value surface y = dec.value alone.

    L is the generator of the log pair Z = (ln X, ln S) in the model
    segment in force at t, with drift b, diffusion covariance C and
    N(m, D) co-jumps at intensity lam, acting on g(z) = y(t, exp(z)):

        L g = b . grad g + tr(C hess g) / 2 + lam (E g(z + J) - g(z)).

    Derivatives are central differences of step h in (ln x, ln s) on a
    3x3 stencil; the jump expectation is a 20x20 probabilists'
    Gauss-Hermite rule through a Cholesky factor of D (which must be
    positive definite when lam > 0).  All points go to one vectorised
    `value` call, so they share one quadrature level and its error
    stays smooth across the stencil.
    """
    seg = dec.model.segment_at(t)
    lx, ls = np.log(x), np.log(s)
    steps = np.array([-h, 0.0, h])
    d1, d2 = (a.ravel() for a in np.meshgrid(steps, steps, indexing="ij"))
    z1, z2 = [lx + d1], [ls + d2]
    lam = seg.jump_intensity
    if lam > 0:
        g1, g2 = (a.ravel() for a in np.meshgrid(_GHE_X, _GHE_X, indexing="ij"))
        weights = np.outer(_GHE_W, _GHE_W).ravel() / (2.0 * np.pi)
        chol = np.linalg.cholesky(seg.jump_cov)
        z1.append(lx + seg.jump_mean[0] + chol[0, 0] * g1)
        z2.append(ls + seg.jump_mean[1] + chol[1, 0] * g1 + chol[1, 1] * g2)
    vals = np.asarray(dec.value(t, np.exp(np.concatenate(z1)), np.exp(np.concatenate(z2))))
    g = vals[:9].reshape(3, 3)
    y0 = g[1, 1]
    gx = (g[2, 1] - g[0, 1]) / (2.0 * h)
    gs = (g[1, 2] - g[1, 0]) / (2.0 * h)
    gxx = (g[2, 1] - 2.0 * y0 + g[0, 1]) / h**2
    gss = (g[1, 2] - 2.0 * y0 + g[1, 0]) / h**2
    gxs = (g[2, 2] - g[2, 0] - g[0, 2] + g[0, 0]) / (4.0 * h**2)
    b, c = seg.drift, seg.covariance
    out = b[0] * gx + b[1] * gs + 0.5 * (c[0, 0] * gxx + c[1, 1] * gss) + c[0, 1] * gxs
    if lam > 0:
        out += lam * (float(np.sum(weights * vals[9:])) - y0)
    return float(out)


def stacked_paths(source):
    """(x, s) of shape (paths, steps + 1): one pass over a step source, a column per step."""
    steps = list(source)
    return (np.stack([x for _, _, x, _ in steps], axis=1),
            np.stack([s for _, _, _, s in steps], axis=1))


def block_major_paths(model, n_paths: int, n_steps: int, seed: int):
    """(x, s) of shape (paths, steps + 1), simulated one path block at a time.

    The loop order of the simulator before it streamed steps: every block
    of 8192 paths runs all its steps from its own Philox stream before the
    next block starts.  A step stream that draws each block's numbers in
    the same order must match it bit for bit.
    """
    block = 8192
    times = np.linspace(0.0, model.horizon, n_steps + 1)
    x0, s0 = float(model.spot[0]), float(model.spot[1])
    x = np.empty((n_paths, n_steps + 1))
    s = np.empty((n_paths, n_steps + 1))
    x[:, 0], s[:, 0] = x0, s0
    children = np.random.SeedSequence(seed).spawn((n_paths + block - 1) // block)
    for b, child in enumerate(children):
        rng = np.random.Generator(np.random.Philox(child))
        rows = slice(b * block, min((b + 1) * block, n_paths))
        nb = rows.stop - rows.start
        lx, ls = np.zeros(nb), np.zeros(nb)
        for i in range(n_steps):
            for lo, hi, seg in model.segments:
                dur = min(times[i + 1], hi) - max(times[i], lo)
                if dur <= 1e-15:
                    continue
                g = rng.standard_normal((nb, 2)) @ seg.diffusion_factor().T
                dx = seg.drift[0] * dur + np.sqrt(dur) * g[:, 0]
                ds = seg.drift[1] * dur + np.sqrt(dur) * g[:, 1]
                if seg.jump_intensity > 0:
                    k = rng.poisson(seg.jump_intensity * dur, nb).astype(float)
                    gj = rng.standard_normal((nb, 2)) @ seg.jump_factor().T
                    rk = np.sqrt(k)
                    dx = dx + k * seg.jump_mean[0] + rk * gj[:, 0]
                    ds = ds + k * seg.jump_mean[1] + rk * gj[:, 1]
                lx += dx
                ls += ds
            x[rows, i + 1] = x0 * np.exp(lx)
            s[rows, i + 1] = s0 * np.exp(ls)
    return x, s


def sample_terminal(model, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One-shot exact draws of (X_T, S_T) using the PCG64 generator.

    Gaussian part from the Cholesky factor of T*covariance; jump part
    from a Poisson count with conditionally Gaussian sum.  Independent
    of the package's Philox-based path simulator.
    """
    rng = np.random.default_rng(seed)
    T = model.horizon
    mean = np.asarray(model.drift, dtype=float) * T
    cov = np.asarray(model.covariance, dtype=float) * T
    le = np.linalg.cholesky(cov + 1e-18 * np.eye(2))
    logs = mean + rng.standard_normal((n, 2)) @ le.T
    if model.jump_intensity > 0:
        k = rng.poisson(model.jump_intensity * T, n).astype(float)
        jm = np.asarray(model.jump_mean, dtype=float)
        jc = np.asarray(model.jump_cov, dtype=float)
        lj = np.linalg.cholesky(jc + 1e-18 * np.eye(2))
        g = rng.standard_normal((n, 2)) @ lj.T
        logs = logs + k[:, None] * jm[None, :] + np.sqrt(k)[:, None] * g
    x = float(model.spot[0]) * np.exp(logs[:, 0])
    s = float(model.spot[1]) * np.exp(logs[:, 1])
    return x, s


def mc_exponential_moment(model, z1: complex, z2: complex, n: int, seed: int):
    """(mean, stderr) of (X_T/x0)^z1 (S_T/s0)^z2 by fresh sampling."""
    x, s = sample_terminal(model, n, seed)
    vals = np.exp(
        z1 * np.log(x / float(model.spot[0])) + z2 * np.log(s / float(model.spot[1]))
    )
    mean = complex(vals.mean())
    serr = float(np.abs(vals - mean).std(ddof=1) / np.sqrt(n))
    return mean, serr


def explicit_march(spec, payoff, x, s, steps: int, per_snap: int) -> np.ndarray:
    """Value snapshots of the explicit finite-difference march, term by term.

    Each step adds dt times the generator built from central differences
    for y_xi, y_eta, y_xixi, y_etaeta and the sign-adapted seven-point
    cross difference (NE/SW diagonal weighted by c12+, NW/SE by c12-),
    with the coefficients of `spec.fields` adjusted so the traded asset
    is driftless; then the edge rows, the edge columns and the corners
    are linearly extrapolated, in that order.  Snapshots are taken every
    per_snap steps and returned in time order, shape (steps/per_snap + 1,
    len(x), len(s)).
    """
    dxi = np.log(x[1]) - np.log(x[0])
    deta = np.log(s[1]) - np.log(s[0])
    xx, ss = np.meshgrid(x, s, indexing="ij")
    dt = spec.horizon / steps
    y = np.broadcast_to(np.asarray(payoff(xx, ss), dtype=float), xx.shape).copy()
    snaps = [y]
    for n in range(steps, 0, -1):
        b1, b2, c11, c12, c22 = (
            np.broadcast_to(v, xx.shape)[1:-1, 1:-1] for v in spec.fields(n * dt, xx, ss)
        )
        bh1 = b1 - (c12 / c22) * (b2 + 0.5 * c22)
        bh2 = -0.5 * c22
        core = y[1:-1, 1:-1]
        east, west = y[2:, 1:-1], y[:-2, 1:-1]
        north, south = y[1:-1, 2:], y[1:-1, :-2]
        cross_pos = (2.0 * core + y[2:, 2:] + y[:-2, :-2] - east - west - north - south) / (
            2.0 * dxi * deta
        )
        cross_neg = (-2.0 * core - y[2:, :-2] - y[:-2, 2:] + east + west + north + south) / (
            2.0 * dxi * deta
        )
        gen = (
            bh1 * (east - west) / (2.0 * dxi)
            + bh2 * (north - south) / (2.0 * deta)
            + 0.5 * c11 * (east - 2.0 * core + west) / dxi**2
            + 0.5 * c22 * (north - 2.0 * core + south) / deta**2
            + np.maximum(c12, 0.0) * cross_pos
            + np.minimum(c12, 0.0) * cross_neg
        )
        nxt = np.zeros_like(y)
        nxt[1:-1, 1:-1] = core + dt * gen
        nxt[0, :] = 2.0 * nxt[1, :] - nxt[2, :]
        nxt[-1, :] = 2.0 * nxt[-2, :] - nxt[-3, :]
        nxt[:, 0] = 2.0 * nxt[:, 1] - nxt[:, 2]
        nxt[:, -1] = 2.0 * nxt[:, -2] - nxt[:, -3]
        nxt[0, 0] = 2.0 * nxt[1, 1] - nxt[2, 2]
        nxt[0, -1] = 2.0 * nxt[1, -2] - nxt[2, -3]
        nxt[-1, 0] = 2.0 * nxt[-2, 1] - nxt[-3, 2]
        nxt[-1, -1] = 2.0 * nxt[-2, -2] - nxt[-3, -3]
        y = nxt
        if (n - 1) % per_snap == 0:
            snaps.append(y)
    return np.array(snaps[::-1])


# -- small-time generator check ----------------------------------------------
#
# One-dimensional sanity check tying a jump law to its infinitesimal
# generator, with the zero-truncation-drift convention: the process is
# the compound Poisson sum compensated by the small-jump mean, so
# L f(s) = integral (f(s+y) - f(s) - y f'(s) 1_{|y|<1}) nu(dy).

_GH_X, _GH_W = np.polynomial.hermite.hermgauss(80)


@dataclass(frozen=True)
class GaussianJumps:
    """Compound Poisson marginal with N(mean, std^2) jumps."""

    intensity: float
    mean: float
    std: float

    def __post_init__(self):
        if self.intensity < 0 or self.std < 0:
            raise DomainError("intensity and std must be nonnegative")


@dataclass(frozen=True)
class FixedJumps:
    """Compound Poisson marginal with deterministic jump size."""

    intensity: float
    size: float

    def __post_init__(self):
        if self.intensity < 0:
            raise DomainError("intensity must be nonnegative")


@dataclass(frozen=True)
class GeneratorCheck:
    finite_difference: float
    generator: float
    gap: float


def _small_jump_mean(marginal) -> float:
    """integral_{|y|<1} y nu(dy), by quadrature for the Gaussian law."""
    if isinstance(marginal, FixedJumps):
        return marginal.intensity * marginal.size * (1.0 if abs(marginal.size) < 1.0 else 0.0)
    lam, m, sd = marginal.intensity, marginal.mean, marginal.std
    if sd == 0.0:
        return lam * m * (1.0 if abs(m) < 1.0 else 0.0)
    y, w = panel_nodes(-1.0, 1.0, 16)
    dens = np.exp(-0.5 * ((y - m) / sd) ** 2) / (sd * np.sqrt(2.0 * np.pi))
    return lam * float(np.sum(w * y * dens))


def _gaussian_expect(f: Callable, mean: float, std: float) -> float:
    if std == 0.0:
        return float(f(np.asarray(mean)))
    pts = mean + std * np.sqrt(2.0) * _GH_X
    return float(np.sum(_GH_W * f(pts)) / np.sqrt(np.pi))


def generator_gap(marginal, f: Callable, fprime: Callable, s: float, dt: float) -> GeneratorCheck:
    """Compare (P_dt f - f)/dt against the generator at a point.

    f must be C^2 with bounded second derivative near the mass of
    s + jumps; the gap decays linearly in dt for such f.  The transition
    expectation is computed by conditioning on the jump count, the
    generator by quadrature against the jump law.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    lam = marginal.intensity
    comp = _small_jump_mean(marginal)
    base = s - dt * comp

    # transition expectation E[f(s + L_dt)] via the Poisson mixture
    mu = lam * dt
    pk = np.exp(-mu)
    fd = pk * float(f(np.asarray(base)))
    k = 0
    while True:
        k += 1
        pk = pk * mu / k
        if isinstance(marginal, FixedJumps):
            term = float(f(np.asarray(base + k * marginal.size)))
        else:
            term = _gaussian_expect(f, base + k * marginal.mean, marginal.std * np.sqrt(k))
        fd += pk * term
        if pk < 1e-18 and k > 2:
            break
        if k > 400:
            break
    fd_rate = (fd - float(f(np.asarray(s)))) / dt

    # generator L f(s) = lam*E[f(s+J) - f(s)] - f'(s)*integral_{|y|<1} y nu
    if isinstance(marginal, FixedJumps):
        jump_part = lam * (float(f(np.asarray(s + marginal.size))) - float(f(np.asarray(s))))
    else:
        jump_part = lam * (
            _gaussian_expect(f, s + marginal.mean, marginal.std) - float(f(np.asarray(s)))
        )
    gen = jump_part - float(fprime(np.asarray(s))) * comp
    return GeneratorCheck(finite_difference=fd_rate, generator=gen, gap=fd_rate - gen)
