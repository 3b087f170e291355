"""Monte Carlo validation harness.

Simulates the additive pair exactly in law (Gaussian plus compound
Poisson increments), replays the hedging decomposition along the paths,
and runs the statistical checks that certify it: martingale increments
of the propagated powers, exponential moments, orthogonality of the
hedging residual to the traded martingale part, and the mean-variance
tradeoff integral.

The path replay tabulates each contour line (payoff mixtures are
separable) on a uniform grid in its varying log coordinate at every
rebalance time, by one chirp-z transform of the trapezoid rule on
uniform contour nodes, and interpolates the paths on it; a sampled
self-check against exact pointwise evaluation guards the shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr

from .errors import AssumptionError, DomainError, MismatchError

__all__ = [
    "PathEnsemble",
    "simulate",
    "martingale_test",
    "moment_check",
    "hedge_run",
    "HedgeRunResult",
    "baseline_comparison",
    "tradeoff_check",
]

_BLOCK = 8192


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths on a uniform time grid; arrays are read-only."""

    times: np.ndarray
    x: np.ndarray
    s: np.ndarray
    seed: int
    model_digest: str

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]

    @property
    def n_steps(self) -> int:
        return self.x.shape[1] - 1


def simulate(model, n_paths: int, n_steps: int, seed: int = 0) -> PathEnsemble:
    """Exact-in-law paths of (X, S) on a uniform grid over [0, T].

    Each step draws the Gaussian part from the log covariance and the
    jump part as a Poisson count with a conditionally Gaussian sum, so
    no discretisation bias enters the marginals.  Streams are Philox
    counters seeded per block of 8192 paths: results are reproducible
    for a fixed (seed, n_paths, n_steps).
    """
    if n_paths < 1 or n_steps < 1:
        raise DomainError("need at least one path and one step")
    T = model.horizon
    times = np.linspace(0.0, T, n_steps + 1)
    x0, s0 = float(model.spot[0]), float(model.spot[1])
    x = np.empty((n_paths, n_steps + 1))
    s = np.empty((n_paths, n_steps + 1))
    x[:, 0] = x0
    s[:, 0] = s0

    # per-segment factors reused across steps
    factors = {
        seg: (seg.drift, seg.diffusion_factor(), seg.jump_intensity, seg.jump_mean,
              seg.jump_factor() if seg.jump_intensity > 0 else None)
        for _, _, seg in model.segments
    }

    n_blocks = (n_paths + _BLOCK - 1) // _BLOCK
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    for b in range(n_blocks):
        rng = np.random.Generator(np.random.Philox(children[b]))
        rows = slice(b * _BLOCK, min((b + 1) * _BLOCK, n_paths))
        nb = rows.stop - rows.start
        lx = np.zeros(nb)
        ls = np.zeros(nb)
        for i in range(n_steps):
            for a, b, seg in model.segments:
                # the part of the step inside this constant segment
                dur = min(times[i + 1], b) - max(times[i], a)
                if dur <= 1e-15:
                    continue
                drift, ldiff, lam, jmean, ljump = factors[seg]
                g = rng.standard_normal((nb, 2)) @ ldiff.T
                dx = drift[0] * dur + math.sqrt(dur) * g[:, 0]
                ds = drift[1] * dur + math.sqrt(dur) * g[:, 1]
                if lam > 0:
                    k = rng.poisson(lam * dur, nb).astype(float)
                    gj = rng.standard_normal((nb, 2)) @ ljump.T
                    rk = np.sqrt(k)
                    dx = dx + k * jmean[0] + rk * gj[:, 0]
                    ds = ds + k * jmean[1] + rk * gj[:, 1]
                lx += dx
                ls += ds
            x[rows, i + 1] = x0 * np.exp(lx)
            s[rows, i + 1] = s0 * np.exp(ls)
    for arr in (times, x, s):
        arr.setflags(write=False)
    return PathEnsemble(times=times, x=x, s=s, seed=seed, model_digest=model.digest())


def _mean_stderr_t(vals, target: float = 0.0):
    """Sample mean, its standard error and the t-statistic of mean - target."""
    mean = float(vals.mean())
    serr = float(vals.std(ddof=1) / math.sqrt(vals.size))
    return mean, serr, (mean - target) / serr if serr > 0 else 0.0


def _norm_powers(ensemble: PathEnsemble, i: int, z1: complex, z2: complex):
    lx = np.log(ensemble.x[:, i] / ensemble.x[0, 0])
    ls = np.log(ensemble.s[:, i] / ensemble.s[0, 0])
    return np.exp(z1 * lx + z2 * ls)


def martingale_test(model, ensemble: PathEnsemble, exponents: Optional[Sequence] = None) -> dict:
    """t-statistics of the compensated propagated-power increments.

    For each exponent pair z, the process x**z1 s**z2 lambda(t, z) is a
    martingale; the test accumulates its exactly compensated increments
    D_i = V_{i+1} - V_i exp(kappa_step(z)) lambda(t_{i+1}) / lambda(t_i)
    per path and reports mean / stderr for real and imaginary parts.
    """
    _require_same_model(model, ensemble)
    if exponents is None:
        exponents = [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5 + 1.5j, 0.5)]
    times = ensemble.times
    zs = [(complex(z1), complex(z2)) for z1, z2 in exponents]
    # one pass over the steps: the log-prices of a step serve every exponent
    ws = [np.zeros(ensemble.n_paths, dtype=complex) for _ in zs]
    kap = [model.kappa(times, z1, z2) for z1, z2 in zs]
    lam = [model.lambda_coeff(times, z1, z2) for z1, z2 in zs]
    v_prev = [_norm_powers(ensemble, 0, z1, z2) * lam[k][0] for k, (z1, z2) in enumerate(zs)]
    for i in range(ensemble.n_steps):
        lx = np.log(ensemble.x[:, i + 1] / ensemble.x[0, 0])
        ls = np.log(ensemble.s[:, i + 1] / ensemble.s[0, 0])
        for k, (z1, z2) in enumerate(zs):
            growth = np.exp(kap[k][i + 1] - kap[k][i])
            v_next = np.exp(z1 * lx + z2 * ls) * lam[k][i + 1]
            ws[k] += v_next - v_prev[k] * (growth * lam[k][i + 1] / lam[k][i])
            v_prev[k] = v_next
    rows = []
    worst = 0.0
    for (z1, z2), w in zip(zs, ws):
        out = {"z1": z1, "z2": z2}
        for part, vals in (("re", w.real), ("im", w.imag)):
            mean, serr, t = _mean_stderr_t(vals)
            out[f"mean_{part}"] = mean
            out[f"stderr_{part}"] = serr
            out[f"tstat_{part}"] = t
            worst = max(worst, abs(t))
        rows.append(out)
    return {"rows": rows, "max_tstat": worst}


def moment_check(model, ensemble: PathEnsemble, exponents: Optional[Sequence] = None) -> dict:
    """Terminal exponential moments against exp(kappa_T(z))."""
    _require_same_model(model, ensemble)
    if exponents is None:
        exponents = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 2.0), (2.0, 0.0)]
    T = ensemble.times[-1]
    rows = []
    worst = 0.0
    for z1, z2 in exponents:
        z1, z2 = complex(z1), complex(z2)
        vals = _norm_powers(ensemble, ensemble.n_steps, z1, z2) * np.exp(
            -model.kappa(T, z1, z2)
        )
        out = {"z1": z1, "z2": z2}
        for part, arr, target in (("re", vals.real, 1.0), ("im", vals.imag, 0.0)):
            mean, serr, t = _mean_stderr_t(arr, target)
            out[f"mean_{part}"] = mean
            out[f"stderr_{part}"] = serr
            out[f"tstat_{part}"] = t
            worst = max(worst, abs(t))
        rows.append(out)
    return {"rows": rows, "max_tstat": worst}


@dataclass
class HedgeRunResult:
    """Outcome of replaying the decomposition along simulated paths."""

    initial_capital: float
    n_paths: int
    n_steps: int
    residuals: np.ndarray = field(repr=False)
    residual_mean: float = field(init=False)
    residual_stderr: float = field(init=False)
    residual_tstat: float = field(init=False)
    orthogonality_corr: float = 0.0
    payoff_mean: float = 0.0
    gain_mean: float = 0.0
    self_check_error: float = 0.0

    def __post_init__(self):
        self.residual_mean, self.residual_stderr, self.residual_tstat = _mean_stderr_t(
            self.residuals
        )


def _require_same_model(model, ensemble: PathEnsemble):
    if ensemble.model_digest != model.digest():
        raise MismatchError(
            "path ensemble was simulated from a different model "
            f"(digest {ensemble.model_digest} != {model.digest()})"
        )


def _surface_on_paths(dec, t, xcol, scol, grid_points):
    """Value/hedge at one rebalance time for all paths.

    Lines are separable, so each is tabulated on a 1-d grid in its
    varying log coordinate and interpolated; atoms are exact.  The
    claim is real, so the real parts of its terms add up to it.
    """
    model = dec.model
    y = np.zeros(xcol.size)
    z = np.zeros(xcol.size)
    logx = np.log(xcol)
    logs = np.log(scol)
    for a in dec.measure.atoms:
        lam = complex(np.asarray(model.lambda_coeff(t, a.z1, a.z2)).ravel()[0])
        gam = complex(np.asarray(model.segment_at(t).gamma(a.z1, a.z2)).ravel()[0])
        z1, z2 = complex(a.z1), complex(a.z2)
        # real exponents, as in the unit atoms of calls, skip the complex exp
        power = np.exp(z1.real * logx + z2.real * logs)
        if z1.imag or z2.imag:
            power = power * np.exp(1j * (z1.imag * logx + z2.imag * logs))
        y += (a.weight * lam * power).real
        z += (a.weight * lam * gam * power).real / scol
    for idx, ln in enumerate(dec.measure.lines):
        f = float(np.real(ln.fixed_exponent))
        logv = logx if ln.axis == 1 else logs
        lo, hi = float(logv.min()), float(logv.max())
        # all paths at one price (the first step) give a one-point grid
        glx = np.linspace(lo, hi, grid_points if hi - lo >= 1e-12 else 1)
        gy, gz = dec._line_grid(idx, t, glx)
        # linear interpolation by index on the uniform grid (one point: constant)
        pos = (logv - lo) * ((glx.size - 1) / max(hi - lo, 1e-300))
        j = np.minimum(pos.astype(np.intp), max(glx.size - 2, 0))
        frac = pos - j
        j1 = np.minimum(j + 1, glx.size - 1)
        yv, zv = (tab[j] + frac * (tab[j1] - tab[j]) for tab in (np.real(gy), np.real(gz)))
        if ln.axis == 1:
            y += yv * scol**f
            z += zv * scol ** (f - 1.0)
        else:
            y += yv * xcol**f
            z += zv * xcol**f / scol
    return y, z


def hedge_run(
    dec,
    ensemble: PathEnsemble,
    grid_points: int = 4096,
    self_check: int = 8,
    check_tol: float = 5e-3,
) -> HedgeRunResult:
    """Replay the hedge on simulated paths and test the residual.

    Runs the self-financing replay with left-endpoint hedge ratios,
    returns terminal residuals g - h0 - sum z dS and the pooled
    correlation between residual increments and compensated traded
    increments (orthogonality check).  Each step tabulates every line on
    `grid_points` uniform log points by a chirp-z transform and
    interpolates the paths.  `self_check` interior rebalance times are
    re-evaluated exactly at four sampled paths; a value (relative) or
    hedge (absolute) gap beyond check_tol raises MismatchError, and the
    worst gap is returned as self_check_error.
    """
    model = dec.model
    _require_same_model(model, ensemble)
    if not dec.measure.is_real_claim():
        raise AssumptionError("path replay requires a real-valued claim")
    times = ensemble.times
    X, S = ensemble.x, ensemble.s
    n_paths, n_steps = ensemble.n_paths, ensemble.n_steps
    h0 = float(np.real(dec.h0))
    kappa_s = np.real(model.kappa(times, 0.0, 1.0))

    check_steps = set()
    if self_check > 0 and n_steps > 2:
        # skip the terminal boundary layer where the kink steepens the grid
        upto = max(1, int(0.95 * n_steps))
        check_steps = set(np.linspace(0, upto - 1, min(self_check, upto)).astype(int))
    check_rng = np.random.default_rng(np.random.SeedSequence(ensemble.seed + 1))
    worst_check = 0.0

    gains = np.zeros(n_paths)
    # pooled accumulators for corr(dO, dM)
    cnt = 0
    s_a = s_b = s_aa = s_bb = s_ab = 0.0
    y_prev = None
    z_prev = None
    ds_prev = None
    comp_prev = None

    s_i = np.ascontiguousarray(S[:, 0])
    for i in range(n_steps + 1):
        t = float(times[i])
        # contiguous copies of the path columns make the vector work cheap
        x_i = np.ascontiguousarray(X[:, i])
        if i == n_steps:
            y_i = np.asarray(dec.measure.payoff(x_i, s_i), dtype=float)
            z_i = None
        else:
            y_i, z_i = _surface_on_paths(dec, t, x_i, s_i, grid_points)
        if i > 0:
            d_o = y_i - y_prev - z_prev * ds_prev
            d_m = ds_prev - comp_prev
            cnt += d_o.size
            s_a += float(d_o.sum())
            s_b += float(d_m.sum())
            s_aa += float((d_o * d_o).sum())
            s_bb += float((d_m * d_m).sum())
            s_ab += float((d_o * d_m).sum())
        if i < n_steps:
            if i in check_steps:
                pick = check_rng.integers(0, n_paths, size=4)
                y_ref, z_ref = dec.value_and_hedge(t, x_i[pick], s_i[pick])
                sc_y = max(1.0, float(np.max(np.abs(y_ref))))
                # np.maximum and the negated test let a NaN gap fail
                err = float(np.maximum(
                    np.max(np.abs(y_i[pick] - y_ref)) / sc_y,
                    np.max(np.abs(z_i[pick] - z_ref)),
                ))
                worst_check = max(worst_check, err)
                if not err <= check_tol:
                    raise MismatchError(
                        f"interpolated hedge deviates from exact evaluation by {err:.2e} "
                        f"at t={t:g} (tolerance {check_tol:g})"
                    )
            s_next = np.ascontiguousarray(S[:, i + 1])
            ds = s_next - s_i
            gains += z_i * ds
            comp_prev = s_i * np.expm1(float(kappa_s[i + 1] - kappa_s[i]))
            y_prev, z_prev, ds_prev, s_i = y_i, z_i, ds, s_next
        else:
            payoff = y_i

    residuals = payoff - h0 - gains
    var_a = s_aa / cnt - (s_a / cnt) ** 2
    var_b = s_bb / cnt - (s_b / cnt) ** 2
    cov = s_ab / cnt - (s_a / cnt) * (s_b / cnt)
    corr = cov / math.sqrt(var_a * var_b) if var_a > 0 and var_b > 0 else 0.0
    return HedgeRunResult(
        initial_capital=h0,
        n_paths=n_paths,
        n_steps=n_steps,
        residuals=residuals,
        orthogonality_corr=float(corr),
        payoff_mean=float(payoff.mean()),
        gain_mean=float(gains.mean()),
        self_check_error=worst_check,
    )


def baseline_comparison(dec, ensemble: PathEnsemble, run: HedgeRunResult) -> dict:
    """Residual variance against no hedging and a naive delta hedge.

    The naive hedger treats each vanilla component as written on the
    traded asset itself and holds its lognormal delta with the traded
    log variance; claims without vanilla components report only the
    no-hedge baseline.
    """
    model = dec.model
    _require_same_model(model, ensemble)
    times = ensemble.times
    S = ensemble.s
    T = float(times[-1])
    payoff = np.asarray(dec.measure.payoff(ensemble.x[:, -1], S[:, -1]), dtype=float)
    h0 = float(np.real(dec.h0))

    def var_with_se(r):
        # standard error of the sample variance from the fourth moment
        c = r - r.mean()
        m2 = float(np.mean(c * c))
        m4 = float(np.mean(c**4))
        return float(r.var(ddof=1)), math.sqrt(max(m4 - m2 * m2, 0.0) / r.size)

    v_fs, se_fs = var_with_se(run.residuals)
    v_none, se_none = var_with_se(payoff - h0)
    out = {
        "fs_variance": v_fs,
        "fs_variance_stderr": se_fs,
        "no_hedge_variance": v_none,
        "no_hedge_variance_stderr": se_none,
    }

    comps = [c for c in dec.measure.components if c[0] in ("call", "put")]
    if comps:
        # time-averaged log variance rate of S
        var_rate = sum(
            (b - a)
            * (
                seg.covariance[1, 1]
                + seg.jump_intensity
                * (float(seg.jump_mean[1]) ** 2 + float(seg.jump_cov[1, 1]))
            )
            for a, b, seg in model.segments
        ) / T
        gains = np.zeros(ensemble.n_paths)
        for i in range(ensemble.n_steps):
            tau = T - float(times[i])
            sig = math.sqrt(var_rate * max(tau, 1e-300))
            delta = np.zeros(ensemble.n_paths)
            for kind, strike, _axis, weight in comps:
                d1 = (np.log(S[:, i] / strike) + 0.5 * sig * sig) / sig
                nd1 = ndtr(d1)
                delta += float(np.real(weight)) * (nd1 if kind == "call" else nd1 - 1.0)
            gains += delta * (S[:, i + 1] - S[:, i])
        v_naive, se_naive = var_with_se(payoff - h0 - gains)
        out["naive_delta_variance"] = v_naive
        out["naive_delta_variance_stderr"] = se_naive
    return out


def tradeoff_check(model, ensemble: PathEnsemble) -> dict:
    """Realised mean-variance tradeoff integral against its closed form.

    Accumulates (mu_t / (S_t rho_bar))**2 (dS_t - S_t mu_t dt)**2 along
    paths; the expectation is the deterministic integral of
    mu_t**2 / rho_bar_t over [0, T].
    """
    _require_same_model(model, ensemble)
    times = ensemble.times
    S = ensemble.s
    acc = np.zeros(ensemble.n_paths)
    for i in range(ensemble.n_steps):
        t = float(times[i])
        dt = float(times[i + 1] - times[i])
        seg = model.segment_at(t)
        mu, rb = seg.traded_growth_rate, seg.rho_bar
        incr = S[:, i + 1] - S[:, i] - S[:, i] * mu * dt
        acc += (mu / (S[:, i] * rb)) ** 2 * incr * incr
    exact = float(model.tradeoff(model.horizon))
    est, serr, _ = _mean_stderr_t(acc)
    rel = abs(est - exact) / abs(exact) if exact != 0 else abs(est)
    return {"estimate": est, "stderr": serr, "exact": exact, "rel_error": rel}
