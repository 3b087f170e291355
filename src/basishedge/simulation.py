"""Monte Carlo validation harness.

Simulates the additive pair exactly in law (Gaussian plus compound
Poisson increments), replays the hedging decomposition along the paths,
and runs the statistical checks that certify it: martingale increments
of the propagated powers, exponential moments, orthogonality of the
hedging residual to the traded martingale part, and the mean-variance
tradeoff integral.

Paths come from a step source, which yields (i, t_i, x_i, s_i) with
contiguous read-only arrays over all paths, one rebalance time at a
time.  A `PathStream` (what `simulate` returns) draws each step as it
is asked for, and every pass over it draws the same paths again.
Every check is a fold over the steps with per-path accumulators, and
`run_folds` feeds any set of folds from one pass over a source, so a
validation battery holds O(paths) memory, not O(paths x steps).  The
public check functions fold a source alone.

The path replay asks the decomposition for its value and hedge on all
paths at each rebalance time (`HedgeDecomposition._path_slice`, which
tabulates each contour line on a uniform grid and interpolates the
paths on it); a sampled self-check against exact pointwise evaluation
guards the shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import AssumptionError, DomainError, MismatchError

__all__ = [
    "PathStream",
    "simulate",
    "run_folds",
    "MartingaleFold",
    "MomentFold",
    "HedgeFold",
    "BaselineFold",
    "TradeoffFold",
    "martingale_test",
    "moment_check",
    "hedge_run",
    "HedgeRunResult",
    "baseline_comparison",
    "tradeoff_check",
]

_BLOCK = 8192
# the replay's uniform line grid, its self-checked rebalance times and
# the tolerance of their gap to exact evaluation
_GRID_POINTS = 4096
_SELF_CHECKS = 8
_CHECK_TOL = 5e-3


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class PathStream:
    """Exact-in-law paths of (X, S) on a uniform grid over [0, T], drawn step by step.

    Each step draws the Gaussian part from the log covariance and the
    jump part as a Poisson count with a conditionally Gaussian sum, so
    no discretisation bias enters the marginals.  Streams are Philox
    counters seeded per block of 8192 paths, each block drawing its
    steps in order: paths are reproducible for a fixed (seed, n_paths,
    n_steps), and every iteration yields the same paths.  Iterating
    yields (i, t_i, x_i, s_i) for i = 0..n_steps, with fresh read-only
    arrays over all paths; only the current step is held.
    """

    def __init__(self, model, n_paths: int, n_steps: int, seed: int = 0):
        if n_paths < 1 or n_steps < 1:
            raise DomainError("need at least one path and one step")
        self.model = model
        self.n_paths = n_paths
        self.n_steps = n_steps
        self.seed = seed
        self.times = _frozen(np.linspace(0.0, model.horizon, n_steps + 1))
        self.model_digest = model.digest()

    def __iter__(self):
        model, times, n = self.model, self.times, self.n_paths
        x0, s0 = float(model.spot[0]), float(model.spot[1])
        # per-segment factors reused across steps
        factors = {
            seg: (seg.drift, seg.diffusion_factor(), seg.jump_intensity, seg.jump_mean,
                  seg.jump_factor() if seg.jump_intensity > 0 else None)
            for _, _, seg in model.segments
        }
        children = np.random.SeedSequence(self.seed).spawn((n + _BLOCK - 1) // _BLOCK)
        blocks = [
            (slice(k * _BLOCK, min((k + 1) * _BLOCK, n)), np.random.Generator(np.random.Philox(c)))
            for k, c in enumerate(children)
        ]
        lx = np.zeros(n)
        ls = np.zeros(n)
        yield 0, float(times[0]), _frozen(np.full(n, x0)), _frozen(np.full(n, s0))
        for i in range(self.n_steps):
            # the parts of the step inside each constant segment
            parts = []
            for a, b, seg in model.segments:
                dur = min(times[i + 1], b) - max(times[i], a)
                if dur > 1e-15:
                    parts.append((dur, *factors[seg]))
            for rows, rng in blocks:
                nb = rows.stop - rows.start
                for dur, drift, ldiff, lam, jmean, ljump in parts:
                    g = rng.standard_normal((nb, 2)) @ ldiff.T
                    dx = drift[0] * dur + math.sqrt(dur) * g[:, 0]
                    ds = drift[1] * dur + math.sqrt(dur) * g[:, 1]
                    if lam > 0:
                        k = rng.poisson(lam * dur, nb).astype(float)
                        gj = rng.standard_normal((nb, 2)) @ ljump.T
                        rk = np.sqrt(k)
                        dx = dx + k * jmean[0] + rk * gj[:, 0]
                        ds = ds + k * jmean[1] + rk * gj[:, 1]
                    lx[rows] += dx
                    ls[rows] += ds
            yield i + 1, float(times[i + 1]), _frozen(x0 * np.exp(lx)), _frozen(s0 * np.exp(ls))


def simulate(model, n_paths: int, n_steps: int, seed: int = 0) -> PathStream:
    """Exact-in-law paths of (X, S) on a uniform grid over [0, T] (see `PathStream`)."""
    return PathStream(model, n_paths, n_steps, seed)


def run_folds(source, *folds):
    """Feed every step of the source, in order, to each fold: one pass for all."""
    for step in source:
        for fold in folds:
            fold.step(*step)


def _fold_alone(source, fold, *args):
    run_folds(source, fold)
    return fold.finish(*args)


def _sample_var(vals) -> float:
    """Sample variance (ddof 1); NaN, without a warning, for one sample."""
    return float(vals.var(ddof=1)) if vals.size > 1 else math.nan


def _mean_stderr_t(vals, target: float = 0.0):
    """Sample mean, its standard error and the t-statistic of mean - target,
    which fails closed: NaN without a finite standard error (one sample has
    none), infinite for a zero standard error and a mean off target."""
    mean = float(vals.mean())
    serr = math.sqrt(_sample_var(vals)) / math.sqrt(vals.size)
    if not math.isfinite(serr):
        t = math.nan
    elif serr > 0:
        t = (mean - target) / serr
    else:
        t = 0.0 if mean == target else math.copysign(math.inf, mean - target)
    return mean, serr, t


def _stat_row(z1, z2, parts) -> tuple[dict, float]:
    """One report row of (part, values, target) t-tests and its largest |t|."""
    out = {"z1": z1, "z2": z2}
    worst = 0.0
    for part, vals, target in parts:
        mean, serr, t = _mean_stderr_t(vals, target)
        out[f"mean_{part}"] = mean
        out[f"stderr_{part}"] = serr
        out[f"tstat_{part}"] = t
        # np.maximum keeps a NaN statistic
        worst = float(np.maximum(worst, abs(t)))
    return out, worst


def _require_same_model(model, source):
    if source.model_digest != model.digest():
        raise MismatchError(
            "paths were simulated from a different model "
            f"(digest {source.model_digest} != {model.digest()})"
        )


class MartingaleFold:
    """The fold behind `martingale_test`."""

    def __init__(self, model, source, exponents: Optional[Sequence] = None):
        _require_same_model(model, source)
        if exponents is None:
            exponents = [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5 + 1.5j, 0.5)]
        times = source.times
        self.x0, self.s0 = float(model.spot[0]), float(model.spot[1])
        self.zs = [(complex(z1), complex(z2)) for z1, z2 in exponents]
        # a real exponent pair has a real power process: it runs in float
        # arithmetic, and its imaginary row comes out as exact zeros
        self.powers, self.kap, self.lam, self.ws = [], [], [], []
        for z1, z2 in self.zs:
            real = not (z1.imag or z2.imag)
            kap, lam = model.kappa(times, z1, z2), model.lambda_coeff(times, z1, z2)
            self.powers.append((z1.real, z2.real) if real else (z1, z2))
            self.kap.append(kap.real if real else kap)
            self.lam.append(lam.real if real else lam)
            self.ws.append(np.zeros(source.n_paths, dtype=float if real else complex))
        self.v_prev = [None] * len(self.zs)

    def step(self, i, t, x, s):
        # the log-prices of a step serve every exponent; a zero exponent's
        # term is skipped, and a log-price that no exponent needs is not taken
        lx = np.log(x / self.x0) if any(p1 for p1, _ in self.powers) else None
        ls = np.log(s / self.s0) if any(p2 for _, p2 in self.powers) else None
        for k, ((p1, p2), kap, lam) in enumerate(zip(self.powers, self.kap, self.lam)):
            if p1 and p2:
                e = p1 * lx + p2 * ls
            elif p1:
                e = p1 * lx
            elif p2:
                e = p2 * ls
            else:
                e = np.zeros(x.size)
            v = np.exp(e) * lam[i]
            if i > 0:
                growth = np.exp(kap[i] - kap[i - 1])
                self.ws[k] += v - self.v_prev[k] * (growth * lam[i] / lam[i - 1])
            # one exponent's previous powers are dropped before the next one's are made
            self.v_prev[k] = v

    def finish(self) -> dict:
        rows = []
        worst = 0.0
        for (z1, z2), w in zip(self.zs, self.ws):
            row, t = _stat_row(z1, z2, (("re", w.real, 0.0), ("im", w.imag, 0.0)))
            rows.append(row)
            worst = float(np.maximum(worst, t))
        return {"rows": rows, "max_tstat": worst}


class MomentFold:
    """The fold behind `moment_check`."""

    def __init__(self, model, source, exponents: Optional[Sequence] = None):
        _require_same_model(model, source)
        if exponents is None:
            exponents = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 2.0), (2.0, 0.0)]
        self.model = model
        self.x0, self.s0 = float(model.spot[0]), float(model.spot[1])
        self.zs = [(complex(z1), complex(z2)) for z1, z2 in exponents]
        self.n_steps = source.n_steps
        self.rows = []
        self.worst = 0.0

    def step(self, i, t, x, s):
        if i < self.n_steps:
            return
        lx = np.log(x / self.x0)
        ls = np.log(s / self.s0)
        for z1, z2 in self.zs:
            vals = np.exp(z1 * lx + z2 * ls) * np.exp(-self.model.kappa(t, z1, z2))
            row, worst = _stat_row(z1, z2, (("re", vals.real, 1.0), ("im", vals.imag, 0.0)))
            self.rows.append(row)
            self.worst = float(np.maximum(self.worst, worst))

    def finish(self) -> dict:
        return {"rows": self.rows, "max_tstat": self.worst}


def martingale_test(model, source, exponents: Optional[Sequence] = None) -> dict:
    """t-statistics of the compensated propagated-power increments.

    For each exponent pair z, the process x**z1 s**z2 lambda(t, z) is a
    martingale; the test accumulates its exactly compensated increments
    D_i = V_{i+1} - V_i exp(kappa_step(z)) lambda(t_{i+1}) / lambda(t_i)
    per path and reports mean / stderr for real and imaginary parts.
    """
    return _fold_alone(source, MartingaleFold(model, source, exponents))


def moment_check(model, source, exponents: Optional[Sequence] = None) -> dict:
    """Terminal exponential moments against exp(kappa_T(z))."""
    return _fold_alone(source, MomentFold(model, source, exponents))


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
    residual_variance: float = field(init=False)
    orthogonality_corr: float = 0.0
    payoff_mean: float = 0.0
    gain_mean: float = 0.0
    self_check_error: float = 0.0

    def __post_init__(self):
        self.residual_mean, self.residual_stderr, self.residual_tstat = _mean_stderr_t(
            self.residuals
        )
        self.residual_variance = _sample_var(self.residuals)


class HedgeFold:
    """The fold behind `hedge_run`: the replay, one rebalance time per step."""

    def __init__(self, dec, source):
        _require_same_model(dec.model, source)
        if not dec.measure.is_real_claim():
            raise AssumptionError("path replay requires a real-valued claim")
        self.dec = dec
        self.n_paths, self.n_steps = source.n_paths, source.n_steps
        self.h0 = float(np.real(dec.h0))
        self.kappa_s = np.real(dec.model.kappa(source.times, 0.0, 1.0))
        self.check_steps = set()
        if self.n_steps > 2:
            # skip the terminal boundary layer where the kink steepens the grid
            upto = max(1, int(0.95 * self.n_steps))
            self.check_steps = set(np.linspace(0, upto - 1, min(_SELF_CHECKS, upto)).astype(int))
        self.check_rng = np.random.default_rng(np.random.SeedSequence(source.seed + 1))
        self.worst_check = 0.0
        self.gains = np.zeros(self.n_paths)
        # pooled accumulators for corr(dO, dM)
        self.cnt = 0
        self.s_a = self.s_b = self.s_aa = self.s_bb = self.s_ab = 0.0

    def step(self, i, t, x, s):
        dec = self.dec
        if i > 0:
            ds = s - self.s_prev
            self.gains += self.z_prev * ds
            comp = self.s_prev * np.expm1(float(self.kappa_s[i] - self.kappa_s[i - 1]))
        if i == self.n_steps:
            y = self.payoff = np.asarray(dec.measure.payoff(x, s), dtype=float)
            z = None
        else:
            y, z = dec._path_slice(t, x, s, _GRID_POINTS)
        if i > 0:
            d_o = y - self.y_prev - self.z_prev * ds
            d_m = ds - comp
            self.cnt += d_o.size
            self.s_a += float(d_o.sum())
            self.s_b += float(d_m.sum())
            self.s_aa += float((d_o * d_o).sum())
            self.s_bb += float((d_m * d_m).sum())
            self.s_ab += float((d_o * d_m).sum())
        if i in self.check_steps:
            pick = self.check_rng.integers(0, self.n_paths, size=4)
            y_ref, z_ref = dec.value_and_hedge(t, x[pick], s[pick])
            sc_y = max(1.0, float(np.max(np.abs(y_ref))))
            # np.maximum and the negated test let a NaN gap fail
            err = float(np.maximum(
                np.max(np.abs(y[pick] - y_ref)) / sc_y,
                np.max(np.abs(z[pick] - z_ref)),
            ))
            self.worst_check = max(self.worst_check, err)
            if not err <= _CHECK_TOL:
                raise MismatchError(
                    f"interpolated hedge deviates from exact evaluation by {err:.2e} "
                    f"at t={t:g} (tolerance {_CHECK_TOL:g})"
                )
        self.y_prev, self.z_prev, self.s_prev = y, z, s

    def finish(self) -> HedgeRunResult:
        residuals = self.payoff - self.h0 - self.gains
        cnt, s_a, s_b = self.cnt, self.s_a, self.s_b
        var_a = self.s_aa / cnt - (s_a / cnt) ** 2
        var_b = self.s_bb / cnt - (s_b / cnt) ** 2
        cov = self.s_ab / cnt - (s_a / cnt) * (s_b / cnt)
        corr = cov / math.sqrt(var_a * var_b) if var_a > 0 and var_b > 0 else 0.0
        return HedgeRunResult(
            initial_capital=self.h0,
            n_paths=self.n_paths,
            n_steps=self.n_steps,
            residuals=residuals,
            orthogonality_corr=float(corr),
            payoff_mean=float(self.payoff.mean()),
            gain_mean=float(self.gains.mean()),
            self_check_error=self.worst_check,
        )


def hedge_run(dec, source) -> HedgeRunResult:
    """Replay the hedge on simulated paths and test the residual.

    Runs the self-financing replay with left-endpoint hedge ratios,
    returns terminal residuals g - h0 - sum z dS and the pooled
    correlation between residual increments and compensated traded
    increments (orthogonality check).  Each step tabulates every line on
    `_GRID_POINTS` uniform log points by a chirp-z transform and
    interpolates the paths.  `_SELF_CHECKS` interior rebalance times are
    re-evaluated exactly at four sampled paths; a value (relative) or
    hedge (absolute) gap beyond `_CHECK_TOL` raises MismatchError, and
    the worst gap is returned as self_check_error.
    """
    return _fold_alone(source, HedgeFold(dec, source))


class BaselineFold:
    """The fold behind `baseline_comparison`; `finish` takes the replay's result."""

    def __init__(self, dec, source):
        model = dec.model
        _require_same_model(model, source)
        self.dec = dec
        self.n_steps = source.n_steps
        self.T = float(source.times[-1])
        self.comps = [c for c in dec.measure.components if c[0] in ("call", "put")]
        if self.comps:
            # time-averaged log variance rate of S
            self.var_rate = model._integral(0.0, self.T, lambda w, seg: w * (
                seg.covariance[1, 1]
                + seg.jump_intensity * (float(seg.jump_mean[1]) ** 2 + float(seg.jump_cov[1, 1]))
            )) / self.T
            self.gains = np.zeros(source.n_paths)

    def step(self, i, t, x, s):
        if i == self.n_steps:
            self.payoff = np.asarray(self.dec.measure.payoff(x, s), dtype=float)
        if not self.comps:
            return
        if i > 0:
            self.gains += self.delta * (s - self.s_prev)
        if i < self.n_steps:
            # scipy.special loads with the first naive delta rather than with
            # the package, whose start-up it would double
            from scipy.special import ndtr

            tau = self.T - t
            sig = math.sqrt(self.var_rate * max(tau, 1e-300))
            delta = np.zeros(s.size)
            for kind, strike, _axis, weight in self.comps:
                d1 = (np.log(s / strike) + 0.5 * sig * sig) / sig
                nd1 = ndtr(d1)
                delta += float(np.real(weight)) * (nd1 if kind == "call" else nd1 - 1.0)
            self.delta, self.s_prev = delta, s

    def finish(self, run: HedgeRunResult) -> dict:
        h0 = float(np.real(self.dec.h0))

        def var_with_se(r):
            # standard error of the sample variance from the fourth moment
            c = r - r.mean()
            m2 = float(np.mean(c * c))
            m4 = float(np.mean(c**4))
            return _sample_var(r), math.sqrt(max(m4 - m2 * m2, 0.0) / r.size)

        v_fs, se_fs = var_with_se(run.residuals)
        v_none, se_none = var_with_se(self.payoff - h0)
        out = {
            "fs_variance": v_fs,
            "fs_variance_stderr": se_fs,
            "no_hedge_variance": v_none,
            "no_hedge_variance_stderr": se_none,
        }
        if self.comps:
            v_naive, se_naive = var_with_se(self.payoff - h0 - self.gains)
            out["naive_delta_variance"] = v_naive
            out["naive_delta_variance_stderr"] = se_naive
        return out


def baseline_comparison(dec, source, run: HedgeRunResult) -> dict:
    """Residual variance against no hedging and a naive delta hedge.

    The naive hedger treats each vanilla component as written on the
    traded asset itself and holds its lognormal delta with the traded
    log variance; claims without vanilla components report only the
    no-hedge baseline.
    """
    return _fold_alone(source, BaselineFold(dec, source), run)


class TradeoffFold:
    """The fold behind `tradeoff_check`."""

    def __init__(self, model, source):
        _require_same_model(model, source)
        self.model = model
        self.acc = np.zeros(source.n_paths)

    def step(self, i, t, x, s):
        if i > 0:
            dt = t - self.t_prev
            seg = self.model.segment_at(self.t_prev)
            mu, rb = seg.traded_growth_rate, seg.rho_bar
            incr = s - self.s_prev - self.s_prev * mu * dt
            self.acc += (mu / (self.s_prev * rb)) ** 2 * incr * incr
        self.t_prev, self.s_prev = t, s

    def finish(self) -> dict:
        exact = float(self.model.tradeoff(self.model.horizon))
        est, serr, _ = _mean_stderr_t(self.acc)
        rel = abs(est - exact) / abs(exact) if exact != 0 else abs(est)
        return {"estimate": est, "stderr": serr, "exact": exact, "rel_error": rel}


def tradeoff_check(model, source) -> dict:
    """Realised mean-variance tradeoff integral against its closed form.

    Accumulates (mu_t / (S_t rho_bar))**2 (dS_t - S_t mu_t dt)**2 along
    paths; the expectation is the deterministic integral of
    mu_t**2 / rho_bar_t over [0, T].
    """
    return _fold_alone(source, TradeoffFold(model, source))
