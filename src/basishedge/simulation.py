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
public check functions fold a source alone.  Where the process may run
on two CPUs, `run_folds` splits the pass over two lanes: a worker thread
runs the heaviest group of folds on a step while the calling thread runs
the rest, and then both lanes draw the next step's blocks of paths,
each block by its own generator.  Every fold still sees every step in
order and every block is drawn in step order, so the results have the
same bits on one lane or two; there is no setting.

The path replay asks the engine's one entry, `HedgeDecomposition._broadcast`
with a grid size, for value and hedge on all paths at each rebalance time:
the per-time kernel tabulates each contour line on a uniform grid and
interpolates the paths on it, and a sampled self-check against exact
pointwise evaluation guards that shortcut.  A slice leaves through the
guard of every evaluation, so one that is not finite raises ConvergenceError.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, count, repeat
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
# the lane rule's fold costs in ns per path and step (see run_folds)
_COST_REAL, _COST_COMPLEX = 9, 50
_COST_REPLAY, _COST_LINE, _COST_ATOM = 20, 125, 25


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
    arrays over all paths; only the current step is held.  `run_folds`
    reads the steps as block draws instead (`_steps`), which either of
    its lanes may run, since a block's draws depend only on its own
    generator and rows, and no draw reads the caller's `np.errstate`.
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

    def _steps(self):
        """(jobs, finish) per step.  Each job draws one block's increments of
        the step into its rows of the running log-prices, by that block's
        generator; `finish`, once every job has run, returns the step.  Step 0
        has no jobs."""
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

        def draw(rows, rng, parts):
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

        def finish(i):
            # an overflowing price is left to fail the checks downstream
            with np.errstate(over="ignore"):
                x, s = x0 * np.exp(lx), s0 * np.exp(ls)
            return i, float(times[i]), _frozen(x), _frozen(s)

        yield (), partial(finish, 0)
        for i in range(self.n_steps):
            # the parts of the step inside each constant segment
            parts = []
            for a, b, seg in model.segments:
                dur = min(times[i + 1], b) - max(times[i], a)
                if dur > 1e-15:
                    parts.append((dur, *factors[seg]))
            yield [partial(draw, rows, rng, parts) for rows, rng in blocks], partial(finish, i + 1)

    def __iter__(self):
        for jobs, finish in self._steps():
            for job in jobs:
                job()
            yield finish()


def simulate(model, n_paths: int, n_steps: int, seed: int = 0) -> PathStream:
    """Exact-in-law paths of (X, S) on a uniform grid over [0, T] (see `PathStream`)."""
    return PathStream(model, n_paths, n_steps, seed)


def _worker_folds(folds) -> list:
    """The heaviest group of folds, by summed `cost`; folds that share a
    decomposition (`dec`) form one group, and any other fold is its own."""
    groups = {}
    for fold in folds:
        groups.setdefault(id(getattr(fold, "dec", fold)), []).append(fold)
    return max(groups.values(), key=lambda g: sum(getattr(f, "cost", 0) for f in g))


def _lanes() -> int:
    """Two where the process may run on two CPUs, else one.  The CPUs it may
    run on are its affinity where the platform reports one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return min(2, len(affinity(0)) if affinity else (os.cpu_count() or 1))


def _lane(folds, step, jobs):
    """Step each (position, fold) in order, then run each (position, job) that
    the shared jobs still hold: the first error as (position, exception), or None."""
    for k, call in chain(((k, partial(f.step, *step)) for k, f in folds), jobs):
        try:
            call()
        except Exception as exc:
            return k, exc
    return None


def run_folds(source, *folds):
    """Feed every step of the source, in order, to each fold: one pass for all.

    With two CPUs (`_lanes`) the pass runs on two lanes.  The heaviest
    group of folds (`_worker_folds`) runs on a worker thread and the rest
    on this thread.  Per step i each lane feeds step i to its folds and
    then takes the block draws of step i + 1 from one shared queue until
    none are left; after both lanes are done, this thread forms step
    i + 1 from the blocks.  A source that is not a `PathStream` has no
    block draws, and this thread draws its steps.  At most one step is in
    flight, so memory stays O(paths); every fold sees the steps in order
    and every block draws its steps in order, whichever lane runs it, so
    results are bit-identical to one lane.  The lanes overlap because
    numpy releases the GIL inside its ufuncs and random draws.  An error
    leaves as the one the serial loop hits first (the earliest step, then
    fold order, then block order), after the worker has stopped; folds in
    different groups must share no mutable state.  With one CPU the
    serial loop runs: on one CPU of a 2-vCPU machine, two lanes made a
    50k x 25 pass about 9% slower.

    A fold's `cost` is its time per path and step in ns, fitted to the
    best of three passes at 50k paths x 25 steps on a 2-vCPU machine
    (one BLAS thread): a martingale exponent 9 if real and 50 if
    complex (4 real ones took 34, 4 complex ones 198); a replay 20,
    plus 125 per contour line and 25 per atom (a Merton call took 182,
    a put 144, a lone atom 48).  Only these two kinds of fold carry a
    cost; any other counts 0.
    """
    if _lanes() < 2 or not folds:
        for step in source:
            for fold in folds:
                fold.step(*step)
        return
    from concurrent.futures import ThreadPoolExecutor

    worker = {id(f) for f in _worker_folds(folds)}
    mine = [(k, f) for k, f in enumerate(folds) if id(f) not in worker]
    theirs = [(k, f) for k, f in enumerate(folds) if id(f) in worker]
    # a source without block draws: steps without jobs, each drawn by finish
    steps = getattr(source, "_steps", None)
    steps = steps() if steps else repeat(((), partial(next, iter(source))))
    step, failed = None, None
    with ThreadPoolExecutor(1) as pool:
        # the trailing ((), None) feeds the last step and draws nothing
        for jobs, finish in chain(steps, [((), None)]):
            if step is not None:
                # both lanes take jobs from one iterator built of C iterators,
                # whose next() is atomic under the GIL (a generator's is not),
                # so each block is drawn once; a draw fails after every fold
                # of the step before it, and in block order
                jobs = zip(count(len(folds)), jobs)
                pending = pool.submit(_lane, theirs, step, jobs)
                failed = min(filter(None, (_lane(mine, step, jobs), pending.result())),
                             key=lambda f: f[0], default=None)
            if failed is not None or finish is None:
                break
            try:
                step = finish()
            except StopIteration:
                break
            except Exception as exc:
                failed = len(folds), exc
                break
    if failed is not None:
        raise failed[1]


def _fold_alone(source, fold, *args):
    run_folds(source, fold)
    return fold.finish(*args)


def _sample_var(vals) -> float:
    """Sample variance (ddof 1); NaN, without a warning, for one sample or
    for samples that are not all finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(vals.var(ddof=1)) if vals.size > 1 else math.nan


def _mean_stderr_t(vals, target: float = 0.0):
    """Sample mean, its standard error and the t-statistic of mean - target,
    which fails closed: NaN without a finite standard error (one sample has
    none), infinite for a zero standard error and a mean off target."""
    with np.errstate(over="ignore", invalid="ignore"):
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
    """The fold behind `martingale_test`.

    Each step forms an exponent's powers in the spare buffer of its
    dtype, which then swaps with the exponent's previous powers, by `out=`
    ufuncs that run the same operations in the same order as plain
    array expressions would, so no bit moves.  An overflowing power or
    propagation factor makes the statistic NaN, which fails the test.
    """

    def __init__(self, model, source, exponents: Optional[Sequence] = None):
        _require_same_model(model, source)
        if exponents is None:
            exponents = [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5 + 1.5j, 0.5)]
        times, n = source.times, source.n_paths
        self.x0, self.s0 = float(model.spot[0]), float(model.spot[1])
        self.zs = [(complex(z1), complex(z2)) for z1, z2 in exponents]
        # a real exponent pair has a real power process: it runs in float
        # arithmetic, and its imaginary row comes out as exact zeros
        self.powers, self.kap, self.lam, self.ws = [], [], [], []
        with np.errstate(over="ignore", invalid="ignore"):
            for z1, z2 in self.zs:
                real = not (z1.imag or z2.imag)
                kap, lam = model.kappa(times, z1, z2), model.lambda_coeff(times, z1, z2)
                self.powers.append((z1.real, z2.real) if real else (z1, z2))
                self.kap.append(kap.real if real else kap)
                self.lam.append(lam.real if real else lam)
                self.ws.append(np.zeros(n, dtype=float if real else complex))
        # each exponent's previous powers, and per dtype a spare powers
        # buffer that rotates with them and a scratch array
        self.v_prev = [np.empty(n, w.dtype) for w in self.ws]
        self.spare = {w.dtype: np.empty(n, w.dtype) for w in self.ws}
        self.scratch = {w.dtype: np.empty(n, w.dtype) for w in self.ws}
        self.cost = sum(_COST_REAL if w.dtype == float else _COST_COMPLEX for w in self.ws)

    def step(self, i, t, x, s):
        # the log-prices of a step serve every exponent; a zero exponent's
        # term is skipped, and a log-price that no exponent needs is not taken
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            lx = np.log(x / self.x0) if any(p1 for p1, _ in self.powers) else None
            ls = np.log(s / self.s0) if any(p2 for _, p2 in self.powers) else None
            for k, ((p1, p2), kap, lam) in enumerate(zip(self.powers, self.kap, self.lam)):
                v, prev = self.spare[self.ws[k].dtype], self.v_prev[k]
                if p1 and p2:
                    np.multiply(p1, lx, out=v)
                    np.add(v, np.multiply(p2, ls, out=self.scratch[v.dtype]), out=v)
                elif p1:
                    np.multiply(p1, lx, out=v)
                elif p2:
                    np.multiply(p2, ls, out=v)
                else:
                    v.fill(0.0)
                np.multiply(np.exp(v, out=v), lam[i], out=v)
                if i > 0:
                    growth = np.exp(kap[i] - kap[i - 1])
                    # v - v_prev * c is formed in the previous powers' buffer
                    np.multiply(prev, growth * lam[i] / lam[i - 1], out=prev)
                    self.ws[k] += np.subtract(v, prev, out=prev)
                self.v_prev[k], self.spare[v.dtype] = v, prev

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
        # an overflowing moment makes its statistic NaN, which fails the test
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
        measure = dec.measure
        self.cost = _COST_REPLAY + _COST_LINE * len(measure.lines) + _COST_ATOM * len(measure.atoms)
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
        if i == self.n_steps:
            y = self.payoff = np.asarray(dec.measure.payoff(x, s), dtype=float)
            z = None
        else:
            y, z = dec._broadcast(t, x, s, True, _GRID_POINTS)
        if i > 0:
            # the compensator may overflow; finish guards the pooled sums
            with np.errstate(over="ignore", invalid="ignore"):
                comp = self.s_prev * np.expm1(float(self.kappa_s[i] - self.kappa_s[i - 1]))
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
        cnt = self.cnt
        # float ** raises on overflow where * gives an infinity
        m_a, m_b = self.s_a / cnt, self.s_b / cnt
        var_a = self.s_aa / cnt - m_a * m_a
        var_b = self.s_bb / cnt - m_b * m_b
        cov = self.s_ab / cnt - m_a * m_b
        if not all(map(math.isfinite, (var_a, var_b, cov))):
            # an overflowing compensator leaves the correlation undefined
            corr = math.nan
        elif var_a > 0 and var_b > 0:
            corr = cov / math.sqrt(var_a * var_b)
        else:
            corr = 0.0
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
            # time-averaged log variance rate of S; a huge jump mean makes it
            # infinite, and the naive deltas then NaN, for the checks to fail
            with np.errstate(over="ignore"):
                self.var_rate = model._integral(0.0, self.T, lambda w, seg: w * (
                    seg.covariance[1, 1] + seg.jump_intensity
                    * (seg.jump_mean[1] * seg.jump_mean[1] + seg.jump_cov[1, 1])
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
                with np.errstate(divide="ignore", invalid="ignore"):  # see var_rate
                    d1 = (np.log(s / strike) + 0.5 * sig * sig) / sig
                nd1 = ndtr(d1)
                delta += float(np.real(weight)) * (nd1 if kind == "call" else nd1 - 1.0)
            self.delta, self.s_prev = delta, s

    def finish(self, run: HedgeRunResult) -> dict:
        h0 = float(np.real(self.dec.h0))

        def var_with_se(r):
            # standard error of the sample variance from the fourth moment; an
            # overflow leaves an infinity or NaN for the checks to fail
            with np.errstate(over="ignore", invalid="ignore"):
                c = r - r.mean()
                c2 = c * c
                # c2 * c2, not c**4, which numpy forms by a pow call per element
                m2, m4 = float(np.mean(c2)), float(np.mean(c2 * c2))
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
            # an overflowing sum makes the estimate fail its limit
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
