"""Monte Carlo harness: path law, statistical checks, hedge replay."""

import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from basishedge import cli, simulation
from basishedge.engine import decompose
from basishedge.errors import AssumptionError, DomainError, MismatchError
from basishedge.models import PiecewiseAdditiveModel
from basishedge.payoffs import call_claim, power_claim
from basishedge.simulation import (
    BaselineFold,
    HedgeFold,
    MartingaleFold,
    MomentFold,
    PathStream,
    TradeoffFold,
    _mean_stderr_t,
    _stat_row,
    baseline_comparison,
    hedge_run,
    martingale_test,
    moment_check,
    run_folds,
    simulate,
    tradeoff_check,
)

from oracles import block_major_paths, stacked_paths
from test_cli_fuzz import SHIPPED


@pytest.fixture(scope="module")
def bs_ens(bs_model):
    return simulate(bs_model, 4000, 50, seed=101)


@pytest.fixture(scope="module")
def merton_ens(merton_model):
    return simulate(merton_model, 4000, 50, seed=202)


@pytest.fixture(scope="module")
def bs_run(bs_call_x, bs_ens):
    return hedge_run(bs_call_x, bs_ens)


# -- path generation --------------------------------------------------------------


def test_simulate_shapes_and_initial_state(bs_model):
    ens = simulate(bs_model, 300, 7, seed=3)
    assert isinstance(ens, PathStream)
    x, s = stacked_paths(ens)
    assert ens.times.shape == (8,)
    assert x.shape == (300, 8)
    assert s.shape == (300, 8)
    assert ens.n_paths == 300
    assert ens.n_steps == 7
    assert ens.seed == 3
    assert ens.model_digest == bs_model.digest()
    np.testing.assert_allclose(ens.times, np.linspace(0.0, 1.0, 8), rtol=0, atol=0)
    assert np.all(x[:, 0] == 100.0)
    assert np.all(s[:, 0] == 100.0)
    assert np.all(x > 0) and np.all(s > 0)


def test_simulate_is_reproducible_and_seed_sensitive(merton_model):
    ax, a_s = stacked_paths(simulate(merton_model, 128, 5, seed=11))
    bx, b_s = stacked_paths(simulate(merton_model, 128, 5, seed=11))
    cx, _ = stacked_paths(simulate(merton_model, 128, 5, seed=12))
    np.testing.assert_array_equal(ax, bx)
    np.testing.assert_array_equal(a_s, b_s)
    assert np.max(np.abs(ax - cx)) > 0


def test_simulate_arrays_are_read_only(bs_ens):
    for _, _, x, s in bs_ens:
        assert not x.flags.writeable
        assert not s.flags.writeable
    assert not bs_ens.times.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 1.0


def test_simulate_rejects_empty_requests(bs_model):
    with pytest.raises(DomainError, match="at least one path"):
        simulate(bs_model, 0, 5)
    with pytest.raises(DomainError, match="at least one path"):
        simulate(bs_model, 5, 0)


def _seasons(bs_model, merton_model):
    """The two-season model: Black-Scholes for 0.5, then Merton for 0.5."""
    return PiecewiseAdditiveModel([(0.5, bs_model), (0.5, merton_model)])


@pytest.mark.parametrize("which", ["bs", "merton", "seasons"])
def test_stream_reproduces_block_simulation_bit_for_bit(which, bs_model, merton_model):
    model = {"bs": bs_model, "merton": merton_model,
             "seasons": _seasons(bs_model, merton_model)}[which]
    # two full path blocks and a straddling one; step 2 of 3 crosses the season boundary
    n_paths, n_steps = 2 * 8192 + 5, 3
    want_x, want_s = block_major_paths(model, n_paths, n_steps, seed=31)
    ens = simulate(model, n_paths, n_steps, seed=31)
    got_x, got_s = stacked_paths(ens)
    assert np.array_equal(got_x, want_x) and np.array_equal(got_s, want_s)
    paths = PathStream(model, n_paths, n_steps, seed=31)
    for _ in range(2):  # every iteration replays the same paths
        steps = list(paths)
        assert [i for i, *_ in steps] == list(range(n_steps + 1))
        for i, t, x, s in steps:
            assert t == ens.times[i]
            assert x.flags.c_contiguous and not x.flags.writeable
            assert np.array_equal(x, want_x[:, i]) and np.array_equal(s, want_s[:, i])


def test_one_pass_check_equals_public_functions(tmp_path, capsys, merton_model, merton_call_x):
    n_paths, n_steps, seed = 3000, 12, 41
    cfg = {
        "model": {"kind": "merton", "drift": [0.03, 0.025], "vol_x": 0.25, "vol_s": 0.2,
                  "corr": 0.6, "jump_intensity": 0.7, "jump_mean": [-0.05, -0.04],
                  "jump_vol_x": 0.12, "jump_vol_s": 0.1, "jump_corr": 0.5,
                  "horizon": 1.0, "spot": [100.0, 100.0]},
        "payoff": {"kind": "call", "strike": 100.0, "asset": "x"},
        "validation": {"n_paths": n_paths, "n_steps": n_steps, "seed": seed},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["check", "--config", str(path), "--out", str(tmp_path)]) in (0, 4)
    capsys.readouterr()
    report = json.loads((tmp_path / "sim_report.json").read_text())["results"]

    ens = simulate(merton_model, n_paths, n_steps, seed=seed)
    run = hedge_run(merton_call_x, ens)
    want = {
        "martingale": martingale_test(merton_model, ens),
        "moments": moment_check(merton_model, ens),
        "orthogonality": {"corr": run.orthogonality_corr,
                          "residual_tstat": run.residual_tstat,
                          "self_check_error": run.self_check_error},
        "baselines": baseline_comparison(merton_call_x, ens, run),
        "tradeoff": tradeoff_check(merton_model, ens),
    }
    got = {name: {k: v for k, v in res.items() if k != "passed"} for name, res in report.items()}
    assert got == cli._jsonable(want)

    paths = PathStream(merton_model, n_paths, n_steps, seed=seed)
    fold = HedgeFold(merton_call_x, paths)
    run_folds(paths, fold)
    streamed = fold.finish()
    assert np.array_equal(streamed.residuals, run.residuals)
    assert streamed.residuals.tobytes() == run.residuals.tobytes()


def _check_pass_peak(source, model, dec, n_paths, n_steps) -> int:
    """tracemalloc peak in bytes of every check fold over one pass of a new source."""
    tracemalloc.start()
    try:
        paths = source(model, n_paths, n_steps, seed=4)
        folds = (MartingaleFold(model, paths), MomentFold(model, paths), HedgeFold(dec, paths),
                 BaselineFold(dec, paths), TradeoffFold(model, paths))
        run_folds(paths, *folds)
        folds[3].finish(folds[2].finish())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("source", [PathStream, simulate], ids=["stream", "simulate"])
def test_check_pass_memory_does_not_grow_with_steps(bs_model, bs_call_x, source):
    # stored paths would grow the peak 8x from 10 to 80 steps (3.5 MB -> 26 MB)
    short = _check_pass_peak(source, bs_model, bs_call_x, 20_000, 10)
    long = _check_pass_peak(source, bs_model, bs_call_x, 20_000, 80)
    assert abs(long - short) <= 0.1 * short, (short, long)


def _log_law_moments(model):
    # terminal log-increment mean / covariance rates of the exact law
    mean = np.array(model.drift, dtype=float)
    cov = np.array(model.covariance, dtype=float)
    lam = model.jump_intensity
    if lam > 0:
        jm = np.array(model.jump_mean, dtype=float)
        cov = cov + lam * (np.outer(jm, jm) + np.array(model.jump_cov, dtype=float))
        mean = mean + lam * jm
    return mean, cov


@pytest.mark.parametrize("which,seed", [("bs", 21), ("merton", 22)])
def test_terminal_log_law(which, seed, bs_model, merton_model):
    model = bs_model if which == "bs" else merton_model
    x, s = stacked_paths(simulate(model, 60_000, 4, seed=seed))
    la = np.log(x[:, -1] / 100.0)
    lb = np.log(s[:, -1] / 100.0)
    T = model.horizon
    mean, cov = _log_law_moments(model)
    n = la.size
    for arr, m_want in ((la, mean[0] * T), (lb, mean[1] * T)):
        se = arr.std(ddof=1) / math.sqrt(n)
        assert abs(arr.mean() - m_want) < 4.0 * se
    for arr, v_want in ((la, cov[0, 0] * T), (lb, cov[1, 1] * T)):
        c = arr - arr.mean()
        m2 = float(np.mean(c * c))
        se = math.sqrt(max(float(np.mean(c**4)) - m2 * m2, 0.0) / n)
        assert abs(arr.var(ddof=1) - v_want) < 4.0 * se
    ca, cb = la - la.mean(), lb - lb.mean()
    chat = float(np.mean(ca * cb))
    se = math.sqrt(max(float(np.mean(ca**2 * cb**2)) - chat**2, 0.0) / n)
    assert abs(chat - cov[0, 1] * T) < 4.0 * se


# -- statistical certificates -----------------------------------------------------


def test_moment_check_black_scholes(bs_model, bs_ens):
    out = moment_check(bs_model, bs_ens)
    assert len(out["rows"]) == 5
    assert out["max_tstat"] < 3.5
    for row in out["rows"]:
        assert {"z1", "z2", "mean_re", "stderr_re", "tstat_re"} <= set(row)


def test_moment_check_merton(merton_model, merton_ens):
    out = moment_check(merton_model, merton_ens)
    assert out["max_tstat"] < 3.5


def test_martingale_test_black_scholes(bs_model, bs_ens):
    out = martingale_test(bs_model, bs_ens)
    assert len(out["rows"]) == 4
    assert out["max_tstat"] < 3.5
    # the complex frequency exercises both parts
    row = out["rows"][-1]
    assert row["z1"] == 0.5 + 1.5j
    assert row["stderr_im"] > 0


def test_martingale_test_merton(merton_model, merton_ens):
    out = martingale_test(merton_model, merton_ens)
    assert out["max_tstat"] < 3.5


def test_martingale_test_custom_exponents(bs_model, bs_ens):
    out = martingale_test(bs_model, bs_ens, exponents=[(0.0, 1.0)])
    assert len(out["rows"]) == 1
    assert out["max_tstat"] < 3.5
    assert out["rows"][0]["stderr_im"] == 0.0


def test_martingale_real_exponents_match_complex_arithmetic(merton_model, merton_ens):
    # real exponents run in float arithmetic; np.exp of a real and of a
    # complex argument may differ in the last bit, so the means agree to
    # rounding and the imaginary rows are exact (positive) zeros
    real = [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (2.0, -0.5)]
    rows = martingale_test(merton_model, merton_ens, exponents=real)["rows"]
    (x, s), times = stacked_paths(merton_ens), merton_ens.times
    for row, (z1, z2) in zip(rows, real):
        z1, z2 = complex(z1), complex(z2)
        kap, lam = merton_model.kappa(times, z1, z2), merton_model.lambda_coeff(times, z1, z2)
        v = [np.exp(z1 * np.log(x[:, i] / 100.0) + z2 * np.log(s[:, i] / 100.0)) * lam[i]
             for i in range(times.size)]
        w = sum(v[i + 1] - v[i] * (np.exp(kap[i + 1] - kap[i]) * lam[i + 1] / lam[i])
                for i in range(times.size - 1))
        assert abs(row["mean_re"] - w.real.mean()) <= 1e-12
        assert row["stderr_re"] == pytest.approx(w.real.std(ddof=1) / math.sqrt(w.size), rel=1e-9)
        for key in ("mean_im", "stderr_im", "tstat_im"):
            assert row[key] == 0.0 and math.copysign(1.0, row[key]) == 1.0


class _AllTermsMartingaleFold(MartingaleFold):
    """The martingale fold with every exponent's term, zero or not."""

    def step(self, i, t, x, s):
        lx = np.log(x / self.x0)
        ls = np.log(s / self.s0)
        for k, ((p1, p2), kap, lam) in enumerate(zip(self.powers, self.kap, self.lam)):
            v = np.exp(p1 * lx + p2 * ls) * lam[i]
            if i > 0:
                growth = np.exp(kap[i] - kap[i - 1])
                self.ws[k] += v - self.v_prev[k] * (growth * lam[i] / lam[i - 1])
            self.v_prev[k] = v


@pytest.mark.parametrize("exponents", [
    # acceptance 06's: no exponent needs the traded log-price
    [(0.5 + u * 1j, 0.0) for u in (0.0, 1.0, 2.5, 5.0, 10.0)],
    [(0.0, 0.5 - 2.0j), (0.5 + 1.5j, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.5, 0.5)],
])
def test_martingale_fold_skips_zero_exponent_terms_exactly(merton_model, merton_ens, exponents):
    # a zero exponent's term is an exact zero: skipping it moves no bit
    skip = MartingaleFold(merton_model, merton_ens, exponents)
    full = _AllTermsMartingaleFold(merton_model, merton_ens, exponents)
    run_folds(merton_ens, skip, full)
    for a, b in zip(skip.ws, full.ws):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert json.dumps(skip.finish(), default=str) == json.dumps(full.finish(), default=str)


def test_piecewise_step_straddles_boundary(bs_model, merton_model):
    # 3 uniform steps put the 0.4 segment boundary strictly inside a step
    pw = PiecewiseAdditiveModel([(0.4, bs_model), (0.6, merton_model)])
    ens = simulate(pw, 4000, 3, seed=77)
    assert moment_check(pw, ens)["max_tstat"] < 3.5
    assert martingale_test(pw, ens)["max_tstat"] < 3.5


# -- hedge replay -----------------------------------------------------------------


def test_replay_of_traded_claim_is_exact(bs_model):
    dec = decompose(bs_model, power_claim(0.0, 1.0))
    ens = simulate(bs_model, 600, 40, seed=5)
    run = hedge_run(dec, ens)
    assert run.initial_capital == pytest.approx(100.0, abs=1e-10)
    assert np.max(np.abs(run.residuals)) < 1e-8 * 100.0
    # residuals are pure rounding noise, so only their size is meaningful
    assert abs(run.payoff_mean - run.initial_capital - run.gain_mean) < 1e-10


def test_replay_of_constant_claim_is_exact(bs_model):
    dec = decompose(bs_model, power_claim(0.0, 0.0))
    ens = simulate(bs_model, 200, 10, seed=6)
    run = hedge_run(dec, ens)
    assert run.initial_capital == 1.0
    assert np.max(np.abs(run.residuals)) < 1e-12
    assert run.gain_mean == 0.0


def test_replay_of_conjugate_atom_pair_is_exact(bs_model):
    # a real claim made of complex powers: the real parts of the pair add up
    claim = power_claim(0.3 + 0.8j, 0.5, 1.0 + 0.5j) + power_claim(0.3 - 0.8j, 0.5, 1.0 - 0.5j)
    dec = decompose(bs_model, claim)
    ens = simulate(bs_model, 500, 10, seed=21)
    run = hedge_run(dec, ens)
    assert run.self_check_error < 1e-12


def test_hedge_run_residual_is_centered(bs_call_x, bs_run):
    assert bs_run.n_paths == 4000
    assert bs_run.n_steps == 50
    assert bs_run.initial_capital == bs_call_x.h0
    assert abs(bs_run.residual_tstat) < 3.5
    ident = bs_run.payoff_mean - bs_run.initial_capital - bs_run.gain_mean
    assert abs(bs_run.residual_mean - ident) < 1e-9


def test_hedge_run_orthogonality_and_self_check(bs_run):
    assert abs(bs_run.orthogonality_corr) < 0.02
    assert 0 < bs_run.self_check_error < 1e-4


def test_hedge_run_merton_call(merton_call_x, merton_ens):
    run = hedge_run(merton_call_x, merton_ens)
    assert abs(run.residual_tstat) < 3.5
    assert abs(run.orthogonality_corr) < 0.02
    assert run.self_check_error < 1e-4


def test_hedge_run_rejects_complex_claim(bs_model, bs_ens):
    dec = decompose(bs_model, power_claim(0.3 + 1.0j, 0.0))
    with pytest.raises(AssumptionError, match="real-valued claim"):
        hedge_run(dec, bs_ens)


def test_consumers_reject_foreign_ensembles(
    bs_model, merton_model, merton_call_x, bs_ens, bs_run
):
    with pytest.raises(MismatchError, match="different model"):
        martingale_test(merton_model, bs_ens)
    with pytest.raises(MismatchError, match="different model"):
        moment_check(merton_model, bs_ens)
    with pytest.raises(MismatchError, match="different model"):
        hedge_run(merton_call_x, bs_ens)
    with pytest.raises(MismatchError, match="different model"):
        baseline_comparison(merton_call_x, bs_ens, bs_run)
    with pytest.raises(MismatchError, match="different model"):
        tradeoff_check(merton_model, bs_ens)


def test_coarse_interpolation_grid_is_caught(bs_model, bs_call_x, monkeypatch):
    ens = simulate(bs_model, 500, 10, seed=8)
    monkeypatch.setattr(simulation, "_GRID_POINTS", 2)
    monkeypatch.setattr(simulation, "_CHECK_TOL", 1e-6)
    with pytest.raises(MismatchError, match="interpolated hedge deviates"):
        hedge_run(bs_call_x, ens)
    # disabling the certificate lets the coarse run finish
    monkeypatch.setattr(simulation, "_SELF_CHECKS", 0)
    run = hedge_run(bs_call_x, ens)
    assert run.self_check_error == 0.0


@pytest.mark.parametrize("nan_part", [0, 1])
def test_non_finite_self_check_is_caught(bs_model, bs_call_x, monkeypatch, nan_part):
    exact = bs_call_x.value_and_hedge

    def nan_reference(t, x, s):
        parts = list(exact(t, x, s))
        parts[nan_part] = np.full(np.shape(x), np.nan)
        return tuple(parts)

    monkeypatch.setattr(bs_call_x, "value_and_hedge", nan_reference)
    ens = simulate(bs_model, 500, 10, seed=8)
    with pytest.raises(MismatchError, match="deviates from exact evaluation by nan"):
        hedge_run(bs_call_x, ens)


@pytest.mark.parametrize(
    "vals, target, want",
    [
        ([2.0, 2.0, 2.0], 2.0, 0.0),
        ([2.0, 2.0, 2.0], 1.0, math.inf),
        ([2.0, 2.0, 2.0], 3.0, -math.inf),
        ([2.0], 0.0, math.nan),
        ([1.0, math.nan], 0.0, math.nan),
    ],
    ids=["zero-stderr-on-target", "zero-stderr-above", "zero-stderr-below", "one-sample", "nan"],
)
def test_t_statistic_fails_closed(vals, target, want):
    _, _, t = _mean_stderr_t(np.array(vals), target)
    assert t == want or (math.isnan(t) and math.isnan(want))
    # the largest |t| of a report row carries a NaN through
    _, worst = _stat_row(0.0, 1.0, (("re", np.zeros(2), 0.0), ("im", np.array(vals), target)))
    assert worst == abs(want) or (math.isnan(worst) and math.isnan(want))


# -- baselines and tradeoff -------------------------------------------------------


def test_variance_beats_baselines(bs_call_x, bs_ens, bs_run):
    out = baseline_comparison(bs_call_x, bs_ens, bs_run)
    margin_naive = 2.0 * math.hypot(
        out["fs_variance_stderr"], out["naive_delta_variance_stderr"]
    )
    margin_none = 2.0 * math.hypot(
        out["fs_variance_stderr"], out["no_hedge_variance_stderr"]
    )
    assert out["fs_variance"] <= out["naive_delta_variance"] - margin_naive
    assert out["fs_variance"] <= out["no_hedge_variance"] - margin_none


def test_baselines_without_vanilla_component(bs_model):
    dec = decompose(bs_model, power_claim(0.4, 0.3))
    ens = simulate(bs_model, 500, 10, seed=13)
    run = hedge_run(dec, ens)
    out = baseline_comparison(dec, ens, run)
    assert "naive_delta_variance" not in out
    assert out["fs_variance"] < out["no_hedge_variance"]


@pytest.mark.parametrize("which", ["bs", "merton"])
def test_tradeoff_integral_matches_closed_form(
    which, bs_model, merton_model, bs_ens, merton_ens
):
    model = bs_model if which == "bs" else merton_model
    ens = bs_ens if which == "bs" else merton_ens
    out = tradeoff_check(model, ens)
    want = model.horizon * model.traded_growth_rate**2 / model.rho_bar
    assert out["exact"] == pytest.approx(want, rel=1e-12)
    assert abs(out["estimate"] - out["exact"]) < 4.0 * out["stderr"]
    assert out["rel_error"] < 0.2


def test_piecewise_replay_matches_homogeneous(bs_model, bs_call_x):
    pw = PiecewiseAdditiveModel([(0.5, bs_model), (0.5, bs_model)])
    dec = decompose(pw, call_claim(100.0, axis=1))
    assert dec.h0 == pytest.approx(bs_call_x.h0, rel=1e-10)
    ens = simulate(pw, 800, 12, seed=9)
    run = hedge_run(dec, ens)
    assert abs(run.residual_tstat) < 3.5
    assert abs(run.orthogonality_corr) < 0.1
    out = tradeoff_check(pw, ens)
    assert abs(out["estimate"] - out["exact"]) < 4.0 * out["stderr"]


# -- two lanes ----------------------------------------------------------------------


def _force_lanes(monkeypatch, n):
    monkeypatch.setattr(simulation, "_lanes", lambda: n)


def test_lane_count_follows_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 8)
    for cpus, lanes in ((1, 1), (2, 2), (3, 2)):
        monkeypatch.setattr(simulation.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert simulation._lanes() == lanes
    # platforms without an affinity call count the machine's CPUs
    monkeypatch.delattr(simulation.os, "sched_getaffinity")
    for cpus, lanes in ((None, 1), (1, 1), (2, 2), (8, 2)):
        monkeypatch.setattr(simulation.os, "cpu_count", lambda: cpus)
        assert simulation._lanes() == lanes


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_reports_are_byte_identical_on_one_and_two_lanes(tmp_path, capsys, monkeypatch,
                                                         name, command):
    # the shipped configs at the command-line fuzz's sizes
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SHIPPED[name]))
    codes, written = {}, {}
    # blocks of 64 paths, so that either lane may draw any of the 4 blocks of 200 paths
    monkeypatch.setattr(simulation, "_BLOCK", 64)
    for lanes in (1, 2):
        _force_lanes(monkeypatch, lanes)
        out = tmp_path / f"lanes-{lanes}"
        # 200 paths may fail a statistical check, which still writes its report
        codes[lanes] = cli.main([command, "--config", str(config), "--out", str(out)])
        written[lanes] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    capsys.readouterr()
    assert codes[1] == codes[2] in (0, 4)
    assert written[1] and written[1] == written[2]


class _StubFold:
    """Raises ValueError(tag) at step fail_at; cost decides its lane."""

    def __init__(self, tag, cost, fail_at=None):
        self.tag, self.cost, self.fail_at, self.seen = tag, cost, fail_at, []

    def step(self, i, t, x, s):
        if i == self.fail_at:
            raise ValueError(self.tag)
        self.seen.append((i, threading.current_thread() is threading.main_thread()))


class _FailingSource:
    """Four steps of one path, whose draw of step fail_at raises."""

    def __init__(self, fail_at=None):
        self.fail_at = fail_at

    def __iter__(self):
        for i in range(4):
            if i == self.fail_at:
                raise KeyError("draw")
            yield i, float(i), np.ones(1), np.ones(1)


def _fail_draw():
    raise KeyError("draw")


class _FailingStream(PathStream):
    """Three blocks of paths over three steps, whose second block's draw of
    step fail_at raises."""

    def __init__(self, model, fail_at):
        super().__init__(model, 2 * simulation._BLOCK + 1, 3)
        self.fail_at = fail_at

    def _steps(self):
        for i, (jobs, finish) in enumerate(super()._steps()):
            if i == self.fail_at:
                jobs[1] = _fail_draw
            yield jobs, finish


def _first_error(lanes, monkeypatch, source, specs) -> str:
    _force_lanes(monkeypatch, lanes)
    folds = [_StubFold(*spec) for spec in specs]
    with pytest.raises((ValueError, KeyError)) as err:
        run_folds(source, *folds)
    return repr(err.value)


@pytest.mark.parametrize("source_fail,specs,want", [
    # (tag, cost, failing step): the costly fold runs on the worker lane
    (None, [("main", 0, 2), ("worker", 9, 2)], "ValueError('main')"),
    (None, [("worker", 9, 2), ("main", 0, 2)], "ValueError('worker')"),
    (None, [("main", 0, 2), ("worker", 9, 1)], "ValueError('worker')"),
    (None, [("worker", 9, 3), ("main", 0, 2)], "ValueError('main')"),
    (None, [("main", 0, None), ("worker", 9, 3)], "ValueError('worker')"),
    (None, [("first", 0, 2), ("second", 0, 2), ("worker", 9, 3)], "ValueError('first')"),
    (2, [("main", 0, None), ("worker", 9, 1)], "ValueError('worker')"),
    (2, [("main", 0, 2), ("worker", 9, 2)], "KeyError('draw')"),
    # a block of a PathStream fails its draw of step 2, which both lanes share
    ("stream", [("main", 0, None), ("worker", 9, 1)], "ValueError('worker')"),
    ("stream", [("main", 0, 2), ("worker", 9, 2)], "KeyError('draw')"),
    ("stream", [("worker", 9, None), ("main", 0, 1)], "ValueError('main')"),
])
def test_lanes_raise_the_error_the_serial_order_hits_first(monkeypatch, merton_model,
                                                           source_fail, specs, want):
    def source():
        if source_fail == "stream":
            return _FailingStream(merton_model, 2)
        return _FailingSource(source_fail)

    threads = threading.active_count()
    serial = _first_error(1, monkeypatch, source(), specs)
    lanes = _first_error(2, monkeypatch, source(), specs)
    assert serial == lanes == want
    assert threading.active_count() == threads


@pytest.mark.parametrize("lanes", [1, 2])
def test_lanes_leave_no_thread_and_feed_every_step_in_order(monkeypatch, lanes):
    _force_lanes(monkeypatch, lanes)
    threads = threading.active_count()
    folds = [_StubFold("main", 0), _StubFold("worker", 9)]
    run_folds(_FailingSource(), *folds)
    assert threading.active_count() == threads
    on_main = [True, lanes == 1]
    assert [fold.seen for fold in folds] == [[(i, m) for i in range(4)] for m in on_main]


def test_two_lanes_match_one_lane_under_fast_thread_switching(monkeypatch, merton_model,
                                                              merton_call_x):
    def battery(lanes, block):
        _force_lanes(monkeypatch, lanes)
        monkeypatch.setattr(simulation, "_BLOCK", block)
        paths = PathStream(merton_model, 2000, 20, seed=8)
        folds = (MartingaleFold(merton_model, paths), MomentFold(merton_model, paths),
                 HedgeFold(merton_call_x, paths), BaselineFold(merton_call_x, paths),
                 TradeoffFold(merton_model, paths))
        run_folds(paths, *folds)
        run = folds[2].finish()
        arrays = [*folds[0].ws, folds[3].gains, folds[4].acc, run.residuals]
        return [a.tobytes() for a in arrays], json.dumps(
            [folds[0].finish(), folds[1].finish(), folds[3].finish(run), folds[4].finish()],
            default=str)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # one block, and four, which either lane may draw
        for block in (simulation._BLOCK, 600):
            assert battery(2, block) == battery(1, block)
    finally:
        sys.setswitchinterval(interval)


def test_lane_rule_picks_the_heaviest_fold_group(merton_model, merton_call_x):
    paths = PathStream(merton_model, 10, 2, seed=1)
    # the shipped check battery, in the command's order: the replay outweighs
    # the martingale fold, and its baseline, which shares its decomposition,
    # rides with it
    battery = (MartingaleFold(merton_model, paths), MomentFold(merton_model, paths),
               HedgeFold(merton_call_x, paths), BaselineFold(merton_call_x, paths),
               TradeoffFold(merton_model, paths))
    assert simulation._worker_folds(battery) == [battery[2], battery[3]]
    # acceptance 06's fold set: five complex exponents outweigh the replay
    freqs = [(0.5 + u * 1j, 0.0) for u in (1.0, 3.7, 8.2, 14.9, 20.0)]
    suite = (HedgeFold(merton_call_x, paths), MartingaleFold(merton_model, paths, exponents=freqs),
             MomentFold(merton_model, paths), TradeoffFold(merton_model, paths))
    assert simulation._worker_folds(suite) == [suite[1]]
