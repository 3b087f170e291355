"""Tests of the benchmark itself: inputs, statistics, trace arithmetic, runs.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

import compare
import metrics
import stats
import tracing
import workloads


# -- generated inputs -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    a = cls(7, "full", str(tmp_path)).generate()
    b = cls(7, "full", str(tmp_path)).generate()
    c = cls(8, "full", str(tmp_path)).generate()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_book_has_enough_samples_for_a_p95():
    size = workloads.SIZES["full"]["book"]
    quotes = 2 * size["strikes"] * 2 * len(workloads.BOOK_MODELS)
    rounds = workloads.MIN_ROUNDS["book"]
    assert quotes * rounds >= stats.min_samples(95)
    assert size["marks"] * rounds >= stats.min_samples(95)


def test_routes_config_is_the_shipped_one():
    with open(os.path.join(ROOT, "configs", "hulley_mcwalter.json")) as fh:
        shipped = json.load(fh)
    assert shipped == workloads.HULLEY_MCWALTER


def test_book_gates_reference_closed_form():
    # at-the-money, sigma^2 T = 0.0625: the textbook value 9.9477
    assert workloads.lognormal_call(100.0, 100.0, 0.0625) == pytest.approx(9.94764, abs=1e-4)


# -- statistics -----------------------------------------------------------------------


def test_percentile_rule_needs_ten_samples_beyond_p95():
    assert stats.beyond(200, 95) == 10
    assert stats.beyond(199, 95) == 9
    assert stats.min_samples(95) == 200
    assert stats.min_samples(50) == 20
    values = list(range(1, 201))
    assert stats.nearest_rank(values, 95) == 190
    assert sum(v > stats.nearest_rank(values, 95) for v in values) == 10
    assert stats.nearest_rank(values, 50) == 100


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    # exclusive quartiles of 10..14 are 10.5 and 13.5
    assert stats.quartile_spread(values) == pytest.approx(3.0 / 12.0)
    assert stats.quartile_spread([5.0]) == 0.0


# -- trace arithmetic -------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tr = tracing.Tracer("t", clock=clock)

    def advance(dt):
        clock.now += dt

    leaf = tr.wrap("models.leaf", lambda: advance(0.3))

    def mid_body():
        advance(0.2)
        leaf()
        advance(0.5)

    mid = tr.wrap("engine.mid", mid_body)
    other = tr.wrap("engine.other", lambda: advance(3.0))

    def outer_body():
        advance(2.0)
        other()
        advance(1.0)
        mid()
        advance(3.0)

    tr.wrap("cli.outer", outer_body)()
    self_t = {k: round(v[0], 12) for k, v in tr.self_times().items()}
    assert self_t == {"cli.outer": 6.0, "engine.other": 3.0, "engine.mid": 0.7, "models.leaf": 0.3}
    assert tr.root_time() == pytest.approx(10.0)
    assert sum(self_t.values()) == pytest.approx(10.0)


def test_span_survives_an_exception():
    clock = FakeClock()
    tr = tracing.Tracer("t", clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("engine.boom", boom)()
    assert tr.self_times() == {"engine.boom": (1.0, 1)}
    assert tr._stack == []


def test_install_wraps_and_uninstall_restores():
    from basishedge import cli, config, engine, models, payoffs, pde, simulation

    bh = {"cli": cli, "config": config, "engine": engine, "models": models,
          "payoffs": payoffs, "pde": pde, "simulation": simulation}
    before = (engine.decompose, cli.load_config, models.AdditiveModel.__dict__["merton"],
              models.AdditiveModel.__dict__["psi"], simulation.hedge_run, pde.solve)
    tr = tracing.Tracer("t")
    tr.install(bh)
    try:
        assert engine.decompose is not before[0]
        model = models.AdditiveModel.black_scholes(
            log_drift=[0.0, 0.0], vol_x=0.2, vol_s=0.2, corr=0.5, horizon=1.0, spot=[1.0, 1.0])
        engine.decompose(model, payoffs.call_claim(1.0, axis=1)).value(0.5, 1.0, 1.0)
        tr.end_round()
    finally:
        tr.uninstall()
    after = (engine.decompose, cli.load_config, models.AdditiveModel.__dict__["merton"],
             models.AdditiveModel.__dict__["psi"], simulation.hedge_run, pde.solve)
    assert all(a is b for a, b in zip(before, after))
    names = {rec[0] for rec in tr.spans}
    assert {"engine.decompose", "engine.HedgeDecomposition.value",
            "models.AdditiveModel.black_scholes", "payoffs.call_claim"} <= names
    m = tr.layer_metrics(1, 1.0, 1.0, {})
    assert set(m) == set(tracing.PER_LAYER)
    assert m["engine.decompositions"] == 1 and m["engine.points"] == 1


# -- comparison ---------------------------------------------------------------------


def test_compare_marks_wide_spread_unresolved():
    steady = [1.0, 1.01, 0.99, 1.0, 1.0]
    assert compare.verdict(steady, [1.2] * 5, "lower", 0.1)[1] == "worse"
    assert compare.verdict(steady, [0.8] * 5, "lower", 0.1)[1] == "better"
    assert compare.verdict(steady, [1.02] * 5, "lower", 0.1)[1] == "same"
    noisy = [0.7, 1.0, 1.3, 0.9, 1.1]
    assert compare.verdict(noisy, [1.05] * 5, "lower", 0.1)[1] == "unresolved"
    # every run of the change beats every run of the base
    assert compare.verdict(noisy, [0.5] * 5, "lower", 0.1)[1] == "better"


# -- the benchmark's contract --------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    assert e2e == metrics.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == tracing.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_end_to_end_at_tiny_size(name, trace, tmp_path):
    proc = _run(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace),
                 "--size", "tiny", "--result", str(tmp_path / "r.json")])
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    want = metrics.END_TO_END if trace == 0 else tracing.PER_LAYER
    assert set(last["metrics"]) == set(want)
    for k, v in last["metrics"].items():
        assert v["unit"] == want[k][0]
    detail = json.loads((tmp_path / "r.json").read_text())["detail"]
    assert detail["error_rate"] == 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "book", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
