"""Layer spans recorded around the program's public functions.

The program has no instrumentation of its own yet, so the traced run
wraps, from outside, the public functions of each layer:

    config      load_config (also where cli imported it), ExperimentConfig methods
    cli         main
    payoffs     the claim builders, PayoffMeasure and ContourLine methods
    models      every public method of AdditiveModel and PiecewiseAdditiveModel
    engine      decompose and the HedgeDecomposition methods
    simulation  simulate, hedge_run and the statistical checks
    pde         solve, monte_carlo_representation, DiffusionSpec and PDESolution methods

Module functions are patched at the module attribute, which is where
cli and the benchmark look them up at call time.  Work a public
function does through private helpers of another module stays in the
caller's span: hedge_run's per-step line grids count as simulation.

Spans are kept in memory as [name, start, end, parent, child_s, round]
and written out as JSON lines when the run ends.  A span's self time is
its duration minus the time its child spans cover; spans nest strictly
because the runs are single-threaded.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("config", "cli", "payoffs", "models", "engine", "simulation", "pde")
TAIL_MODES = ("none", "terminal", "skipped-negligible", "extended", "bound-only")

_NAME, _START, _END, _PARENT, _CHILD, _ROUND = range(6)

# per-layer metric -> (unit, better); times and counts are per round
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "engine.eval_s": ("s", "lower"),
    "engine.eval_calls": ("count", "lower"),
    "engine.points": ("count", "lower"),
    "engine.surface_s": ("s", "lower"),
    "engine.surface_points": ("count", "lower"),
    "engine.decompose_s": ("s", "lower"),
    "engine.decompositions": ("count", "lower"),
    "engine.quad_level_max": ("count", "lower"),
    "engine.umult_max": ("count", "lower"),
    **{f"engine.tail_mode.{mode}": ("count", "lower") for mode in TAIL_MODES},
    "engine.h0_im_residual_max": ("ratio", "lower"),
    "simulation.hedge_run_s": ("s", "lower"),
    "simulation.replay_step_ms": ("ms", "lower"),
    "simulation.self_check_error": ("ratio", "lower"),
    "simulation.simulate_s": ("s", "lower"),
    "simulation.path_steps": ("count", "lower"),
    "simulation.martingale_s": ("s", "lower"),
    "simulation.moment_s": ("s", "lower"),
    "simulation.tradeoff_s": ("s", "lower"),
    "simulation.baseline_s": ("s", "lower"),
    "simulation.stat_tests_failed": ("count", "lower"),
    "pde.solve_s": ("s", "lower"),
    "pde.steps": ("count", "lower"),
    "pde.cell_updates": ("count", "lower"),
    "pde.cell_updates_per_s": ("1/s", "higher"),
    "pde.cfl_number": ("ratio", "lower"),
    "pde.mc_repr_s": ("s", "lower"),
    "pde.mc_paths": ("count", "lower"),
    "models.calls": ("count", "lower"),
    "models.lambda_calls": ("count", "lower"),
    "payoffs.build_s": ("s", "lower"),
    "payoffs.payoff_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "config.load_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
}

_POINT_EVALS = ("value", "hedge", "value_and_hedge", "apply_generator")
_SIM_STAGES = {
    "simulate": "simulate_s",
    "hedge_run": "hedge_run_s",
    "martingale_test": "martingale_s",
    "moment_check": "moment_s",
    "tradeoff_check": "tradeoff_s",
    "baseline_comparison": "baseline_s",
}
_BUILDERS = ("power_claim", "call_measure", "put_measure", "call_claim", "put_claim", "combine")
_BUILDER_SPANS = frozenset(f"payoffs.{fn}" for fn in _BUILDERS)


class Tracer:
    """In-memory span recorder plus the counters measured at span boundaries."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[list] = []
        self.round = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._decompositions: list = []
        self._patches: list[tuple] = []
        self._report = None

    # -- spans ----------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """fn wrapped in a span called name; hook(tracer, args, kwargs, out) runs after it."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, 0.0, self.round]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                rec[_END] = end
                stack.pop()
                if parent >= 0:
                    spans[parent][_CHILD] += end - rec[_START]
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return traced

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self time, number of spans)."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for rec in self.spans:
            acc = out[rec[_NAME]]
            acc[0] += (rec[_END] - rec[_START]) - rec[_CHILD]
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def root_time(self) -> float:
        """Wall time inside top-level spans."""
        return sum(r[_END] - r[_START] for r in self.spans if r[_PARENT] < 0)

    def write_jsonl(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "round": rec[_ROUND], "id": i,
                    "parent": rec[_PARENT], "name": rec[_NAME],
                    "start": rec[_START], "end": rec[_END],
                }) + "\n")

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, hook=None):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self.wrap(name, raw.__func__, hook))
        else:
            new = self.wrap(name, raw, hook)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _patch_class(self, layer: str, cls, hooks: dict):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or isinstance(raw, property):
                continue
            if callable(raw) or isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, f"{layer}.{cls.__name__}.{attr}", hooks.get(attr))

    def install(self, bh: dict):
        """Wrap the public functions of the program's modules (name -> module)."""
        cli, config, payoffs = bh["cli"], bh["config"], bh["payoffs"]
        models, engine, simulation, pde = bh["models"], bh["engine"], bh["simulation"], bh["pde"]
        self._report = engine.HedgeDecomposition.quadrature_report

        self._patch(cli, "main", "cli.main")
        self._patch(cli, "load_config", "config.load_config")
        self._patch(config, "load_config", "config.load_config")
        self._patch_class("config", config.ExperimentConfig, {})

        for fn in _BUILDERS:
            self._patch(payoffs, fn, f"payoffs.{fn}")
        self._patch_class("payoffs", payoffs.PayoffMeasure, {})
        self._patch_class("payoffs", payoffs.ContourLine, {})

        self._patch_class("models", models.AdditiveModel, {})
        self._patch_class("models", models.PiecewiseAdditiveModel, {})

        self._patch(engine, "decompose", "engine.decompose", _hook_decompose)
        hooks = {fn: _hook_points for fn in _POINT_EVALS}
        hooks["hedge_surface"] = _hook_surface
        self._patch_class("engine", engine.HedgeDecomposition, hooks)

        sim_hooks = {"simulate": _hook_simulate, "hedge_run": _hook_hedge_run}
        for fn in _SIM_STAGES:
            self._patch(simulation, fn, f"simulation.{fn}", sim_hooks.get(fn))

        self._patch(pde, "solve", "pde.solve", _hook_solve)
        mc_sig = inspect.signature(pde.monte_carlo_representation)

        def hook_mc_repr(tr, args, kwargs, out):
            bound = mc_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            tr.counts["pde.mc_paths"] += bound.arguments["n_paths"]

        self._patch(pde, "monte_carlo_representation", "pde.monte_carlo_representation",
                    hook_mc_repr)
        self._patch_class("pde", pde.DiffusionSpec, {})
        self._patch_class("pde", pde.PDESolution, {})

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def end_round(self):
        """Read the quadrature reports of the round's decompositions, outside any span."""
        for dec in self._decompositions:
            rep = self._report(dec)
            self.peaks["h0_im_residual"] = max(self.peaks["h0_im_residual"], rep["h0_im_residual"])
            for line in rep["lines"]:
                self.peaks["levels"] = max(self.peaks["levels"], line["levels"])
                self.peaks["umult"] = max(self.peaks["umult"], line["umult"])
                self.counts["tail_mode." + line["tail_mode"]] += 1
        self._decompositions.clear()
        self.round += 1

    # -- per-layer metrics --------------------------------------------------------

    def layer_metrics(self, rounds: int, traced_s: float, untraced_s: float,
                      outside: dict) -> dict[str, float]:
        """Per-layer figures per round (maxima as maxima).

        traced_s / untraced_s are the wall times of the same rounds with
        and without tracing; outside holds counts the workload measured
        itself (bytes the CLI wrote, statistical tests that failed).
        """
        st = self.self_times()
        per = 1.0 / max(rounds, 1)

        def total(pred):
            s = n = 0
            for name, (t, c) in st.items():
                if pred(name):
                    s += t
                    n += c
            return s, n

        def named(name):
            return st.get(name, (0.0, 0))

        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = total(lambda n, p=layer + ".": n.startswith(p))[0] * per

        eval_s, eval_n = total(lambda n: n.startswith("engine.HedgeDecomposition.")
                               and n.rsplit(".", 1)[1] in _POINT_EVALS)
        m["engine.eval_s"] = eval_s * per
        m["engine.eval_calls"] = eval_n * per
        m["engine.points"] = self.counts["engine.points"] * per
        m["engine.surface_s"] = named("engine.HedgeDecomposition.hedge_surface")[0] * per
        m["engine.surface_points"] = self.counts["engine.surface_points"] * per
        dec_s, dec_n = named("engine.decompose")
        m["engine.decompose_s"] = dec_s * per
        m["engine.decompositions"] = dec_n * per
        m["engine.quad_level_max"] = self.peaks["levels"]
        m["engine.umult_max"] = self.peaks["umult"]
        for mode in TAIL_MODES:
            m[f"engine.tail_mode.{mode}"] = self.counts["tail_mode." + mode] * per
        m["engine.h0_im_residual_max"] = self.peaks["h0_im_residual"]

        for fn, key in _SIM_STAGES.items():
            m[f"simulation.{key}"] = named(f"simulation.{fn}")[0] * per
        steps = self.counts["simulation.replay_steps"]
        m["simulation.replay_step_ms"] = (
            1e3 * named("simulation.hedge_run")[0] / steps if steps else 0.0
        )
        m["simulation.self_check_error"] = self.peaks["self_check_error"]
        m["simulation.path_steps"] = self.counts["simulation.path_steps"] * per
        m["simulation.stat_tests_failed"] = outside.get("stat_tests_failed", 0) * per

        solve_s = named("pde.solve")[0]
        m["pde.solve_s"] = solve_s * per
        m["pde.steps"] = self.counts["pde.steps"] * per
        m["pde.cell_updates"] = self.counts["pde.cell_updates"] * per
        m["pde.cell_updates_per_s"] = (
            self.counts["pde.cell_updates"] / solve_s if solve_s else 0.0
        )
        m["pde.cfl_number"] = self.peaks["cfl_number"]
        m["pde.mc_repr_s"] = named("pde.monte_carlo_representation")[0] * per
        m["pde.mc_paths"] = self.counts["pde.mc_paths"] * per

        _, model_calls = total(lambda n: n.startswith("models."))
        m["models.calls"] = model_calls * per
        m["models.lambda_calls"] = total(lambda n: n.startswith("models.")
                                         and n.endswith(".lambda_coeff"))[1] * per

        m["payoffs.build_s"] = total(lambda n: n in _BUILDER_SPANS)[0] * per
        m["payoffs.payoff_s"] = named("payoffs.PayoffMeasure.payoff")[0] * per
        m["cli.bytes_written"] = outside.get("bytes_written", 0) * per
        m["config.load_s"] = named("config.load_config")[0] * per

        m["trace.overhead_s"] = (traced_s - untraced_s) * per
        m["trace.coverage"] = self.root_time() / traced_s if traced_s > 0 else 0.0
        m["trace.spans"] = len(self.spans) * per
        return m


# -- counters read at span boundaries ------------------------------------------------


def _hook_decompose(tr, args, kwargs, out):
    tr._decompositions.append(out)


def _hook_points(tr, args, kwargs, out):
    tr.counts["engine.points"] += np.broadcast(*(np.asarray(a) for a in args[1:4])).size


def _hook_surface(tr, args, kwargs, out):
    tr.counts["engine.surface_points"] += out[0].size


def _hook_simulate(tr, args, kwargs, out):
    tr.counts["simulation.path_steps"] += out.n_paths * out.n_steps


def _hook_hedge_run(tr, args, kwargs, out):
    tr.counts["simulation.replay_steps"] += out.n_steps
    tr.peaks["self_check_error"] = max(tr.peaks["self_check_error"], out.self_check_error)


def _hook_solve(tr, args, kwargs, out):
    tr.counts["pde.steps"] += out.steps
    tr.counts["pde.cell_updates"] += (out.x.size - 2) * (out.s.size - 2) * out.steps
    tr.peaks["cfl_number"] = max(tr.peaks["cfl_number"], out.cfl_number)
