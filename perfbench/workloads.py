"""The benchmark's three workloads: generated inputs, one round, gates.

Every workload is a closed loop with one client: the next round starts
when the previous one has finished.  A round is a fixed unit of work
generated from the seed, so every round of a run does the same work.

replay  the in-process `check` command on a Merton co-jump config (the
        acceptance-06 model, at-the-money call on X, all five tests).
book    public-API pricing of a generated book of calls and puts on X
        and S under three models: quotes at t = 0, single-point marks at
        their own times, and tensor hedge surfaces.
routes  the in-process `price` (route both), `pde` and `compare`
        commands on the diffusion config shipped as
        configs/hulley_mcwalter.json.

The program receives only the generated inputs: config files for the
CLI workloads, a book file for the API workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from basishedge import cli, config, engine, models, payoffs
from stats import median, nearest_rank

SPOT = [100.0, 100.0]

# the acceptance-06 Merton co-jump model (tests/conftest.py, merton_model)
MERTON = {
    "kind": "merton", "drift": [0.03, 0.025], "vol_x": 0.25, "vol_s": 0.2,
    "corr": 0.6, "jump_intensity": 0.7, "jump_mean": [-0.05, -0.04],
    "jump_vol_x": 0.12, "jump_vol_s": 0.1, "jump_corr": 0.5,
    "horizon": 1.0, "spot": SPOT,
}

# configs/hulley_mcwalter.json as shipped; routes overrides the snapshot
# count and the validation seed only
HULLEY_MCWALTER = {
    "model": {
        "kind": "black-scholes", "drift": [0.035, 0.02875], "vol_x": 0.3,
        "vol_s": 0.25, "corr": 0.8, "horizon": 1.0, "spot": SPOT,
    },
    "payoff": {"kind": "call", "strike": 100.0, "asset": "x"},
    "route": "both",
    "pde_grid": {"nx": 201, "ns": 201, "nt": 21},
    "surface": {
        "times": [0.0, 0.25, 0.5, 0.75, 1.0],
        "x": {"lo": 60.0, "hi": 160.0, "n": 21},
        "s": {"lo": 60.0, "hi": 160.0, "n": 21},
    },
    "validation": {"n_paths": 20000, "n_steps": 125, "seed": 7},
}

# The three book models: the basis-risk benchmark pair, the Merton model
# above, and the two-season model of demos/05_piecewise_seasons.py.
BOOK_MODELS = {
    "bs": {"kind": "black-scholes", "log_drift": [0.035, 0.02875], "vol_x": 0.3,
           "vol_s": 0.25, "corr": 0.8, "horizon": 1.0},
    "merton": {"kind": "merton", "log_drift": [0.03, 0.025], "vol_x": 0.25,
               "vol_s": 0.2, "corr": 0.6, "jump_intensity": 0.7,
               "jump_mean": [-0.05, -0.04], "jump_vol_x": 0.12, "jump_vol_s": 0.1,
               "jump_corr": 0.5, "horizon": 1.0},
    "seasons": {"kind": "piecewise", "pieces": [
        [0.5, {"kind": "black-scholes", "log_drift": [0.03, 0.02], "vol_x": 0.20,
               "vol_s": 0.18, "corr": 0.85, "horizon": 0.5}],
        [0.5, {"kind": "merton", "log_drift": [0.01, 0.005], "vol_x": 0.35,
               "vol_s": 0.30, "corr": 0.65, "jump_intensity": 1.5,
               "jump_mean": [-0.08, -0.06], "jump_vol_x": 0.15, "jump_vol_s": 0.12,
               "jump_corr": 0.6, "horizon": 0.5}],
    ]},
}

SIZES = {
    "full": {
        # 50k paths x 25 steps: about 4.3 s per check on the README's baseline machine
        "replay": {"n_paths": 50_000, "n_steps": 25},
        # 6 strikes x 2 assets x 3 models = 36 call/put pairs = 72 quotes,
        # 96 marks and one 5x21x21 surface per model per round
        "book": {"strikes": 6, "marks": 96, "surface": (5, 21, 21)},
        # nt = 2: pde.solve keeps the largest self time (see README)
        "routes": {"nt": 2, "nx": 201, "ns": 201, "n_paths": 20_000},
    },
    "tiny": {
        "replay": {"n_paths": 2_000, "n_steps": 4},
        "book": {"strikes": 1, "marks": 8, "surface": (2, 3, 3)},
        "routes": {"nt": 2, "nx": 81, "ns": 81, "n_paths": 2_000},  # 61 misses compare
    },
}

# fewest rounds per run: two CLI rounds give a byte-identity repeat;
# three book rounds give at least 200 quotes and marks for a p95
MIN_ROUNDS = {"replay": 2, "book": 3, "routes": 2}

CHECKS = ["martingale", "moments", "orthogonality", "tradeoff", "baselines"]
CHECK_TOL = 5e-3  # hedge_run's default self-check tolerance


@dataclass
class Op:
    """One timed operation: kind, wall time and whether it passed its gates."""

    kind: str
    seconds: float
    ok: bool = True
    note: str = ""


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, sum(map(ord, workload))])


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _quiet(argv) -> int:
    """cli.main with its messages kept off the benchmark's output; the exit code tells."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _run_cli(kind: str, argv, report_path: str, ok_codes) -> tuple[Op, object, bytes | None]:
    """One timed CLI command: (op, exit code, report bytes or None on failure)."""
    t0 = time.perf_counter()
    try:
        rc = _quiet(argv)
    except Exception as exc:  # an uncaught error fails the operation, not the run
        return Op(kind, time.perf_counter() - t0, False, repr(exc)), None, None
    op = Op(kind, time.perf_counter() - t0)
    if rc not in ok_codes or not os.path.exists(report_path):
        op.ok, op.note = False, f"{kind} exited {rc} without a report"
        return op, rc, None
    with open(report_path, "rb") as fh:
        return op, rc, fh.read()


def _finite(*values) -> bool:
    """True when every value is a finite number (or array of them)."""
    try:
        return all(bool(np.all(np.isfinite(np.asarray(v, dtype=float)))) for v in values)
    except (TypeError, ValueError):
        return False


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Workload:
    """Base: generated inputs under workdir, one round at a time, gates."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = SIZES[size][self.name]
        self.workdir = workdir
        self.counters = {"bytes_written": 0, "stat_tests_failed": 0}

    def generate(self) -> dict:
        raise NotImplementedError

    def setup(self):
        """Generate the inputs, write them, and load them back."""
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def finish(self, ops: list[Op]) -> None:
        """Gates that need references computed after the timed loop."""

    def summary(self, ops: list[Op]) -> dict:
        return {}


# -- replay -------------------------------------------------------------------------


class Replay(Workload):
    name = "replay"

    def generate(self) -> dict:
        rng = _rng(self.seed, self.name)
        return {
            "model": MERTON,
            "payoff": {"kind": "call", "strike": 100.0, "asset": "x"},
            "route": "fourier",
            "validation": {
                "n_paths": self.size["n_paths"],
                "n_steps": self.size["n_steps"],
                "seed": int(rng.integers(0, 2**31 - 1)),
                "tests": CHECKS,
            },
        }

    def setup(self):
        import scipy.stats  # noqa: F401  -- loaded by `check` (baseline comparison)

        self.config_path = os.path.join(self.workdir, "replay.json")
        _write_json(self.config_path, self.generate())
        config.load_config(self.config_path)
        self.outdir = os.path.join(self.workdir, "replay-out")
        self.first_report = None

    def round(self, r: int) -> list[Op]:
        _fresh_dir(self.outdir)
        argv = ["check", "--config", self.config_path, "--out", self.outdir]
        op, rc, report = _run_cli("check", argv, os.path.join(self.outdir, "sim_report.json"), (0, 4))
        if report is None:
            return [op]
        self.counters["bytes_written"] += _dir_bytes(self.outdir)
        try:
            parsed = json.loads(report)
            results, failed = parsed["results"], parsed["failed"]
            orth = results["orthogonality"]
        except (ValueError, KeyError) as exc:
            op.ok, op.note = False, f"unreadable report: {exc!r}"
            return [op]
        self.counters["stat_tests_failed"] += len(failed)
        if sorted(results) != sorted(CHECKS):
            op.ok, op.note = False, "report misses some of the five tests"
        elif (rc == 4) != bool(failed):
            op.ok, op.note = False, f"exit {rc} disagrees with failed tests {failed}"
        elif not _finite(orth.get("corr"), orth.get("self_check_error")) or \
                orth["self_check_error"] > CHECK_TOL:
            op.ok, op.note = False, "replay self-check error missing or above tolerance"
        elif self.first_report is None:
            self.first_report = report
        elif report != self.first_report:
            op.ok, op.note = False, "sim_report.json differs from the first repeat"
        return [op]


# -- book ---------------------------------------------------------------------------


def _build_model(spec: dict):
    kind = spec["kind"]
    params = {k: v for k, v in spec.items() if k != "kind"}
    if kind == "piecewise":
        return models.PiecewiseAdditiveModel(
            [(dur, _build_model(sub)) for dur, sub in spec["pieces"]]
        )
    builder = models.AdditiveModel.black_scholes if kind == "black-scholes" \
        else models.AdditiveModel.merton
    return builder(spot=SPOT, **params)


def _vanilla(kind: str, v, strike: float):
    """Payoff of a call or put, coded here so the gates share nothing with payoffs."""
    return np.maximum(v - strike, 0.0) if kind == "call" else np.maximum(strike - v, 0.0)


def lognormal_call(spot: float, strike: float, total_var: float) -> float:
    """Zero-drift lognormal call value, the closed form for traded-asset calls."""
    sd = math.sqrt(total_var)
    d1 = (math.log(spot / strike) + 0.5 * total_var) / sd
    cdf = lambda v: 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))  # noqa: E731
    return spot * cdf(d1) - strike * cdf(d1 - sd)


class Book(Workload):
    name = "book"

    def generate(self) -> dict:
        """A stratified book: every seed spans the same moneyness and times.

        Strikes and mark times take one random point in each of n equal
        strata, and mark prices one normal quantile from each stratum, so
        seeds differ in the details but not in the spread of work and memory
        the book asks for.
        """
        rng = _rng(self.seed, self.name)

        def strata(n):
            return (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n

        positions = []
        for model in BOOK_MODELS:
            for asset in ("x", "s"):
                logk = -0.35 + 0.7 * strata(self.size["strikes"])
                strikes = np.round(100.0 * np.exp(logk), 2)
                if asset == "x":
                    # the at-the-money call on X carries the model's surface; a fixed
                    # strike keeps the surface's cost the same for every seed
                    strikes[0] = 100.0
                positions.extend({"model": model, "asset": asset, "strike": float(k)}
                                 for k in strikes)
        n = self.size["marks"]
        times = rng.permutation(strata(n))
        z = np.array([[NormalDist().inv_cdf(q) for q in rng.permutation(strata(n))]
                      for _ in range(2)])
        held = rng.permutation(n) % len(positions)
        marks = []
        for i in range(n):
            # one mark in ten sits at maturity, where value must equal payoff
            t = 1.0 if i % 10 == 9 else float(times[i])
            x, s = (100.0 * np.exp(0.25 * z[:, i])).tolist()
            marks.append({"position": int(held[i]), "claim": ["call", "put"][i % 2],
                          "t": t, "x": x, "s": s})
        surfaces = [next(i for i, p in enumerate(positions)
                         if p["model"] == name and p["asset"] == "x") for name in BOOK_MODELS]
        nt, nx, ns = self.size["surface"]
        grid = {"times": np.linspace(0.0, 1.0, nt).tolist(),
                "x": np.linspace(60.0, 160.0, nx).tolist(),
                "s": np.linspace(60.0, 160.0, ns).tolist()}
        return {"models": BOOK_MODELS, "positions": positions, "marks": marks,
                "surfaces": surfaces, "surface_grid": grid}

    def setup(self):
        path = os.path.join(self.workdir, "book.json")
        _write_json(path, self.generate())
        with open(path, encoding="utf-8") as fh:
            book = json.load(fh)
        self.models = {name: _build_model(spec) for name, spec in book["models"].items()}
        self.positions = book["positions"]
        self.claims = []
        for p in self.positions:
            axis = 1 if p["asset"] == "x" else 2
            self.claims.append({
                "call": payoffs.call_claim(p["strike"], axis=axis),
                "put": payoffs.put_claim(p["strike"], axis=axis),
            })
        self.marks = book["marks"]
        self.surfaces = book["surfaces"]
        g = book["surface_grid"]
        self.grid = (np.array(g["times"]), np.array(g["x"]), np.array(g["s"]))
        self.quotes: dict[tuple, float] = {}

    def round(self, r: int) -> list[Op]:
        ops = []
        decs = {}
        x0, s0 = SPOT
        for i, p in enumerate(self.positions):
            for kind in ("call", "put"):
                t0 = time.perf_counter()
                try:
                    dec = engine.decompose(self.models[p["model"]], self.claims[i][kind])
                    y, z = dec.value_and_hedge(0.0, x0, s0)
                except Exception as exc:  # a failed quote counts against error_rate
                    ops.append(Op("quote", time.perf_counter() - t0, False, repr(exc)))
                    continue
                op = Op("quote", time.perf_counter() - t0)
                decs[i, kind] = dec
                if not _finite(dec.h0, y, z) or abs(y - dec.h0) > 1e-9 * (1.0 + abs(dec.h0)):
                    op.ok, op.note = False, f"quote {i} {kind}: h0 {dec.h0} y {y} z {z}"
                elif self.quotes.setdefault((i, kind), dec.h0) != dec.h0:
                    op.ok, op.note = False, f"quote {i} {kind} not repeatable"
                ops.append(op)
        times, xs, ss = self.grid
        for i in self.surfaces:
            t0 = time.perf_counter()
            try:
                y, z = decs[i, "call"].hedge_surface(times, xs, ss)
            except Exception as exc:
                ops.append(Op("surface", time.perf_counter() - t0, False, repr(exc)))
                continue
            op = Op("surface", time.perf_counter() - t0)
            k = self.positions[i]["strike"]
            payoff = _vanilla("call", np.broadcast_to(xs[:, None], (xs.size, ss.size)), k)
            if not _finite(y, z):
                op.ok, op.note = False, f"surface {i}: non-finite"
            elif float(np.max(np.abs(y[-1] - payoff))) > 1e-6 * (1.0 + k):
                op.ok, op.note = False, f"surface {i}: terminal slice misses the payoff"
            ops.append(op)
        for m in self.marks:
            i, kind = m["position"], m["claim"]
            t0 = time.perf_counter()
            try:
                y, z = decs[i, kind].value_and_hedge(m["t"], m["x"], m["s"])
            except Exception as exc:
                ops.append(Op("mark", time.perf_counter() - t0, False, repr(exc)))
                continue
            op = Op("mark", time.perf_counter() - t0)
            p = self.positions[i]
            k = p["strike"]
            payoff = _vanilla(kind, m["x"] if p["asset"] == "x" else m["s"], k)
            if not _finite(y, z):
                op.ok, op.note = False, f"mark {m}: non-finite"
            elif m["t"] == 1.0 and abs(y - payoff) > 1e-6 * (1.0 + k):
                op.ok, op.note = False, f"mark {m}: value {y} vs payoff {payoff}"
            ops.append(op)
        return ops

    def finish(self, ops):
        """Closed-form and parity gates on the quoted initial capitals.

        Quotes repeat bit for bit across rounds (checked in round), so
        the first round's values stand for every round.
        """
        bad = set()
        refs = {}
        for i, p in enumerate(self.positions):
            axis = 1 if p["asset"] == "x" else 2
            k = p["strike"]
            call, put = self.quotes.get((i, "call")), self.quotes.get((i, "put"))
            if call is None or put is None:
                continue
            key = (p["model"], axis)
            if key not in refs:
                power = payoffs.power_claim(*((1.0, 0.0) if axis == 1 else (0.0, 1.0)))
                refs[key] = engine.decompose(self.models[p["model"]], power).h0
            if abs((call - put) - (refs[key] - k)) > 1e-6 * (1.0 + k):
                bad.add(i)
            if p["model"] == "bs" and axis == 2:
                var = float(self.models["bs"].covariance[1, 1]) * self.models["bs"].horizon
                want = lognormal_call(SPOT[1], k, var)
                if abs(call - want) > 1e-5 * max(1.0, want):
                    bad.add(i)
        # fail both quotes of a failing position in every round
        n_pos = len(self.positions)
        quotes = [op for op in ops if op.kind == "quote"]
        for j, op in enumerate(quotes):
            if (j // 2) % n_pos in bad and op.ok:
                op.ok, op.note = False, f"position {(j // 2) % n_pos} misses parity or closed form"

    def summary(self, ops):
        out = {}
        for kind in ("quote", "mark"):
            ms = [1e3 * op.seconds for op in ops if op.kind == kind]
            out[f"{kind}_ms_p50"] = median(ms)
            out[f"{kind}_ms_p95"] = nearest_rank(ms, 95)
            out[f"{kind}s"] = len(ms)
        surf = [op.seconds for op in ops if op.kind == "surface"]
        points = int(np.prod(self.size["surface"]))
        out["surface_points_per_s"] = points * len(surf) / sum(surf)
        out["surfaces"] = len(surf)
        return out


# -- routes -------------------------------------------------------------------------

ROUTE_COMMANDS = ("price", "pde", "compare")


class Routes(Workload):
    name = "routes"

    def generate(self) -> dict:
        rng = _rng(self.seed, self.name)
        cfg = json.loads(json.dumps(HULLEY_MCWALTER))
        cfg["pde_grid"] = {"nx": self.size["nx"], "ns": self.size["ns"], "nt": self.size["nt"]}
        cfg["validation"] = {"n_paths": self.size["n_paths"], "n_steps": 125,
                             "seed": int(rng.integers(0, 2**31 - 1))}
        return cfg

    def setup(self):
        self.config_path = os.path.join(self.workdir, "routes.json")
        _write_json(self.config_path, self.generate())
        config.load_config(self.config_path)
        self.first = {}

    def round(self, r: int) -> list[Op]:
        ops = []
        for cmd in ROUTE_COMMANDS:
            outdir = _fresh_dir(os.path.join(self.workdir, f"out-{cmd}"))
            argv = [cmd, "--config", self.config_path, "--out", outdir]
            op, _, report = _run_cli(cmd, argv, os.path.join(outdir, "summary.json"), (0,))
            ops.append(op)
            if report is None:
                continue
            self.counters["bytes_written"] += _dir_bytes(outdir)
            key = {"price": "h0", "pde": "h0", "compare": "h0_gap_rel"}[cmd]
            try:
                value = json.loads(report)[key]
            except (ValueError, KeyError) as exc:
                op.ok, op.note = False, f"{cmd}: unreadable report: {exc!r}"
                continue
            if not _finite(value):
                op.ok, op.note = False, f"{cmd}: {key} is not finite"
            elif cmd == "pde" and not os.path.exists(os.path.join(outdir, "pde_surface.csv")):
                op.ok, op.note = False, "pde wrote no pde_surface.csv"
            elif self.first.setdefault(cmd, report) != report:
                op.ok, op.note = False, f"{cmd}: summary.json differs from the first repeat"
        return ops

    def summary(self, ops):
        return {f"cmd_{cmd}_s": median([op.seconds for op in ops if op.kind == cmd])
                for cmd in ROUTE_COMMANDS}


WORKLOADS = {w.name: w for w in (Replay, Book, Routes)}
