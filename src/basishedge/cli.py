"""Command-line front end.

Subcommands
-----------
price          initial capital and diagnostics for the configured claim
hedge-surface  value/hedge tables on the configured (t, x, s) grid (CSV)
simulate       path replay of the hedge with residual statistics
pde            finite-difference solve (diffusion models only)
compare        Fourier route against the PDE route on shared grids
check          the Monte Carlo validation battery; fails with exit 4

All subcommands read one JSON config (--config).  Reports go to the
directory named by --out (or the config's output.directory) as
summary.json / sim_report.json, next to hedge_surface.csv,
pde_surface.csv and checks.log where applicable; without a directory
the JSON report is printed to stdout.  Outputs are deterministic for a
fixed config and seed: JSON is key-sorted with no timestamps, files are
written atomically, and nothing is written for an invalid config.  Exit
codes: 0 success, 2 configuration errors, 3 violated model/regime
assumptions, contour quadrature that does not converge, a Fourier
result, PDE grid or solution that is not finite, or an argument outside
an operation's domain or a failed replay self-check (DomainError,
MismatchError), 4 failed validation checks (the report is still
written).  Each failure prints one line to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import engine, pde, simulation
from .config import _integer, load_config
from .errors import (
    AssumptionError,
    CheckFailure,
    ConfigError,
    ConvergenceError,
    DomainError,
    MismatchError,
    RegimeError,
)

__all__ = ["main"]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _dump(payload: dict) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"


def _write_text(path: str, text: str):
    full = os.path.abspath(path)
    parent = os.path.dirname(full)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = full + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, full)


def _emit(payload: dict, outdir: str | None, name: str):
    text = _dump(payload)
    if outdir:
        path = os.path.join(outdir, name)
        _write_text(path, text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _surface_csv(times, xs, ss, y, z) -> str:
    xr = [repr(float(v)) for v in xs]
    sr = [repr(float(v)) for v in ss]
    rows = ["t,x,s,y,z"]
    for t, yt, zt in zip(times, np.asarray(y, dtype=float), np.asarray(z, dtype=float)):
        tr = repr(float(t))
        # one row at a time: a whole slice as Python floats raises the peak RSS
        for xv, yrow, zrow in zip(xr, yt, zt):
            rows.extend(
                f"{tr},{xv},{sv},{yv!r},{zv!r}"
                for sv, yv, zv in zip(sr, yrow.tolist(), zrow.tolist())
            )
    return "\n".join(rows) + "\n"


def _decompose(cfg):
    return engine.decompose(cfg.model, cfg.measure, cfg.settings)


def _pde_solution(cfg):
    spec = pde.DiffusionSpec.from_additive(cfg.model)
    return spec, pde.solve(spec, cfg.measure, cfg.pde_grid)


def _replay_setup(cfg, args):
    """Sizes, seed, decomposition and path stream of simulate and check.

    A claim that is not real is rejected before any path is drawn.
    """
    val = cfg.validation
    sizes = {
        "seed": val["seed"] if args.seed is None else args.seed,
        "n_paths": val["n_paths"],
        "n_steps": val["n_steps"],
    }
    dec = _decompose(cfg)
    if not cfg.measure.is_real_claim():
        raise AssumptionError("path replay requires a real-valued claim")
    src = simulation.PathStream(cfg.model, sizes["n_paths"], sizes["n_steps"], sizes["seed"])
    return sizes, dec, src


def _cmd_price(cfg, args) -> dict:
    out = {"route": cfg.route}
    if cfg.route in ("fourier", "both"):
        dec = _decompose(cfg)
        out["h0"] = float(np.real(dec.h0))
        out["assumptions"] = dec.assumptions
        out["quadrature"] = dec.quadrature_report()
    if cfg.route in ("pde", "both"):
        _, sol = _pde_solution(cfg)
        out["h0_pde"] = sol.h0
        out["pde"] = {"steps": sol.steps, "cfl_number": sol.cfl_number}
        if cfg.route == "pde":
            out["h0"] = sol.h0
    if cfg.route == "both":
        out["route_gap"] = abs(out["h0"] - out["h0_pde"])
    return out


def _cmd_hedge_surface(cfg, args) -> dict:
    dec = _decompose(cfg)
    grid = cfg.surface_grid
    times, xs, ss = grid["times"], grid["x"], grid["s"]
    y, z = dec.hedge_surface(times, xs, ss)
    csv_path = os.path.join(args.outdir or ".", "hedge_surface.csv")
    _write_text(csv_path, _surface_csv(times, xs, ss, y, z))
    if args.outdir:
        print(f"wrote {csv_path}")
    return {
        "h0": float(np.real(dec.h0)),
        "csv": csv_path,
        "shape": [len(times), len(xs), len(ss)],
        "quadrature": dec.quadrature_report(),
    }


def _cmd_simulate(cfg, args) -> dict:
    sizes, dec, src = _replay_setup(cfg, args)
    run = simulation.hedge_run(dec, src)
    return {
        **sizes,
        "h0": run.initial_capital,
        "payoff_mean": run.payoff_mean,
        "gain_mean": run.gain_mean,
        "residual_mean": run.residual_mean,
        "residual_stderr": run.residual_stderr,
        "residual_tstat": run.residual_tstat,
        "residual_variance": run.residual_variance,
        "orthogonality_corr": run.orthogonality_corr,
        "self_check_error": run.self_check_error,
    }


def _cmd_pde(cfg, args) -> dict:
    _, sol = _pde_solution(cfg)
    out = {
        "h0": sol.h0,
        "steps": sol.steps,
        "cfl_number": sol.cfl_number,
        "grid": {"nx": len(sol.x), "ns": len(sol.s), "nt": len(sol.times)},
    }
    if args.outdir:
        csv_path = os.path.join(args.outdir, "pde_surface.csv")
        _write_text(csv_path, _surface_csv(sol.times, sol.x, sol.s, sol.y, sol.z))
        print(f"wrote {csv_path}")
        out["csv"] = csv_path
    return out


def _cmd_compare(cfg, args) -> dict:
    """Route comparison on the interior: the spatial box spans two log
    standard deviations around the spot and times stop at 0.9 T, before
    the terminal layer where the kink defeats finite differences.  A
    small agreement table adds the probabilistic representation at a few
    sample points; a gap that is not within the configured limits, NaN
    included, raises CheckFailure."""
    model = cfg.model
    dec = _decompose(cfg)
    spec, sol = _pde_solution(cfg)
    limits = cfg.compare_limits
    val = cfg.validation
    T = model.horizon
    half_x = 2.0 * float(np.sqrt(model.covariance[0, 0] * T))
    half_s = 2.0 * float(np.sqrt(model.covariance[1, 1] * T))
    ix = np.abs(np.log(sol.x / model.spot[0])) <= half_x
    isl = np.abs(np.log(sol.s / model.spot[1])) <= half_s
    inner = sol.times <= 0.9 * T
    yf, zf = dec.hedge_surface(sol.times[inner], sol.x[ix], sol.s[isl])
    box = np.ix_(inner, ix, isl)
    # np.max keeps a NaN gap
    gap_y = float(np.max(np.abs(sol.y[box] - yf) / np.maximum(np.abs(yf), 1.0)))
    gap_z = float(np.max(np.abs(sol.z[box] - zf) / np.maximum(np.abs(zf), 0.05)))
    h0_f = float(np.real(dec.h0))

    x0, s0 = float(model.spot[0]), float(model.spot[1])
    mid = float(sol.times[np.searchsorted(sol.times, 0.5 * T)])
    table = []
    for t in (0.0, mid):
        for bump in (0.85, 1.0, 1.15):
            xq = x0 * bump
            y_f = float(np.real(dec.value(t, xq, s0)))
            y_p = float(sol.value_at(t, xq, s0))
            y_m, se = pde.monte_carlo_representation(
                spec, cfg.measure, t, xq, s0,
                n_paths=val["n_paths"], seed=val["seed"],
            )
            table.append({
                "t": t, "x": xq, "s": s0,
                "y_fourier": y_f, "y_pde": y_p, "y_mc": y_m, "mc_stderr": se,
                "max_pairwise_gap": max(
                    abs(y_f - y_p), abs(y_f - y_m), abs(y_p - y_m)
                ),
            })

    out = {
        "h0_fourier": h0_f,
        "h0_pde": sol.h0,
        "h0_gap_rel": abs(h0_f - sol.h0) / max(abs(h0_f), 1e-12),
        "interior_value_gap_rel": gap_y,
        "interior_hedge_gap_rel": gap_z,
        "interior_box_log_halfwidths": [half_x, half_s],
        "table": table,
        "limits": limits,
    }
    failed = []
    if not out["h0_gap_rel"] <= limits["h0_limit"]:
        failed.append("h0")
    if not (gap_y <= limits["surface_limit"] and gap_z <= limits["surface_limit"]):
        failed.append("surfaces")
    if failed:
        raise CheckFailure("route agreement outside limits: " + ", ".join(failed), out)
    return out


def _cmd_check(cfg, args) -> dict:
    """The validation battery: every selected test is a fold of one pass over the paths."""
    sizes, dec, src = _replay_setup(cfg, args)
    model, val = cfg.model, cfg.validation
    tests = val["tests"]
    folds = {}
    if "martingale" in tests:
        folds["martingale"] = simulation.MartingaleFold(model, src)
    if "moments" in tests:
        folds["moments"] = simulation.MomentFold(model, src)
    if "orthogonality" in tests or "baselines" in tests:
        folds["replay"] = simulation.HedgeFold(dec, src)
    if "baselines" in tests:
        folds["baselines"] = simulation.BaselineFold(dec, src)
    if "tradeoff" in tests:
        folds["tradeoff"] = simulation.TradeoffFold(model, src)
    simulation.run_folds(src, *folds.values())

    results = {}
    failed = []

    def record(name, payload, ok):
        payload["passed"] = bool(ok)
        results[name] = payload
        if not ok:
            failed.append(name)

    if "martingale" in tests:
        mt = folds["martingale"].finish()
        record("martingale", mt, mt["max_tstat"] <= val["tstat_limit"])
    if "moments" in tests:
        mc = folds["moments"].finish()
        record("moments", mc, mc["max_tstat"] <= val["tstat_limit"])
    run = folds["replay"].finish() if "replay" in folds else None
    if "orthogonality" in tests:
        payload = {
            "corr": run.orthogonality_corr,
            "residual_tstat": run.residual_tstat,
            "self_check_error": run.self_check_error,
        }
        ok = (
            abs(run.orthogonality_corr) <= val["orthogonality_limit"]
            and abs(run.residual_tstat) <= val["tstat_limit"]
        )
        record("orthogonality", payload, ok)
    if "baselines" in tests:
        base = folds["baselines"].finish(run)
        ok = base["fs_variance"] < base["no_hedge_variance"] and base[
            "fs_variance"
        ] < base.get("naive_delta_variance", float("inf"))
        record("baselines", base, ok)
    if "tradeoff" in tests:
        to = folds["tradeoff"].finish()
        record("tradeoff", to, to["rel_error"] <= val["tradeoff_limit"])

    out = {**sizes, "results": results, "failed": failed}
    if args.outdir:
        log_path = os.path.join(args.outdir, "checks.log")
        lines = [
            f"{name}: {'PASS' if results[name]['passed'] else 'FAIL'}"
            for name in tests
            if name in results
        ]
        _write_text(log_path, "\n".join(lines) + "\n")
        print(f"wrote {log_path}")
    if failed:
        raise CheckFailure("validation checks failed: " + ", ".join(failed), out)
    return out


# each command and the file name of its JSON report in the output directory
_COMMANDS = {
    "price": (_cmd_price, "summary.json"),
    "hedge-surface": (_cmd_hedge_surface, "summary.json"),
    "simulate": (_cmd_simulate, "sim_report.json"),
    "pde": (_cmd_pde, "summary.json"),
    "compare": (_cmd_compare, "summary.json"),
    "check": (_cmd_check, "sim_report.json"),
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="basishedge",
        description="Quadratic hedging of claims on a non-traded asset",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=fn.__doc__)
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument(
            "--out", default=None,
            help="directory for report artifacts (default: config output.directory)",
        )
        sp.add_argument("--seed", type=int, default=None, help="override the validation seed")
    return p


# stderr prefix and exit code per error type; configured paths are the
# only filesystem inputs and outputs, so an OSError is a config error
_EXITS = (
    ((ConfigError, OSError), "config error", 2),
    ((AssumptionError, RegimeError), "assumption violated", 3),
    ((ConvergenceError,), "quadrature failed", 3),
    ((DomainError, MismatchError), "evaluation failed", 3),
    ((CheckFailure,), "check failure", 4),
)
_HANDLED = tuple(t for types, _, _ in _EXITS for t in types)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            args.seed = _integer(args.seed, "--seed", 0)
        args.outdir = args.out or cfg.output_directory
        command, report_name = _COMMANDS[args.command]
        failure = None
        try:
            payload = command(cfg, args)
        except CheckFailure as exc:
            payload, failure = exc.report, exc
        payload["model_digest"] = cfg.model.digest()
        payload["measure_digest"] = cfg.measure.digest()
        _emit(payload, args.outdir, report_name)
        if failure is not None:
            raise failure
    except _HANDLED as exc:
        prefix, code = next((p, c) for types, p, c in _EXITS if isinstance(exc, types))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
