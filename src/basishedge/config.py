"""Experiment configuration: JSON schema, validation, and builders.

A config file is one JSON object with blocks

    model       required; kind "black-scholes", "merton" or "piecewise"
    payoff      required; kind "call", "put", "power" or "sum"
    route       "fourier" (default), "pde" or "both"
    quadrature  optional contour-quadrature overrides
    pde_grid    optional finite-difference grid overrides
    surface     optional hedge-surface grid (times / x / s)
    validation  Monte Carlo sizes, seed and the list of checks to run
    compare     optional route-agreement tolerances {h0_limit, surface_limit}
    output      optional {"directory": ...}

Everything is validated and built up front.  Validation failures raise
ConfigError naming the offending key, before any output is written.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

import numpy as np

from . import payoffs
from .errors import ConfigError, DomainError
from .models import AdditiveModel, PiecewiseAdditiveModel, vols_to_covariance
from .payoffs import DEFAULT_SETTINGS, PayoffMeasure, QuadratureSettings
from .pde import GridConfig

__all__ = ["ExperimentConfig", "load_config"]

_ROUTES = ("fourier", "pde", "both")
_CHECKS = ("martingale", "moments", "orthogonality", "tradeoff", "baselines")


def _need(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing key {key!r} in {where}")
    return block[key]


def _number(v, where: str) -> float:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            if math.isfinite(v):
                return float(v)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"{where} must be a finite number, got {v!r}")


def _integer(v, where: str, minimum: int) -> int:
    n = _number(v, where)
    if not n.is_integer() or n < minimum:
        raise ConfigError(f"{where} must be an integer of at least {minimum}, got {v!r}")
    return int(v)


def _pair(v, where: str, item=_number) -> list:
    """Two entries, each read by `item`: a pair of finite numbers by default."""
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ConfigError(f"{where} must be a pair, got {v!r}")
    return [item(a, f"{where}[{i}]") for i, a in enumerate(v)]


def _exponent(v, where: str) -> complex:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(_number(v, where))
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(_number(v[0], where), _number(v[1], where))
    raise ConfigError(f"{where} must be a number or [re, im] pair, got {v!r}")


def _check_unknown(block: dict, allowed: set, where: str):
    extra = set(block) - allowed
    if extra:
        raise ConfigError(f"unknown keys in {where}: {sorted(extra)}")


def _block(raw: dict, key: str, allowed: set) -> dict:
    """Optional object `key` of the config root, holding only allowed keys."""
    block = raw.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{key} block must be an object")
    _check_unknown(block, allowed, key)
    return block


def _build_single_model(block: dict, where: str):
    kind = _need(block, "kind", where)
    common = {"drift", "kind", "horizon", "spot", "vol_x", "vol_s", "corr", "covariance"}
    spot = _pair(block.get("spot", [1.0, 1.0]), f"{where}.spot")
    drift = _pair(_need(block, "drift", where), f"{where}.drift")
    if "covariance" in block:
        cov = _pair(block["covariance"], f"{where}.covariance", _pair)
    else:
        cov = vols_to_covariance(
            _number(_need(block, "vol_x", where), f"{where}.vol_x"),
            _number(_need(block, "vol_s", where), f"{where}.vol_s"),
            _number(_need(block, "corr", where), f"{where}.corr"),
        )
    horizon = _number(_need(block, "horizon", where), f"{where}.horizon")
    if kind == "black-scholes":
        _check_unknown(block, common, where)
        return AdditiveModel(
            drift=drift, covariance=cov, horizon=horizon, spot=spot
        )
    if kind == "merton":
        _check_unknown(
            block,
            common | {"jump_intensity", "jump_mean", "jump_vol_x", "jump_vol_s",
                      "jump_corr", "jump_cov"},
            where,
        )
        lam = _number(_need(block, "jump_intensity", where), f"{where}.jump_intensity")
        jm = _pair(_need(block, "jump_mean", where), f"{where}.jump_mean")
        if "jump_cov" in block:
            jcov = _pair(block["jump_cov"], f"{where}.jump_cov", _pair)
        else:
            jcov = vols_to_covariance(
                _number(_need(block, "jump_vol_x", where), f"{where}.jump_vol_x"),
                _number(_need(block, "jump_vol_s", where), f"{where}.jump_vol_s"),
                _number(block.get("jump_corr", 0.0), f"{where}.jump_corr"),
            )
        return AdditiveModel(
            drift=drift, covariance=cov, horizon=horizon, spot=spot,
            jump_intensity=lam, jump_mean=jm, jump_cov=jcov,
        )
    raise ConfigError(f"{where}.kind must be black-scholes, merton or piecewise, got {kind!r}")


def _build_model(block: Any):
    if not isinstance(block, dict):
        raise ConfigError("model block must be an object")
    if block.get("kind") == "piecewise":
        pieces = _need(block, "pieces", "model")
        if not isinstance(pieces, list) or not pieces:
            raise ConfigError("model.pieces must be a non-empty list")
        spot = block.get("spot", [1.0, 1.0])
        built = []
        for i, piece in enumerate(pieces):
            where = f"model.pieces[{i}]"
            if not isinstance(piece, dict):
                raise ConfigError(f"{where} must be an object")
            dur = _number(_need(piece, "duration", where), f"{where}.duration")
            sub = {k: v for k, v in piece.items() if k != "duration"}
            sub.setdefault("spot", spot)
            sub.setdefault("horizon", dur)
            built.append((dur, _build_single_model(sub, where)))
        return PiecewiseAdditiveModel(built)
    return _build_single_model(block, "model")


def _build_payoff(block: Any, where: str = "payoff") -> PayoffMeasure:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    kind = _need(block, "kind", where)
    if kind in ("call", "put"):
        _check_unknown(block, {"kind", "strike", "asset", "abscissa", "weight"}, where)
        strike = _number(_need(block, "strike", where), f"{where}.strike")
        asset = block.get("asset", "x")
        if asset not in ("x", "s"):
            raise ConfigError(f"{where}.asset must be 'x' or 's', got {asset!r}")
        axis = 1 if asset == "x" else 2
        builder = payoffs.call_claim if kind == "call" else payoffs.put_claim
        kw = {}
        if "abscissa" in block:
            kw["abscissa"] = _number(block["abscissa"], f"{where}.abscissa")
        measure = builder(strike, axis=axis, **kw)
    elif kind == "power":
        _check_unknown(block, {"kind", "exponents", "weight"}, where)
        exps = _need(block, "exponents", where)
        if not (isinstance(exps, (list, tuple)) and len(exps) == 2):
            raise ConfigError(f"{where}.exponents must be [z1, z2]")
        z1 = _exponent(exps[0], f"{where}.exponents[0]")
        z2 = _exponent(exps[1], f"{where}.exponents[1]")
        measure = payoffs.power_claim(z1, z2)
    elif kind == "sum":
        _check_unknown(block, {"kind", "terms"}, where)
        terms = _need(block, "terms", where)
        if not isinstance(terms, list) or not terms:
            raise ConfigError(f"{where}.terms must be a non-empty list")
        parts = [
            _build_payoff(term, f"{where}.terms[{i}]") for i, term in enumerate(terms)
        ]
        measure = parts[0]
        for p in parts[1:]:
            measure = measure + p
        return measure
    else:
        raise ConfigError(
            f"{where}.kind must be call, put, power or sum, got {kind!r}"
        )
    weight = block.get("weight", 1.0)
    w = _exponent(weight, f"{where}.weight")
    if w != 1.0:
        measure = measure * w
    return measure


class ExperimentConfig:
    """Validated experiment description.

    Everything is built once, up front, into plain attributes: model,
    measure, settings, pde_grid, surface_grid, validation,
    compare_limits, route and output_directory.
    """

    def __init__(self, raw: dict):
        self.raw = raw
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        _check_unknown(
            raw,
            {"model", "payoff", "route", "quadrature", "pde_grid", "surface",
             "validation", "compare", "output"},
            "config",
        )
        # parameter-domain failures count as config errors, while model
        # structure violations keep their own type (and exit code)
        try:
            self.model = _build_model(_need(raw, "model", "config"))
            self.measure = _build_payoff(_need(raw, "payoff", "config"))
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        self.route = raw.get("route", "fourier")
        if self.route not in _ROUTES:
            raise ConfigError(f"route must be one of {_ROUTES}, got {self.route!r}")
        self.settings = self._build_settings()
        self.pde_grid = self._build_grid()
        self.surface_grid = self._build_surface()
        self.validation = self._build_validation()
        self.compare_limits = self._build_compare()
        self.output_directory = _block(raw, "output", {"directory"}).get("directory")

    def _build_settings(self) -> QuadratureSettings:
        q = _block(self.raw, "quadrature", {"rel_tol", "panel_budget", "max_extension"})
        kw = {}
        if "rel_tol" in q:
            kw["rel_tol"] = _number(q["rel_tol"], "quadrature.rel_tol")
        if "panel_budget" in q:
            kw["panel_budget"] = _integer(q["panel_budget"], "quadrature.panel_budget", 1)
        if "max_extension" in q:
            kw["max_extension"] = _integer(q["max_extension"], "quadrature.max_extension", 0)
        try:
            return QuadratureSettings(**kw) if kw else DEFAULT_SETTINGS
        except Exception as exc:
            raise ConfigError(f"bad quadrature settings: {exc}") from exc

    def _build_grid(self) -> GridConfig:
        g = _block(self.raw, "pde_grid", {"nx", "ns", "nt", "radius_stddevs", "cfl_fraction"})
        sizes = (("nx", 5), ("ns", 5), ("nt", 2))
        kw = {k: _integer(g[k], f"pde_grid.{k}", lo) for k, lo in sizes if k in g}
        for k in ("radius_stddevs", "cfl_fraction"):
            if k in g:
                kw[k] = _number(g[k], f"pde_grid.{k}")
        try:
            return GridConfig(**kw)
        except Exception as exc:
            raise ConfigError(f"bad pde_grid: {exc}") from exc

    def _build_surface(self) -> dict:
        s = _block(self.raw, "surface", {"times", "x", "s"})
        out = {}
        T = self.model.horizon
        times = s.get("times", [0.0, 0.5 * T, T])
        if not isinstance(times, list) or not times:
            raise ConfigError("surface.times must be a non-empty list")
        out["times"] = [_number(t, "surface.times") for t in times]
        if any(t < 0 or t > T for t in out["times"]):
            raise ConfigError(f"surface.times must lie in [0, {T}]")
        for key, spot in (("x", self.model.spot[0]), ("s", self.model.spot[1])):
            block = s.get(key, {})
            if not isinstance(block, dict):
                raise ConfigError(f"surface.{key} must be an object")
            _check_unknown(block, {"lo", "hi", "n"}, f"surface.{key}")
            lo = _number(block.get("lo", 0.5 * spot), f"surface.{key}.lo")
            hi = _number(block.get("hi", 1.5 * spot), f"surface.{key}.hi")
            n = _integer(block.get("n", 21), f"surface.{key}.n", 1)
            if not (0 < lo < hi):
                raise ConfigError(f"surface.{key} needs 0 < lo < hi")
            out[key] = np.linspace(lo, hi, n)
        return out

    def _build_validation(self) -> dict:
        v = _block(
            self.raw,
            "validation",
            {"n_paths", "n_steps", "seed", "tests", "tstat_limit",
             "orthogonality_limit", "tradeoff_limit"},
        )
        tests = v.get("tests", list(_CHECKS))
        if not isinstance(tests, list):
            raise ConfigError("validation.tests must be a list")
        for t in tests:
            if t not in _CHECKS:
                raise ConfigError(
                    f"unknown validation test {t!r}; available: {_CHECKS}"
                )
        return {
            "n_paths": _integer(v.get("n_paths", 20000), "validation.n_paths", 1),
            "n_steps": _integer(v.get("n_steps", 125), "validation.n_steps", 1),
            "seed": _integer(v.get("seed", 0), "validation.seed", 0),
            "tests": tests,
            "tstat_limit": _number(v.get("tstat_limit", 3.0), "validation.tstat_limit"),
            "orthogonality_limit": _number(
                v.get("orthogonality_limit", 0.02), "validation.orthogonality_limit"
            ),
            "tradeoff_limit": _number(v.get("tradeoff_limit", 0.1), "validation.tradeoff_limit"),
        }

    def _build_compare(self) -> dict:
        c = _block(self.raw, "compare", {"h0_limit", "surface_limit"})
        out = {
            "h0_limit": _number(c.get("h0_limit", 1e-2), "compare.h0_limit"),
            "surface_limit": _number(c.get("surface_limit", 2e-2), "compare.surface_limit"),
        }
        if out["h0_limit"] <= 0 or out["surface_limit"] <= 0:
            raise ConfigError("compare limits must be positive")
        return out


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return ExperimentConfig(raw)
