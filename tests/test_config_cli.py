"""Config validation and the command-line front end."""

import copy
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest depends on tomli there
    import tomli as tomllib

import basishedge
from basishedge import engine, pde, simulation
from basishedge.cli import _surface_csv, main
from basishedge.config import ExperimentConfig, load_config
from basishedge.errors import ConfigError, DomainError, MismatchError

BASE = {
    "model": {
        "kind": "black-scholes",
        "drift": [0.035, 0.02875],
        "vol_x": 0.3,
        "vol_s": 0.25,
        "corr": 0.8,
        "horizon": 1.0,
        "spot": [100.0, 100.0],
    },
    "payoff": {"kind": "call", "strike": 100.0, "asset": "x"},
}

PIN_H0 = 13.2245726163


def _write(tmp_path, cfg, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _with(base, **blocks) -> dict:
    cfg = copy.deepcopy(base)
    cfg.update(blocks)
    return cfg


# -- config schema ----------------------------------------------------------------


def test_minimal_config_defaults():
    cfg = ExperimentConfig(raw=copy.deepcopy(BASE))
    assert cfg.route == "fourier"
    st = cfg.settings
    assert (st.rel_tol, st.panel_budget, st.max_extension) == (1e-8, 512, 6)
    grid = cfg.pde_grid
    assert (grid.nx, grid.ns, grid.nt) == (161, 161, 41)
    surf = cfg.surface_grid
    assert surf["times"] == [0.0, 0.5, 1.0]
    assert surf["x"][0] == 50.0 and surf["x"][-1] == 150.0 and len(surf["x"]) == 21
    val = cfg.validation
    assert val["n_paths"] == 20000 and val["n_steps"] == 125 and val["seed"] == 0
    assert val["tests"] == ["martingale", "moments", "orthogonality", "tradeoff", "baselines"]
    assert (val["tstat_limit"], val["orthogonality_limit"], val["tradeoff_limit"]) == (
        3.0, 0.02, 0.1,
    )
    lim = cfg.compare_limits
    assert (lim["h0_limit"], lim["surface_limit"]) == (1e-2, 2e-2)
    assert cfg.output_directory is None
    assert cfg.model.horizon == 1.0
    assert cfg.measure.payoff(130.0, 90.0) == pytest.approx(30.0)


def _broken_configs():
    cases = []

    def case(name, mutate):
        cfg = copy.deepcopy(BASE)
        mutate(cfg)
        cases.append(pytest.param(cfg, id=name))

    case("no-model", lambda c: c.pop("model"))
    case("no-payoff", lambda c: c.pop("payoff"))
    case("bad-route", lambda c: c.update(route="magic"))
    case("unknown-root-key", lambda c: c.update(extra=1))
    case("model-missing-drift", lambda c: c["model"].pop("drift"))
    case("model-unknown-kind", lambda c: c["model"].update(kind="heston"))
    case("model-vol-not-number", lambda c: c["model"].update(vol_s="big"))
    case("model-negative-vol", lambda c: c["model"].update(vol_x=-0.3))
    case("payoff-missing-strike", lambda c: c["payoff"].pop("strike"))
    case("payoff-bad-asset", lambda c: c["payoff"].update(asset="q"))
    case("payoff-unknown-kind", lambda c: c["payoff"].update(kind="digital"))
    case("payoff-bad-abscissa", lambda c: c["payoff"].update(kind="put", abscissa=-1.0))
    case("quadrature-unknown-key", lambda c: c.update(quadrature={"panels": 3}))
    case("pde-grid-too-small", lambda c: c.update(pde_grid={"nt": 1}))
    case("surface-time-after-horizon", lambda c: c.update(surface={"times": [2.5]}))
    case("unknown-validation-test", lambda c: c.update(validation={"tests": ["nonsense"]}))
    case("output-not-object", lambda c: c.update(output=[1]))
    case("compare-negative-limit", lambda c: c.update(compare={"h0_limit": -1.0}))
    return cases


@pytest.mark.parametrize("raw", _broken_configs())
def test_invalid_configs_raise(raw):
    with pytest.raises(ConfigError):
        ExperimentConfig(raw=raw)


def test_sum_and_power_payoffs():
    cfg = ExperimentConfig(
        raw=_with(
            BASE,
            payoff={
                "kind": "sum",
                "terms": [
                    {"kind": "call", "strike": 100.0, "asset": "x", "weight": 2.0},
                    {"kind": "power", "exponents": [0.0, 1.0], "weight": -1.0},
                ],
            },
        )
    )
    m = cfg.measure
    assert m.payoff(130.0, 90.0) == pytest.approx(2.0 * 30.0 - 90.0)
    assert m.payoff(70.0, 110.0) == pytest.approx(-110.0)
    # exponents accept [re, im] pairs
    cfg = ExperimentConfig(
        raw=_with(BASE, payoff={"kind": "power", "exponents": [[0.0, 1.5], 0.5]})
    )
    (atom,) = cfg.measure.atoms
    assert atom.z1 == 1.5j and atom.z2 == 0.5


def test_piecewise_model_config():
    raw = _with(
        BASE,
        model={
            "kind": "piecewise",
            "spot": [100.0, 100.0],
            "pieces": [
                {"duration": 0.4, "kind": "black-scholes", "drift": [0.03, 0.02],
                 "vol_x": 0.3, "vol_s": 0.25, "corr": 0.8},
                {"duration": 0.6, "kind": "merton", "drift": [0.03, 0.02],
                 "vol_x": 0.25, "vol_s": 0.2, "corr": 0.6, "jump_intensity": 0.7,
                 "jump_mean": [-0.05, -0.04], "jump_vol_x": 0.12, "jump_vol_s": 0.1},
            ],
        },
    )
    model = ExperimentConfig(raw=raw).model
    assert model.kind == "piecewise"
    assert model.horizon == pytest.approx(1.0)
    assert len(model.segments) == 2
    raw["model"]["pieces"][0].pop("duration")
    with pytest.raises(ConfigError, match="duration"):
        ExperimentConfig(raw=raw)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(bad))


# -- CLI subcommands --------------------------------------------------------------


def test_cli_price_pins_reference_value(tmp_path, capsys):
    path = _write(tmp_path, BASE)
    assert main(["price", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["route"] == "fourier"
    assert payload["h0"] == pytest.approx(PIN_H0, abs=1e-6)
    assert payload["assumptions"]["strictly-increasing-bracket"] > 0
    assert "quadrature" in payload and "model_digest" in payload


def test_cli_price_both_routes(tmp_path, capsys):
    cfg = _with(BASE, route="both", pde_grid={"nx": 121, "ns": 121, "nt": 11})
    path = _write(tmp_path, cfg)
    assert main(["price", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h0"] == pytest.approx(PIN_H0, abs=1e-6)
    assert payload["h0_pde"] == pytest.approx(PIN_H0, abs=0.1)
    assert payload["route_gap"] == pytest.approx(abs(payload["h0"] - payload["h0_pde"]))


def test_cli_reports_are_byte_identical(tmp_path, capsys):
    path = _write(tmp_path, BASE)
    for d in ("one", "two"):
        assert main(["price", "--config", path, "--out", str(tmp_path / d)]) == 0
    capsys.readouterr()
    a = (tmp_path / "one" / "summary.json").read_bytes()
    b = (tmp_path / "two" / "summary.json").read_bytes()
    assert a == b


def test_cli_output_directory_from_config(tmp_path, capsys):
    art = tmp_path / "artifacts"
    cfg = _with(BASE, output={"directory": str(art)})
    path = _write(tmp_path, cfg)
    assert main(["price", "--config", path]) == 0
    assert "wrote" in capsys.readouterr().out
    payload = json.loads((art / "summary.json").read_text())
    assert payload["h0"] == pytest.approx(PIN_H0, abs=1e-6)


def test_cli_exit_2_on_config_errors(tmp_path, capsys):
    out = tmp_path / "never"
    path = _write(tmp_path, _with(BASE, route="magic"))
    assert main(["price", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()  # invalid configs write nothing
    assert main(["price", "--config", str(tmp_path / "absent.json")]) == 2
    assert "not found" in capsys.readouterr().err
    # an output directory that cannot be made is a config error too
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = _write(tmp_path, BASE)
    assert main(["price", "--config", path, "--out", str(blocker / "sub")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


SHIPPED_CHECK = Path(__file__).resolve().parents[1] / "configs" / "merton_validation.json"


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("check", "n_paths", 0),
        ("check", "n_paths", "many"),
        ("price", "n_steps", 2.7),
        ("check", "n_steps", True),
        ("check", "seed", -1),
    ],
)
def test_cli_exit_2_on_bad_validation_integers(tmp_path, capsys, command, key, value):
    cfg = json.loads(SHIPPED_CHECK.read_text())
    cfg["validation"][key] = value
    out = tmp_path / "never"
    path = _write(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: validation.{key}")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("check", "validation.tstat_limit", "x"),
        ("check", "validation.orthogonality_limit", float("nan")),
        ("price", "payoff.strike", float("nan")),
        ("price", "payoff.strike", float("-inf")),
        ("price", "quadrature.panel_budget", 16.5),
        ("price", "quadrature.max_extension", -1),
        ("pde", "pde_grid.nx", 3),
        ("pde", "pde_grid.nt", "41"),
        ("pde", "pde_grid.cfl_fraction", float("inf")),
        ("hedge-surface", "surface.x.n", 0),
        ("hedge-surface", "surface.s.n", True),
        ("check", "--seed", -1),
    ],
)
def test_cli_exit_2_on_bad_numbers(tmp_path, capsys, command, key, value):
    cfg = json.loads(SHIPPED_CHECK.read_text())
    out = tmp_path / "never"
    extra = []
    if key.startswith("--"):
        extra = [key, str(value)]
    else:
        *blocks, leaf = key.split(".")
        target = cfg
        for name in blocks:
            target = target.setdefault(name, {})
        target[leaf] = value
    path = _write(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(out), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("rel_tol", [0, -1e-8])
def test_cli_exit_2_on_nonpositive_rel_tol(tmp_path, capsys, rel_tol):
    cfg = json.loads(SHIPPED_CHECK.read_text())
    cfg["quadrature"] = {"rel_tol": rel_tol}
    out = tmp_path / "never"
    path = _write(tmp_path, cfg)
    assert main(["price", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad quadrature settings: rel_tol must be a finite number > 0")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_exit_3_on_quadrature_failure(tmp_path, capsys):
    # a panel budget below the line's base panel count cannot converge
    cfg = json.loads(SHIPPED_CHECK.read_text())
    cfg["quadrature"] = {"panel_budget": 16}
    out = tmp_path / "never"
    path = _write(tmp_path, cfg)
    assert main(["price", "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("quadrature failed:")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_exit_3_degenerate_traded_asset(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    cfg["model"]["vol_s"] = 0.0
    path = _write(tmp_path, cfg)
    assert main(["price", "--config", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("assumption violated:")
    assert "bracket" in err


def test_cli_exit_3_pde_route_rejects_jumps(tmp_path, capsys):
    cfg = {
        "model": {
            "kind": "merton", "drift": [0.03, 0.025], "vol_x": 0.25, "vol_s": 0.2,
            "corr": 0.6, "jump_intensity": 0.7, "jump_mean": [-0.05, -0.04],
            "jump_vol_x": 0.12, "jump_vol_s": 0.1, "horizon": 1.0,
            "spot": [100.0, 100.0],
        },
        "payoff": BASE["payoff"],
        "route": "pde",
    }
    path = _write(tmp_path, cfg)
    assert main(["price", "--config", path]) == 3
    assert "jumps" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "check", "pde", "price"])
def test_cli_exit_3_on_complex_claim(tmp_path, capsys, command):
    # the replay and the finite-difference route need a real claim
    cfg = _with(
        BASE,
        payoff={"kind": "power", "exponents": [[0.5, 1.0], 0.0]},
        route="both",
        pde_grid={"nx": 11, "ns": 11, "nt": 2},
        validation={"n_paths": 200, "n_steps": 4, "seed": 1},
    )
    out = tmp_path / "never"
    path = _write(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("assumption violated:")
    assert "real-valued claim" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def _per_cell_csv(times, xs, ss, y, z) -> str:
    rows = ["t,x,s,y,z"]
    for i, t in enumerate(times):
        for j, xv in enumerate(xs):
            for k, sv in enumerate(ss):
                rows.append(
                    f"{float(t)!r},{float(xv)!r},{float(sv)!r},"
                    f"{float(y[i, j, k])!r},{float(z[i, j, k])!r}"
                )
    return "\n".join(rows) + "\n"


def test_surface_csv_matches_per_cell_formatter():
    rng = np.random.default_rng(5)
    times = [0.0, 0.25, 1.0]
    xs = np.array([5e-324, 60.0, 1e-310, 137.5])
    ss = np.array([-0.0, 100.0, 2.2250738585072014e-308])
    y = rng.standard_normal((3, 4, 3)) * 1e3
    z = -rng.standard_normal((3, 4, 3))
    y[0, 0, 0], y[1, 2, 1], y[2, 3, 2] = 4e-320, -7.0, 12.0
    z[0, 1, 2], z[2, 0, 0] = -3e-315, 1.0
    want = _per_cell_csv(times, xs, ss, y, z)
    assert _surface_csv(times, xs, ss, y, z) == want
    assert want.count("\n") == 1 + 3 * 4 * 3


def test_cli_hedge_surface_writes_csv(tmp_path, capsys):
    cfg = _with(
        BASE,
        surface={
            "times": [0.0, 0.5],
            "x": {"lo": 80.0, "hi": 120.0, "n": 3},
            "s": {"lo": 80.0, "hi": 120.0, "n": 2},
        },
    )
    path = _write(tmp_path, cfg)
    out = tmp_path / "art"
    assert main(["hedge-surface", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "hedge_surface.csv").read_text().strip().splitlines()
    assert lines[0] == "t,x,s,y,z"
    assert len(lines) == 1 + 2 * 3 * 2
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.all(np.isfinite(rows))
    payload = json.loads((out / "summary.json").read_text())
    assert payload["shape"] == [2, 3, 2]
    assert payload["csv"] == str(out / "hedge_surface.csv")


def test_cli_hedge_surface_without_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _with(
        BASE,
        surface={"times": [0.0], "x": {"n": 2}, "s": {"n": 2}},
    )
    path = _write(tmp_path, cfg)
    assert main(["hedge-surface", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert os.path.exists(payload["csv"])


def test_cli_pde_writes_csv(tmp_path, capsys):
    cfg = _with(BASE, pde_grid={"nx": 61, "ns": 61, "nt": 5})
    path = _write(tmp_path, cfg)
    out = tmp_path / "art"
    assert main(["pde", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((out / "summary.json").read_text())
    assert payload["h0"] == pytest.approx(PIN_H0, abs=0.3)
    assert payload["grid"] == {"nx": 61, "ns": 61, "nt": 5}
    lines = (out / "pde_surface.csv").read_text().strip().splitlines()
    assert lines[0] == "t,x,s,y,z"
    assert len(lines) == 1 + 5 * 61 * 61


def test_cli_simulate_traded_claim_records_zero_residual(tmp_path, capsys):
    cfg = _with(
        BASE,
        payoff={"kind": "power", "exponents": [0.0, 1.0]},
        validation={"n_paths": 300, "n_steps": 10, "seed": 3},
    )
    path = _write(tmp_path, cfg)
    out = tmp_path / "art"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((out / "sim_report.json").read_text())
    assert payload["seed"] == 3
    assert payload["h0"] == pytest.approx(100.0, abs=1e-9)
    assert payload["residual_variance"] < 1e-18
    # the seed flag overrides the configured one and is recorded
    assert main(["simulate", "--config", path, "--seed", "99"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 99


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_simulate_with_one_path_warns_nothing(tmp_path, capsys):
    # one path has no sample variance: NaN, without numpy's ddof warnings
    cfg = json.loads(SHIPPED_CHECK.read_text())
    cfg["validation"].update(n_paths=1, n_steps=5)
    path = _write(tmp_path, cfg)
    out = tmp_path / "art"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    assert "RuntimeWarning" not in capsys.readouterr().err
    payload = json.loads((out / "sim_report.json").read_text())
    assert payload["residual_variance"] == payload["residual_stderr"] == "nan"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_compare_with_one_path_warns_nothing(tmp_path, capsys):
    # the probabilistic column has no standard error on one path: NaN, quietly
    cfg = _with(
        BASE,
        pde_grid={"nx": 21, "ns": 21, "nt": 3},
        compare={"h0_limit": 1e-9, "surface_limit": 1e-9},
        validation={"n_paths": 1, "seed": 2},
    )
    path = _write(tmp_path, cfg)
    out = tmp_path / "art"
    assert main(["compare", "--config", path, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("check failure:") and err.count("\n") == 1
    payload = json.loads((out / "summary.json").read_text())
    assert all(row["mc_stderr"] == "nan" for row in payload["table"])


def test_cli_check_passes(tmp_path, capsys):
    cfg = _with(
        BASE,
        validation={
            "n_paths": 2000, "n_steps": 25, "seed": 1,
            "tests": ["moments", "tradeoff"], "tstat_limit": 4.0,
        },
    )
    path = _write(tmp_path, cfg)
    assert main(["check", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] == []
    assert payload["results"]["moments"]["passed"] is True
    assert payload["results"]["tradeoff"]["passed"] is True
    assert set(payload["results"]) == {"moments", "tradeoff"}


def test_cli_check_failure_exits_4_with_report(tmp_path, capsys):
    cfg = _with(
        BASE,
        validation={
            "n_paths": 300, "n_steps": 10, "seed": 1,
            "tests": ["orthogonality"], "orthogonality_limit": 1e-9,
        },
    )
    path = _write(tmp_path, cfg)
    out = tmp_path / "art"
    assert main(["check", "--config", path, "--out", str(out)]) == 4
    assert "check failure" in capsys.readouterr().err
    payload = json.loads((out / "sim_report.json").read_text())
    assert payload["failed"] == ["orthogonality"]
    assert payload["results"]["orthogonality"]["passed"] is False
    assert (out / "checks.log").read_text() == "orthogonality: FAIL\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_check_with_one_path_fails_closed(tmp_path, capsys):
    # one path has no standard error: its t-statistics are NaN, and NaN fails
    cfg = json.loads(SHIPPED_CHECK.read_text())
    cfg["validation"].update(n_paths=1, n_steps=5)
    path = _write(tmp_path, cfg)
    out = tmp_path / "art"
    assert main(["check", "--config", path, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("check failure:") and err.count("\n") == 1
    payload = json.loads((out / "sim_report.json").read_text())
    assert {"martingale", "moments"} <= set(payload["failed"])
    for name in ("martingale", "moments"):
        result = payload["results"][name]
        assert result["passed"] is False and result["max_tstat"] == "nan"
        assert all(row["tstat_re"] == "nan" for row in result["rows"])


def test_cli_compare_agrees_on_basis_call(tmp_path, capsys):
    cfg = _with(
        BASE,
        pde_grid={"nx": 81, "ns": 81, "nt": 9},
        compare={"h0_limit": 0.05, "surface_limit": 0.3},
        validation={"n_paths": 4000, "seed": 2},
    )
    path = _write(tmp_path, cfg)
    assert main(["compare", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h0_fourier"] == pytest.approx(PIN_H0, abs=1e-6)
    assert payload["h0_gap_rel"] < 0.05
    assert len(payload["table"]) == 6
    for row in payload["table"]:
        se = max(row["mc_stderr"], 1e-12)
        assert abs(row["y_mc"] - row["y_fourier"]) < 5.0 * se + 0.02 * abs(row["y_fourier"])


def test_cli_compare_tight_limits_exit_4(tmp_path, capsys):
    cfg = _with(
        BASE,
        pde_grid={"nx": 41, "ns": 41, "nt": 5},
        compare={"h0_limit": 1e-9, "surface_limit": 1e-9},
        validation={"n_paths": 500, "seed": 2},
    )
    path = _write(tmp_path, cfg)
    out = tmp_path / "art"
    assert main(["compare", "--config", path, "--out", str(out)]) == 4
    assert "route agreement" in capsys.readouterr().err
    payload = json.loads((out / "summary.json").read_text())
    assert payload["h0_gap_rel"] > 1e-9


SHIPPED_PDE = Path(__file__).resolve().parents[1] / "configs" / "hulley_mcwalter.json"


@pytest.mark.parametrize("command", ["price", "pde", "compare"])
def test_cli_exit_3_on_overflowing_pde_grid(tmp_path, capsys, command):
    # a radius of 1e6 standard deviations puts exp(3e5) on the price grid
    cfg = json.loads(SHIPPED_PDE.read_text())
    cfg["pde_grid"].update(radius_stddevs=1e6, nt=2)
    out = tmp_path / "never"
    path = _write(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "pde_grid.radius_stddevs" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["pde", "compare", "price"])
def test_cli_exit_3_on_singular_constant_covariance(tmp_path, capsys, command):
    # corr 1 makes the log-covariance singular; the spec's ellipticity
    # guard rejects it before any grid is built
    cfg = json.loads(SHIPPED_PDE.read_text())
    cfg["model"]["corr"] = 1.0
    assert cfg["route"] == "both"
    out = tmp_path / "never"
    path = _write(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("assumption violated:")
    assert "ellipticity" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_compare_fails_on_nan_gaps(tmp_path, capsys, monkeypatch):
    solve = pde.solve

    def nan_solve(*args, **kwargs):
        sol = solve(*args, **kwargs)
        sol.h0 = float("nan")
        sol.y[0] = float("nan")
        return sol

    monkeypatch.setattr(pde, "solve", nan_solve)
    cfg = _with(BASE, pde_grid={"nx": 21, "ns": 21, "nt": 2}, validation={"n_paths": 200})
    out = tmp_path / "art"
    path = _write(tmp_path, cfg)
    assert main(["compare", "--config", path, "--out", str(out)]) == 4
    assert capsys.readouterr().err == "check failure: route agreement outside limits: h0, surfaces\n"
    payload = json.loads((out / "summary.json").read_text())
    assert payload["h0_gap_rel"] == "nan"
    assert payload["interior_value_gap_rel"] == "nan"
    assert "model_digest" in payload and "measure_digest" in payload


SMALL_REPLAY = {"n_paths": 200, "n_steps": 4, "seed": 1}


@pytest.mark.parametrize("command", ["simulate", "check"])
@pytest.mark.parametrize("error", [DomainError, MismatchError])
def test_cli_exit_3_on_domain_and_mismatch_errors(tmp_path, capsys, monkeypatch, command, error):
    def failing_step(*args, **kwargs):
        raise error("interpolated hedge deviates from exact evaluation")

    # both commands replay the hedge through the same fold
    monkeypatch.setattr(simulation.HedgeFold, "step", failing_step)
    cfg = _with(BASE, validation=SMALL_REPLAY)
    out = tmp_path / "never"
    path = _write(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "evaluation failed: interpolated hedge deviates from exact evaluation\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "check"])
def test_cli_rejects_complex_claim_before_simulating(tmp_path, capsys, monkeypatch, command):
    def no_simulate(*args, **kwargs):
        raise AssertionError("paths were simulated for a claim that is not real")

    monkeypatch.setattr(simulation, "PathStream", no_simulate)
    cfg = _with(
        BASE,
        payoff={"kind": "power", "exponents": [[0.5, 1.0], 0.0]},
        validation=SMALL_REPLAY,
    )
    out = tmp_path / "never"
    path = _write(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(out)]) == 3
    assert "real-valued claim" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "payoff,target",
    [
        ({"kind": "power", "exponents": [0.0, 0.0]}, 1.0),
        ({"kind": "power", "exponents": [0.0, 1.0]}, 100.0),
    ],
)
def test_cli_compare_trivial_claims(tmp_path, capsys, payoff, target):
    cfg = _with(
        BASE,
        payoff=payoff,
        pde_grid={"nx": 41, "ns": 41, "nt": 5},
        validation={"n_paths": 4000, "seed": 4},
    )
    path = _write(tmp_path, cfg)
    assert main(["compare", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h0_fourier"] == pytest.approx(target, rel=1e-9)
    assert payload["h0_pde"] == pytest.approx(target, rel=1e-3)
    for row in payload["table"]:
        if row["t"] == 0.0 and row["x"] == 100.0:
            assert row["y_fourier"] == pytest.approx(target, rel=1e-9)
        assert row["y_pde"] == pytest.approx(target, rel=2e-3)
        assert abs(row["y_mc"] - target) <= 4.0 * row["mc_stderr"] + 1e-9 * target


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _assert_price_runs(cmd, tmp_path, env=None):
    """Run ``cmd price`` on BASE in a child process and check the pinned h0."""
    path = _write(tmp_path, BASE)
    proc = subprocess.run(
        [*cmd, "price", "--config", path],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["h0"] == pytest.approx(PIN_H0, abs=1e-6)


def test_console_script_entry_point(tmp_path):
    """The console script declared in pyproject.toml runs ``price`` as its own process.

    The child runs the same wrapper that an installer writes for the script, so
    the check needs no install: only the package on the child's import path.
    """
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["basishedge"]
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr, None)), target
    wrapper = (
        f"import sys; sys.argv[0] = 'basishedge'; "
        f"from {module} import {attr}; sys.exit({attr}())"
    )
    src = str(Path(basishedge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    _assert_price_runs([sys.executable, "-c", wrapper], tmp_path, env=env)


@pytest.mark.skipif(
    shutil.which("basishedge") is None, reason="basishedge console script not installed"
)
def test_installed_console_script(tmp_path):
    _assert_price_runs([shutil.which("basishedge")], tmp_path)


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs about a second to import, more than the whole
    # CLI start-up; the chirp-z transform is written on numpy.fft instead
    src = str(Path(basishedge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import basishedge.cli, sys; assert 'scipy.signal' not in sys.modules"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_check_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.stats costs about a second to import; the naive delta hedge of
    # the baseline comparison takes the normal cdf from scipy.special.ndtr
    cfg = _with(BASE, validation={**SMALL_REPLAY, "tests": ["baselines"]})
    path = _write(tmp_path, cfg)
    src = str(Path(basishedge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys; from basishedge.cli import main; "
        f"rc = main(['check', '--config', {path!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "assert rc in (0, 4), rc; assert 'scipy.stats' not in sys.modules"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "naive_delta_variance" in (tmp_path / "out" / "sim_report.json").read_text()


def test_cli_loads_scipy_special_only_where_it_is_used(tmp_path):
    # scipy.special costs about a third of a second to import, most of the
    # package's start-up; only the closed-form tail at maturity (exp1) and
    # the naive delta of the baselines (ndtr) need it, and they import it
    configs = Path(__file__).resolve().parents[1] / "configs"
    shipped = [str(configs / name) for name in ("hulley_mcwalter.json", "merton_validation.json")]
    small_pde = json.loads((configs / "hulley_mcwalter.json").read_text())
    small_pde["pde_grid"] = {"nx": 41, "ns": 41, "nt": 5}
    at_maturity = _with(BASE, surface={
        "times": [0.5, 1.0], "x": {"lo": 80.0, "hi": 120.0, "n": 3},
        "s": {"lo": 90.0, "hi": 110.0, "n": 2},
    })
    baselines = _with(BASE, validation={**SMALL_REPLAY, "tests": ["baselines"]})
    out = str(tmp_path / "out")
    runs = [["price", "--config", path] for path in shipped] + [
        ["pde", "--config", _write(tmp_path, small_pde, "pde.json")],
    ]
    loads = [
        ["hedge-surface", "--config", _write(tmp_path, at_maturity, "surface.json")],
        ["check", "--config", _write(tmp_path, baselines, "check.json")],
    ]
    code = (
        "import sys, basishedge, basishedge.cli\n"
        "from basishedge.cli import main\n"
        "assert 'scipy.special' not in sys.modules, 'import'\n"
        f"for argv in {runs!r}:\n"
        f"    assert main(argv + ['--out', {out!r}]) == 0, argv\n"
        "    assert 'scipy.special' not in sys.modules, argv\n"
        f"for argv in {loads!r}:\n"
        f"    assert main(argv + ['--out', {out!r}]) == 0, argv\n"
        "assert 'scipy.special' in sys.modules\n"
    )
    src = str(Path(basishedge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "sim_report.json").read_text())
    assert report["results"]["baselines"]["naive_delta_variance"] > 0


@pytest.mark.parametrize("command", ["price", "hedge-surface"])
def test_cli_exit_3_on_non_finite_fourier_result(tmp_path, capsys, monkeypatch, command):
    propagate = engine.HedgeDecomposition._propagate

    def nan_inside(self, rates, ti):
        # NaN at every quadrature node; the tail plan reads only the last node
        lam, gam = propagate(self, rates, ti)
        lam = lam.copy()
        lam[:-1] = np.nan
        return lam, gam

    monkeypatch.setattr(engine.HedgeDecomposition, "_propagate", nan_inside)
    out = tmp_path / "never"
    path = _write(tmp_path, _with(BASE, route="fourier"))
    assert main([command, "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("quadrature failed:") and "not finite" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()
