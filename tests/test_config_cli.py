"""Config validation and the command-line front end."""

import copy
import dataclasses
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest depends on tomli there
    import tomli as tomllib

import basishedge
from basishedge import engine, pde, simulation
from basishedge.cli import _surface_csv, _write_files, main
from basishedge.config import _ROOT_KEYS, ExperimentConfig, load_config
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
    assert dataclasses.asdict(cfg.pde_grid) == {"nx": 161, "ns": 161, "nt": 41}
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


def test_readme_config_block_names_every_root_key():
    # the docs can neither advertise a retired block nor miss a new one
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    assert re.findall(r'^  "(\w+)":', block, flags=re.M) == list(_ROOT_KEYS)


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
    case("validation-test-twice",
         lambda c: c.update(validation={"tests": ["tradeoff", "tradeoff", "moments"]}))
    case("validation-empty", lambda c: c.update(validation={"tests": []}))
    # settings that were retired into constants are unknown keys
    case("quadrature-max-extension", lambda c: c.update(quadrature={"max_extension": 6}))
    case("quadrature-rel-tol", lambda c: c.update(quadrature={"rel_tol": 1e-8}))
    case("quadrature-panel-budget", lambda c: c.update(quadrature={"panel_budget": 512}))
    case("pde-grid-radius-stddevs", lambda c: c.update(pde_grid={"radius_stddevs": 6.0}))
    case("pde-grid-cfl-fraction", lambda c: c.update(pde_grid={"cfl_fraction": 0.4}))
    case("model-covariance",
         lambda c: c["model"].update(covariance=[[0.09, 0.0], [0.0, 0.04]]))
    case("model-jump-cov", lambda c: c["model"].update(
        kind="merton", jump_intensity=0.5, jump_mean=[0.0, 0.0], jump_vol_x=0.1,
        jump_vol_s=0.1, jump_cov=[[0.01, 0.0], [0.0, 0.01]]))
    case("output-not-object", lambda c: c.update(output=[1]))
    case("compare-negative-limit", lambda c: c.update(compare={"h0_limit": -1.0}))
    return cases


@pytest.mark.parametrize("raw", _broken_configs())
def test_invalid_configs_raise(raw):
    with pytest.raises(ConfigError):
        ExperimentConfig(raw=raw)


@pytest.mark.parametrize("raw", _broken_configs())
def test_cli_exit_2_on_broken_configs(tmp_path, capsys, raw):
    out = tmp_path / "never"
    path = _write(tmp_path, raw)
    assert main(["check", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not out.exists()


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


def test_cli_price_pde_route_reads_h0_from_the_pde(tmp_path, capsys):
    # the PDE route alone: h0 is the finite-difference value, as `pde` reports it
    path = _write(tmp_path, _with(BASE, route="pde", pde_grid={"nx": 41, "ns": 41, "nt": 5}))
    assert main(["price", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"route", "h0", "h0_pde", "pde", "model_digest", "measure_digest"}
    assert main(["pde", "--config", path]) == 0
    assert payload["h0"] == payload["h0_pde"] == json.loads(capsys.readouterr().out)["h0"]


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


def test_cli_takes_no_seed_flag(tmp_path, capsys):
    # the seed comes from validation.seed only; argparse rejects the flag
    out = tmp_path / "never"
    path = _write(tmp_path, BASE)
    for command in ("price", "hedge-surface", "simulate", "pde", "compare", "check"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", path, "--out", str(out), "--seed", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not out.exists()


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
        ("pde", "pde_grid.nx", 3),
        ("pde", "pde_grid.nt", "41"),
        ("hedge-surface", "surface.x.n", 0),
        ("hedge-surface", "surface.s.n", True),
    ],
)
def test_cli_exit_2_on_bad_numbers(tmp_path, capsys, command, key, value):
    cfg = json.loads(SHIPPED_CHECK.read_text())
    out = tmp_path / "never"
    *blocks, leaf = key.split(".")
    target = cfg
    for name in blocks:
        target = target.setdefault(name, {})
    target[leaf] = value
    path = _write(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_exit_3_on_quadrature_failure(tmp_path, capsys):
    # a call contour this close to the pole at 0 does not stabilise
    # within the panel budget
    cfg = json.loads(SHIPPED_CHECK.read_text())
    cfg["payoff"]["abscissa"] = 0.05
    out = tmp_path / "never"
    path = _write(tmp_path, cfg)
    assert main(["price", "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("quadrature failed:")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "check"])
def test_cli_exit_3_on_a_non_finite_path_slice(tmp_path, capsys, monkeypatch, command):
    # the replay's path slices return through the guard of every evaluation,
    # so a NaN line grid stops the pass instead of entering the statistics
    monkeypatch.setattr(engine, "_chirp_z", lambda x, theta, m: np.full((*x.shape[:-1], m), np.nan + 0j))
    cfg = json.loads(SHIPPED_CHECK.read_text())
    cfg["validation"].update(n_paths=200, n_steps=3)
    out = tmp_path / "never"
    assert main([command, "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("quadrature failed: the contour quadrature is not finite at 200 of 200")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_check_fails_on_an_undefined_orthogonality_statistic(tmp_path, capsys):
    # jumps in S this wide overflow the replay's compensator: the pooled
    # correlation is undefined, and the check fails rather than reading 0.0
    cfg = json.loads(SHIPPED_CHECK.read_text())
    cfg["model"]["jump_vol_s"] *= 100
    cfg["validation"].update(n_paths=2000, n_steps=10, tests=["orthogonality"])
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["check", "--config", path, "--out", str(out)]) == 4
    assert capsys.readouterr().err == "check failure: validation checks failed: orthogonality\n"
    report = json.loads((out / "sim_report.json").read_text())
    assert report["results"]["orthogonality"]["corr"] == "nan"
    assert (out / "checks.log").read_text() == "orthogonality: FAIL\n"
    assert main(["simulate", "--config", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["orthogonality_corr"] == "nan"


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


COMPLEX_POWER = {"kind": "power", "exponents": [[0.5, 1.0], 0.0]}


@pytest.mark.parametrize(
    "command, route, payoff",
    [
        *((c, "both", COMPLEX_POWER) for c in ("simulate", "check", "pde", "price", "hedge-surface")),
        # the Fourier route alone once reported only the real part
        ("price", "fourier", {"kind": "power", "exponents": [[0.5, 1.5], 0.5]}),
        ("price", "fourier", {"kind": "call", "strike": 100.0, "asset": "x", "weight": [0, 1]}),
    ],
    ids=["simulate", "check", "pde", "price", "hedge-surface", "price-fourier",
         "price-fourier-imaginary-weight"],
)
def test_cli_exit_3_on_complex_claim(tmp_path, capsys, command, route, payoff):
    # every report holds real numbers, so every command needs a real claim
    cfg = _with(
        BASE,
        payoff=payoff,
        route=route,
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
    times = [0.0, 0.25, 0.5, 1.0]
    xs = np.array([5e-324, 60.0, 1e-310, 137.5, 140.0, 150.0, 160.0, 170.0, 180.0])
    ss = np.array([-0.0, 100.0, 2.2250738585072014e-308])
    y = rng.standard_normal((4, 9, 3)) * 1e3
    z = -rng.standard_normal((4, 9, 3))
    y[0, 0, 0], y[1, 2, 1], y[3, 3, 2] = 4e-320, -7.0, 12.0
    z[0, 1, 2], z[3, 0, 0] = -3e-315, 1.0
    # rows that the writer formats once or reuses, in y and z alike
    ulp = np.nextafter(1.0, 2.0)
    rows = [
        [2.5] * 3,  # constant
        [2.5] * 3,  # repeated from the previous row
        [0.0, -0.0, 0.0],  # 0.0 and -0.0 mixed
        [0.0] * 3,
        [-0.0] * 3,  # equal to the previous row in value, not in bits
        [np.nan, np.inf, -np.inf],
        [np.nan, np.inf, -np.inf],
        [1.0, 1.0, 1.0],
        [ulp, ulp, ulp],  # one ULP from the previous row
    ]
    y[2], z[2] = rows, rows[::-1]
    z[1, 4:6] = [[np.inf] * 3, [-np.inf] * 3]
    y[1, 5:7] = [[1.0, ulp, 1.0], [1.0, 1.0, 1.0]]
    want = _per_cell_csv(times, xs, ss, y, z)
    chunks = list(_surface_csv(times, xs, ss, y, z))
    # streamed: the header, then one piece per time slice
    assert len(chunks) == 1 + len(times)
    assert "".join(chunks) == want
    assert want.count("\n") == 1 + 4 * 9 * 3


def test_surface_csv_writer_peak_is_one_slice(tmp_path):
    # the writer streams one time slice at a time: its traced peak measured
    # 3.2 slices' text on these 60 x 60 slices (the whole file is 20), and
    # is held to 6
    rng = np.random.default_rng(1)
    nt, n = 20, 60
    times = np.linspace(0.0, 1.0, nt)
    grid = np.linspace(50.0, 150.0, n)
    y, z = rng.standard_normal((2, nt, n, n))
    path = tmp_path / "surface.csv"
    tracemalloc.start()
    try:
        _write_files({str(path): _surface_csv(times, grid, grid, y, z)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.0 * path.stat().st_size / nt


def test_write_text_leaves_nothing_when_a_chunk_fails(tmp_path):
    def chunks():
        yield "t,x,s,y,z\n"
        raise DomainError("the surface is not finite")

    with pytest.raises(DomainError):
        _write_files({str(tmp_path / "out" / "surface.csv"): chunks()})
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command, report", [
    ("price", "summary.json"),
    ("hedge-surface", "summary.json"),
    ("pde", "summary.json"),
    ("check", "sim_report.json"),
])
def test_cli_writes_nothing_when_a_report_path_cannot_be_written(tmp_path, capsys, command, report):
    # the report's name is taken by a directory: the command's CSV or log and
    # the report's .tmp, written before the rename fails, are removed with it
    cfg = _with(
        BASE,
        surface={"times": [0.0, 0.5], "x": {"n": 3}, "s": {"n": 2}},
        pde_grid={"nx": 21, "ns": 21, "nt": 2},
        validation={"n_paths": 200, "n_steps": 5, "tests": ["moments"]},
    )
    path = _write(tmp_path, cfg)
    out = tmp_path / "art"
    (out / report).mkdir(parents=True)
    assert main([command, "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert [p.name for p in out.iterdir()] == [report]
    assert list((out / report).iterdir()) == []


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
    # six log standard deviations plus the drift over two years put about
    # exp(8900) on the price grid of x; the drift keeps the Fourier route finite
    cfg = json.loads(SHIPPED_PDE.read_text())
    cfg["model"].update(vol_x=90.0, horizon=2.0, drift=[-4050.0, 0.02875])
    cfg["pde_grid"].update(nt=2)
    out = tmp_path / "never"
    path = _write(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "price grid overflows" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_overflowing_fourier_result_prints_one_line(tmp_path):
    # a child process, because pytest turns numpy warnings into errors: the
    # quadrature's overflow shows only as the guard's one line
    cfg = json.loads(SHIPPED_PDE.read_text())
    cfg["model"].update(vol_x=90.0, horizon=2.0)
    out = tmp_path / "never"
    src = str(Path(basishedge.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "basishedge.cli", "price", "--config", _write(tmp_path, cfg),
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("quadrature failed:") and proc.stderr.count("\n") == 1
    assert not out.exists()


def test_cli_hedge_surface_with_the_call_contour_near_a_pole(tmp_path, capsys):
    # at abscissa 0.1 the kernel's u = 0 peak is narrow before maturity;
    # the t = T slice is the residues of the kernel
    cfg = json.loads(SHIPPED_PDE.read_text())
    cfg["payoff"]["abscissa"] = 0.1
    out = tmp_path / "art"
    assert main(["hedge-surface", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "hedge_surface.csv").read_text().strip().splitlines()[1:]
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    last = rows[rows[:, 0] == cfg["model"]["horizon"]]
    assert last.size and np.all(np.abs(last[:, 3] - np.maximum(last[:, 1] - 100.0, 0.0)) <= 1e-6 * 101.0)


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


@pytest.mark.parametrize("strike, n", [(103.0, 201), (110.0, 201), (100.0, 200)])
def test_cli_compare_passes_with_the_strike_off_the_centred_grid(tmp_path, capsys, strike, n):
    # the PDE grid puts a node on the strike; between two nodes it left the
    # interior hedge gap at 0.027-0.035, over the 0.02 limit
    cfg = json.loads(SHIPPED_PDE.read_text())
    cfg["payoff"]["strike"] = strike
    cfg["pde_grid"].update(nx=n, ns=n)
    assert main(["compare", "--config", _write(tmp_path, cfg)]) == 0
    assert capsys.readouterr().err == ""


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
    # scipy.special costs about a third of a second and 20 MB to import,
    # most of the package's start-up; only the naive delta of the baselines
    # (ndtr) needs it, and imports it.  Values and hedges at maturity take
    # each line from the kernel's residues, so a hedge-surface grid through
    # T and compare with nt = 2, whose table reads the engine at T, load no
    # part of scipy
    configs = Path(__file__).resolve().parents[1] / "configs"
    shipped = [str(configs / name) for name in ("hulley_mcwalter.json", "merton_validation.json")]
    small_pde = json.loads((configs / "hulley_mcwalter.json").read_text())
    small_pde["pde_grid"] = {"nx": 41, "ns": 41, "nt": 5}
    two_steps = dict(small_pde, pde_grid={"nx": 81, "ns": 81, "nt": 2})
    at_maturity = _with(BASE, surface={
        "times": [0.5, 1.0], "x": {"lo": 80.0, "hi": 120.0, "n": 3},
        "s": {"lo": 90.0, "hi": 110.0, "n": 2},
    })
    baselines = _with(BASE, validation={**SMALL_REPLAY, "tests": ["baselines"]})
    out = str(tmp_path / "out")
    runs = [["price", "--config", path] for path in shipped] + [
        ["pde", "--config", _write(tmp_path, small_pde, "pde.json")],
        ["hedge-surface", "--config", _write(tmp_path, at_maturity, "surface.json")],
        ["compare", "--config", _write(tmp_path, two_steps, "compare.json")],
    ]
    loads = ["check", "--config", _write(tmp_path, baselines, "check.json")]
    code = (
        "import sys, basishedge, basishedge.cli\n"
        "from basishedge.cli import main\n"
        "def scipy():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not scipy(), scipy()\n"
        "assert 'numpy.polynomial' not in sys.modules\n"
        f"for argv in {runs!r}:\n"
        f"    assert main(argv + ['--out', {out!r}]) == 0, argv\n"
        "    assert not scipy(), (argv, scipy())\n"
        f"assert main({loads!r} + ['--out', {out!r}]) == 0\n"
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
        # NaN at every node but the last: the tail plan reads its ten cutoffs in one
        # call and passes only at 64 times the nominal truncation, so rules of
        # 32,769 nodes are integrated before the guard fires
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
