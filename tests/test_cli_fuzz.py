"""Fuzz of the command-line contract over mutated shipped configs.

Each example takes one shipped config, shrinks its path counts and grids
so a command runs in a fraction of a second, applies one or two
mutations (a number scaled by a power of ten, NaN, +-inf, a value of the
wrong type, a removed key) and runs one subcommand in-process.  The
contract: the exit code is 0, 2, 3 or 4, nothing escapes as a
traceback, a failure prints exactly one stderr line and a success none,
and exit 2 or 3 leaves the output directory unwritten.

Numbers are scaled up by at most one decade there: the explicit PDE
march costs about nx**2 * ns**2 operations, so a hundredfold grid would
take minutes per example.  A second test reaches the numerics instead:
it scales each model number and the strike by 10**+-2 and 10**+-3 on
the commands without a PDE march.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from basishedge.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
COMMANDS = ("price", "hedge-surface", "simulate", "pde", "compare", "check")
WRONG_TYPES = ("x", True, None, [], {})


def _shrunk(name: str) -> dict:
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["validation"].update(n_paths=200, n_steps=3)
    if "pde_grid" in cfg:
        cfg["pde_grid"].update(nx=11, ns=11, nt=2)
    for axis in ("x", "s"):
        if axis in cfg.get("surface", {}):
            cfg["surface"][axis]["n"] = 3
    return cfg


SHIPPED = {name: _shrunk(name) for name in ("hulley_mcwalter", "merton_validation")}


def _paths(node, prefix=()):
    """Every key path into the config, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutate(cfg: dict, path: tuple, kind: str, option):
    *head, last = path
    parent = cfg
    for key in head:
        parent = parent[key]
    if kind == "remove":
        del parent[last]
    elif kind == "scale":
        value = parent[last]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            parent[last] = value * 10.0**option
    else:
        parent[last] = copy.deepcopy(option)


def _numbers(node, prefix):
    """Key paths of every number inside node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _numbers(value, prefix + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield prefix + (key,)


def _check_contract(cfg: dict, command: str):
    """Run one command in-process and assert the command-line contract;
    returns the exit code, the JSON reports written, by file name, and
    stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", config, "--out", out])
        assert code in (0, 2, 3, 4), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().count("\n") == (0 if code == 0 else 1), (code, err.getvalue())
        if code in (2, 3):
            assert not os.path.exists(out), (code, err.getvalue())
        names = os.listdir(out) if os.path.isdir(out) else []
        reports = {n: json.loads(Path(out, n).read_text()) for n in names if n.endswith(".json")}
        return code, reports, err.getvalue()


OPTIONS = {
    "scale": (-3, -2, -1, 1),
    "special": (float("nan"), float("inf"), float("-inf")),
    "type": WRONG_TYPES,
    "remove": (None,),
}

@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(SHIPPED)),
    command=st.sampled_from(COMMANDS),
    n_edits=st.integers(1, 2),
    data=st.data(),
)
def test_cli_contract_holds_for_mutated_configs(name, command, n_edits, data):
    cfg = copy.deepcopy(SHIPPED[name])
    for _ in range(n_edits):
        paths = list(_paths(cfg))
        if paths:
            kind = data.draw(st.sampled_from(sorted(OPTIONS)))
            option = data.draw(st.sampled_from(OPTIONS[kind]))
            _mutate(cfg, data.draw(st.sampled_from(paths)), kind, option)
    _check_contract(cfg, command)


@pytest.mark.parametrize("command", ["price", "simulate", "hedge-surface", "check"])
@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_cli_contract_holds_for_scaled_model_numbers(name, command):
    # every number of the model block and the strike, each scaled alone
    base = SHIPPED[name]
    for path in [*_numbers(base["model"], ("model",)), ("payoff", "strike")]:
        for power in (-3, -2, 2, 3):
            cfg = copy.deepcopy(base)
            _mutate(cfg, path, "scale", power)
            _check_contract(cfg, command)


@pytest.mark.parametrize("entry", [0, 1])
@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_cli_contract_holds_for_a_spot_near_the_float_limit(name, entry):
    # a spot of 1e300 overflows the replay's moment sums and the rounding in
    # the model digest; neither may escape as a traceback or a warning
    cfg = copy.deepcopy(SHIPPED[name])
    _mutate(cfg, ("model", "spot", entry), "scale", 298)
    for command in COMMANDS:
        code, reports, _ = _check_contract(cfg, command)
        if command == "simulate" and entry == 1:
            # the overflowing sums leave the correlation undefined
            assert code == 0 and reports["sim_report.json"]["orthogonality_corr"] == "nan"


@pytest.mark.parametrize("command", ["simulate", "check"])
@pytest.mark.parametrize("name, path, value", [
    ("hulley_mcwalter", ("model", "drift"), [-1e6, -1e6]),
    # the squared jump mean of the naive delta overflows as well
    ("merton_validation", ("model", "jump_mean"), [-0.05, -1e200]),
], ids=["drift", "jump-mean"])
def test_cli_contract_holds_when_the_replay_prices_underflow(name, path, value, command):
    # the simulated prices reach 0, which the replay's evaluation refuses
    cfg = copy.deepcopy(SHIPPED[name])
    _mutate(cfg, path, "set", value)
    code, _, err = _check_contract(cfg, command)
    assert (code, err) == (3, "evaluation failed: prices must be strictly positive\n")
