"""The comparison behind tools/report_diff.py, on reports written here."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "report_diff", Path(__file__).resolve().parents[1] / "tools" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def test_compare_counts_the_moved_numbers_and_the_largest_move():
    old = '{"h0": 10.5, "tail_bound": 1.8648941371521368e-11, "n": 3}'
    new = '{"h0": 10.5, "tail_bound": 1.864894137152137e-11, "n": 4}'
    moved, total, worst, text = report_diff.compare(old, new)
    assert (moved, total, text) == (2, 3, False)
    assert worst == pytest.approx(1.0 / 3.0)


def test_compare_takes_equal_values_and_nans_as_unmoved():
    assert report_diff.compare("a 1.0 NaN nan 2e3", "a 1.00 NaN nan 2000") == (0, 4, 0.0, False)


@pytest.mark.parametrize("new", ["b 1", "a 1 2", "a, 1"])
def test_compare_flags_text_that_differs(new):
    assert report_diff.compare("a 1", new)[3]


FILES = {"summary.json": '{"h0": 1.5}'}


def test_diff_of_matching_runs_is_clean():
    lines, differs = report_diff.diff((0, "", FILES), (0, "", dict(FILES)))
    assert not differs
    assert lines == ["exit 0 -> 0", "  summary.json: 0 of 1 numbers moved, max |d|/max(1,|v|) 0.00e+00"]


@pytest.mark.parametrize("run", [
    (3, "", FILES),
    (0, "quadrature failed: not finite", FILES),
    (0, "", {"summary.json": '{"h0": 1.25}'}),
    (0, "", {"summary.json": '{"h1": 1.5}'}),
    (0, "", {**FILES, "extra.csv": "1,2\n"}),
    (0, "", {}),
], ids=["exit-code", "stderr", "number", "text", "extra-file", "missing-file"])
def test_diff_marks_every_kind_of_difference(run):
    assert report_diff.diff((0, "", FILES), run)[1]


@pytest.mark.parametrize("old, new", [("1.5", "NaN"), ("NaN", "1.5"), ("inf", "2.0"), ("inf", "-inf")])
def test_compare_takes_a_move_to_or_from_a_non_finite_value_as_unbounded(old, new):
    assert report_diff.compare(old, new) == (1, 1, float("inf"), False)


def test_max_rel_forgives_small_moves_only():
    near = (0, "", {"summary.json": '{"h0": 1.5000000000001}'})
    far = (0, "", {"summary.json": '{"h0": 1.51}'})
    lost = (0, "", {"summary.json": '{"h0": NaN}'})
    assert not report_diff.diff((0, "", FILES), near, max_rel=5e-12)[1]
    for run in (far, lost):
        assert report_diff.diff((0, "", FILES), run, max_rel=5e-12)[1]
    # the default counts every move
    assert report_diff.diff((0, "", FILES), near)[1]
    # the printed line still counts the forgiven move
    assert "1 of 1 numbers moved" in report_diff.diff((0, "", FILES), near, max_rel=5e-12)[0][1]


@pytest.mark.parametrize("run", [
    (3, "", FILES),
    (0, "quadrature failed: not finite", FILES),
    (0, "", {"summary.json": '{"h1": 1.5}'}),
    (0, "", {**FILES, "extra.csv": "1,2\n"}),
    (0, "", {}),
], ids=["exit-code", "stderr", "text", "extra-file", "missing-file"])
def test_max_rel_still_counts_everything_but_numbers_exactly(run):
    assert report_diff.diff((0, "", FILES), run, max_rel=1.0)[1]


def test_main_passes_max_rel_to_every_diff(tmp_path, monkeypatch, capsys):
    moved = {"summary.json": '{"h0": 1.5000000000001}'}
    monkeypatch.setattr(report_diff, "run",
                        lambda tree, command, cfg, out: (0, "", FILES if "parent" in str(tree) else moved))
    trees = [str(tmp_path / "parent"), str(tmp_path / "change")]
    assert report_diff.main(trees) == 1
    assert report_diff.main(trees + ["--max-rel", "5e-12"]) == 0
    assert report_diff.main(trees + ["--max-rel", "1e-15"]) == 1
    with pytest.raises(SystemExit):
        report_diff.main(trees + ["--max-rel", "-1"])


def test_extra_configs_run_in_both_trees_after_the_shipped_ones(tmp_path, monkeypatch, capsys):
    calls = []

    def fake_run(tree, command, cfg, out):
        calls.append((tree, command, cfg))
        return 0, "", dict(FILES)

    monkeypatch.setattr(report_diff, "run", fake_run)
    trees = [tmp_path / "parent", tmp_path / "change"]
    extra = [tmp_path / "weighted_sum.json", tmp_path / "other.json"]
    argv = [str(t) for t in trees] + [a for c in extra for a in ("--config", str(c))]
    assert report_diff.main(argv) == 0
    runs = [(name, command) for name in (*report_diff.CONFIGS, "weighted_sum", "other")
            for command in report_diff.COMMANDS]
    assert calls == [
        (tree, command, tree / "configs" / f"{name}.json" if name in report_diff.CONFIGS
         else tmp_path / f"{name}.json")
        for name, command in runs for tree in trees
    ]
    # each pair of runs is named by its config's stem
    names = [ln.split(":")[0] for ln in capsys.readouterr().out.splitlines()[1:]
             if not ln.startswith(" ")]
    assert names == [f"{name} {command}" for name, command in runs]
