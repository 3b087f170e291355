"""Run every workload and print its metrics: the benchmark's one command.

    python3 perfbench/suite.py                      # 3 seeds x 3 workloads, then traced runs
    python3 perfbench/suite.py --runs 10 --out .perfbench_work/base.json

Each run is a fresh process of perfbench/run.py, one workload at a time.
The end-to-end table has one row per workload with the median over the
untraced runs; the per-layer table comes from one traced run per
workload and names the layer with the largest self time.  The combined
result (every run, medians, quartile spreads, machine record) is written
to --out for perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import reported  # noqa: E402
from stats import median, quartile_spread  # noqa: E402
from tracing import LAYERS, PER_LAYER  # noqa: E402

WORKLOADS = ("replay", "book", "routes")
RUN_TIMEOUT_S = 900


def _run(workload: str, seed: int, seconds: float, trace: int, path: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--result", path]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, str):
        return v
    return f"{v:.4g}"


def _table(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.rjust(w) if j else c.ljust(w)
                               for j, (c, w) in enumerate(zip(r, widths))) for r in rows)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=3, help="untraced runs per workload, one seed each")
    p.add_argument("--seed", type=int, default=1, help="first seed")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--out", default=os.path.join(ROOT, ".perfbench_work", "suite.json"))
    args = p.parse_args(argv)

    rundir = os.path.join(ROOT, ".perfbench_work", "suite-runs")
    os.makedirs(rundir, exist_ok=True)
    result = {"settings": vars(args), "workloads": {}}
    for w in WORKLOADS:
        runs = []
        for seed in range(args.seed, args.seed + args.runs):
            res = _run(w, seed, args.seconds, 0, os.path.join(rundir, f"{w}-{seed}.json"))
            runs.append(res["detail"])
            result["machine"] = res["machine"]
            print(f"{w} seed {seed}: round_s {res['detail']['round_s']:.4g} "
                  f"failed {res['detail']['failed']}/{res['detail']['attempted']}",
                  file=sys.stderr)
        traced = _run(w, args.seed, args.seconds, 1,
                      os.path.join(rundir, f"{w}-{args.seed}-trace.json"))
        names = reported(w)
        result["workloads"][w] = {
            "runs": runs,
            "median": {k: median([r[k] for r in runs]) for k in names},
            "spread": {k: quartile_spread([r[k] for r in runs]) for k in names},
            "per_layer": traced["per_layer"],
            "traced_failed": traced["detail"]["failed"],
        }

    names = {}
    for w in result["workloads"]:
        names.update(reported(w))
    rows = [["workload"] + list(names), ["unit"] + [u for u, _, _ in names.values()]]
    for w, res in result["workloads"].items():
        rows.append([w] + [_fmt(res["median"].get(k)) for k in names])
    print(f"End-to-end, median of {args.runs} untraced runs of {args.seconds:g} s "
          f"(seeds {args.seed}..{args.seed + args.runs - 1}):")
    print(_table(rows))

    ws = list(result["workloads"])
    rows = [["metric", "unit"] + ws]
    for k, (unit, _) in PER_LAYER.items():
        rows.append([k, unit] + [_fmt(result["workloads"][w]["per_layer"][k]) for w in ws])
    top = []
    for w in ws:
        layer = result["workloads"][w]["per_layer"]
        top.append(max(LAYERS, key=lambda name: layer[f"{name}.self_s"]))
    rows.append(["largest self time", ""] + top)
    print(f"\nPer layer, per round, from one traced run (seed {args.seed}):")
    print(_table(rows))

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    print(f"\nwrote {args.out}")
    bad = [w for w, res in result["workloads"].items()
           if any(r["failed"] for r in res["runs"]) or res["traced_failed"]]
    if bad:
        print("operations failed in: " + ", ".join(bad), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
