"""Compare two suite results, one row per workload.  Report only: exits 0.

    python3 perfbench/compare.py base.json change.json

For each workload and each of its end-to-end metrics it prints the two
medians and the change as a share of the base median, then a verdict:

    worse       the change lost more than the metric's bound
    better      the change gained more than the base's own spread
    same        neither of the above
    unresolved  the run-to-run spread (quartile distance over median) of
                either side exceeds the bound, so the data cannot tell;
                unless every run of the change beats every run of the base

Both files come from perfbench/suite.py, run with the same settings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from metrics import reported  # noqa: E402
from stats import median, quartile_spread  # noqa: E402


def verdict(base: list[float], change: list[float], better: str, bound) -> tuple[float, str]:
    """(relative change of the median, verdict) for one metric."""
    mb, mc = median(base), median(change)
    rel = (mc - mb) / abs(mb) if mb else (0.0 if mc == mb else float("inf"))
    gain = -rel if better == "lower" else rel
    if bound is None:
        return rel, "info"
    if bound == 0.0:  # error rates: any increase is worse
        return rel, "worse" if gain < 0 else ("better" if gain > 0 else "same")
    sign = -1.0 if better == "lower" else 1.0
    if max(quartile_spread(base), quartile_spread(change)) > bound:
        if min(sign * c for c in change) > max(sign * b for b in base):
            return rel, "better"
        return rel, "unresolved"
    if gain < -bound:
        return rel, "worse"
    if gain > quartile_spread(base):
        return rel, "better"
    return rel, "same"


def compare(base: dict, change: dict) -> list[str]:
    lines = []
    for w, b in base["workloads"].items():
        c = change["workloads"].get(w)
        if c is None:
            lines.append(f"{w}: missing from the change")
            continue
        cells = []
        for name, (unit, better, bound) in reported(w).items():
            vb = [r[name] for r in b["runs"]]
            vc = [r[name] for r in c["runs"]]
            rel, v = verdict(vb, vc, better, bound)
            cells.append(f"{name} {median(vb):.4g}->{median(vc):.4g} {unit} ({rel:+.1%}, {v})")
        lines.append(f"{w}: " + "; ".join(cells))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("change")
    args = p.parse_args(argv)
    docs = []
    for path in (args.base, args.change):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    for side, doc in zip(("base", "change"), docs):
        m = doc.get("machine", {})
        print(f"{side}: commit {m.get('git_commit')} python {m.get('python')} "
              f"numpy {m.get('numpy')} scipy {m.get('scipy')} nproc {m.get('nproc')}")
    print("\n".join(compare(*docs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
