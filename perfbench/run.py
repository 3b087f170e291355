"""Run one basishedge benchmark workload in this fresh process.

    python3 perfbench/run.py --workload book --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It generates the workload's inputs
from --seed, runs rounds in a closed loop with one client until
--seconds have passed (and at least the workload's minimum number of
rounds), checks every output, and prints as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 it runs the same rounds
untraced and then traced and reports the per-layer metrics, writing the
spans to .perfbench_work/traces/<workload>.jsonl (the last traced run of
each workload; a book trace is tens of MB).  The full result, with
the workload's own metrics and the machine record, goes to --result
(default .perfbench_work/results/).

setup_s is the median wall time of SETUP_REPEATS fresh processes that
each start Python, import the program, and generate and load the inputs.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()

# BLAS threads are fixed before numpy loads; one thread keeps runs steady
# on a shared machine and is within nproc everywhere.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 60


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("replay", "book", "routes"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the same code on small inputs (the benchmark's tests)")
    p.add_argument("--result", default=None, help="where to write the full result JSON")
    p.add_argument("--setup-probe", default=None, metavar="DIR",
                   help="only import and set up the inputs in DIR, then exit")
    return p


def _program():
    """Import the program from the checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "basishedge", "__init__.py")):
        raise SystemExit(f"perfbench: no program at {SRC}/basishedge; "
                         "run from the root of a basishedge checkout")
    sys.path.insert(0, SRC)
    from basishedge import cli, config, engine, models, payoffs, pde, simulation

    return {"cli": cli, "config": config, "engine": engine, "models": models,
            "payoffs": payoffs, "pde": pde, "simulation": simulation}


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
    }


def _setup_time(args, rundir: str) -> list[float]:
    """Wall time of fresh processes that import the program and set up the inputs."""
    times = []
    for k in range(SETUP_REPEATS):
        probe = os.path.join(rundir, f"probe-{k}")
        os.makedirs(probe)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size, "--setup-probe", probe]
        # wait() without a timeout blocks in waitpid, so the clock reads the exit
        # at once; a timer thread kills a probe that hangs
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise SystemExit(f"perfbench: setup probe exited {rc}")
        shutil.rmtree(probe, ignore_errors=True)
    return times


def _loop(workload, seconds: float, min_rounds: int, first: int = 0, tracer=None):
    """Closed loop: start rounds until `seconds` have passed and min_rounds are done."""
    ops, round_times = [], []
    t0 = time.perf_counter()
    r = first
    while len(round_times) < min_rounds or time.perf_counter() - t0 < seconds:
        start = time.perf_counter()
        ops.extend(workload.round(r))
        round_times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end_round()
        r += 1
    return ops, round_times


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    bh = _program()
    import workloads
    from metrics import END_TO_END
    from stats import median

    cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        cls(args.seed, args.size, args.setup_probe).setup()
        return 0

    os.makedirs(WORK, exist_ok=True)
    rundir = os.path.join(WORK, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        wl = cls(args.seed, args.size, rundir)
        wl.setup()
        setup_inproc_s = time.perf_counter() - T_START
        setup_samples = _setup_time(args, rundir)

        layer = None
        if args.trace:
            from tracing import Tracer

            # a warm-up round first, so that one-off costs fall on neither side
            ops, _ = _loop(wl, 0.0, 1)
            timed, round_times = _loop(wl, args.seconds / 2, 1, first=1)
            wl.counters = dict.fromkeys(wl.counters, 0)
            tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
            tracer.install(bh)
            try:
                traced_ops, traced = _loop(wl, 0.0, len(round_times), 1 + len(round_times), tracer)
            finally:
                tracer.uninstall()
            ops += timed + traced_ops
            layer = tracer.layer_metrics(len(traced), sum(traced), sum(round_times), wl.counters)
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            tracer.write_jsonl(os.path.join(WORK, "traces", f"{args.workload}.jsonl"))
        else:
            ops, round_times = _loop(wl, args.seconds, workloads.MIN_ROUNDS[args.workload])
            timed = ops
        wl.finish(ops)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    failed = [op for op in ops if not op.ok]
    for op in failed[:10]:
        print(f"perfbench: {args.workload} {op.kind} failed: {op.note}", file=sys.stderr)
    e2e = {
        "setup_s": median(setup_samples),
        "round_s": median(round_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "trace": args.trace,
        "rounds": len(round_times), "round_times_s": round_times,
        "setup_samples_s": setup_samples, "setup_inproc_s": setup_inproc_s,
        "run_s": sum(op.seconds for op in timed),
        "attempted": len(ops), "failed": len(failed),
        "error_rate": len(failed) / len(ops),
        **e2e, **wl.summary(timed),
    }
    result = {"machine": machine(), "detail": detail, "per_layer": layer}
    path = args.result or os.path.join(
        WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)

    print(" ".join(f"{k}={v}" for k, v in result["machine"].items()))
    print(" ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                   for k, v in detail.items() if not isinstance(v, list)))
    if layer is None:
        metrics = {k: {"value": e2e[k], "unit": u} for k, (u, _, _) in END_TO_END.items()}
    else:
        from tracing import PER_LAYER

        metrics = {k: {"value": layer[k], "unit": u} for k, (u, _) in PER_LAYER.items()}
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
