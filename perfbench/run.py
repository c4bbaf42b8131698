"""Stage-timed benchmark of one workload: the program's pipelines, run
sequentially in one process, with every output checked independently.

    python3 perfbench/run.py --workload mlp-figure1 --seed 1 --seconds 30 --trace 0

Set-up is measured first, as the median of several fresh processes that
start the interpreter, import numpy and aeaudit, and write the workload's
inputs. Then whole rounds of the pipeline repeat on the same inputs until
--seconds have passed; each stage metric is the median over rounds.

With --trace 0 the last stdout line reports the end-to-end metrics. With
--trace 1 untraced and traced rounds alternate; the traced rounds give the
per-layer metrics (medians over traced rounds) and the spans are written as
JSONL; `trace.overhead_s` is the traced minus the untraced median job time.
The line before the result records the run's environment and a short
machine-speed probe. Outputs go to .perfbench_runs/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
BLAS_THREADS = 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["mlp-figure1", "conv-digits", "pca-wide"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def measure_setup(workload: str, seed: int, directory: Path) -> float:
    """Median wall time of SETUP_REPEATS fresh set-up processes."""
    times = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(directory / f"setup{k}")],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas_version = "unknown"

    def median_of_3(fn) -> float:
        out = []
        for _ in range(3):
            start = time.perf_counter()
            fn()
            out.append(time.perf_counter() - start)
        return statistics.median(out)

    mat = np.random.default_rng(0).random((256, 256))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "probe_python_loop_s": median_of_3(lambda: sum(i * i for i in range(300_000))),
        "probe_matmul_s": median_of_3(lambda: [mat @ mat for _ in range(10)]),
    }


def end_to_end(rounds, setup_s: float) -> dict:
    median = statistics.median
    values = {
        "setup_s": setup_s,
        "fit_s": median(r.times["fit"] for r in rounds),
        "audit_s": median(r.times["audit"] for r in rounds),
        "attack_s": median(r.times["attack"] for r in rounds),
        "job_s": median(r.job_s for r in rounds),
    }
    metrics = {k: {"value": v, "unit": "s"} for k, v in values.items()}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB",
    }
    return metrics


PER_LAYER_UNITS = {"calls": "count", "rows": "count", "steps": "count", "infeasible": "count",
                   "grid_nodes": "count", "region_cells": "count", "gflop_per_s": "GFLOP/s"}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "aeaudit" / "__init__.py").is_file():
        print(f"error: no aeaudit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # before numpy loads; the set-up processes inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    from workloads import WORKLOADS, Round

    rundir = ROOT / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    workdir = rundir / "work"
    workdir.mkdir(parents=True)

    setup_s = measure_setup(args.workload, args.seed, workdir)
    env = environment(args.seed)
    workload = WORKLOADS[args.workload](workdir / "inputs", args.seed)
    workload.prepare()

    deadline = time.perf_counter() + args.seconds
    rounds, traced, per_round = [], [], []
    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics, median_metrics

        tracer = Tracer()
    while True:
        r = Round()
        workload.run_round(r)
        rounds.append(r)
        if tracer is not None:
            tracer.install()
            try:
                first = tracer.start_round()
                r = Round(span=tracer.span, untraced=tracer.paused)
                workload.run_round(r)
            finally:
                tracer.uninstall()
            per_round.append(layer_metrics(tracer.spans, first, tracer.counts))
            traced.append(r)
        if time.perf_counter() >= deadline:
            break

    all_rounds = rounds + traced
    ops = [op for r in all_rounds for op in r.ops]
    wrong = [op for op in ops if op[1] == "wrong"]
    for name, status, message in sorted(set(op for op in ops if op[1] != "ok")):
        print(f"{status}: {name}: {message}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(rounds, setup_s)
    else:
        values = median_metrics(per_round)
        values["trace.overhead_s"] = statistics.median(r.job_s for r in traced) - statistics.median(
            r.job_s for r in rounds
        )
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        tracer.write_jsonl(rundir / "spans.jsonl")

    result = {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op[1] != "ok"),
        "metrics": metrics,
    }
    env["rounds"] = len(all_rounds)
    (rundir / "env.json").write_text(json.dumps(env, indent=1) + "\n")
    (rundir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    (rundir / "rounds.json").write_text(json.dumps(
        [{"traced": r in traced, **r.times} for r in all_rounds], indent=1) + "\n")
    shutil.rmtree(workdir)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
