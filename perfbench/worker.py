"""One fresh benchmark process: set up, then one timed round, or the probes.

    python3 perfbench/worker.py --workload NAME --seed N --round K \
        --mode setup|round|traced-round|probes --spawned MONOTONIC

run.py starts one of these per round, with the BLAS thread count fixed
in its environment, so every round pays the same cold start a CLI user
pays.  Set-up runs from the spawn (--spawned, a time.monotonic value
taken by the parent) through the imports and the round's inputs, and
ends before the first call into the program's numerical work.  The
only line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import NullTracer, Tracer, self_times, span_cost_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha(root: Path) -> str | None:
    # a source checkout without .git has no sha; the check also keeps git
    # from answering for a repository that merely encloses the checkout
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_facts() -> dict:
    import numpy as np

    from fourthorder import harness

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        # fourthorder, numpy, scipy and python, as the program's reports record them
        "versions": harness._versions(),
        "git_sha": _git_sha(ROOT),
    }


def machine_probe_s() -> float:
    """Median time of a fixed numpy solve + matmul; tracks machine drift."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((256, 256)), rng.standard_normal((256, 16))
    times = []
    for _ in range(9):
        start = time.perf_counter()
        np.linalg.solve(a, b)
        a @ a
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _round(workload, inputs, workdir: Path, traced: bool, round_index: int) -> dict:
    tracer = Tracer(round_index) if traced else NullTracer()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with tracer.span(f"workload.{workload.name}"):
            results = workload.run(inputs, tracer, workdir)
        error = None
    except Exception:
        results, error = None, traceback.format_exc()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    checks, failed_samples = [], workload.samples_per_round
    if results is not None:
        try:
            checks, failed_samples = workload.check(inputs, results)
        except Exception:
            # outputs the checks cannot read (a missing or short samples.csv)
            # fail every sample and every check of the round
            error = traceback.format_exc()
    # a check that could not run because its call failed is a failed operation
    failed = failed_samples + sum(not c.passed for c in checks) + workload.checks_per_round - len(checks)
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "attempted": workload.samples_per_round + workload.checks_per_round,
        "failed": failed,
        "correct": all(c.passed for c in checks),
        "checks": [f"{c.name}: {'ok' if c.passed else 'FAIL'} ({c.detail})" for c in checks],
        "failed_checks": [f"{c.name} failed: {c.detail}" for c in checks if not c.passed],
        "error": error,
    }
    if traced:
        out["spans"] = self_times(tracer.spans)
        out["bookkeeping_s"] = len(tracer.spans) * span_cost_s()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "round", "traced-round", "probes"))
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import fourthorder.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import numpy as np

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = BENCH / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.inputs(np.random.default_rng([args.seed, args.round]), workdir)
        out = {"setup_s": time.monotonic() - args.spawned, "import_s": import_s}
        if args.mode in ("round", "traced-round"):
            out.update(_round(workload, inputs, workdir, args.mode == "traced-round", args.round))
        elif args.mode == "probes":
            from probes import run_probes

            tracer = Tracer(args.round)
            out["layers"] = run_probes(tracer, workdir)
            out["spans"] = self_times(tracer.spans)
        if args.mode != "setup":
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            out["machine_probe_s"] = machine_probe_s()
            out["machine"] = machine_facts()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
