"""Benchmark of the fourthorder dispersive-estimate pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src, nothing needs installing.  Each round of the workload runs in a
fresh worker interpreter (worker.py) with one BLAS/OpenMP thread fixed
in its environment before numpy loads; rounds repeat until their summed
wall time reaches --seconds.  The last line of standard output is the
result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (wall_s, setup_s, cpu_s, peak_rss_mb) for
--trace 0 and the per-layer metrics for --trace 1.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("threshold-dispersion", "regular-late", "free-dispersion")
# set-up is sampled at least this often per run, by set-up-only workers
# when there are fewer rounds
SETUP_SAMPLES = 5
# one BLAS thread: with OpenBLAS's default of one per core, the cache
# build's CPU time doubles for no gain in wall time
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the traced mode runs at least this many (untraced, traced) round pairs
TRACE_PAIRS = 3
DEADLINE_S = 175.0


class BenchError(Exception):
    pass


class Runner:
    """Starts worker processes one at a time against a common deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {**os.environ, **THREAD_ENV}
        self.env.pop("FOURTHORDER_THREADS", None)

    def spawn(self, mode: str, round_index: int) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0.0:
            raise BenchError(f"out of time after {DEADLINE_S:g} s")
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--round", str(round_index), "--mode", mode,
            "--spawned", repr(time.monotonic()),
        ]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the {DEADLINE_S:g} s deadline") from None
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} worker exited {proc.returncode}")
        return json.loads(lines[-1])


def _measure(args) -> tuple[dict, dict]:
    runner = Runner(args)
    rounds, measured = [], 0.0
    while True:
        # traced mode alternates untraced and traced rounds; each traced
        # round is paired with the untraced round just before it
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rec = runner.spawn("traced-round" if traced else "round", len(rounds))
        rec["traced"] = traced
        rounds.append(rec)
        measured += rec["wall_s"]
        if measured >= args.seconds and (not args.trace or len(rounds) >= 2 * TRACE_PAIRS):
            break
    k = len(rounds)
    extra = [runner.spawn("setup", k + i) for i in range(max(0, SETUP_SAMPLES - k))]
    probes = runner.spawn("probes", k + len(extra)) if args.trace else None

    processes = rounds + extra + ([probes] if probes else [])
    summary = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": rounds[-1]["machine"],
        "machine_probe_s": [r["machine_probe_s"] for r in rounds],
        "setup_s": [p["setup_s"] for p in rounds + extra],
        "import_s": [p["import_s"] for p in processes],
        "round_wall_s": [r["wall_s"] for r in rounds],
        "round_cpu_s": [r["cpu_s"] for r in rounds],
        "round_traced": [r["traced"] for r in rounds],
        "round_peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "first_round_checks": rounds[0]["checks"],
        "failures": [f"round {i}: {c}" for i, r in enumerate(rounds) for c in r["failed_checks"]]
        + [f"round {i}: {r['error']}" for i, r in enumerate(rounds) if r["error"]],
    }
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        untraced = [r for r in rounds if not r["traced"]]
        spans: dict = {}
        for r in traced:
            for name, v in r["spans"].items():
                entry = spans.setdefault(name, {"count": 0.0, "self_s": 0.0})
                entry["count"] += v["count"] / len(traced)
                entry["self_s"] += v["self_s"] / len(traced)
        record["span_self_per_traced_round"] = spans
        bookkeeping = statistics.median(r["bookkeeping_s"] for r in traced)
        record["span_bookkeeping_s_per_traced_round"] = bookkeeping
        record["probe_spans"] = probes["spans"]
        layers = dict(probes["layers"])
        layers["cli.import_s"] = (statistics.median(record["import_s"]), "s")
        # traced minus untraced wall, as a median over adjacent pairs; it
        # still carries the rounds' own noise, which is far above what the
        # spans cost, so the measured bookkeeping is reported beside it
        overhead = statistics.median(t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced))
        layers["trace.overhead_s"] = (overhead, "s")
        layers["trace.span_bookkeeping_s"] = (bookkeeping, "s")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(record["round_wall_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(record["setup_s"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(record["round_cpu_s"]), "unit": "s"},
            "peak_rss_mb": {"value": max(record["round_peak_rss_mb"]), "unit": "MB"},
        }
    record["metrics"] = metrics
    return {**summary, "metrics": metrics}, record


def _report(result: dict, record: dict) -> None:
    records = BENCH / "out" / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (records / name).write_text(json.dumps(record, indent=2) + "\n")

    print(f"{record['workload']} seed {record['seed']}: {len(record['round_wall_s'])} rounds, wall "
          + " ".join(f"{w:.3f}" for w in record["round_wall_s"]) + " s; set-up "
          + " ".join(f"{s:.3f}" for s in record["setup_s"]) + " s")
    print("machine probe " + " ".join(f"{p * 1e3:.3f}" for p in record["machine_probe_s"]) + " ms; "
          + json.dumps(record["machine"], sort_keys=True))
    for line in record["first_round_checks"]:
        print(f"check {line}")
    for line in record["failures"]:
        print(line)
    for span, v in sorted(record.get("span_self_per_traced_round", {}).items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"span {span}: {v['count']:g} calls, self {v['self_s']:.4f} s per traced round")
    if "span_bookkeeping_s_per_traced_round" in record:
        print(f"span bookkeeping {record['span_bookkeeping_s_per_traced_round']:.3e} s per traced round")
    print(f"record: {records / name}")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fourthorder" / "__init__.py").is_file():
        print(f"perfbench: no fourthorder sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, record = _measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _report(result, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
