"""Run sets of benchmark runs and summarize them the way they are judged.

    python3 perfbench/sets.py --runs 10 --label a          # one set, seeds 1..10
    python3 perfbench/sets.py --compare a b                # set b against set a
    python3 perfbench/sets.py --runs 1 --trace 1 --label t # traced runs

Runs go from the checkout root, interleaved across workloads (seed 1 of
every workload, then seed 2, ...), with the run length and bounds read
from BENCHMARK.json.  For each workload and end-to-end metric it prints
the median, the quartiles, the spread (q3 - q1) / median and the share
of failed operations; --compare prints each median's change between two
saved sets against the metric's bound.  Summaries are saved under
perfbench/out/sets/.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = BENCH / "out" / "sets"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_set(runs: int, trace: int, label: str) -> None:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    results = {name: [] for name in names}
    for seed in range(1, runs + 1):
        for name in names:
            result = _run(spec, name, seed, trace)
            results[name].append(result)
            print(f"{name} seed {seed}: " + json.dumps(result), flush=True)
    SETS.mkdir(parents=True, exist_ok=True)
    (SETS / f"{label}.json").write_text(json.dumps({"trace": trace, "results": results}, indent=1) + "\n")
    summarize(label)


def summarize(label: str) -> None:
    spec = _spec()
    saved = json.loads((SETS / f"{label}.json").read_text())
    expected = spec["per_layer"] if saved["trace"] else spec["end_to_end"]
    for name, results in saved["results"].items():
        share = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n{name}: {len(results)} runs, correct {correct}, failed shares {sorted(share)}")
        for metric in expected:
            if any(metric["name"] not in r["metrics"] for r in results):
                print(f"  {metric['name']:48s} MISSING")
                continue
            q1, med, q3 = _quartiles([r["metrics"][metric["name"]]["value"] for r in results])
            spread = (q3 - q1) / med if med else float("nan")
            mark = ""
            if "bound" in metric:
                bound = metric["bound"]
                verdict = "steady" if spread <= bound / 3 else "within bound" if spread <= bound else "OVER BOUND"
                mark = f"  bound {bound:g}  {verdict}"
            print(f"  {metric['name']:48s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}{mark}")


def compare(first: str, second: str) -> None:
    spec = _spec()
    a = json.loads((SETS / f"{first}.json").read_text())["results"]
    b = json.loads((SETS / f"{second}.json").read_text())["results"]
    for metric in spec["end_to_end"]:
        for name in a:
            ma = statistics.median(r["metrics"][metric["name"]]["value"] for r in a[name])
            mb = statistics.median(r["metrics"][metric["name"]]["value"] for r in b[name])
            change = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            verdict = "ok" if change <= metric["bound"] else "WORSE"
            print(f"{metric['name']:12s} {name:22s} {ma:.6g} -> {mb:.6g}  worse by {change:+.4f}  bound {metric['bound']:g}  {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
    else:
        if not args.label:
            parser.error("--label names the saved set")
        run_set(args.runs, args.trace, args.label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
