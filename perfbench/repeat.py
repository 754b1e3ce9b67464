"""Steadiness of the benchmark: run it K times and summarise each metric.

    python3 perfbench/repeat.py --workload wheel_single --runs 10 --first-seed 1
    python3 perfbench/repeat.py --compare results/a.json results/b.json

The first form runs ``run.py --trace 0`` for BENCHMARK.json's
``run_seconds`` with seeds first-seed .. first-seed+K-1, prints each metric's median, quartiles and spread (the distance between
the quartiles over the median, from ``statistics.quantiles(values, n=4)``)
next to its bound from BENCHMARK.json and to the same figures before
run.py's machine-speed scaling, and saves every run's result under
``perfbench/results/``.  A spread should stay below a third of the bound.
The second form compares two saved sets: for each metric it prints how
far the second median moved from the first, as a share of the first, and
flags a move in the worse direction larger than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def repeat(workload: str, runs: int, first_seed: int, seconds: int) -> dict:
    results = []
    for seed in range(first_seed, first_seed + runs):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for line in proc.stderr.splitlines():
            if line.startswith("reference task") and "raw: " in line:
                result["raw"] = json.loads(line.split("raw: ", 1)[1])
        result["seed"] = seed
        result["wall_s"] = time.perf_counter() - start
        results.append(result)
        print(f"seed {seed}: {result['wall_s']:.1f} s, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)
    return {"workload": workload, "seconds": seconds, "runs": results}


def report(data: dict, bounds: dict) -> None:
    runs = data["runs"]
    print(f"{data['workload']}: {len(runs)} runs of {data['seconds']} s, "
          f"failed shares {sorted({r['failed'] / r['attempted'] for r in runs})}, "
          f"all correct: {all(r['correct'] for r in runs)}")
    raw = all("raw" in r for r in runs)
    print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}"
          + ("  raw median, spread" if raw else ""))
    for name in runs[0]["metrics"]:
        s = summarise([r["metrics"][name]["value"] for r in runs])
        bound = bounds.get(name)
        flag = "" if bound is None or s["spread"] < bound / 3 else "  > bound/3"
        unscaled = ""
        if raw:
            u = summarise([r["raw"][name] for r in runs])
            unscaled = f"  {u['median']:12.4f} {u['spread']:8.4f}"
        print(f"{name:42s} {s['median']:12.4f} {s['q1']:12.4f} {s['q3']:12.4f} "
              f"{s['spread']:8.4f} {bound if bound is not None else '':>6}{unscaled}{flag}")


def compare(first: dict, second: dict, metrics: dict) -> None:
    print(f"{first['workload']}: second median against first")
    for name in first["runs"][0]["metrics"]:
        a = statistics.median(r["metrics"][name]["value"] for r in first["runs"])
        b = statistics.median(r["metrics"][name]["value"] for r in second["runs"])
        change = (b - a) / a if a else 0.0
        spec = metrics.get(name, {})
        worse = change if spec.get("better") == "lower" else -change
        flag = "  WORSE than bound" if "bound" in spec and worse > spec["bound"] else ""
        print(f"{name:42s} {a:12.4f} {b:12.4f} {change:+8.4f}{flag}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar="RESULTS_JSON")
    args = parser.parse_args()

    benchmark = load_benchmark()
    metrics = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        compare(first, second, metrics)
        return
    if not args.workload or args.runs < 4:
        parser.error("--workload and --runs >= 4 are needed")
    data = repeat(args.workload, args.runs, args.first_seed, benchmark["run_seconds"])
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-s{args.first_seed}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps(data, indent=1))
    print(f"saved {out.relative_to(ROOT)}")
    report(data, {name: m["bound"] for name, m in metrics.items() if "bound" in m})


if __name__ == "__main__":
    main()
