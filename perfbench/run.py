"""foxabf CLI benchmark: replays a seeded workload through ``foxabf.cli.main``.

    python3 perfbench/run.py --workload braid_words --seed 1 --seconds 30 --trace 0

Run from the root of a foxabf source tree.  Every request runs in a fresh
worker interpreter (``worker.py``), one at a time: a closed loop with one
client.  The run replays whole rounds of requests (``workloads.py``),
checks every output against ``checks.py`` between timed requests, and
starts another round only while it would end within ``--seconds``; it
always runs at least three.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays the
first round twice, untraced and traced request by request, requires
byte-identical output from both, and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; progress and
mismatches go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_ROUNDS = 3
# Times are reported at a fixed machine speed.  The machine is shared, and
# its speed drifts by up to +-20 % from one half-minute to the next, which
# moved raw timings between runs more than any input did.  Each worker
# times a fixed reference task (worker.reference_s) before importing
# foxabf; every time of a run is multiplied by REFERENCE_S / the run's
# median reference time.  REFERENCE_S is that median on the 2-core machine
# the bounds were set on.  The raw figures go to stderr.
REFERENCE_S = 0.015
# No request is started after RUN_LIMIT_S, so a run that hangs still ends
# well within the 180 s a run may take.
RUN_LIMIT_S = 150

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

SUBCOMMANDS = ("colorgroup", "abf", "wheel", "table", "verify")

# Per-layer metric -> (what, span key).  "ms" is the inclusive time of the
# outermost calls of a function, "calls" its call count, "self" a layer's
# self time, "count" a work counter; all are summed over the traced round.
PER_LAYER = {
    "braid.burau_ms": ("ms", "braid.burau"),
    "braid.burau_calls": ("calls", "braid.burau"),
    "braid.parse_braid_ms": ("ms", "braid.parse_braid"),
    "braid.burau_at_minus_one_ms": ("ms", "braid.burau_at_minus_one"),
    "braid.self_ms": ("self", "braid"),
    "ring.matmul_ms": ("ms", "ring.matmul"),
    "ring.matmul_calls": ("calls", "ring.matmul"),
    "ring.poly_mul_ms": ("ms", "ring.poly_mul"),
    "ring.poly_mul_calls": ("calls", "ring.poly_mul"),
    "ring.det_ms": ("ms", "ring.det"),
    "ring.det_calls": ("calls", "ring.det"),
    "ring.divide_exact_ms": ("ms", "ring.divide_exact"),
    "ring.divide_exact_calls": ("calls", "ring.divide_exact"),
    "ring.snf_ms": ("ms", "ring.snf"),
    "ring.snf_calls": ("calls", "ring.snf"),
    "ring.self_ms": ("self", "ring"),
    "sequences.cheb_S_subst_ms": ("ms", "sequences.cheb_S_subst"),
    "sequences.identity_suite_ms": ("ms", "sequences.identity_suite"),
    "sequences.self_ms": ("self", "sequences"),
    "coloring.coloring_group_ms": ("ms", "coloring.coloring_group"),
    "coloring.brute_force_ms": ("ms", "coloring.brute_force_coloring_count"),
    "coloring.brute_force_assignments": ("count", "coloring.brute_force_assignments"),
    "coloring.self_ms": ("self", "coloring"),
    "alexander.general_presentation_ms": ("ms", "alexander.general_presentation"),
    "alexander.wheel_abf_matrix_closed_ms": ("ms", "alexander.wheel_abf_matrix_closed"),
    "alexander.wheel_abf_matrix_closed_calls": ("calls", "alexander.wheel_abf_matrix_closed"),
    "alexander.wheel_abf_matrix_recursive_ms": ("ms", "alexander.wheel_abf_matrix_recursive"),
    "alexander.wheel_euclidean_reduction_ms": ("ms", "alexander.wheel_euclidean_reduction"),
    "alexander.wheel_euclidean_reduction_calls": ("calls", "alexander.wheel_euclidean_reduction"),
    "alexander.wheel_module_ms": ("ms", "alexander.wheel_module"),
    "alexander.wheel_module_calls": ("calls", "alexander.wheel_module"),
    "alexander.self_ms": ("self", "alexander"),
    "wheel.cross_verify_ms": ("ms", "wheel.cross_verify"),
    "wheel.goeritz_ms": ("ms", "wheel.goeritz_equivalence_check"),
    "wheel.self_ms": ("self", "wheel"),
    "cli.render_json_ms": ("ms", "cli.render_json"),
    "cli.self_ms": ("self", "cli"),
    **{f"cli.{c}_p50_ms": ("p50", c) for c in SUBCOMMANDS},
    "trace.overhead_ms": ("overhead", ""),
}
PER_LAYER_UNITS = {name: "count" if what in ("calls", "count") else "ms" for name, (what, _) in PER_LAYER.items()}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def worker_env() -> dict:
    env = dict(os.environ)
    # Let the worker cache foxabf's bytecode inside the tree, as an
    # installed package has it, so setup_s is import time, not compile time.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_request(request: dict, trace: bool, env: dict, timeout: float = RUN_LIMIT_S) -> dict:
    """Run one request in a fresh interpreter; the result of worker.py,
    or {"error": ...} when the worker itself did not finish."""
    payload = json.dumps({"src": str(SRC), "argv": request["argv"], "trace": trace})
    try:
        proc = subprocess.run(
            # -S: site-packages play no part in foxabf; skipping them keeps
            # interpreter start short and out of the worker's peak RSS.
            [sys.executable, "-S", str(HERE / "worker.py")],
            input=payload,
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.splitlines()[-1])


class Run:
    """Counts and correctness of one benchmark run."""

    def __init__(self, check_rng: random.Random) -> None:
        self.check_rng = check_rng
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def out_of_time(self) -> bool:
        return time.perf_counter() > self.deadline

    def execute(self, request: dict, trace: bool, env: dict, check: bool = True) -> dict | None:
        """Run a request; None if it failed (no result, or a nonzero exit)."""
        self.attempted += 1
        result = run_request(request, trace, env, max(1.0, self.deadline - time.perf_counter()))
        if result.get("error") or result.get("rc") != 0:
            self.failed += 1
            log(f"FAILED {request['argv'][:3]}: rc={result.get('rc')} {result.get('error') or result.get('stderr')}")
            return None
        if check:
            try:
                checks.check(request, result["rc"], result["stdout"], self.check_rng)
            except checks.Mismatch as exc:
                self.correct = False
                log(f"WRONG {' '.join(request['argv'])[:200]}: {exc}")
        return result


def tail_percentile(round_size: int) -> int:
    """The highest whole percentile with at least ten of the latencies of
    MIN_ROUNDS rounds beyond it: 83 for 20 requests a round, 89 for 32.
    It depends only on the workload, so every run reports the same one."""
    return int(100 * (1 - 10 / (MIN_ROUNDS * round_size)))


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(workload, seconds: float, rng: random.Random, run: Run, env: dict) -> dict:
    start = time.perf_counter()
    round_times: list[float] = []
    results = []
    while True:
        round_start = time.perf_counter()
        requests = workload(rng)
        for request in requests:
            if run.out_of_time():
                log("run limit reached; round cut short")
                break
            result = run.execute(request, trace=False, env=env)
            if result is not None:
                results.append(result)
        round_times.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if run.out_of_time() or (
            len(round_times) >= MIN_ROUNDS and elapsed + statistics.mean(round_times) > seconds
        ):
            break
    latencies = [r["latency_s"] for r in results]
    log(f"{len(round_times)} rounds, {len(latencies)} requests in {elapsed:.1f} s")
    if not latencies:
        return {}
    raw = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "requests_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": percentile(latencies, tail_percentile(len(requests))) * 1e3,
        "peak_rss_mb": max(r["maxrss_kb"] for r in results) / 1024,
    }
    reference = statistics.median(r["reference_s"] for r in results)
    scale = REFERENCE_S / reference
    log(f"reference task {reference * 1e3:.2f} ms; raw: " + json.dumps(raw))
    return {
        "setup_s": raw["setup_s"] * scale,
        "requests_per_s": raw["requests_per_s"] / scale,
        "latency_p50_ms": raw["latency_p50_ms"] * scale,
        "latency_tail_ms": raw["latency_tail_ms"] * scale,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def trace(workload, rng: random.Random, run: Run, env: dict) -> dict:
    """Per-layer metrics over one round, traced and untraced in turn."""
    calls: dict[str, int] = {}
    incl_ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    counters: dict[str, int] = {}
    by_command: dict[str, list[float]] = {c: [] for c in SUBCOMMANDS}
    untraced_total = traced_total = 0.0
    for request in workload(rng):
        if run.out_of_time():
            log("run limit reached; traced round cut short")
            break
        plain = run.execute(request, trace=False, env=env)
        traced = run.execute(request, trace=True, env=env, check=False)
        if plain is None or traced is None:
            continue
        if traced["stdout"] != plain["stdout"]:
            run.correct = False
            log(f"WRONG traced output differs: {' '.join(request['argv'])[:200]}")
        by_command[request["command"]].append(plain["latency_s"] * 1e3)
        untraced_total += plain["latency_s"] * 1e3
        traced_total += traced["latency_s"] * 1e3
        report = traced["trace"]
        for key, n in report["calls"].items():
            calls[key] = calls.get(key, 0) + n
        for key, ms in report["incl_ms"].items():
            incl_ms[key] = incl_ms.get(key, 0.0) + ms
        for layer, ms in report["self_ms"].items():
            self_ms[layer] = self_ms.get(layer, 0.0) + ms
        for key, n in report["counters"].items():
            counters[key] = counters.get(key, 0) + n

    metrics = {}
    absent = []
    for name, (what, key) in PER_LAYER.items():
        if what in ("ms", "calls") and key not in calls:
            absent.append(name)  # the function no longer exists
        if what == "ms":
            value = incl_ms.get(key, 0.0)
        elif what == "calls":
            value = calls.get(key, 0)
        elif what == "self":
            value = self_ms.get(key, 0.0)
        elif what == "count":
            value = counters.get(key, 0)
        elif what == "p50":
            value = statistics.median(by_command[key]) if by_command[key] else 0.0
        else:
            value = traced_total - untraced_total
        metrics[name] = value
    if absent:
        log("absent (not found in foxabf, reported as 0): " + ", ".join(absent))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "foxabf" / "cli.py").is_file():
        log(f"no foxabf source tree at {SRC}; run from the root of a foxabf checkout")
        return 2
    workload = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    run = Run(random.Random(f"checks:{args.workload}:{args.seed}"))
    env = worker_env()
    if args.trace:
        values, units = trace(workload, rng, run, env), PER_LAYER_UNITS
    else:
        values, units = measure(workload, args.seconds, rng, run, env), END_TO_END
    if not values:
        log("no request completed")
        return 1
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
