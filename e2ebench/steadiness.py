"""Run-to-run steadiness of the end-to-end metrics.

Runs every workload ``--runs`` times, each time with another seed,
alternating the workload order between rounds, and prints for every
(workload, end-to-end metric) pair the median, the quartiles, the
quartile spread (Q3 - Q1) / median and the range (max - min) / median,
plus each workload's failed share.  The bounds in ``BENCHMARK.json`` are
set from this output.  With ``--overhead`` it also makes one traced run
per workload and prints traced minus untraced ``op_p50_ms``.

    python3 e2ebench/steadiness.py --runs 10 --seconds 15
    python3 e2ebench/steadiness.py --runs 5 --workloads analyze
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, seconds: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )


def spread(values: List[float]) -> Dict[str, float]:
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med if med else 0.0,
        "range_share": (max(values) - min(values)) / med if med else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--overhead", action="store_true",
                        help="also measure tracing overhead on op_p50_ms")
    args = parser.parse_args(argv)
    names = [w for w in args.workloads.split(",") if w]

    results: Dict[str, List[dict]] = {w: [] for w in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else names[::-1]
        for workload in order:
            seed = args.first_seed + i
            done = _run(workload, seed, args.seconds, 0)
            report = json.loads(done.stdout.strip().splitlines()[-1])
            results[workload].append(report)
            print(f"run {i + 1}/{args.runs} {workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in report["metrics"].items()),
                  flush=True)

    print()
    print(f"{'workload':<15} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'iqr/med':>8} {'range/med':>9}")
    for workload in names:
        reports = results[workload]
        for metric in END_TO_END_UNITS:
            s = spread([r["metrics"][metric]["value"] for r in reports])
            print(f"{workload:<15} {metric:<12} {s['median']:>10.4g} {s['q1']:>10.4g} "
                  f"{s['q3']:>10.4g} {s['iqr_share']:>8.2%} {s['range_share']:>9.2%}")
        shares = {r["failed"] / r["attempted"] for r in reports}
        print(f"{workload:<15} failed share {sorted(shares)}; correct "
              f"{all(r['correct'] for r in reports)}")

    if args.overhead:
        print()
        for workload in names:
            done = _run(workload, args.first_seed, args.seconds, 1)
            traced = float(re.search(r"traced op p50 ([0-9.]+) ms", done.stdout).group(1))
            untraced = statistics.median(
                r["metrics"]["op_p50_ms"]["value"] for r in results[workload]
            )
            print(f"{workload:<15} tracing overhead on op_p50_ms: {traced - untraced:+.2f} ms "
                  f"({(traced - untraced) / untraced:+.1%}; traced {traced:.2f} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
