"""Run one workload in this (fresh) interpreter and report on stdout.

Protocol, one line each: ``@@READY`` once set-up is done (the parent
times process start to this line as ``setup_s``), then ``@@RESULT
<json>`` at the end.  Any other line is a human-readable note the parent
passes through.  ``--setup-only`` exits right after ``@@READY``.

A workload whose checker references are large builds them in a child
process (``--reference``, which writes them pickled to stdout and does
no set-up), so that ``peak_rss_mb``, this process's peak memory, is the
program's and not the checker's.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 e2ebench/worker.py \\
        --workload analyze --seed 1 --seconds 15 --trace 0
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import pickle
import resource
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List

from repro.obs import NULL_OBS, Observability

import layers
from checks import CheckFailed, ProgramFault
from workloads import WORKLOADS

#: a run stops after this long even if it lacks samples for its tail
HARD_STOP_S = 100.0


def percentile(sorted_values: List[float], pct: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    index = max(0, math.ceil(pct * len(sorted_values)) - 1)
    return sorted_values[index]


def min_ops_for(pct: float) -> int:
    """Samples needed so at least ten lie beyond the ``pct`` percentile."""
    return math.ceil(10 / (1.0 - pct) - 1e-9)


def _note(text: str) -> None:
    print(text, flush=True)


def _reference_from_child(args) -> object:
    """Run ``--reference`` in a child process and unpickle its output."""
    if os.environ.get("PYTHONHASHSEED") is None:
        raise SystemExit("error: set PYTHONHASHSEED; references hold record hashes")
    argv = [sys.executable, __file__, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--reference"]
    done = subprocess.run(argv + (["--tiny"] if args.tiny else []),
                          stdout=subprocess.PIPE, check=True)
    return pickle.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true",
                        help="write the checker's references pickled to stdout and exit")
    parser.add_argument("--tiny", action="store_true", help="small inputs, for smoke tests")
    parser.add_argument("--out", default=".e2ebench_out", help="traced run's output directory")
    args = parser.parse_args(argv)

    if args.reference:
        workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
        pickle.dump(workload.reference(), sys.stdout.buffer)
        return 0

    recorder = layers.SpanRecorder()
    obs = Observability.create() if args.trace else NULL_OBS
    if args.trace:
        layers.install(recorder)
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny, obs=obs)

    with recorder.span("setup", "bench"):
        workload.setup()
    print("@@READY", flush=True)
    if args.setup_only:
        return 0

    with recorder.paused():
        reference = _reference_from_child(args) if workload.reference_apart else None
        workload.prepare_checks(reference)
        del reference

    latencies: List[float] = []
    failures: Counter = Counter()
    faults: Dict[str, str] = {}
    problems: List[str] = []
    need = 1 if args.tiny else min_ops_for(workload.tail_pct)
    rounds = workload.rounds()
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= args.seconds and len(latencies) >= need:
            break
        if elapsed >= HARD_STOP_S:
            _note(f"# {args.workload}: stopped at {HARD_STOP_S:.0f} s with {len(latencies)} samples")
            break
        for op in next(rounds):
            with recorder.paused():
                if op.prepare is not None:
                    op.prepare()
            t0 = time.perf_counter()
            try:
                with recorder.span("op", "bench"):
                    result = op.run()
            except Exception as exc:  # noqa: BLE001 - counted and reported by type
                failures[type(exc).__name__] += 1
                continue
            latency = time.perf_counter() - t0
            with recorder.paused():
                try:
                    op.check(result)
                except ProgramFault as exc:
                    # a known wrong result: a failed operation, not a sample
                    failures[type(exc).__name__] += 1
                    faults.setdefault(type(exc).__name__, str(exc))
                    continue
                except CheckFailed as exc:
                    problems.append(str(exc))
            latencies.append(latency)
    wall = time.perf_counter() - started

    attempted = len(latencies) + sum(failures.values())
    _note(
        f"# {args.workload}: attempted {attempted}, failed {sum(failures.values())}"
        f" {dict(failures) or ''}, wall {wall:.1f} s".rstrip()
    )
    for name, text in faults.items():
        _note(f"# failed as {name}: {text}")
    for problem in problems[:5]:
        _note(f"# check failed: {problem}")

    ordered = sorted(latencies)
    metrics: Dict[str, float] = {}
    if ordered:
        metrics = {
            "ops_per_s": len(ordered) / sum(ordered),
            "op_p50_ms": 1e3 * percentile(ordered, 0.5),
            "op_tail_ms": 1e3 * percentile(ordered, workload.tail_pct),
        }
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "samples": len(ordered),
        "tail_pct": workload.tail_pct,
        "metrics": metrics,
    }
    if args.trace:
        with recorder.paused():
            report["layers"] = layers.layer_metrics(recorder)
            out = pathlib.Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            stem = f"{args.workload}-seed{args.seed}"
            spans = recorder.write_jsonl(out / f"{stem}-spans.jsonl")
            (out / f"{stem}-counters.txt").write_text(obs.metrics.format() + "\n")
        _note(f"# {args.workload} traced: {spans} spans in {out}/{stem}-spans.jsonl")
        _note(layers.self_time_table(recorder, wall))
        _note(
            f"# traced op p50 {metrics.get('op_p50_ms', 0.0):.2f} ms, "
            f"tail p{round(100 * workload.tail_pct)} {metrics.get('op_tail_ms', 0.0):.2f} ms"
        )
    print("@@RESULT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
