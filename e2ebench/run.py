"""End-to-end benchmark of the DataNet reproduction: one command per run.

    python3 e2ebench/run.py --workload analyze --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout (``src/repro`` must exist).  Each
workload runs in fresh interpreters with ``PYTHONHASHSEED`` pinned:
``SETUP_SAMPLES[workload] - 1`` processes that only set up, then one that
sets up and measures.  ``setup_s`` is the median over all of them of the
time from process start to ready.  With ``--trace 1`` a single process runs
with wall-clock spans around each layer and the per-layer metrics are
reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2,
with no result, when the checkout lacks the program or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest-lookup", "analyze", "serve-session", "chaos-recovery")
#: set-up samples per run: more where set-up takes half a second, three
#: where a sample costs seconds (92 runs must fit in under an hour)
SETUP_SAMPLES = {
    "ingest-lookup": 3,
    "analyze": 3,
    "serve-session": 7,
    "chaos-recovery": 7,
}
#: a worker still running after this long is killed and the run fails
WORKER_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerFailed(RuntimeError):
    pass


def _spawn(argv: List[str], deadline: float) -> Tuple[float, Optional[dict]]:
    """Run one worker; returns (seconds to ``@@READY``, result or None)."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
    )
    ready: Optional[float] = None
    result: Optional[dict] = None
    try:
        for line in proc.stdout:
            if line.startswith("@@READY"):
                ready = time.perf_counter() - start
            elif line.startswith("@@RESULT "):
                result = json.loads(line[len("@@RESULT "):])
            else:
                sys.stdout.write(line)
            if time.perf_counter() > deadline:
                raise WorkerFailed("worker ran past the run's time limit")
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise WorkerFailed(f"worker {' '.join(argv)} exited with code {code}")
    return ready, result


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        from layers import PER_LAYER_UNITS  # imports the program

        _ready, result = _spawn(common + ["--trace", "1"], deadline)
        metrics = {
            name: {"value": value, "unit": PER_LAYER_UNITS[name][0]}
            for name, value in result["layers"].items()
        }
    else:
        setups = [
            _spawn(common + ["--setup-only"], deadline)[0]
            for _ in range(SETUP_SAMPLES[workload] - 1)
        ]
        ready, result = _spawn(common + ["--trace", "0"], deadline)
        setups.append(ready)
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        print(
            f"# {workload}: setup samples {', '.join(f'{s:.3f}' for s in setups)} s; "
            f"{result['samples']} op samples, tail = p{round(100 * result['tail_pct'])}"
        )
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its worker (see _spawn's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
