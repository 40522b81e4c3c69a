"""Wall-clock spans around each layer's public calls, for the traced run.

:func:`install` wraps the layer-boundary methods listed in
:data:`LAYER_METHODS` with a recorder that keeps one span per call —
name, layer, start, end and the span that caused it — in memory.  Calls
made from inside another wrapped call become its children, so a layer's
self time is its spans' time minus the time their child spans cover.
Nothing under ``src/`` changes: the wrappers are set on the classes from
this file, and only in the traced run's process.

:func:`layer_metrics` turns the spans (plus a few counts observed on the
calls' arguments and results) into the per-layer metrics the benchmark
reports; :func:`self_time_table` is the per-layer summary printed after
a traced run.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.coding.rs import RSCodec
from repro.core.datanet import DataNet
from repro.faults.runner import ChaosRunner
from repro.hdfs.cluster import DatasetView, HDFSCluster
from repro.hdfs.failure import FailureManager
from repro.hdfs.scrubber import Scrubber
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.scheduler import LocalityScheduler
from repro.replication import LeaderElector, ReplicatedJournal
from repro.serve.service import AnalysisService
from repro.sim.adapter import JobGraphBuilder
from repro.sim.simulator import DiscreteEventSimulator
from repro.workloads.movielens import MovieLensGenerator

__all__ = [
    "LAYER_METHODS",
    "PER_LAYER_UNITS",
    "SpanRecorder",
    "install",
    "layer_metrics",
    "self_time_table",
]

#: layer (module name) -> class -> public methods wrapped with spans
LAYER_METHODS: Dict[str, Dict[type, Tuple[str, ...]]] = {
    "workloads": {MovieLensGenerator: ("generate",)},
    "hdfs": {
        HDFSCluster: ("write_dataset", "append_records"),
        DatasetView: (
            "subdataset_ids",
            "subdataset_sizes",
            "subdataset_bytes_per_block",
            "subdataset_total_bytes",
            "records_of",
        ),
        FailureManager: ("fail_node",),
        Scrubber: ("scrub",),
    },
    "core": {
        DataNet: (
            "build",
            "extend",
            "validate_integrity",
            "distribution",
            "blocks_containing",
            "estimate_total_size",
            "bipartite_graph",
            "schedule",
            "gray_schedule",
            "refresh_placement",
        ),
    },
    "replication": {
        ReplicatedJournal: (
            "append_block",
            "append_array",
            "fence",
            "recover",
            "restore_replica",
            "heal",
        ),
        LeaderElector: ("elect",),
    },
    "mapreduce": {
        MapReduceEngine: (
            "run_selection",
            "run_analysis",
            "run_job",
        ),
        LocalityScheduler: ("schedule",),
    },
    "sim": {
        JobGraphBuilder: ("add_selection", "add_analysis"),
        DiscreteEventSimulator: ("run",),
    },
    "serve": {AnalysisService: ("run",)},
    "faults": {ChaosRunner: ("run",)},
    "coding": {RSCodec: ("reconstruct",)},
}

#: per-layer metric -> (unit, better)
PER_LAYER_UNITS: Dict[str, Tuple[str, str]] = {
    "workloads.generate_s": ("s", "lower"),
    "hdfs.write_s": ("s", "lower"),
    "hdfs.sizing_s": ("s", "lower"),
    "hdfs.append_ms": ("ms", "lower"),
    "core.build_s": ("s", "lower"),
    "core.extend_ms": ("ms", "lower"),
    "core.lookup_ms": ("ms", "lower"),
    "core.schedule_ms": ("ms", "lower"),
    "core.validate_ms": ("ms", "lower"),
    "core.metadata_bytes_per_mb": ("B/MB", "lower"),
    "replication.append_ms": ("ms", "lower"),
    "replication.journal_bytes_per_mb": ("B/MB", "lower"),
    "replication.recover_ms": ("ms", "lower"),
    "replication.elect_ms": ("ms", "lower"),
    "mapreduce.selection_ms": ("ms", "lower"),
    "mapreduce.analysis_ms": ("ms", "lower"),
    "mapreduce.records_per_s": ("1/s", "higher"),
    "mapreduce.run_job_ms": ("ms", "lower"),
    "sim.graph_ms": ("ms", "lower"),
    "sim.run_ms": ("ms", "lower"),
    "sim.tasks_per_s": ("1/s", "higher"),
    "serve.self_ms": ("ms", "lower"),
    "serve.jobs_per_s": ("1/s", "higher"),
    "faults.self_ms": ("ms", "lower"),
    "faults.useful_attempt_ratio": ("ratio", "higher"),
    "faults.rereplicated_bytes": ("B", "lower"),
    "coding.reconstruct_ms": ("ms", "lower"),
    "coding.decoded_bytes": ("B", "lower"),
}


def _records_in(args: tuple, kwargs: dict) -> int:
    local_data = kwargs.get("local_data", args[2] if len(args) > 2 else {})
    return sum(len(records) for records in local_data.values())


def _chaos_counts(result) -> Dict[str, float]:
    hist = result.attempts_histogram
    return {
        "tasks": sum(hist.values()),
        "attempts": sum(k * n for k, n in hist.items()),
        "rereplicated": result.re_replicated_bytes,
        "decoded": result.decode_bytes,
    }


#: span name -> fn(args, kwargs, result) -> counts kept on the span
_OBSERVERS: Dict[str, Callable[[tuple, dict, Any], Dict[str, float]]] = {
    "MapReduceEngine.run_analysis": lambda a, k, r: {"records": _records_in(a, k)},
    "DiscreteEventSimulator.run": lambda a, k, r: {"tasks": len(r.timeline.intervals)},
    "AnalysisService.run": lambda a, k, r: {"completed": r.completed},
    "ChaosRunner.run": lambda a, k, r: _chaos_counts(r),
}


class SpanRecorder:
    """In-memory span store; spans are ``[name, layer, start, end, parent, counts]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._paused = 0
        #: last metadata instance and the dataset it indexes
        self.datanet: Optional[Tuple[DataNet, Any]] = None
        #: last replicated journal appended to
        self.journal: Optional[ReplicatedJournal] = None

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """Record a span around a block of the benchmark's own code."""
        if self._paused:
            yield
            return
        index = self._open(name, layer)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside (checks and untimed per-operation set-up)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        observe = _OBSERVERS.get(name)
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if recorder._paused:
                return fn(*args, **kwargs)
            index = recorder._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(index)
            if observe is not None:
                recorder.spans[index][5] = observe(args, kwargs, result)
            if name == "DataNet.build":
                recorder.datanet = (result, args[1] if len(args) > 1 else kwargs["dataset"])
            elif name == "DataNet.extend":
                recorder.datanet = (args[0], args[1] if len(args) > 1 else kwargs["dataset"])
            elif name == "ReplicatedJournal.append_block":
                recorder.journal = args[0]
            return result

        return traced

    def write_jsonl(self, path) -> int:
        """Write every span as one JSON object per line; returns the count."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, counts in self.spans:
                row = {"name": name, "layer": layer, "start": start, "end": end,
                       "parent": parent}
                if counts:
                    row["counts"] = counts
                fh.write(json.dumps(row) + "\n")
        return len(self.spans)


def install(recorder: SpanRecorder) -> None:
    """Wrap every method in :data:`LAYER_METHODS` for the rest of the process."""
    for layer, classes in LAYER_METHODS.items():
        for cls, methods in classes.items():
            for method in methods:
                raw = inspect.getattr_static(cls, method)
                name = f"{cls.__name__}.{method}"
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(recorder.wrap(layer, name, raw.__func__))
                else:
                    wrapped = recorder.wrap(layer, name, raw)
                setattr(cls, method, wrapped)


def _durations(spans: List[list]) -> List[float]:
    return [s[3] - s[2] for s in spans]


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """Every per-layer metric of :data:`PER_LAYER_UNITS` from the spans.

    A layer the workload never calls reads 0.
    """
    spans = recorder.spans
    own = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def picked(*names: str) -> List[list]:
        """Spans of these names not nested inside another of them."""
        out = []
        for i in sorted(i for n in names for i in by_name.get(n, ())):
            parent = spans[i][4]
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][4]
            if parent < 0:
                out.append(spans[i])
        return out

    def total_s(*names: str) -> float:
        return sum(_durations(picked(*names)), 0.0)

    def mean_ms(*names: str) -> float:
        d = _durations(picked(*names))
        return 1e3 * sum(d) / len(d) if d else 0.0

    def count(name: str, key: str) -> float:
        return sum((s[5] or {}).get(key, 0) for s in picked(name))

    def per_second(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    def self_ms(name: str) -> float:
        idx = by_name.get(name, [])
        return 1e3 * sum(own[i] for i in idx) / len(idx) if idx else 0.0

    def per_mb(nbytes: float) -> float:
        if recorder.datanet is None:
            return 0.0
        data_mb = recorder.datanet[1].total_bytes / 1e6
        return nbytes / data_mb if data_mb > 0 else 0.0

    graph_jobs = len(by_name.get("JobGraphBuilder.add_analysis", ()))
    chaos_runs = len(by_name.get("ChaosRunner.run", ()))
    attempts = count("ChaosRunner.run", "attempts")
    journal_bytes = (
        sum(len(r.to_bytes()) for r in recorder.journal.replicas.values())
        if recorder.journal is not None
        else 0
    )
    return {
        "workloads.generate_s": total_s("MovieLensGenerator.generate"),
        "hdfs.write_s": total_s("HDFSCluster.write_dataset"),
        "hdfs.sizing_s": total_s(
            "DatasetView.subdataset_ids",
            "DatasetView.subdataset_sizes",
            "DatasetView.subdataset_bytes_per_block",
            "DatasetView.subdataset_total_bytes",
        ),
        "hdfs.append_ms": mean_ms("HDFSCluster.append_records"),
        "core.build_s": total_s("DataNet.build"),
        "core.extend_ms": mean_ms("DataNet.extend"),
        "core.lookup_ms": mean_ms(
            "DataNet.estimate_total_size",
            "DataNet.blocks_containing",
            "DataNet.distribution",
        ),
        "core.schedule_ms": mean_ms("DataNet.schedule", "DataNet.gray_schedule"),
        "core.validate_ms": mean_ms("DataNet.validate_integrity"),
        "core.metadata_bytes_per_mb": (
            per_mb(recorder.datanet[0].memory_bytes()) if recorder.datanet else 0.0
        ),
        "replication.append_ms": mean_ms("ReplicatedJournal.append_block"),
        "replication.journal_bytes_per_mb": per_mb(journal_bytes),
        "replication.recover_ms": mean_ms("ReplicatedJournal.recover"),
        "replication.elect_ms": mean_ms("LeaderElector.elect"),
        "mapreduce.selection_ms": mean_ms("MapReduceEngine.run_selection"),
        "mapreduce.analysis_ms": mean_ms("MapReduceEngine.run_analysis"),
        "mapreduce.records_per_s": per_second(
            count("MapReduceEngine.run_analysis", "records"),
            total_s("MapReduceEngine.run_selection", "MapReduceEngine.run_analysis"),
        ),
        "mapreduce.run_job_ms": mean_ms("MapReduceEngine.run_job"),
        "sim.graph_ms": (
            1e3 * total_s("JobGraphBuilder.add_selection", "JobGraphBuilder.add_analysis")
            / graph_jobs
            if graph_jobs
            else 0.0
        ),
        "sim.run_ms": mean_ms("DiscreteEventSimulator.run"),
        "sim.tasks_per_s": per_second(
            count("DiscreteEventSimulator.run", "tasks"),
            total_s("DiscreteEventSimulator.run"),
        ),
        "serve.self_ms": self_ms("AnalysisService.run"),
        "serve.jobs_per_s": per_second(
            count("AnalysisService.run", "completed"), total_s("AnalysisService.run")
        ),
        "faults.self_ms": self_ms("ChaosRunner.run"),
        "faults.useful_attempt_ratio": (
            count("ChaosRunner.run", "tasks") / attempts if attempts else 0.0
        ),
        "faults.rereplicated_bytes": (
            count("ChaosRunner.run", "rereplicated") / chaos_runs if chaos_runs else 0.0
        ),
        "coding.reconstruct_ms": mean_ms("RSCodec.reconstruct"),
        "coding.decoded_bytes": (
            count("ChaosRunner.run", "decoded") / chaos_runs if chaos_runs else 0.0
        ),
    }


def self_time_table(recorder: SpanRecorder, wall_s: float) -> str:
    """Per-layer self time, span count and call rate, largest first."""
    own = self_times(recorder.spans)
    rows: Dict[str, List[float]] = {}
    for s, t in zip(recorder.spans, own):
        row = rows.setdefault(s[1], [0.0, 0])
        row[0] += t
        row[1] += 1
    total = sum(r[0] for r in rows.values()) or 1.0
    lines = [f"{'layer':<12} {'self_s':>9} {'share':>7} {'spans':>8} {'spans/s':>10}"]
    for layer, (self_s, n) in sorted(rows.items(), key=lambda kv: -kv[1][0]):
        rate = n / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"{layer:<12} {self_s:>9.3f} {self_s / total:>7.1%} {n:>8d} {rate:>10.1f}"
        )
    return "\n".join(lines)
