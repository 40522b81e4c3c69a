"""Correctness checks for the end-to-end benchmark.

Every check compares what the program did against a computation made
apart from it (the generator's own records, a serial map → group →
reduce) or against a property the method must have (each block task
assigned once, dependencies respected, digests equal to a fault-free
twin).  None compares against a saved copy of earlier output.

A failed check raises :class:`CheckFailed`; the benchmark counts it and
reports ``"correct": false``.  The one exception is :class:`ProgramFault`:
a wrong result that a known fault of the program produces on every run,
which counts its operation as failed instead.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Mapping, Sequence

__all__ = [
    "CheckFailed",
    "ProgramFault",
    "StaleReplayDigest",
    "SerialReference",
    "fingerprint",
    "serial_output",
    "check_output",
    "check_records_in_order",
    "check_selected_records",
    "check_assignment",
    "check_covers",
    "check_timeline",
    "check_session",
    "check_twin",
]


class CheckFailed(AssertionError):
    """The program produced a wrong result."""


class ProgramFault(Exception):
    """A wrong result from a known fault of the program.

    Raised only by operations whose inputs do not depend on the seed, so
    the fault strikes on every run; the benchmark counts the operation as
    failed, under the subclass's name, rather than the run as incorrect.
    """


class StaleReplayDigest(ProgramFault):
    """A job parked by a leader crash was replayed over a dataset that grew
    after its first dispatch, so the session's results digest differs from
    its fault-free twin."""


def serial_output(job, records: Iterable) -> Dict[Any, Any]:
    """A job's answer computed serially: map every record, group, reduce.

    No blocks, placement, scheduling, combiner or partitioning are
    involved — only the job's own mapper and reducer over the records in
    stream order.
    """
    groups: Dict[Any, List[Any]] = {}
    for record in records:
        for key, value in job.mapper(record):
            groups.setdefault(key, []).append(value)
    output: Dict[Any, Any] = {}
    for key, values in groups.items():
        for out_key, out_value in job.reducer(key, values):
            output[out_key] = out_value
    return output


class SerialReference:
    """The generator's own records grouped by sub-dataset, and serial job
    outputs over them, each computed once."""

    def __init__(self, records: Iterable) -> None:
        self.records_of: Dict[str, List[Any]] = {}
        for record in records:
            self.records_of.setdefault(record.sub_id, []).append(record)
        self._outputs: Dict[tuple, Dict[Any, Any]] = {}

    def output(self, sub_id: str, app: str, job) -> Dict[Any, Any]:
        key = (sub_id, app)
        if key not in self._outputs:
            self._outputs[key] = serial_output(job, self.records_of.get(sub_id, []))
        return self._outputs[key]


def check_output(actual: Mapping, expected: Mapping, what: str) -> None:
    """Engine output must equal the serial reference key for key."""
    if actual == expected:
        return
    missing = [k for k in expected if k not in actual]
    extra = [k for k in actual if k not in expected]
    changed = [k for k in expected if k in actual and actual[k] != expected[k]]
    raise CheckFailed(
        f"{what}: output differs from the serial reference "
        f"(missing {missing[:3]}, extra {extra[:3]}, changed {changed[:3]})"
    )


def check_records_in_order(stored: Iterable, expected: Sequence, what: str) -> None:
    """Records read back must equal the generated stream, in order.

    ``stored`` is consumed as a stream, so a whole dataset can be checked
    without holding its read-back copy.
    """
    stored = iter(stored)
    count = 0
    # expected first: zip stops on it without drawing one more from stored
    for want, got in zip(expected, stored):
        if got != want:
            raise CheckFailed(
                f"{what}: record {count} read back as {got!r}, wrote {want!r}"
            )
        count += 1
    count += sum(1 for _ in stored)
    if count != len(expected):
        raise CheckFailed(f"{what}: read back {count} records, wrote {len(expected)}")


def fingerprint(records: Iterable) -> List[int]:
    """A multiset of records as their sorted hashes: compact enough to hand
    across processes, equal for equal multisets (``PYTHONHASHSEED`` must be
    the same on both sides)."""
    return sorted(hash(r) for r in records)


def check_selected_records(
    selected: Mapping[Any, Sequence], expected: Sequence[int], what: str
) -> None:
    """The selection must hold exactly the sub-dataset's records, given as
    their :func:`fingerprint`."""
    got = fingerprint(r for records in selected.values() for r in records)
    if got != expected:
        have, want = Counter(got), Counter(expected)
        lost = sum((want - have).values())
        added = sum((have - want).values())
        raise CheckFailed(
            f"{what}: selection lost {lost} and added {added} records "
            f"of {len(expected)}"
        )


def check_assignment(assignment, candidates: Iterable[int], what: str) -> None:
    """Every candidate block is assigned exactly once, and nothing else."""
    counts = Counter(
        b for blocks in assignment.blocks_by_node.values() for b in blocks
    )
    twice = sorted(b for b, n in counts.items() if n > 1)
    if twice:
        raise CheckFailed(f"{what}: blocks {twice[:5]} scheduled more than once")
    wanted = set(candidates)
    missing = sorted(wanted - counts.keys())
    extra = sorted(counts.keys() - wanted)
    if missing or extra:
        raise CheckFailed(
            f"{what}: schedule misses blocks {missing[:5]} and adds {extra[:5]}"
        )


def check_covers(reported: Iterable[int], truth: Iterable[int], what: str) -> None:
    """A metadata answer may over-report (Bloom false positives), never miss."""
    missed = sorted(set(truth) - set(reported))
    if missed:
        raise CheckFailed(f"{what}: misses blocks {missed[:5]} that hold the id")


def check_timeline(tasks: Sequence, timeline, slots_per_node: int, what: str) -> None:
    """A simulated run executes each task once, after its dependencies and
    release time, for its duration, and never over a node's slot count."""
    intervals = timeline.intervals
    ids = [t.task_id for t in tasks]
    if len(set(ids)) != len(ids):
        raise CheckFailed(f"{what}: duplicate task ids in the graph")
    if set(intervals) != set(ids):
        missing = sorted(set(ids) - set(intervals))
        extra = sorted(set(intervals) - set(ids))
        raise CheckFailed(
            f"{what}: timeline misses tasks {missing[:3]} and adds {extra[:3]}"
        )
    eps = 1e-9
    per_node: Dict[Any, List[tuple]] = {}
    for task in tasks:
        start, end = intervals[task.task_id]
        if start + eps < task.release_time:
            raise CheckFailed(f"{what}: {task.task_id} started before its release")
        if abs((end - start) - task.duration) > eps * max(1.0, task.duration):
            raise CheckFailed(f"{what}: {task.task_id} ran for the wrong duration")
        for dep in task.deps:
            if start + eps < intervals[dep][1]:
                raise CheckFailed(
                    f"{what}: {task.task_id} started at {start} before its "
                    f"dependency {dep} ended at {intervals[dep][1]}"
                )
        per_node.setdefault(task.node, []).extend(((start, 1), (end, -1)))
    for node, events in per_node.items():
        busy = 0
        # at equal times a finishing task frees its slot before the next starts
        for _time, delta in sorted(events, key=lambda e: (e[0], e[1])):
            busy += delta
            if busy > slots_per_node:
                raise CheckFailed(
                    f"{what}: node {node} ran {busy} tasks on {slots_per_node} slots"
                )


def check_session(summary, submitted: int, what: str) -> None:
    """Every submitted job completes and none is silently dropped."""
    if summary.submitted != submitted:
        raise CheckFailed(f"{what}: {summary.submitted} of {submitted} jobs submitted")
    if summary.silent_drops != 0:
        raise CheckFailed(f"{what}: {summary.silent_drops} jobs silently dropped")
    if summary.completed != submitted:
        raise CheckFailed(
            f"{what}: {summary.completed} of {submitted} jobs completed "
            f"(rejected {dict(summary.rejected)}, "
            f"cancelled {summary.cancelled_deadline + summary.cancelled_timeout})"
        )


def check_twin(faulted: Mapping[str, str], healthy: Mapping[str, str], what: str) -> None:
    """A faulted session's digests must equal its fault-free twin's."""
    differ = sorted(k for k in healthy if faulted.get(k) != healthy[k])
    if differ:
        raise CheckFailed(f"{what}: {', '.join(differ)} differ from the fault-free twin")
