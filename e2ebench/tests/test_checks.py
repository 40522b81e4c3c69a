"""The benchmark's checkers accept correct results and reject wrong ones.

    PYTHONPATH=src python3 -m pytest -q e2ebench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
from repro.core.datanet import DataNet
from repro.core.scheduler import Assignment
from repro.hdfs.cluster import HDFSCluster
from repro.mapreduce.apps import word_count_job
from repro.mapreduce.engine import MapReduceEngine
from repro.sim import DiscreteEventSimulator, SimTask, build_job_graph
from repro.workloads.movielens import MovieLensGenerator

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def job_run():
    """One real selection + analysis + simulation over a small dataset."""
    records = MovieLensGenerator(
        num_movies=20, total_reviews=2_000, rng=np.random.default_rng(3)
    ).generate()
    cluster = HDFSCluster(num_nodes=6, block_size=8 * 1024, rng=np.random.default_rng(4))
    dataset = cluster.write_dataset("d", records)
    datanet = DataNet.build(dataset)
    sid = records[0].sub_id
    job = word_count_job(num_reducers=2)
    assignment = datanet.schedule(sid)
    engine = MapReduceEngine(cluster)
    selection = engine.run_selection(dataset, sid, assignment, job.profile)
    result = engine.run_analysis(job, selection.local_data, start_time=selection.makespan)
    tasks = build_job_graph(engine.cost, dataset, sid, job, assignment)
    sim = DiscreteEventSimulator().run(tasks)
    mine = [r for r in records if r.sub_id == sid]
    return dict(records=records, dataset=dataset, datanet=datanet, sid=sid, job=job,
                assignment=assignment, selection=selection, result=result,
                tasks=tasks, sim=sim, mine=mine)


def test_correct_results_pass(job_run):
    r = job_run
    stored = [rec for block in r["dataset"].blocks() for rec in block.records()]
    checks.check_records_in_order(stored, r["records"], "read-back")
    checks.check_selected_records(
        r["selection"].local_data, checks.fingerprint(r["mine"]), "selection"
    )
    checks.check_output(r["result"].output, checks.serial_output(r["job"], r["mine"]), "output")
    checks.check_assignment(r["assignment"], r["datanet"].blocks_containing(r["sid"]), "schedule")
    checks.check_timeline(r["tasks"], r["sim"].timeline, 1, "timeline")


def test_rejects_dropped_record(job_run):
    r = job_run
    stored = [rec for block in r["dataset"].blocks() for rec in block.records()]
    with pytest.raises(checks.CheckFailed, match="read back"):
        checks.check_records_in_order(stored[:10] + stored[11:], r["records"], "read-back")
    # streamed, with the last record dropped or one extra record at the end
    with pytest.raises(checks.CheckFailed, match=f"read back {len(stored) - 1} records"):
        checks.check_records_in_order(iter(stored[:-1]), r["records"], "read-back")
    with pytest.raises(checks.CheckFailed, match=f"read back {len(stored) + 1} records"):
        checks.check_records_in_order(iter(stored + stored[:1]), r["records"], "read-back")
    selected = {n: list(v) for n, v in r["selection"].local_data.items()}
    node = next(n for n, v in selected.items() if v)
    selected[node].pop()
    with pytest.raises(checks.CheckFailed, match="lost 1"):
        checks.check_selected_records(selected, checks.fingerprint(r["mine"]), "selection")


def test_rejects_changed_reducer_value(job_run):
    r = job_run
    output = dict(r["result"].output)
    key = next(iter(output))
    output[key] = output[key] + 1
    with pytest.raises(checks.CheckFailed, match="changed"):
        checks.check_output(output, checks.serial_output(r["job"], r["mine"]), "output")


def test_rejects_block_scheduled_twice(job_run):
    r = job_run
    by_node = {n: list(b) for n, b in r["assignment"].blocks_by_node.items()}
    nodes = [n for n, b in by_node.items() if b]
    other = next(n for n in by_node if n != nodes[0])
    by_node[other].append(by_node[nodes[0]][0])
    twice = Assignment(blocks_by_node=by_node, workload_by_node={n: 0 for n in by_node})
    with pytest.raises(checks.CheckFailed, match="more than once"):
        checks.check_assignment(twice, r["datanet"].blocks_containing(r["sid"]), "schedule")


def test_rejects_task_started_before_its_dependency(job_run):
    r = job_run
    intervals = dict(r["sim"].timeline.intervals)
    task = next(t for t in r["tasks"] if t.deps)
    start = max(intervals[d][1] for d in task.deps) - 1e-3
    intervals[task.task_id] = (start, start + task.duration)
    timeline = dataclasses.replace(r["sim"].timeline, intervals=intervals)
    with pytest.raises(checks.CheckFailed, match="before its dependency"):
        checks.check_timeline(r["tasks"], timeline, slots_per_node=99, what="timeline")


def test_rejects_slot_overcommit():
    tasks = [SimTask("a", node=0, duration=2.0), SimTask("b", node=0, duration=2.0)]
    timeline = DiscreteEventSimulator(slots_per_node=2).run(tasks).timeline
    checks.check_timeline(tasks, timeline, 2, "two slots")
    with pytest.raises(checks.CheckFailed, match="on 1 slots"):
        checks.check_timeline(tasks, timeline, 1, "one slot")


def test_rejects_faulted_session_with_other_digests():
    healthy = {"results digest": "aa", "metadata digest": "bb", "layout digest": "cc"}
    checks.check_twin(dict(healthy), healthy, "session")
    with pytest.raises(checks.CheckFailed, match="results digest"):
        checks.check_twin(dict(healthy, **{"results digest": "ab"}), healthy, "session")


def _worker(workload: str, *extra: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--tiny", *extra],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300, check=True,
    )
    last = done.stdout.strip().splitlines()[-1]
    assert last.startswith("@@RESULT "), done.stdout
    return json.loads(last[len("@@RESULT "):])


@pytest.mark.parametrize(
    "workload", ["ingest-lookup", "analyze", "serve-session", "chaos-recovery"]
)
def test_tiny_smoke_run(workload, tmp_path):
    report = _worker(workload)
    assert report["correct"], report
    assert report["attempted"] >= 1
    if workload == "serve-session":
        # one session in four is the straddle session, which the program
        # gets wrong on every run (see checks.StaleReplayDigest)
        assert report["failures"] == {"StaleReplayDigest": report["attempted"] // 4}
        assert report["attempted"] % 4 == 0
    else:
        assert report["failed"] == 0
    assert set(report["metrics"]) == {"ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}
    traced = _worker(workload, "--trace", "1", "--out", str(tmp_path))
    assert traced["correct"]
    from layers import PER_LAYER_UNITS

    assert set(traced["layers"]) == set(PER_LAYER_UNITS)
    assert any(tmp_path.glob("*-spans.jsonl"))


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_rejects_lookup_that_misses_a_block(job_run):
    r = job_run
    truth = r["datanet"].blocks_containing(r["sid"])
    checks.check_covers(truth + [10_000], truth, "lookup")
    with pytest.raises(checks.CheckFailed, match="misses blocks"):
        checks.check_covers(truth[1:], truth, "lookup")
