"""The benchmark's four workloads, driven only through public functions.

Each workload has a set-up (timed as ``setup_s``), a checker preparation
that runs after set-up and is never timed, and an endless series of
*rounds*: lists of :class:`Op` run back to back.  A run always ends on a
round boundary, so every run attempts whole rounds of the same
operations.

Datasets are fixed, calibrated inputs (the reference MovieLens-style
stream, the service drill's stream, the ``repro chaos`` defaults).  The
``--seed`` drives the operation stream over them: which ids are looked
up, which jobs run in which order, where faults strike.  Job mixes are
stratified so a round's total work is the same on every seed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.coding import CodingSpec
from repro.core.datanet import DataNet
from repro.core.elasticmap import BlockElasticMap, ElasticMapArray
from repro.core.metastore import DistributedMetaStore
from repro.experiments.config import ReferenceConfig, build_movie_environment
from repro.faults import (
    BitRot,
    ChaosRunner,
    FaultPlan,
    FlakyLink,
    JournalReplicaCrash,
    LeaderCrash,
    NetworkPartition,
    NodeCrash,
    RetryPolicy,
    ServiceCrash,
    SlowNode,
    StaleMetadata,
    TransientFaults,
)
from repro.hdfs.cluster import HDFSCluster
from repro.mapreduce.apps import (
    PAPER_APPS,
    histogram_job,
    moving_average_job,
    top_k_search_job,
    word_count_job,
)
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.scheduler import LocalityScheduler
from repro.obs import NULL_OBS, Observability
from repro.rebalance import layout_digest
from repro.replication import ReplicatedJournal
from repro.serve import (
    AnalysisService,
    AppendBatch,
    JobRequest,
    MetaOutageWindow,
    ServiceConfig,
    TenantSpec,
    array_digest,
)
from repro.sim import DiscreteEventSimulator, build_job_graph
from repro.workloads.clustering import GammaArrivalModel, zipf_weights
from repro.workloads.movielens import MovieLensGenerator

import checks

__all__ = ["Op", "Workload", "WORKLOADS", "app_job"]

KiB = 1024
QUERY = ReferenceConfig().topk_query


@dataclass
class Op:
    """One timed operation: untimed ``prepare``, timed ``run``, untimed ``check``."""

    run: Callable[[], Any]
    check: Callable[[Any], None]
    prepare: Optional[Callable[[], None]] = None


class Workload:
    """Base class: a name, the percentile behind ``op_tail_ms``, and hooks."""

    name = ""
    #: the percentile reported as ``op_tail_ms`` (README names it)
    tail_pct = 0.9

    def __init__(self, seed: int, *, tiny: bool = False, obs: Observability = NULL_OBS):
        self.seed = seed
        self.tiny = tiny
        self.obs = obs
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        """Program set-up up to the first timed operation."""

    #: build :meth:`reference` in a child process (see ``worker.py``)
    reference_apart = False

    def reference(self) -> Any:
        """Checker references too large to build in the measuring process,
        whose peak memory is ``peak_rss_mb``.  Runs in a child process,
        without :meth:`setup`; the result is pickled to the parent."""
        return None

    def prepare_checks(self, reference: Any = None) -> None:
        """Build the checker's independent references (never timed)."""

    def rounds(self) -> Iterator[List[Op]]:
        raise NotImplementedError


def app_job(app: str):
    """One of the paper's four applications, at its paper settings."""
    if app == "moving_average":
        return moving_average_job(window_days=7.0, num_reducers=4)
    if app == "word_count":
        return word_count_job(num_reducers=4)
    if app == "histogram":
        return histogram_job(num_reducers=4)
    return top_k_search_job(QUERY, k=10)


def _ranked(records) -> List[str]:
    """Sub-dataset ids by record count, most first (ties by id)."""
    counts = Counter(r.sub_id for r in records)
    return sorted(counts, key=lambda s: (-counts[s], s))


def _stratified_ranks(n_items: int, zipf_s: float, strata: int) -> List[int]:
    """Zipf-drawn ranks at the midpoints of ``strata`` equal-probability strata.

    A seeded draw per job would change a round's mix of big and small
    sub-datasets from seed to seed; midpoint quantiles keep the mix, and
    so a round's work, the same on every seed.
    """
    cdf = np.cumsum(zipf_weights(n_items, zipf_s))
    return [int(np.searchsorted(cdf, (k + 0.5) / strata)) for k in range(strata)]


# ---------------------------------------------------------------------------
# ingest-lookup


class IngestLookup(Workload):
    """Continuous collection with metadata queries between the writes.

    Set-up generates the reference-calibrated stream and writes and
    indexes its first part.  Each operation appends one batch, extends
    the ElasticMap, journals the new blocks at quorum and answers a few
    seeded lookups (one for an absent id).  A round is one pass over the
    rest of the stream; the next pass starts from a freshly written first
    part (untimed), so every pass repeats the same growth.
    """

    name = "ingest-lookup"
    tail_pct = 0.95

    def __init__(self, seed, *, tiny=False, obs=NULL_OBS):
        super().__init__(seed, tiny=tiny, obs=obs)
        self.cfg = ReferenceConfig.small() if tiny else ReferenceConfig()
        self.batch = 300 if tiny else 2_000
        self.lookups = 3 if tiny else 7
        self.initial_share = 0.4

    def setup(self) -> None:
        cfg = self.cfg
        generator = MovieLensGenerator(
            num_movies=cfg.num_movies,
            total_reviews=cfg.total_reviews,
            duration_days=cfg.duration_days,
            zipf_s=cfg.zipf_s,
            arrival=GammaArrivalModel(cfg.gamma_k, cfg.gamma_theta),
            rng=np.random.default_rng(cfg.seed),
        )
        self.movie_ids = [generator.movie_id(i) for i in range(cfg.num_movies)]
        self.records = generator.generate()
        self.n0 = int(len(self.records) * self.initial_share)
        self._reset()

    def _reset(self) -> None:
        cfg = self.cfg
        self.cluster = HDFSCluster(
            num_nodes=cfg.num_nodes,
            block_size=cfg.block_size,
            replication=cfg.replication,
            rng=np.random.default_rng([cfg.seed, 1]),
        )
        self.view = self.cluster.write_dataset("stream", self.records[: self.n0])
        self.datanet = DataNet.build(
            self.view, alpha=cfg.alpha, spec=cfg.bucket_spec(), obs=self.obs
        )
        self.journal = ReplicatedJournal(3)
        self.journal.append_array(self.datanet.elasticmap)
        self._fresh = True

    def prepare_checks(self, reference: Any = None) -> None:
        # compact arrays, not per-id sets: the measuring process's peak
        # memory is ``peak_rss_mb`` and should be the program's
        if not hasattr(self, "_codes"):
            code_of = {sid: i for i, sid in enumerate(dict.fromkeys(self.movie_ids))}
            self._code_of = code_of
            self._codes = np.array(
                [code_of.setdefault(r.sub_id, len(code_of)) for r in self.records],
                dtype=np.int32,
            )
            #: the block each stored record was read back from, in stream order
            self._block_of = np.empty(len(self.records), dtype=np.int32)
        self._stored = 0
        self._index_blocks(self.view.block_ids, self.records[: self.n0], "initial write")

    def _index_blocks(self, block_ids: Sequence[int], written: Sequence, what: str) -> None:
        """Read the blocks back, compare with what was written, and note
        which block holds each record."""
        blocks = [self.view.block(bid) for bid in block_ids]
        stored = (record for block in blocks for record in block.records())
        checks.check_records_in_order(stored, written, what)
        at = self._stored
        for bid, block in zip(block_ids, blocks):
            self._block_of[at : at + block.num_records] = bid
            at += block.num_records
        self._stored = at

    def _truth(self, sid: str) -> set:
        """Blocks whose stored records hold ``sid``, from the read-back."""
        code = self._code_of.get(sid)
        if code is None:
            return set()
        n = self._stored
        return set(np.unique(self._block_of[:n][self._codes[:n] == code]).tolist())

    def _lookup_ids(self, ranks: Sequence[int]) -> List[str]:
        absent = f"movie-{90_000 + int(self.rng.integers(10_000)):05d}"
        return [self.movie_ids[i] for i in ranks] + [absent]

    def _ingest(self, batch: Sequence, ids: Sequence[str]):
        view = self.cluster.append_records("stream", batch)
        added = self.datanet.extend(view)
        block_ids = view.block_ids
        new_blocks = block_ids[len(block_ids) - added :]
        for bid in new_blocks:
            self.journal.append_block(self.datanet.elasticmap[bid])
        answers = [
            (
                sid,
                self.datanet.estimate_total_size(sid),
                self.datanet.blocks_containing(sid),
                self.datanet.schedule(sid),
            )
            for sid in ids
        ]
        return new_blocks, answers

    def _check(self, batch, result, last: bool) -> None:
        new_blocks, answers = result
        self._index_blocks(new_blocks, batch, "append read-back")
        for sid, _estimate, blocks, assignment in answers:
            checks.check_covers(blocks, self._truth(sid), f"blocks_containing({sid})")
            checks.check_assignment(assignment, blocks, f"schedule({sid})")
        if last:
            entries = self.journal.recover()
            recovered = ElasticMapArray(
                [BlockElasticMap.from_bytes(entries[bid]) for bid in sorted(entries)]
            )
            if array_digest(recovered) != array_digest(self.datanet.elasticmap):
                raise checks.CheckFailed(
                    "journal: recovered entries do not digest to the live ElasticMap"
                )

    def _op(self, start: int, first: bool, last: bool, ranks: Sequence[int]) -> Op:
        batch = self.records[start : start + self.batch]
        ids = self._lookup_ids(ranks)

        def prepare() -> None:
            if first and not self._fresh:
                self._reset()
                self.prepare_checks()
            self._fresh = False

        return Op(
            run=lambda: self._ingest(batch, ids),
            check=lambda result: self._check(batch, result, last),
            prepare=prepare,
        )

    def rounds(self) -> Iterator[List[Op]]:
        starts = range(self.n0, len(self.records), self.batch)
        # a pass looks up the same Zipf-stratified ids on every seed; the
        # seed deals them out over the operations
        ranks = _stratified_ranks(
            len(self.movie_ids), self.cfg.zipf_s, self.lookups * len(starts)
        )
        while True:
            dealt = self.rng.permutation(ranks).reshape(len(starts), self.lookups)
            yield [
                self._op(s, i == 0, i == len(starts) - 1, dealt[i])
                for i, s in enumerate(starts)
            ]


# ---------------------------------------------------------------------------
# analyze


class Analyze(Workload):
    """Sub-dataset analysis jobs against the resident reference dataset.

    Each round runs 17 jobs on Zipf-stratified movies among the 200 most
    reviewed, the paper's four apps in turn, alternately four scheduled by
    Algorithm 1 and four by the stock locality scheduler (both over every
    block, as Fig. 5 does).  Each job runs on the analytic engine and on
    the discrete-event simulator.  The seed orders the jobs within a round.
    """

    name = "analyze"
    tail_pct = 0.75
    #: an odd count: whole rounds then put p50 and p75 inside one job's
    #: samples, not on the boundary between two jobs whose latencies differ
    #: by a third or more (with 16 jobs, p50 jumped between 68 and 105 ms)
    strata = 17

    def __init__(self, seed, *, tiny=False, obs=NULL_OBS):
        super().__init__(seed, tiny=tiny, obs=obs)
        self.cfg = ReferenceConfig.small() if tiny else ReferenceConfig()
        self.top = 20 if tiny else 200

    def setup(self) -> None:
        self.env = build_movie_environment(self.cfg)
        self.cost = self.cfg.cost_model()
        self.engine = MapReduceEngine(self.env.cluster, self.cost, obs=self.obs)

    reference_apart = True

    def reference(self) -> Dict[str, Any]:
        """The job list and, per job, the serial output and the fingerprint
        of the generator's own records of its sub-dataset."""
        cfg = self.cfg
        # the generator's own records: same seed, same draw order as the
        # environment build (the cluster's placement draws come later)
        records = MovieLensGenerator(
            num_movies=cfg.num_movies,
            total_reviews=cfg.total_reviews,
            duration_days=cfg.duration_days,
            zipf_s=cfg.zipf_s,
            arrival=GammaArrivalModel(cfg.gamma_k, cfg.gamma_theta),
            rng=np.random.default_rng(cfg.seed),
        ).generate()
        serial = checks.SerialReference(records)
        ranked = _ranked(records)[: self.top]
        ranks = _stratified_ranks(len(ranked), cfg.zipf_s, self.strata)
        specs = [
            (
                ranked[rank],
                PAPER_APPS[k % 4],
                "datanet" if (k // 4) % 2 == 0 else "locality",
            )
            for k, rank in enumerate(ranks)
        ]
        return {
            "total": len(records),
            "specs": specs,
            "outputs": {
                (sid, app): serial.output(sid, app, app_job(app)) for sid, app, _ in specs
            },
            "fingerprints": {
                sid: checks.fingerprint(serial.records_of[sid]) for sid, _, _ in specs
            },
        }

    def prepare_checks(self, reference: Any = None) -> None:
        if reference["total"] != sum(b.num_records for b in self.env.dataset.blocks()):
            raise checks.CheckFailed("analyze: regenerated stream differs in length")
        self.ref = reference
        self.specs = reference["specs"]
        self.jobs = {app: app_job(app) for app in PAPER_APPS}
        self.all_blocks = list(self.env.dataset.block_ids)

    def _job(self, sid: str, app: str, schedule: str):
        datanet = self.env.datanet
        dataset = self.env.dataset
        job = self.jobs[app]
        if schedule == "datanet":
            assignment = datanet.schedule(sid, skip_absent=False)
        else:
            graph = datanet.bipartite_graph(sid, skip_absent=False)
            assignment = LocalityScheduler(obs=self.obs).schedule(graph)
        selection = self.engine.run_selection(dataset, sid, assignment, job.profile)
        result = self.engine.run_analysis(
            job, selection.local_data, start_time=selection.makespan
        )
        tasks = build_job_graph(self.cost, dataset, sid, job, assignment)
        sim = DiscreteEventSimulator().run(tasks, obs=self.obs)
        return assignment, selection, result, tasks, sim

    def _check(self, sid: str, app: str, schedule: str, out) -> None:
        assignment, selection, result, tasks, sim = out
        what = f"{app}({sid}, {schedule})"
        checks.check_assignment(assignment, self.all_blocks, what)
        checks.check_selected_records(
            selection.local_data, self.ref["fingerprints"][sid], what
        )
        checks.check_output(result.output, self.ref["outputs"][(sid, app)], what)
        checks.check_timeline(tasks, sim.timeline, 1, what)

    def rounds(self) -> Iterator[List[Op]]:
        while True:
            order = self.rng.permutation(len(self.specs))
            yield [
                Op(
                    run=lambda s=self.specs[i]: self._job(*s),
                    check=lambda out, s=self.specs[i]: self._check(*s, out),
                )
                for i in order
            ]


# ---------------------------------------------------------------------------
# serve-session


_TENANTS = (
    TenantSpec("tenant-a", weight=2.0),
    TenantSpec("tenant-b", weight=1.0),
    TenantSpec("tenant-c", weight=1.0),
)


class ServeSession(Workload):
    """One multi-tenant service session per operation.

    Three tenants (fair-share weights 2:1:1, no binding quota) submit the
    four apps over the four hottest sub-datasets in bursts of two, one
    job slot, while three batches stream in, with a 3-replica metadata
    journal.  Each session runs on a service set up untimed for it, and
    each faulted session's digests must equal those of its fault-free twin
    run just before it.  A round is two such pairs:

    - *seeded*: the seed orders the jobs over the arrival slots, each batch
      lands just before a burst, and the faulted session adds a service
      crash and a leader crash (each just after such a burst), a
      journal-replica crash, a metadata-shard outage and a rack partition;
    - *straddle*: a fixed job order, each batch lands half a second after
      a burst, and the faulted session has one leader crash 1.2 s after
      the second batch, while a job dispatched before that batch is still
      in flight.  The program replays that job over the grown dataset, so
      its results digest differs from the twin's on every run: the session
      counts as failed (:class:`checks.StaleReplayDigest`).
    """

    name = "serve-session"
    tail_pct = 0.75
    data_seed = 7
    #: bursts are further apart than the longest job plus the one queued
    #: behind it, so a burst never runs across the next one
    gap = 40.0

    def __init__(self, seed, *, tiny=False, obs=NULL_OBS):
        super().__init__(seed, tiny=tiny, obs=obs)
        self.reviews = 6_000 if tiny else 24_000
        self.num_nodes = 12
        self.num_jobs = 8
        self.batches = 3
        self._service = None

    def setup(self) -> None:
        records = MovieLensGenerator(
            num_movies=300,
            total_reviews=self.reviews,
            duration_days=60.0,
            zipf_s=0.95,
            arrival=GammaArrivalModel(0.9, 18.0),
            rng=np.random.default_rng(self.data_seed),
        ).generate()
        tail = 2 * len(records) // 5
        self.initial, streamed = records[:-tail], records[-tail:]
        size = -(-len(streamed) // self.batches)
        self.chunks = [streamed[i : i + size] for i in range(0, len(streamed), size)]
        hot = _ranked(records)[:4]
        # each app meets two hot sub-datasets, each sub-dataset two apps
        self.specs = [
            (PAPER_APPS[i % 4], hot[(i + i // 4) % 4]) for i in range(self.num_jobs)
        ]
        self.bursts = [1.0 + k * self.gap for k in range(self.num_jobs // 2)]
        self.arrivals = [self.bursts[i // 2] for i in range(self.num_jobs)]
        later = self.bursts[1 : 1 + len(self.chunks)]
        self.append_times = {
            "seeded": [b - 0.8 for b in later],
            "straddle": [b + 0.5 for b in later],
        }
        self._service = self._build("healthy")

    def _plan(self, kind: str) -> Tuple[FaultPlan, Tuple[MetaOutageWindow, ...]]:
        if kind == "healthy":
            return FaultPlan(), ()
        if kind == "straddle":
            crash = self.append_times["straddle"][1] + 1.2
            return FaultPlan(seed=0, leader_crashes=(LeaderCrash(time=crash),)), ()
        b = self.bursts
        plan = FaultPlan(
            seed=self.seed,
            # after burst 1 dispatched, over the batch that landed before it
            service_crashes=(ServiceCrash(time=b[1] + 0.4, restart_delay_s=3.0),),
            leader_crashes=(LeaderCrash(time=b[2] + 0.4),),
            journal_crashes=(
                JournalReplicaCrash(
                    "journal-2", time=b[1] - 10.0, restores_at=b[-1] + 5.0
                ),
            ),
            partitions=(NetworkPartition(rack=1, start=b[-1] - 0.5, heals_at=b[-1] + 10.0),),
        )
        windows = (MetaOutageWindow("meta-0", start=b[0] - 0.5, heals_at=b[0] + 10.0),)
        return plan, windows

    def _build(self, kind: str):
        cluster = HDFSCluster(
            num_nodes=self.num_nodes,
            block_size=64 * KiB,
            replication=3,
            rng=np.random.default_rng([self.data_seed, 1]),
        )
        dataset = cluster.write_dataset("movielens", self.initial)
        datanet = DataNet.build(dataset, alpha=0.3, obs=self.obs)
        metastore = DistributedMetaStore(num_nodes=3, replication=1)
        metastore.load_array(datanet.elasticmap)
        plan, windows = self._plan(kind)
        service = AnalysisService(
            cluster,
            "movielens",
            datanet,
            ReferenceConfig(data_scale=384.0).cost_model(),
            _TENANTS,
            config=ServiceConfig(
                slots=1,
                high_water=64,
                slots_per_node=2,
                ingest_block_cost_s=1.0,
                journal_replicas=3,
            ),
            metastore=metastore,
            plan=plan,
            meta_windows=windows,
            obs=self.obs,
        )
        return cluster, service

    def _streams(self, order: Sequence[int], append_times: Sequence[float]):
        requests = []
        for slot, submit in enumerate(self.arrivals):
            app, sid = self.specs[order[slot]]
            requests.append(
                JobRequest(
                    tenant=_TENANTS[slot % len(_TENANTS)].name,
                    job_id=f"job-{slot:03d}",
                    sub_id=sid,
                    job=app_job(app),
                    submit_time=submit,
                    deadline_s=submit + 600.0,
                )
            )
        appends = [
            AppendBatch(time=t, records=tuple(chunk))
            for t, chunk in zip(append_times, self.chunks)
        ]
        return requests, appends

    def _check(self, summary, cluster, kind: str, twin: Dict[str, str]) -> None:
        what = "session" if kind == "healthy" else f"{kind} faulted session"
        checks.check_session(summary, self.num_jobs, what)
        digests = {
            "results digest": summary.results_digest,
            "metadata digest": summary.metadata_digest,
            "layout digest": layout_digest(cluster.dataset("movielens")),
        }
        if kind == "healthy":
            twin.clear()
            twin.update(digests)
            return
        landed = summary.leadership_changes == 1 and (
            kind == "straddle"
            or (summary.service_crashes == 1 and summary.degraded_jobs > 0)
        )
        if not landed:
            raise checks.CheckFailed(f"{what}: planned faults did not land")
        try:
            checks.check_twin(digests, twin, what)
        except checks.CheckFailed as exc:
            if kind != "straddle":
                raise
            raise checks.StaleReplayDigest(str(exc)) from None

    def _pair(self, order: Sequence[int], timing: str) -> List[Op]:
        """A fault-free session and its faulted twin, as two operations."""
        twin: Dict[str, str] = {}
        ops = []
        for kind in ("healthy", "seeded" if timing == "seeded" else "straddle"):
            state: Dict[str, Any] = {}

            def prepare(state=state, kind=kind) -> None:
                if self._service is not None and kind == "healthy":
                    state["cluster"], state["service"] = self._service
                    self._service = None
                else:
                    state["cluster"], state["service"] = self._build(kind)
                state["streams"] = self._streams(order, self.append_times[timing])

            ops.append(
                Op(
                    run=lambda state=state: state["service"].run(*state["streams"]),
                    check=lambda summary, state=state, kind=kind: self._check(
                        summary, state["cluster"], kind, twin
                    ),
                    prepare=prepare,
                )
            )
        return ops

    def rounds(self) -> Iterator[List[Op]]:
        fixed = list(range(self.num_jobs))
        while True:
            yield self._pair(self.rng.permutation(self.num_jobs), "seeded") + self._pair(
                fixed, "straddle"
            )


# ---------------------------------------------------------------------------
# chaos-recovery


class ChaosRecovery(Workload):
    """``repro chaos`` runs: one paper app per run under a fault plan.

    Each run gets a fresh 8-node cluster (built untimed) over the chaos
    defaults (20k reviews, 200 movies).  Plans cycle through four cases,
    and each of a round's 16 runs strikes fixed nodes and blocks, spread
    over the cluster, so a round does the same recovery work on every
    seed; the seed orders the runs and seeds each plan's coin flips.
    """

    name = "chaos-recovery"
    tail_pct = 0.75
    data_seed = 0
    cases = ("crash+transient", "bitrot+stale", "gray", "coded-crash")

    def __init__(self, seed, *, tiny=False, obs=NULL_OBS):
        super().__init__(seed, tiny=tiny, obs=obs)
        self.reviews = 5_000 if tiny else 20_000
        self.num_nodes = 8
        # the default budget (4 attempts), as ``repro chaos`` uses it
        self.retry = RetryPolicy()

    def setup(self) -> None:
        self.records = MovieLensGenerator(
            num_movies=200,
            total_reviews=self.reviews,
            rng=np.random.default_rng(self.data_seed),
        ).generate()
        self.hot = _ranked(self.records)[:4]
        self.jobs = {app: app_job(app) for app in PAPER_APPS}
        self._pending = self._cluster(coded=False)

    def prepare_checks(self, reference: Any = None) -> None:
        self.reference = checks.SerialReference(self.records)

    def _cluster(self, coded: bool):
        cluster = HDFSCluster(
            num_nodes=self.num_nodes,
            block_size=64 * KiB,
            rng=np.random.default_rng([self.data_seed, 1]),
            coding=CodingSpec(4, 2) if coded else None,
        )
        return cluster, cluster.write_dataset("chaos", self.records)

    def _plan(self, k: int, dataset, sid: str, seed: int) -> FaultPlan:
        """The fault plan of run ``k`` of a round."""
        case = self.cases[k % 4]
        # each case strikes four distinct nodes over a round
        node = (k // 4 + 2 * (k % 4)) % self.num_nodes
        if case == "crash+transient":
            return FaultPlan(
                seed=seed,
                crashes=(NodeCrash(node, time=0.5),),
                # at 10% the default budget ran out in 2 of 160 such runs
                # (TaskAttemptError); 2% held in 600
                transient=TransientFaults(probability=0.02),
            )
        if case == "bitrot+stale":
            placement = dataset.placement()
            holding = [b for b in dataset.block_ids if dataset.block(b).filter(sid)]
            rot = [holding[len(holding) // 3], holding[2 * len(holding) // 3]]
            return FaultPlan(
                seed=seed,
                bit_rots=tuple(
                    BitRot(placement[int(b)][i], int(b)) for i, b in enumerate(rot)
                ),
                stale_metadata=(StaleMetadata(int(holding[len(holding) // 2])),),
            )
        if case == "gray":
            peer = (node + self.num_nodes // 2) % self.num_nodes
            return FaultPlan(
                seed=seed,
                slow_nodes=(SlowNode(node, factor=3.0),),
                flaky_links=(FlakyLink(a=node, b=peer, loss=0.3, latency_s=0.01),),
                partitions=(
                    NetworkPartition(rack=k // 4, start=0.0, heals_at=3.0),
                ),
            )
        return FaultPlan(seed=seed, crashes=(NodeCrash(node, time=0.5),))

    def _check(self, sid: str, app: str, report) -> None:
        what = f"chaos {app}({sid})"
        if not report.output_matches_baseline:
            raise checks.CheckFailed(f"{what}: output differs from the failure-free run")
        expected = self.reference.output(sid, app, self.jobs[app])
        checks.check_output(report.job.output, expected, what)

    def rounds(self) -> Iterator[List[Op]]:
        # 16 runs: every case meets every app; sub-datasets rotate
        while True:
            ops = []
            for k in self.rng.permutation(16):
                k = int(k)
                case, app, sid = self.cases[k % 4], PAPER_APPS[k // 4], self.hot[(k + k // 4) % 4]
                seed = int(self.rng.integers(2**31))
                state: Dict[str, Any] = {}

                def prepare(state=state, k=k, sid=sid, seed=seed) -> None:
                    coded = self.cases[k % 4] == "coded-crash"
                    if self._pending is not None and not coded:
                        cluster, dataset = self._pending
                        self._pending = None
                    else:
                        cluster, dataset = self._cluster(coded)
                    plan = self._plan(k, dataset, sid, seed)
                    state["runner"] = ChaosRunner(cluster, plan, retry=self.retry, obs=self.obs)
                    state["dataset"] = dataset

                ops.append(
                    Op(
                        run=lambda state=state, sid=sid, app=app: state["runner"].run(
                            state["dataset"], sid, self.jobs[app]
                        ),
                        check=lambda report, sid=sid, app=app: self._check(sid, app, report),
                        prepare=prepare,
                    )
                )
            yield ops


WORKLOADS = {
    w.name: w for w in (IngestLookup, Analyze, ServeSession, ChaosRecovery)
}
