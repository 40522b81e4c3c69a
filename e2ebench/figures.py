"""Reference figures of the method on the analyze workload's dataset.

These are outputs of the method — simulated seconds, workload imbalance,
metadata size, Eq. 6 estimate error — not speed metrics: no change in
speed moves them.  The README records them next to the timings.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 e2ebench/figures.py
"""

from __future__ import annotations

from repro.experiments.config import ReferenceConfig, build_movie_environment
from repro.mapreduce.scheduler import LocalityScheduler
from repro.sim import DiscreteEventSimulator, build_job_graph

from workloads import app_job


def main() -> None:
    cfg = ReferenceConfig()
    env = build_movie_environment(cfg)
    dataset, datanet = env.dataset, env.datanet
    sizes = dataset.subdataset_sizes()
    hot = sorted(sizes, key=lambda s: (-sizes[s], s))[:5]
    data_mb = dataset.total_bytes / 1e6
    meta = datanet.memory_bytes()
    print(f"dataset: {dataset.num_blocks} blocks, {data_mb:.2f} MB, "
          f"{len(sizes)} sub-datasets, {cfg.num_nodes} nodes")
    print(f"ElasticMap: {meta:.0f} B ({meta / data_mb:.1f} B per MB of data)")
    print()
    print(f"{'sub-dataset':<12} {'bytes':>9} {'eq6 err':>8} {'alg1 max/mean':>14} "
          f"{'locality max/mean':>18} {'alg1 sim s':>11} {'locality sim s':>15}")
    job = app_job("word_count")
    for sid in hot:
        truth = dataset.subdataset_bytes_per_block(sid)
        error = (datanet.estimate_total_size(sid) - sizes[sid]) / sizes[sid]
        aware = datanet.schedule(sid, skip_absent=False)
        stock = LocalityScheduler().schedule(datanet.bipartite_graph(sid, skip_absent=False))
        row = []
        for assignment in (aware, stock):
            loads = [sum(truth.get(b, 0) for b in blocks)
                     for blocks in assignment.blocks_by_node.values()]
            mean = sum(loads) / len(loads)
            tasks = build_job_graph(cfg.cost_model(), dataset, sid, job, assignment)
            makespan = DiscreteEventSimulator().run(tasks).makespan
            row.append((max(loads) / mean, makespan))
        print(f"{sid:<12} {sizes[sid]:>9} {error:>+8.2%} {row[0][0]:>14.2f} "
              f"{row[1][0]:>18.2f} {row[0][1]:>11.1f} {row[1][1]:>15.1f}")
    print("(simulated seconds: word count over every block, one slot per node)")


if __name__ == "__main__":
    main()
