"""Distributed sharding: partition -> run -> collect -> merge, one file.

Walks the PR 5 shard orchestrator end to end, twice:

1. the four verbs by hand — :func:`plan_shards` partitions patient 8's
   work list into 3 manifests, each shard runs as an independent
   checkpointed engine run (here in-process; ``repro shard run`` is the
   same call in a subprocess), :func:`collect_shards` validates the
   journals and reports coverage, and :func:`merge_shards` +
   :func:`merged_report` fold them into a report byte-identical to a
   single-node run — including when a shard is "killed" halfway and
   resumed from its own journal;
2. the one-liner — :func:`orchestrate` launches every incomplete shard
   as a local subprocess (``--jobs`` at a time), then collects, merges,
   and reports.

Run:
    python examples/sharded_cohort.py

CLI equivalent:
    python -m repro shard orchestrate --out-dir /tmp/repro-plan \
        --shards 3 --patients 8 --duration-min 5 --duration-max 6 \
        --jobs 3 --json /tmp/repro-sharded.json
"""

import tempfile
from pathlib import Path

from repro.data import SyntheticEEGDataset
from repro.engine import (
    CohortCheckpoint,
    CohortEngine,
    cohort_tasks,
    collect_shards,
    merge_shards,
    merged_report,
    orchestrate,
    plan_shards,
    run_shard,
    write_plan,
)


def main() -> None:
    dataset = SyntheticEEGDataset(duration_range_s=(300.0, 360.0))
    tasks = cohort_tasks(dataset, patient_ids=[8])
    engine = CohortEngine(dataset, executor="serial")
    baseline = engine.run(tasks).to_json()
    print(f"single-node run: {len(tasks)} records, {len(baseline)} bytes")

    with tempfile.TemporaryDirectory() as tmp:
        plan_dir = Path(tmp) / "plan"

        # --- 1. plan: 3 self-contained shard manifests.
        specs = plan_shards(tasks, engine.config, 3)
        write_plan(plan_dir, specs)
        print(f"planned {len(specs)} shards, "
              f"sizes {[len(s.tasks) for s in specs]}")

        # --- 2. run each shard independently (here in-process;
        # ``repro shard run <manifest>`` is the same call as its own OS
        # process on any machine).
        for spec in specs:
            run_shard(
                spec,
                journal=plan_dir / f"shard-{spec.shard_index:03d}.ckpt",
                dataset=dataset,
                executor="serial",
            )

        # Re-running a shard resumes from its journal — the same path a
        # SIGKILLed shard takes, it just restores *everything* here.
        restored = CohortCheckpoint(plan_dir / "shard-000.ckpt").outcome_count()
        run_shard(
            specs[0],
            journal=plan_dir / "shard-000.ckpt",
            dataset=dataset,
            executor="serial",
        )
        print(f"shard 0 re-run: {restored} record(s) restored, 0 recomputed")

        # --- 3. collect: digest-validated coverage per shard.
        for status in collect_shards(plan_dir, specs=specs):
            print(f"shard {status.spec.shard_index}: "
                  f"{status.done}/{status.total} "
                  f"{'complete' if status.complete else 'partial'}")

        # --- 4. merge + report: byte-identical to the single node.
        merged = plan_dir / "merged.ckpt"
        merge_shards(plan_dir, merged, specs=specs)
        report = merged_report(plan_dir, merged, specs=specs)
        print(f"merged report == single-node report: "
              f"{report.to_json() == baseline}")

    # --- 5. the one-liner: plan already on disk -> subprocess fleet.
    with tempfile.TemporaryDirectory() as tmp:
        plan_dir = Path(tmp) / "plan"
        write_plan(plan_dir, plan_shards(tasks, engine.config, 3))
        report, summary = orchestrate(
            plan_dir, jobs=3, executor="serial"
        )
        print(f"orchestrate launched shards {summary['launched']}, "
              f"merged {summary['sources']} journals")
        print(f"orchestrated report == single-node report: "
              f"{report.to_json() == baseline}")


if __name__ == "__main__":
    main()
