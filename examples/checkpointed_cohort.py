"""Record-level checkpointed cohort runs: kill, resume, same bytes.

Walks through the PR 3 durability machinery end to end:

1. a checkpointed cohort run — every completed record is journaled to an
   append-only file the moment its outcome streams back;
2. a simulated kill halfway through, and a resume that skips the
   journaled records and still produces a report byte-identical to an
   uninterrupted run;
3. fail-fast strict mode — a poisoned work list with ``max_failures=0``
   cancels the remainder instead of paying for it, and the successes
   completed before the abort are already journaled;
4. store lifecycle — the disk feature store bounded to a size budget,
   with LRU eviction doing the pruning.

Run:
    python examples/checkpointed_cohort.py

CLI equivalent of steps 1-2:
    python -m repro cohort --patients 8 --duration-min 5 --duration-max 6 \
        --checkpoint /tmp/repro-run.ckpt
    # ... kill it mid-run, then:
    python -m repro cohort --patients 8 --duration-min 5 --duration-max 6 \
        --checkpoint /tmp/repro-run.ckpt --resume
"""

import tempfile
from pathlib import Path

from repro.data import SyntheticEEGDataset
from repro.engine import (
    CohortCheckpoint,
    CohortEngine,
    DiskFeatureStore,
    RecordTask,
    cohort_tasks,
)
from repro.exceptions import EngineError


def main() -> None:
    dataset = SyntheticEEGDataset(duration_range_s=(300.0, 360.0))
    tasks = cohort_tasks(dataset, patient_ids=[8])
    baseline = CohortEngine(dataset, executor="serial").run(tasks)

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "run.ckpt"

        # --- 1+2. interrupt a checkpointed run halfway, then resume.
        # (Here the "kill" runs only half the work list through the
        # journal API; `scripts/kill_resume_smoke.py` does it with a
        # real SIGKILL against the CLI.)
        from repro.engine import config_digest, work_list_digest

        engine = CohortEngine(dataset, executor="serial")
        journal = CohortCheckpoint(ckpt)
        journal.begin(work_list_digest(tasks), config_digest(engine.config))
        for task in tasks[: len(tasks) // 2]:
            journal.record(engine._local_context().process_safe(task))
        journal.close()
        print(f"'killed' run journaled {journal.outcome_count()} of "
              f"{len(tasks)} records")

        resumed = CohortEngine(dataset, executor="serial").run(
            tasks, checkpoint=ckpt
        )
        print(f"resumed run: {resumed.n_records} records, byte-identical "
              f"to uninterrupted: {resumed.to_json() == baseline.to_json()}")
        assert resumed.to_json() == baseline.to_json()

        # --- 3. fail-fast strict mode: the poisoned record aborts the
        # rest of the work list; completed successes are already safe.
        poisoned = tasks[:2] + (RecordTask(1, 999, 0),) + tasks[2:]
        strict_ckpt = Path(tmp) / "strict.ckpt"
        try:
            CohortEngine(dataset, executor="serial").run(
                poisoned, checkpoint=strict_ckpt, max_failures=0
            )
        except EngineError as exc:
            print(f"\nstrict mode aborted early: {exc}")
        print(f"journaled before the abort: "
              f"{CohortCheckpoint(strict_ckpt).outcome_count()} record(s)")

    # --- 4. a size-bounded feature store: LRU eviction keeps it under
    # budget, `verify`/`gc` (also: `python -m repro store ...`) manage it.
    with tempfile.TemporaryDirectory() as store_dir:
        engine = CohortEngine(
            dataset,
            executor="serial",
            store_dir=store_dir,
            store_max_bytes=64_000,  # ~2 matrices at this record length
        )
        engine.run(tasks)
        store = DiskFeatureStore(store_dir)
        print(f"\nbounded store: {len(store)} entries, "
              f"{store.total_bytes()} bytes (budget 64000)")
        print(f"verify: {store.verify()}")


if __name__ == "__main__":
    main()
