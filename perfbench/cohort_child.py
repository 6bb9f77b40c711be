"""One cohort-engine run in its own process (the system under test).

Run from the root of a checkout with ``PYTHONPATH=src``::

    python perfbench/cohort_child.py --seed 1 --store DIR --journal J --out R

It prints ``ready`` once ``import repro``, the dataset and the work list
are built (the end of set-up), then runs :meth:`CohortEngine.run` on the
process engine and writes the report, the wall and CPU time of the run
and each record's completion time (stamped as the engine journals the
outcome to the checkpoint ``--journal``) to ``--out``.  ``--setup-only``
stops after ``ready``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

#: The cohort work list: the first 12 tasks of the seeded cohort, one
#: sample per seizure, records of 30 to 31 minutes.
N_TASKS = 12
MINUTES = 30.0
WORKERS = 2


def work_list(seed: int, n_tasks: int = N_TASKS, minutes: float = MINUTES):
    from repro.data.dataset import SyntheticEEGDataset
    from repro.engine.tasks import cohort_tasks

    dataset = SyntheticEEGDataset(seed=seed)
    tasks = cohort_tasks(
        dataset, samples_per_seizure=1,
        duration_range_s=(minutes * 60.0, minutes * 60.0 + 60.0),
    )[:n_tasks]
    return dataset, tasks


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tasks", type=int, default=N_TASKS)
    parser.add_argument("--minutes", type=float, default=MINUTES)
    parser.add_argument("--store", required=True)
    parser.add_argument("--journal", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: the set-up cost every run pays)

    import_s = time.perf_counter() - t0
    from repro.engine.checkpoint import CohortCheckpoint
    from repro.engine.executor import CohortEngine

    dataset, tasks = work_list(args.seed, args.tasks, args.minutes)
    engine = CohortEngine(
        dataset, max_workers=WORKERS, executor="process", store_dir=args.store
    )
    print("ready", flush=True)
    if args.setup_only:
        return 0

    class StampedCheckpoint(CohortCheckpoint):
        """The engine's own journal, stamping when each outcome lands."""

        def __init__(self, path) -> None:
            super().__init__(path, compact_dead_lines=None)
            self.stamps: list[float] = []

        def record(self, outcome) -> None:
            self.stamps.append(time.perf_counter())
            super().record(outcome)

    journal = StampedCheckpoint(args.journal)
    cpu0 = _cpu_s()
    start = time.perf_counter()
    report = engine.run(tasks, checkpoint=journal)
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    result = {
        "report": report.to_json(),
        "n_records": report.n_records,
        "n_failures": report.n_failures,
        "n_tasks": len(tasks),
        "wall_s": wall,
        "cpu_s": cpu,
        "completion_s": [t - start for t in journal.stamps],
        "import_s": import_s,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
