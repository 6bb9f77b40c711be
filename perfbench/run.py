"""The repository benchmark: one seeded workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cohort-cold --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``cohort-cold`` / ``cohort-warm`` — the cohort engine in its own
  process (:mod:`cohort`);
* ``service-fleet`` — ``repro serve`` as a child process under open-loop
  load from this process (:mod:`service`).

The end-to-end metrics carry one name across workloads; each line also
gives the workload's own name for it (``records_per_s``,
``decision_p50_ms``, ...; see ``layers.json``).  Service runs also print
``decision_p99_ms``, which is reported but not gated (see
:mod:`service`).

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
traced pass and prints every per-layer metric (a layer a workload does
not exercise reads 0), with the per-layer self-time ledger above the
result.  Every output is checked before a number is reported: a failed
check prints the reason and ``"correct": false`` with no metrics, and
exits 1.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import BenchError, CorrectnessError, run_metadata  # noqa: E402

WORKLOADS = ("cohort-cold", "cohort-warm", "service-fleet")

#: What each end-to-end metric is called on each kind of workload, and
#: the factor from the shared unit to that name's unit.
OWN_NAMES = {
    "cohort": {
        "throughput_per_s": ("records_per_s", "1/s", 1.0),
        "cpu_ms_per_item": ("cpu_s_per_record", "s", 1e-3),
        "latency_p50_ms": ("record_completion_p50_ms", "ms", 1.0),
    },
    "service": {
        "throughput_per_s": ("sustained_chunks_per_s", "1/s", 1.0),
        "cpu_ms_per_item": ("cpu_ms_per_chunk", "ms", 1.0),
        "latency_p50_ms": ("decision_p50_ms", "ms", 1.0),
    },
}

#: Working files of a run, inside the checkout (listed in .gitignore).
WORK_DIR = ".perfbench"


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def metric_units(spec: dict, trace: bool) -> dict[str, str]:
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def result_line(values: dict, units: dict, attempted: int, failed: int) -> str:
    """The final JSON line of a checked run: every metric of ``units``
    (a per-layer metric a workload does not exercise reads 0)."""
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    return json.dumps({"correct": True, "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = root / WORK_DIR / f"{workload}-{seed}-{int(time.time() * 1e3)}"
    work.mkdir(parents=True)
    try:
        sys.path.insert(0, str(root / "src"))
        if workload.startswith("cohort"):
            from cohort import run_cohort

            return run_cohort(root, work, workload, seed, seconds, trace)
        from service import run_service

        return run_service(root, work, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no repro sources (src/repro); run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    spec = load_spec(root)
    units = metric_units(spec, bool(args.trace))
    try:
        out = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except CorrectnessError as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    values = out["per_layer"] if args.trace else out["end_to_end"]
    undeclared = sorted(set(values) - set(units))
    unmeasured = [] if args.trace else sorted(set(units) - set(values))
    if undeclared or unmeasured:
        print(f"error: metrics {undeclared} are not declared in BENCHMARK.json"
              f" and {unmeasured} were not measured", file=sys.stderr)
        return 2
    meta = run_metadata(root)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# run: " + json.dumps(meta, sort_keys=True))
    for key, value in sorted(out.get("notes", {}).items()):
        print(f"# {key}: {value}")
    for row in out.get("ledger", ()):
        print("# ledger: " + json.dumps(row, sort_keys=True))
    own = OWN_NAMES[args.workload.split("-")[0]]
    for name, unit in units.items():
        value = float(values.get(name, 0.0))
        line = f"{name} = {value:.6g} {unit}"
        if not args.trace and name in own:
            alias, alias_unit, factor = own[name]
            line += f"   ({alias} = {value * factor:.6g} {alias_unit})"
        print(line)
    if not args.trace:
        for name, value, unit, comment in out.get("reported", ()):
            print(f"{name} = {value:.6g} {unit}   ({comment})")
        print(f"error_frac = {out['failed'] / max(out['attempted'], 1):.6g} ratio")
    print(result_line(values, units, out["attempted"], out["failed"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
