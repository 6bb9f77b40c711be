"""Small-scale self-test of the benchmark.

Run from the root of a checkout (about two minutes)::

    python3 perfbench/selftest.py

On small inputs (two 4-minute records, 8 service sessions) it checks
that:

* each workload emits exactly the end-to-end metrics of
  ``BENCHMARK.json``, and the workloads' traced runs together emit
  exactly its per-layer metrics, each described in ``layers.json``;
* the correctness gate trips on a corrupted cohort report and on a
  corrupted decision stream.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import CorrectnessError  # noqa: E402
from run import OWN_NAMES, WORK_DIR, load_spec, metric_units, result_line  # noqa: E402

SCALE = (2, 4.0)  # cohort tasks, record minutes
SEED = 3


def small_shape():
    from service import Shape

    return Shape(sessions=8, chunk_s=1.0, prime_chunks=3,
                 ramp_start=200.0, ramp_slope=400.0, ramp_max_s=2.0)


def expect_failure(what: str, check) -> None:
    try:
        check()
    except CorrectnessError:
        print(f"ok: {what} trips the correctness gate")
        return
    raise AssertionError(f"{what} passed the correctness gate")


def check_names(spec: dict, workload: str, out: dict, per_layer_seen: set) -> None:
    e2e = metric_units(spec, trace=False)
    layers = metric_units(spec, trace=True)
    if "end_to_end" in out:
        assert set(out["end_to_end"]) == set(e2e), (
            f"{workload} end-to-end metrics {sorted(out['end_to_end'])} != "
            f"BENCHMARK.json {sorted(e2e)}")
        line = json.loads(result_line(out["end_to_end"], e2e, 1, 0))
        assert {k: v["unit"] for k, v in line["metrics"].items()} == e2e
        kind = workload.split("-")[0]
        assert set(OWN_NAMES[kind]) <= set(e2e), f"{kind} own names"
    if "per_layer" in out:
        extra = set(out["per_layer"]) - set(layers)
        assert not extra, f"{workload} emits undeclared per-layer metrics {extra}"
        per_layer_seen |= {k for k, v in out["per_layer"].items() if v}
    print(f"ok: {workload} metric names match BENCHMARK.json")


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    spec = load_spec(root)
    work = root / WORK_DIR / f"selftest-{int(time.time() * 1e3)}"
    work.mkdir(parents=True)
    try:
        from cohort import ChildRun, run_cohort, same_report, spot_check
        from cohort_child import work_list
        from service import Inputs, ServiceRun, run_service

        layers_doc = json.loads((HERE / "layers.json").read_text())["layers"]
        assert set(layers_doc) == set(metric_units(spec, trace=True)), (
            "layers.json and BENCHMARK.json per_layer differ")

        seen: set = set()
        for workload in ("cohort-cold", "cohort-warm"):
            (work / workload).mkdir()
            out = run_cohort(root, work / workload, workload, SEED, 0.1,
                             trace=True, scale=SCALE)
            check_names(spec, workload, out, seen)
        for trace in (False, True):
            (work / f"service-{trace}").mkdir()
            out = run_service(root, work / f"service-{trace}", SEED, 2.0,
                              trace, shape=small_shape())
            check_names(spec, "service-fleet", out, seen)
        # A layer may read 0 on one workload, never on all of them.
        unseen = set(metric_units(spec, trace=True)) - seen
        assert not unseen, f"per-layer metrics no workload measured: {unseen}"
        print("ok: every per-layer metric is measured by some workload")

        # Corrupted cohort report.
        dataset, tasks = work_list(SEED, *SCALE)
        run = ChildRun(root, work, SEED, SCALE, work / "store", "gate")
        report = run.result["report"]
        data = json.loads(report)
        data["outcomes"][0]["onset_s"] += 1.0
        bad = json.dumps(data, sort_keys=True, separators=(",", ":"))
        spot_check(dataset, tasks, report, work / "store-ok", SEED)
        expect_failure("a corrupted cohort report (spot check)",
                       lambda: spot_check(dataset, tasks, bad, work / "store-bad", SEED))
        expect_failure("a corrupted cohort report (byte comparison)",
                       lambda: same_report(bad, report, "corrupted report"))

        # Corrupted decision stream.
        shape = small_shape()
        inputs = Inputs(shape, SEED, shape.prime_chunks + 2)
        served = ServiceRun(root, work, shape, inputs, 2, with_ramp=False)
        served.streams.verify()
        served.streams.events[0][-1]["score"] += 1.0
        expect_failure("a corrupted decision stream", served.streams.verify)
        served.streams.events[0][-1]["score"] -= 1.0
        served.streams.events[1].pop()
        expect_failure("a decision stream missing a decision", served.streams.verify)
    except AssertionError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
