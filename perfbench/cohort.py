"""The cohort-engine workloads: ``cohort-cold`` and ``cohort-warm``.

The engine runs in its own process (:mod:`perfbench.cohort_child`) on
the process pool with 2 workers.  ``cohort-cold`` starts from an empty
feature store, so every record is synthesized twice (digest, then
extraction), extracted and written to the store.  ``cohort-warm`` runs
the same work list against a store filled beforehand by an unmeasured
run, so extraction is bypassed: the digest pass, store reads and
Algorithm 1 remain.

The traced run drives the same work list serially through the public
functions ``_WorkerContext.process`` calls, in its order, with a span
around each call (:func:`serial_outcomes`).
"""

from __future__ import annotations

import bisect
import json
import random
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

from common import (
    BenchError,
    CorrectnessError,
    PeakRss,
    child_env,
    median,
    read_line,
)
from cohort_child import MINUTES, N_TASKS, WORKERS, work_list
from tracing import (
    KERNELS,
    Tracer,
    children_of,
    descendant_time,
    ledger,
    trace_features,
)

CHILD = "perfbench/cohort_child.py"
#: Set-up is measured this many times per run (child launches).
SETUP_REPEATS = 3
#: Records recomputed serially in the benchmark process to check an
#: untraced run's report.
SPOT_CHECKS = 2
#: The layer spans must account for this share of the traced per-record
#: time at least; the rest is the benchmark's own glue between calls.
COVERAGE_MIN = 0.95


# ----------------------------------------------------------------------
# engine runs in a child process
# ----------------------------------------------------------------------
class ChildRun:
    """One launch of the engine child: set-up time, result and peak RSS."""

    def __init__(self, root: Path, work: Path, seed: int, scale: tuple,
                 store: Path, tag: str, setup_only: bool = False) -> None:
        out = work / f"{tag}.json"
        n_tasks, minutes = scale
        cmd = [
            sys.executable, CHILD, "--seed", str(seed), "--tasks", str(n_tasks),
            "--minutes", str(minutes), "--store", str(store),
            "--journal", str(work / f"{tag}.ckpt"), "--out", str(out),
        ]
        if setup_only:
            cmd.append("--setup-only")
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
            text=True,
        )
        rss = PeakRss(proc.pid, interval_s=0.5).start()
        try:
            line = read_line(proc, timeout_s=120.0)
            self.setup_s = time.perf_counter() - start
            if line != "ready":
                raise BenchError(f"cohort child said {line!r}, not 'ready'")
            code = proc.wait(timeout=170.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            self.peak_rss_mb = rss.stop()
            proc.stdout.close()
        if code != 0:
            raise BenchError(f"cohort child exited with code {code}")
        self.result = None if setup_only else json.loads(out.read_text())


def _check_complete(run: ChildRun) -> None:
    result = run.result
    if result["n_failures"] or result["n_records"] != result["n_tasks"]:
        raise CorrectnessError(
            f"engine completed {result['n_records']} of {result['n_tasks']} "
            f"records ({result['n_failures']} failed)"
        )


# ----------------------------------------------------------------------
# the serial pass (reference and traced run)
# ----------------------------------------------------------------------
def serial_outcomes(dataset, tasks, store_dir: Path, tracer: Tracer | None = None):
    """Each task through the pipeline of ``_WorkerContext.process``,
    calling its public functions one by one in the same order.

    With a ``tracer``, every call is a span (request id: the task key)
    and synthesis, feature batches and kernels are traced inside them.
    """
    from repro.core.deviation import deviation, normalized_deviation
    from repro.core.labeling import APosterioriLabeler
    from repro.data.records import interval_window_labels
    from repro.engine.cache import source_cache_key
    from repro.engine.chunked import DEFAULT_CHUNK_S, extract_features_from_source
    from repro.engine.report import RecordOutcome
    from repro.engine.store import DiskFeatureStore
    from repro.ml.metrics import classification_report
    from repro.signals.windowing import WindowSpec

    spec = WindowSpec(4.0, 1.0)
    min_overlap = 0.5
    labeler = APosterioriLabeler(spec=spec, method="fast", grid_step=4)
    store = DiskFeatureStore(store_dir)
    span = tracer.span if tracer else lambda name, request: nullcontext()
    outcomes = []
    walls = []
    for task in tasks:
        start = time.perf_counter()
        with span("record", task.key):
            with span("data.recipe", task.key):
                source = dataset.sample_source(
                    task.patient_id, task.seizure_index, task.sample_index,
                    duration_range_s=task.duration_range_s,
                )
            with span("data.digest", task.key):
                key = source_cache_key(
                    source, labeler.extractor, labeler.spec, DEFAULT_CHUNK_S
                )
            with span("engine.store_load", task.key):
                feats = store.load(key)
            if feats is None:
                with span("features.extract", task.key):
                    feats = extract_features_from_source(
                        source, labeler.extractor, labeler.spec,
                        DEFAULT_CHUNK_S,
                    )
                with span("engine.store_save", task.key):
                    store.save(key, feats)
            with span("core.algorithm1", task.key):
                result = labeler.label_matrix(
                    feats, dataset.mean_seizure_duration(task.patient_id),
                    source.duration_s,
                )
            with span("ml.score", task.key):
                ann = result.annotation
                truth = source.annotations[0]
                truth_labels = source.window_labels(
                    spec.length_s, spec.step_s, min_overlap
                )
                pred_labels = interval_window_labels(
                    [ann], feats.n_windows, spec.length_s, spec.step_s,
                    min_overlap,
                )
                n = min(truth_labels.size, pred_labels.size)
                scores = classification_report(truth_labels[:n], pred_labels[:n])
            outcomes.append(RecordOutcome(
                patient_id=task.patient_id,
                seizure_index=task.seizure_index,
                sample_index=task.sample_index,
                record_id=source.record_id,
                duration_s=source.duration_s,
                n_windows=feats.n_windows,
                truth_onset_s=truth.onset_s,
                truth_offset_s=truth.offset_s,
                onset_s=ann.onset_s,
                offset_s=ann.offset_s,
                delta_s=deviation(truth, ann),
                delta_norm=normalized_deviation(truth, ann, source.duration_s),
                sensitivity=scores.sensitivity,
                specificity=scores.specificity,
                geometric_mean=scores.geometric_mean,
            ))
        walls.append(time.perf_counter() - start)
    return outcomes, store.stats(), walls


def install_cohort_tracing(tracer: Tracer) -> None:
    """Trace synthesis, feature batches and kernels inside the pass."""
    from repro.data.sources import SyntheticRecordSource

    iter_chunks = SyntheticRecordSource.iter_chunks

    def traced_iter_chunks(self, *args, **kwargs):
        tracer.mark("data.synth_pass")
        return tracer.wrap_iter(iter_chunks(self, *args, **kwargs), "data.synth")

    tracer.patch(SyntheticRecordSource, "iter_chunks", traced_iter_chunks)
    trace_features(tracer)


def same_report(actual: str, reference: str, what: str) -> None:
    if actual != reference:
        raise CorrectnessError(f"{what} is not byte-identical")


def spot_check(dataset, tasks, report_json: str, store_dir: Path, seed: int) -> dict:
    """Recompute a seeded sample of records serially and require their
    rows of the engine report to match; returns each record's time."""
    picks = sorted(random.Random(seed).sample(range(len(tasks)), SPOT_CHECKS))
    outcomes, _, walls = serial_outcomes(dataset, [tasks[i] for i in picks], store_dir)
    rows = {tuple(row[k] for k in ("patient_id", "seizure_index", "sample_index")): row
            for row in json.loads(report_json)["outcomes"]}
    for outcome in outcomes:
        if rows.get(outcome.key) != asdict(outcome):
            raise CorrectnessError(
                f"engine outcome for task {outcome.key} differs from the "
                f"serial pipeline"
            )
    return {o.key: wall for o, wall in zip(outcomes, walls)}


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _end_to_end(runs: list[ChildRun], setups: list[float]) -> dict:
    results = [r.result for r in runs]
    return {
        "setup_s": median(setups),
        "throughput_per_s": median(r["n_records"] / r["wall_s"] for r in results),
        "cpu_ms_per_item": median(1e3 * r["cpu_s"] / r["n_records"] for r in results),
        "latency_p50_ms": median(1e3 * median(r["completion_s"]) for r in results),
        "peak_rss_mb": median(r.peak_rss_mb for r in runs),
    }


def run_cohort(root: Path, work: Path, workload: str, seed: int,
               seconds: float, trace: bool,
               scale: tuple = (N_TASKS, MINUTES)) -> dict:
    """One cohort workload; ``scale`` is (tasks, record minutes)."""
    dataset, tasks = work_list(seed, *scale)
    warm = workload == "cohort-warm"
    store = work / "store"
    reference = None
    if warm:
        fill = ChildRun(root, work, seed, scale, store, "fill")
        _check_complete(fill)
        reference = fill.result["report"]

    # Engine runs until the next one would overrun --seconds (at least
    # one); cold runs each start from an empty store.
    runs: list[ChildRun] = []
    measured = 0.0
    while not runs or measured + runs[-1].result["wall_s"] <= seconds:
        run_store = store if warm else work / f"store-{len(runs)}"
        run = ChildRun(root, work, seed, scale, run_store, f"run-{len(runs)}")
        _check_complete(run)
        reference = reference or run.result["report"]
        same_report(run.result["report"], reference,
                    "the report of a warm run and the cold report" if warm
                    else "the report of a repeated cold run")
        runs.append(run)
        measured += run.result["wall_s"]
    setups = [r.setup_s for r in runs]
    while len(setups) < SETUP_REPEATS:
        setups.append(ChildRun(root, work, seed, scale, work / "store-setup",
                               f"setup-{len(setups)}", setup_only=True).setup_s)

    out = {
        "end_to_end": _end_to_end(runs, setups),
        "attempted": sum(r.result["n_tasks"] for r in runs),
        "failed": sum(r.result["n_failures"] for r in runs),
        "notes": {"engine_runs": len(runs), "records_per_run": len(tasks)},
    }
    spot_check(dataset, tasks, reference, store if warm else work / "store-spot", seed)
    if not trace:
        return out

    tracer = Tracer()
    install_cohort_tracing(tracer)
    try:
        outcomes, store_stats, _ = serial_outcomes(
            dataset, tasks, store if warm else work / "store-trace", tracer
        )
    finally:
        tracer.unpatch()
    from repro.engine.report import CohortReport

    same_report(CohortReport.from_outcomes(outcomes).to_json(), reference,
                "the engine report and the serial traced pass")
    # The same records untraced again, now that the process is as warm
    # as it was for the traced pass: the tracing overhead.
    untraced = spot_check(dataset, tasks, reference,
                          store if warm else work / "store-untraced", seed)
    out["per_layer"], out["ledger"] = cohort_layers(
        tracer.spans, store_stats, runs[0].result, untraced
    )
    return out


def cohort_layers(spans, store_stats: dict, engine: dict, untraced: dict):
    """Per-layer metrics and the self-time ledger of the serial pass.

    ``untraced`` maps task keys to the time of the same serial pipeline
    without tracing: the base of the tracing overhead."""
    kids = children_of(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    records = sorted(by_name["record"], key=lambda s: s.start)
    starts = [r.start for r in records]

    def record_of(span) -> int:
        """Index of the record whose (serial) interval holds ``span``."""
        return bisect.bisect_right(starts, span.start) - 1

    def per_record(name: str, value) -> list[float]:
        totals = [0.0] * len(records)
        for span in by_name.get(name, ()):
            totals[record_of(span)] += value(span)
        return totals

    def durations_ms(name: str) -> list[float]:
        return [s.dur_ns / 1e6 for s in by_name.get(name, ())]

    def minus_synth_ms(span) -> float:
        return (span.dur_ns - descendant_time(span, kids, "data.synth")) / 1e6

    batches = by_name.get("features.extract_batch", ())
    record_total = sum(r.dur_ns for r in records)
    layers = ("data.recipe", "data.digest", "engine.store_load", "features.extract",
              "engine.store_save", "core.algorithm1", "ml.score")
    covered = sum(s.dur_ns for name in layers for s in by_name.get(name, ()))
    metrics = {
        "data.synth_ms": median(per_record("data.synth", lambda s: s.dur_ns / 1e6)),
        "data.synth_passes_per_record": median(per_record("data.synth_pass", lambda s: 1)),
        "data.digest_self_ms": median(per_record("data.digest", minus_synth_ms)),
        "features.extract_self_ms": median(
            minus_synth_ms(s) for s in by_name.get("features.extract", ())
        ),
        "features.extract_batch_ms": median(durations_ms("features.extract_batch")),
        "features.windows_per_batch": median(s.count for s in batches),
        "core.algorithm1_ms": median(durations_ms("core.algorithm1")),
        "ml.score_ms": median(durations_ms("ml.score")),
        "engine.store_save_ms": median(durations_ms("engine.store_save")),
        "engine.store_load_ms": median(durations_ms("engine.store_load")),
        "engine.store_hits": store_stats["hits"],
        "engine.store_misses": store_stats["misses"],
        "engine.parallel_efficiency": (record_total / 1e9)
        / (engine["wall_s"] * WORKERS),
        "setup.import_repro_s": engine["import_s"],
        "trace.overhead_frac": sum(r.dur_ns for r in records
                                   if tuple(r.request) in untraced) / 1e9
        / sum(untraced.values()) - 1.0,
        "trace.coverage_frac": covered / record_total,
    }
    for kernel in KERNELS:
        metrics[f"kernels.{kernel}_ms"] = median(durations_ms(f"kernels.{kernel}"))
    if metrics["trace.coverage_frac"] < COVERAGE_MIN:
        raise BenchError(
            f"traced layers cover {metrics['trace.coverage_frac']:.3f} of the "
            f"per-record time, below {COVERAGE_MIN}"
        )
    return metrics, ledger(spans, record_total, len(records), "record")
