"""Per-layer metrics of a traced service run, from the spans that
:mod:`traced_serve` wrote in the server process."""

from __future__ import annotations

from pathlib import Path

from common import BenchError, median, tail
from tracing import KERNELS, ledger, load_spans

#: Spans doing CPU work with no wait inside.  Their outermost instances
#: must account for a share in ``COVERAGE_RANGE`` of the server's CPU
#: time in the traced fixed phase; the rest is the asyncio loop and
#: socket plumbing that no public function brackets.  Spans are wall
#: time, so time stolen from the server by other tenants of the host
#: can take the share above 1.
CPU_LAYERS = (
    "framing.decode_payload", "framing.decode_chunk", "framing.encode",
    "admission.screen", "manager.ingest", "manager.pump",
    "manager.poll_events",
)
COVERAGE_RANGE = (0.75, 1.5)

#: Spans that wait rather than compute: their ledger share is of wall
#: time spent waiting, not of CPU.
WAITS = ("dispatch.poll", "manager.queue_wait")


def service_layers(spans_dir: Path, traced, untraced_cpu_ms: float,
                   frame_bytes: int, telemetry: dict):
    """``(metrics, ledger)`` of the traced run's fixed phase."""
    spans = load_spans(sorted(spans_dir.glob("*.jsonl")))
    if not spans:
        raise BenchError(f"the traced server wrote no spans to {spans_dir}")
    lo, hi = (int(t * 1e9) for t in traced.fixed_window)
    window = [s for s in spans if lo <= s.start <= hi]
    n_chunks = traced.fixed.sent
    by_name: dict[str, list] = {}
    for span in window:
        by_name.setdefault(span.name, []).append(span)

    def durations(name: str, scale: float) -> list[float]:
        return [s.dur_ns / scale for s in by_name.get(name, ())]

    def per_chunk_us(*names: str) -> float:
        return sum(s.dur_ns for n in names for s in by_name.get(n, ())) / 1e3 / n_chunks

    first_window = next(
        (s.dur_ns for s in sorted(spans, key=lambda s: s.start)
         if s.name == "session.push" and s.count), 0,
    )
    imports = [s.dur_ns / 1e9 for s in spans if s.name == "setup.import_repro"]
    batches = by_name.get("features.extract_batch", ())
    traced_cpu_ms = 1e3 * traced.fixed_cpu_s / n_chunks

    outermost = _outermost(window, CPU_LAYERS)
    coverage = sum(s.dur_ns for s in outermost) / 1e9 / traced.fixed_cpu_s
    metrics = {
        "service.framing.decode_us": per_chunk_us("framing.decode_payload", "framing.decode_chunk"),
        "service.framing.encode_us": per_chunk_us("framing.encode"),
        "service.framing.bytes_per_chunk": frame_bytes,
        "service.admission.screen_us": median(durations("admission.screen", 1e3)),
        "service.manager.ingest_us": median(durations("manager.ingest", 1e3)),
        "service.manager.queue_wait_ms": median(durations("manager.queue_wait", 1e6)),
        "service.session.push_ms": median(
            s.dur_ns / 1e6 for s in by_name.get("session.push", ()) if s.count
        ),
        "service.session.scores_us": median(durations("session.scores", 1e3)),
        "features.extract_batch_ms": median(durations("features.extract_batch", 1e6)),
        "features.windows_per_batch": median(s.count for s in batches),
        "service.poll_ms": median(durations("dispatch.poll", 1e6)),
        "service.telemetry.p99_ms": telemetry["telemetry"]["latency"]["p99_ms"],
        "setup.import_repro_s": median(imports),
        "setup.first_window_ms": first_window / 1e6,
        "generator.lag_ms": tail(traced.fixed.lags_ms())[0],
        "trace.overhead_frac": traced_cpu_ms / untraced_cpu_ms - 1.0,
        "trace.coverage_frac": coverage,
    }
    for kernel in KERNELS:
        metrics[f"kernels.{kernel}_ms"] = median(durations(f"kernels.{kernel}", 1e6))
    low, high = COVERAGE_RANGE
    if not low <= coverage <= high:
        raise BenchError(
            f"traced CPU layers cover {coverage:.3f} of the server's CPU "
            f"time, outside [{low}, {high}]"
        )
    rows = ledger(window, traced.fixed_cpu_s * 1e9, n_chunks, "chunk")
    for row in rows:
        row["kind"] = "wait" if row["layer"] in WAITS else "cpu"
    return metrics, rows


def _outermost(spans, names) -> list:
    """Spans named in ``names`` with no ancestor named in ``names``."""
    index = {s.id: s for s in spans}
    out = []
    for span in spans:
        if span.name not in names:
            continue
        parent = index.get(span.parent)
        while parent is not None and parent.name not in names:
            parent = index.get(parent.parent)
        if parent is None:
            out.append(span)
    return out
