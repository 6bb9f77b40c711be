"""``repro serve`` with spans around the service's public functions.

    PYTHONPATH=src python perfbench/traced_serve.py SPANS_DIR serve [flags]

The server writes its spans to ``SPANS_DIR`` when ``serve`` returns
(SIGTERM drains the sessions, then returns).
"""

from __future__ import annotations

import collections
import os
import sys
import time
from pathlib import Path

from tracing import Tracer, trace_features


def request_of(message) -> list | None:
    """Request id of a frame: ``[op, session, seq]``."""
    if not isinstance(message, dict) or "op" not in message:
        return None
    return [message.get("op"), message.get("session"), message.get("seq")]


def install(tracer: Tracer) -> None:
    """Wrap the service layers' public functions in this process."""
    from repro.service import admission, framing
    from repro.service.manager import SessionManager
    from repro.service.session import DetectorSession, FeatureThresholdDetector

    # -- framing ------------------------------------------------------
    decode_payload = framing.decode_payload

    def traced_decode_payload(payload):
        span, token = tracer.begin("framing.decode_payload")
        try:
            message = decode_payload(payload)
        finally:
            tracer.finish(span, token)
        span.request = request_of(message)
        span.count = len(payload)
        return message

    tracer.patch_function(framing, "decode_payload", traced_decode_payload)
    tracer.patch_function(framing, "decode_chunk", tracer.wrap(
        framing.decode_chunk, "framing.decode_chunk",
        request_of=lambda a, k: request_of(a[0]),
    ))
    tracer.patch_function(framing, "encode_frame", tracer.wrap(
        framing.encode_frame, "framing.encode",
        request_of=lambda a, k: request_of(a[0]),
    ))

    # -- admission and dispatch ----------------------------------------
    tracer.patch(admission.AdmissionGate, "screen", tracer.wrap(
        admission.AdmissionGate.screen, "admission.screen",
        request_of=lambda a, k: request_of(a[2]),
    ))
    serve_connection = admission.serve_connection

    async def traced_serve_connection(reader, writer, gate, dispatch):
        async def traced_dispatch(message):
            span, token = tracer.begin(
                f"dispatch.{message.get('op')}", request_of(message)
            )
            try:
                return await dispatch(message)
            finally:
                tracer.finish(span, token)

        await serve_connection(reader, writer, gate, traced_dispatch)

    tracer.patch_function(admission, "serve_connection", traced_serve_connection)

    # -- session manager: ingest, queue wait, pump ---------------------
    admitted: dict = collections.defaultdict(collections.deque)
    ingest = SessionManager.ingest

    def traced_ingest(self, session_id, chunk, seq=None, strict=False):
        span, token = tracer.begin("manager.ingest", ["chunk", session_id, seq])
        try:
            result = ingest(self, session_id, chunk, seq=seq, strict=strict)
        finally:
            tracer.finish(span, token)
        if result.accepted:
            admitted[str(session_id)].append(span.end)
        return result

    tracer.patch(SessionManager, "ingest", traced_ingest)
    tracer.patch(SessionManager, "pump", tracer.wrap(
        SessionManager.pump, "manager.pump", request_of=lambda a, k: a[1],
    ))
    tracer.patch(SessionManager, "poll_events", tracer.wrap(
        SessionManager.poll_events, "manager.poll_events",
    ))
    push_chunk = DetectorSession.push_chunk

    def traced_push_chunk(self, chunk):
        seq = self.chunks_ingested
        pending = admitted.get(self.session_id)
        pump = tracer.current()
        span, token = tracer.begin("session.push", ["chunk", self.session_id, seq])
        try:
            windows = push_chunk(self, chunk)
        finally:
            tracer.finish(span, token)
        span.count = windows
        if pending:
            # Ingest return -> start of the pump deciding this chunk.
            started = pump.start if pump is not None else span.start
            tracer.record("manager.queue_wait", pending.popleft(), started,
                          ["chunk", self.session_id, seq])
        return windows

    tracer.patch(DetectorSession, "push_chunk", traced_push_chunk)
    tracer.patch(FeatureThresholdDetector, "scores", tracer.wrap(
        FeatureThresholdDetector.scores, "session.scores",
    ))
    trace_features(tracer)


def main(argv: list[str]) -> int:
    spans_dir = Path(argv[0])
    tracer = Tracer()
    start = time.perf_counter_ns()
    import repro  # noqa: F401

    tracer.record("setup.import_repro", start, time.perf_counter_ns())
    from repro import cli

    install(tracer)
    try:
        return cli.main(argv[1:])
    finally:
        tracer.dump(spans_dir / f"server-{os.getpid()}.jsonl")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
