"""Real-time detection service walkthrough: sessions, replay, telemetry.

Three views of :mod:`repro.service`:

1. one :class:`DetectorSession` driven by hand — push chunks, poll
   per-window decisions, watch the batch-parity contract hold;
2. a wall-clock :class:`Replayer` streaming a synthetic record through a
   :class:`SessionManager` faster than real time, with the full
   decision stream byte-identical to the batch pipeline;
3. the asyncio :class:`DetectionService` hosting concurrent sessions
   with bounded queues and explicit backpressure, plus the latency
   telemetry snapshot;
4. the hardened wire protocol: a token-authenticated listener dialed
   with :func:`repro.api.connect`, whose typed :class:`ServiceClient`
   streams chunks and surfaces structured quota/auth denials.

Run:
    python examples/realtime_service.py

CLI equivalent of the replay below:
    python -m repro replay --patient 1 --seizure 0 \
        --duration-min 5 --duration-max 6 --speed 0 --json
"""

import asyncio


from repro import api
from repro.data import SyntheticEEGDataset
from repro.exceptions import AuthError
from repro.service import (
    DetectorSession,
    Replayer,
    ServiceConfig,
    SessionManager,
    batch_window_decisions,
    telemetry_to_json,
)


def main() -> None:
    dataset = SyntheticEEGDataset(duration_range_s=(300.0, 360.0))
    source = api.open_source(dataset=dataset, patient_id=1, seizure_index=0)

    # --- 1. one session, by hand --------------------------------------
    session = DetectorSession("demo")
    fs = int(source.fs)
    record = source.materialize()
    for start in range(0, record.n_samples, 2 * fs):  # 2 s packets
        session.push_chunk(record.data[:, start : start + 2 * fs])
    events = session.poll_events()
    session.finalize()
    print(f"session: {len(events)} window decisions from "
          f"{session.chunks_ingested} chunks")

    # The parity contract: streamed decisions == batch decisions.
    batch = batch_window_decisions(record)
    print(f"byte-identical to batch pipeline: {events == batch}")
    assert events == batch

    # --- 2. wall-clock replay -----------------------------------------
    # speed=120 replays a 5-6 minute record in ~3 s of wall time;
    # speed=1.0 would pace it like the live wearable stream.
    replayer = Replayer(speed=120.0, chunk_s=1.0)
    report = replayer.replay(source)
    print(
        f"\nreplay: {report.media_s:.0f} media-s in {report.wall_s:.1f} "
        f"wall-s ({report.realtime_factor:.0f}x real time), "
        f"max pacing lag {report.max_lag_s * 1e3:.1f} ms"
    )
    assert list(report.decisions) == batch

    # --- 3. the async service under concurrent load -------------------
    async def serve_concurrently() -> None:
        config = ServiceConfig(queue_depth=8, backpressure="reject")
        async with api.start_service(config) as service:
            n_sessions, chunk = 16, record.data[:, : 2 * fs]
            for i in range(n_sessions):
                await service.open_session(f"patient-{i}")
            for seq in range(5):
                for i in range(n_sessions):
                    result = await service.ingest(
                        f"patient-{i}", chunk, seq=seq
                    )
                    assert result.accepted  # queue bound never silent
            await service.drain()
            summaries = [
                await service.close_session(f"patient-{i}")
                for i in range(n_sessions)
            ]
            windows = sum(s.windows for s in summaries)
            print(
                f"\nservice: {n_sessions} concurrent sessions, "
                f"{windows} windows decided"
            )
            print("telemetry:", telemetry_to_json(service.snapshot()))

    asyncio.run(serve_concurrently())

    # --- 4. the hardened wire protocol --------------------------------
    # Clients dial in with api.connect: a versioned hello handshake,
    # an auth token checked by the admission gate, and per-client
    # quotas that come back as typed errors — not hung sockets.
    async def serve_hardened() -> None:
        config = ServiceConfig(
            auth_tokens=("wearable-01",), max_sessions_per_client=2
        )
        async with api.start_service(config) as service:
            host, port = await service.serve()
            loop = asyncio.get_running_loop()

            def stream_as_client() -> None:
                try:
                    api.connect(host, port, token="bogus")
                except AuthError as exc:
                    print(f"\nbad token denied: [{exc.code.value}] {exc}")
                with api.connect(host, port, token="wearable-01") as client:
                    client.open("wearable")
                    for seq in range(5):
                        lo = seq * 2 * fs
                        client.push(
                            "wearable", record.data[:, lo : lo + 2 * fs],
                            seq=seq,
                        )
                    decisions = client.poll("wearable")
                    summary = client.close("wearable")
                    print(
                        f"client: {summary.chunks} chunks -> "
                        f"{len(decisions) + len(summary.trailing_events)} "
                        f"decisions over the socket"
                    )

            await loop.run_in_executor(None, stream_as_client)
            admission = service.snapshot()["admission"]
            print(f"admission telemetry: {admission}")

    asyncio.run(serve_hardened())


if __name__ == "__main__":
    main()
