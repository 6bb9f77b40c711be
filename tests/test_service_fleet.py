"""ServiceShardPool: stable session routing, pool-vs-batch parity at any
chunking and worker count, drain-on-stop, dead-shard surfacing, and the
single client-facing listener in front of N worker processes.

The worker-side dispatch (`DetectionService.dispatch`) is exercised
in-process — it is the exact op table each spawned shard runs, so
backpressure and error-frame behavior are pinned deterministically
without paying a process spawn per case.  The spawning tests keep to a
handful of pool lifecycles to stay fast.
"""

import asyncio
import json
import struct

import numpy as np
import pytest

from repro.exceptions import ServiceError
from repro.service import (
    DetectionService,
    ServiceConfig,
    ServiceShardPool,
    batch_window_decisions,
    shard_index_of,
)
from repro.service.framing import chunk_message

FS = 256
_LEN = struct.Struct(">I")


def run(coro):
    return asyncio.run(coro)


async def request(reader, writer, message):
    payload = json.dumps(message).encode()
    writer.write(_LEN.pack(len(payload)) + payload)
    await writer.drain()
    (length,) = _LEN.unpack(await reader.readexactly(_LEN.size))
    return json.loads(await reader.readexactly(length))


class TestRouting:
    def test_stable_and_in_range(self):
        for session_id in ("p1", "p2", "alpha", "42"):
            shard = shard_index_of(session_id, 4)
            assert 0 <= shard < 4
            # Same id, same shard — every time, every process.
            assert shard_index_of(session_id, 4) == shard

    def test_spreads_sessions_across_shards(self):
        hit = {shard_index_of(f"s{i}", 4) for i in range(64)}
        assert hit == {0, 1, 2, 3}

    def test_single_shard_gets_everything(self):
        assert all(
            shard_index_of(f"s{i}", 1) == 0 for i in range(8)
        )

    def test_invalid_shard_count_raises(self):
        with pytest.raises(ServiceError):
            shard_index_of("p", 0)


class TestShardDispatch:
    """The shard's frame handler, unit-tested without a process."""

    def test_backpressure_is_deterministic_and_surfaced(self):
        # No consumer: the queue can only fill, so the second chunk's
        # rejection is deterministic — the exact frames a pool client
        # sees when a shard is saturated.
        async def go():
            service = DetectionService(
                ServiceConfig(queue_depth=1, backpressure="reject")
            )
            opened = await service.dispatch({"op": "open", "session": "p"})
            assert opened == {"ok": True, "session": "p"}
            first = await service.dispatch(
                chunk_message("p", 0, np.zeros((2, FS)))
            )
            second = await service.dispatch(
                chunk_message("p", 1, np.zeros((2, FS)))
            )
            assert first["ok"] and first["accepted"]
            assert second["ok"] and not second["accepted"]
            assert "reject" in second["reason"]
            # Only the admitted chunk is queued.
            assert service.manager.queue_depth("p") == 1

        run(go())

    def test_shed_oldest_counts_surface(self):
        async def go():
            service = DetectionService(
                ServiceConfig(queue_depth=1, backpressure="shed-oldest")
            )
            await service.dispatch({"op": "open", "session": "p"})
            await service.dispatch(chunk_message("p", 0, np.zeros((2, FS))))
            reply = await service.dispatch(
                chunk_message("p", 1, np.zeros((2, FS)))
            )
            assert reply["ok"] and reply["accepted"] and reply["shed"] == 1

        run(go())

    def test_error_frames_match_single_process_service(self):
        async def go():
            service = DetectionService(ServiceConfig())
            bad_op = await service.dispatch({"op": "bogus"})
            missing = await service.dispatch({"op": "open"})
            ghost = await service.dispatch(
                chunk_message("ghost", 0, np.zeros((2, FS)))
            )
            assert not bad_op["ok"] and "bogus" in bad_op["error"]
            assert not missing["ok"] and "session" in missing["error"]
            assert not ghost["ok"] and "ghost" in ghost["error"]

        run(go())

    def test_full_session_round_trip_matches_batch(self, sample_record):
        n = 20 * FS
        expected = batch_window_decisions(
            type(sample_record)(
                data=sample_record.data[:, :n], fs=sample_record.fs
            )
        )

        async def go():
            async with DetectionService(ServiceConfig()) as service:
                await service.dispatch({"op": "open", "session": "p"})
                for seq in range(4):
                    lo = seq * 5 * FS
                    reply = await service.dispatch(
                        chunk_message(
                            "p", seq, sample_record.data[:, lo : lo + 5 * FS]
                        ),
                    )
                    assert reply["ok"] and reply["accepted"]
                polled = await service.dispatch({"op": "poll", "session": "p"})
                closed = await service.dispatch(
                    {"op": "close", "session": "p"}
                )
                assert polled["ok"] and closed["ok"]
                decided = polled["events"] + closed["trailing_events"]
                assert decided == [d.to_dict() for d in expected]
                shutdown = await service.dispatch({"op": "shutdown"})
                assert shutdown["ok"]
                telemetry = shutdown["telemetry"]
                assert telemetry["chunks"]["processed"] == 4
                assert "samples_ms" in telemetry["latency"]

        run(go())


class TestShardPool:
    def test_parity_across_chunkings_and_shards(self, sample_record):
        """The tentpole contract: pooled per-session decisions are
        byte-identical to the batch path at any chunking, with the two
        sessions living on *different* worker processes."""
        batch = batch_window_decisions(sample_record)
        # Pick ids on different shards so the parity run covers both
        # worker processes, not one shard twice.
        ids = [f"p{i}" for i in range(16)]
        a = next(s for s in ids if shard_index_of(s, 2) == 0)
        b = next(s for s in ids if shard_index_of(s, 2) == 1)
        steps = {a: 4 * FS, b: 7 * FS}  # two different chunkings

        async def go():
            config = ServiceConfig(queue_depth=256, workers=2)
            async with ServiceShardPool(config) as pool:
                assert {pool.shard_of(a), pool.shard_of(b)} == {0, 1}
                results = {}
                for sid, step in steps.items():
                    await pool.open_session(sid)
                    for seq, lo in enumerate(
                        range(0, sample_record.n_samples, step)
                    ):
                        result = await pool.ingest(
                            sid,
                            sample_record.data[:, lo : lo + step],
                            seq=seq,
                        )
                        assert result.accepted
                    events = await pool.poll_events(sid)
                    summary = await pool.close_session(sid)
                    results[sid] = events + list(summary.trailing_events)
                merged = await pool.snapshot()
                return results, merged

        results, merged = run(go())
        assert results[a] == batch
        assert results[b] == batch
        assert merged["workers"] == 2 and len(merged["shards"]) == 2
        assert merged["sessions"]["opened"] == 2
        # Both shards actually hosted work.
        hosted = [
            s["sessions"]["opened"] for s in merged["shards"]
        ]
        assert hosted == [1, 1]

    def test_stop_drains_every_shard(self, sample_record):
        """Chunks admitted before stop() are decided, never dropped."""

        async def go():
            pool = ServiceShardPool(ServiceConfig(queue_depth=256), workers=2)
            await pool.start()
            sids = [f"p{i}" for i in range(4)]
            for sid in sids:
                await pool.open_session(sid)
                for seq in range(3):
                    lo = seq * 6 * FS
                    await pool.ingest(
                        sid, sample_record.data[:, lo : lo + 6 * FS], seq=seq
                    )
            return await pool.stop()  # no explicit drain first

        merged = run(go())
        assert merged["chunks"]["ingested"] == 12
        assert merged["chunks"]["processed"] == 12  # drained, not dropped
        assert merged["queue"]["depth"] == 0
        assert merged["windows"]["decided"] > 0

    def test_dead_shard_is_an_error_not_a_hang(self):
        """With resilience off (replay_buffer=0) the PR 9 contract holds:
        a dead shard fails its requests instead of restarting."""

        async def go():
            pool = ServiceShardPool(ServiceConfig(replay_buffer=0), workers=2)
            await pool.start()
            victim = pool.shard_of("p")
            process = pool._clients[victim].process
            process.kill()  # SIGKILL: workers ignore SIGTERM by design
            await asyncio.get_running_loop().run_in_executor(
                None, process.join, 10.0
            )
            with pytest.raises(ServiceError):
                await pool.open_session("p")
            # The surviving shard still answers, and stop() completes.
            merged = await pool.stop()
            return merged

        merged = run(go())
        assert merged["workers"] == 1  # only the survivor reported

    def test_socket_front_end_routes_and_merges(self, sample_record):
        """One listener, same wire protocol, frames land on the owning
        shard; telemetry answers fleet-wide."""
        n = 20 * FS
        expected = [
            d.to_dict()
            for d in batch_window_decisions(
                type(sample_record)(
                    data=sample_record.data[:, :n], fs=sample_record.fs
                )
            )
        ]

        async def go():
            async with ServiceShardPool(workers=2) as pool:
                host, port = await pool.serve()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    opened = await request(
                        reader, writer, {"op": "open", "session": "p"}
                    )
                    assert opened == {"ok": True, "session": "p"}
                    for seq in range(4):
                        lo = seq * 5 * FS
                        reply = await request(
                            reader,
                            writer,
                            chunk_message(
                                "p",
                                seq,
                                sample_record.data[:, lo : lo + 5 * FS],
                            ),
                        )
                        assert reply["ok"] and reply["accepted"]
                    polled = await request(
                        reader, writer, {"op": "poll", "session": "p"}
                    )
                    closed = await request(
                        reader, writer, {"op": "close", "session": "p"}
                    )
                    telemetry = await request(
                        reader, writer, {"op": "telemetry"}
                    )
                    bad_op = await request(reader, writer, {"op": "bogus"})
                    missing = await request(reader, writer, {"op": "open"})
                finally:
                    writer.close()
                    await writer.wait_closed()
                return polled, closed, telemetry, bad_op, missing

        polled, closed, telemetry, bad_op, missing = run(go())
        assert polled["ok"]
        assert polled["events"] + closed["trailing_events"] == expected
        assert closed["ok"] and closed["error"] is None
        merged = telemetry["telemetry"]
        assert merged["workers"] == 2 and len(merged["shards"]) == 2
        assert merged["chunks"]["ingested"] == 4
        assert not bad_op["ok"] and "bogus" in bad_op["error"]
        assert not missing["ok"] and "session" in missing["error"]
