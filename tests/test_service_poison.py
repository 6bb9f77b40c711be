"""A poisoned chunk fails its own session, never the service.

Session ``bad`` streams poisoned chunks interleaved with session
``good``'s clean ones: NaN samples, and finite ``1e308`` samples whose
wavelet decomposition overflows.  The chunk the detector cannot decide must fail ``bad``
alone: ``drain`` still returns, ``bad``'s next poll is a ``protocol``
error and its close names the failure, and ``good``'s decisions stay
byte-identical to the batch pipeline — on the single-process service
and on a 2-worker shard pool (where both ids route to the same shard).
"""

import asyncio
import os
import signal

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

FS = 256
CHUNK = 5 * FS
N_CHUNKS = 4
#: Bound on each drain; a frozen consumer turns into a test failure
#: instead of a hang.
DRAIN_TIMEOUT_S = 20.0
#: Bound on a whole scenario, teardown included.
SCENARIO_TIMEOUT_S = 60.0
#: (poison sample value, fragment of the FeatureError it must raise).
POISONS = ((np.nan, "NaN"), (1e308, "overflows"))


def truncated(record, n_samples):
    return type(record)(data=record.data[:, :n_samples], fs=record.fs)


async def poison_scenario(host, record, value):
    """Interleave clean ``good`` chunks with ``bad`` ones (all ``value``
    at odd seq); returns (good's decisions, bad's poll error, bad's
    summary)."""
    await host.open_session("good")
    await host.open_session("bad")
    poison = np.full((record.data.shape[0], CHUNK), value)
    for seq in range(N_CHUNKS):
        chunk = record.data[:, seq * CHUNK : (seq + 1) * CHUNK]
        result = await host.ingest("good", chunk, seq=seq)
        assert result.accepted
        try:
            await host.ingest("bad", poison if seq % 2 else chunk, seq=seq)
        except ServiceError:
            pass  # bad already failed: later chunks are refused
    await asyncio.wait_for(host.drain(), DRAIN_TIMEOUT_S)
    with pytest.raises(ServiceError) as bad_poll:
        await host.poll_events("bad")
    bad_summary = await host.close_session("bad")
    events = await host.poll_events("good")
    good_summary = await host.close_session("good")
    assert good_summary.error is None
    return events + list(good_summary.trailing_events), bad_poll.value, bad_summary


def check(outcome, expected, fragment):
    decided, bad_poll, bad_summary = outcome
    assert decided == expected
    assert "failed" in str(bad_poll) and fragment in str(bad_poll)
    assert bad_summary.error is not None
    assert bad_summary.error.startswith("FeatureError")


class TestPoisonedChunk:
    def test_single_process_service(self, sample_record):
        record = truncated(sample_record, N_CHUNKS * CHUNK)
        expected = batch_window_decisions(record)

        async def go():
            async with DetectionService(ServiceConfig()) as service:
                outcomes = [
                    await poison_scenario(service, record, value)
                    for value, _ in POISONS
                ]
                # The consumer survived: a fresh session still decides.
                await service.open_session("after")
                await service.ingest("after", record.data[:, :CHUNK])
                await asyncio.wait_for(service.drain(), DRAIN_TIMEOUT_S)
                assert await service.poll_events("after")
                return outcomes

        outcomes = asyncio.run(asyncio.wait_for(go(), SCENARIO_TIMEOUT_S))
        for outcome, (_, fragment) in zip(outcomes, POISONS):
            check(outcome, expected, fragment)

    def test_two_worker_pool(self, sample_record):
        assert shard_index_of("good", 2) == shard_index_of("bad", 2)
        record = truncated(sample_record, N_CHUNKS * CHUNK)
        expected = batch_window_decisions(record)

        pool = ServiceShardPool(ServiceConfig(), workers=2)

        async def go():
            async with pool:
                return [
                    await poison_scenario(pool, record, value)
                    for value, _ in POISONS
                ]

        try:
            outcomes = asyncio.run(asyncio.wait_for(go(), SCENARIO_TIMEOUT_S))
        finally:
            # A frozen shard ignores SIGTERM and never answers shutdown;
            # SIGKILL whatever a failed run left behind so it cannot hang
            # interpreter exit.  A clean stop leaves nothing to kill.
            for index in range(pool.n_workers):
                try:
                    os.kill(pool.worker_pid(index), signal.SIGKILL)
                except (ServiceError, ProcessLookupError):
                    pass
        for outcome, (_, fragment) in zip(outcomes, POISONS):
            check(outcome, expected, fragment)
