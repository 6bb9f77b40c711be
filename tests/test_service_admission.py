"""Admission gate: handshake versions, auth tokens, per-client quotas,
and the structured error codes every denial puts on the wire."""

import asyncio

import numpy as np
import pytest

from repro.exceptions import (
    AuthError,
    QuotaError,
    ServiceError,
    ServiceErrorCode,
)
from repro import api
from repro.service import (
    AdmissionGate,
    DetectionService,
    PROTOCOL_VERSION,
    ServiceConfig,
    ServiceTelemetry,
)
from repro.service.framing import read_frame, write_frame

FS = 256


def run(coro):
    return asyncio.run(coro)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestHandshake:
    def test_hello_ok_and_counted(self):
        telemetry = ServiceTelemetry()
        gate = AdmissionGate(ServiceConfig(), telemetry)
        conn = gate.connection()
        reply = gate.screen(
            conn, {"op": "hello", "version": PROTOCOL_VERSION}
        )
        assert reply == {
            "ok": True,
            "version": PROTOCOL_VERSION,
            "authenticated": False,
        }
        assert conn.hello_done and not conn.closed
        assert telemetry.handshakes == 1

    def test_unknown_version_closes_with_protocol_code(self):
        gate = AdmissionGate(ServiceConfig())
        conn = gate.connection()
        reply = gate.screen(conn, {"op": "hello", "version": 99})
        assert not reply["ok"]
        assert reply["code"] == ServiceErrorCode.PROTOCOL.value
        assert conn.closed

    def test_versionless_legacy_client_passes_without_auth(self):
        gate = AdmissionGate(ServiceConfig())
        conn = gate.connection()
        # No hello at all: the frame goes straight through the gate.
        assert gate.screen(conn, {"op": "open", "session": "p"}) is None
        assert not conn.closed


class TestAuth:
    def config(self):
        return ServiceConfig(auth_tokens=("alpha", "beta"))

    def test_frames_before_hello_denied_with_auth_code(self):
        telemetry = ServiceTelemetry()
        gate = AdmissionGate(self.config(), telemetry)
        conn = gate.connection()
        reply = gate.screen(conn, {"op": "open", "session": "p"})
        assert not reply["ok"]
        assert reply["code"] == ServiceErrorCode.AUTH.value
        assert conn.closed
        assert telemetry.auth_failures == 1

    def test_bad_token_denied(self):
        gate = AdmissionGate(self.config())
        conn = gate.connection()
        reply = gate.screen(
            conn,
            {"op": "hello", "version": PROTOCOL_VERSION, "token": "nope"},
        )
        assert not reply["ok"]
        assert reply["code"] == ServiceErrorCode.AUTH.value
        assert conn.closed

    def test_good_token_authenticates_and_names_the_client(self):
        gate = AdmissionGate(self.config())
        conn = gate.connection()
        reply = gate.screen(
            conn,
            {"op": "hello", "version": PROTOCOL_VERSION, "token": "alpha"},
        )
        assert reply["ok"] and reply["authenticated"]
        assert conn.client_key == "token-alpha"
        assert gate.screen(conn, {"op": "open", "session": "p"}) is None


class TestQuotas:
    def test_session_limit_is_per_client_and_freed_on_close(self):
        telemetry = ServiceTelemetry()
        gate = AdmissionGate(
            ServiceConfig(max_sessions_per_client=1), telemetry
        )
        conn = gate.connection()
        opened = {"op": "open", "session": "a"}
        assert gate.screen(conn, opened) is None
        gate.observe(conn, opened, {"ok": True, "session": "a"})
        denied = gate.screen(conn, {"op": "open", "session": "b"})
        assert denied["code"] == ServiceErrorCode.QUOTA.value
        assert telemetry.quota_rejected == 1
        # Re-opening the same id is not a second session.
        assert gate.screen(conn, {"op": "open", "session": "a"}) is None
        # Another client has its own budget.
        other = gate.connection()
        assert gate.screen(other, {"op": "open", "session": "b"}) is None
        # Closing frees the slot.
        closed = {"op": "close", "session": "a"}
        gate.observe(conn, closed, {"ok": True})
        assert gate.screen(conn, {"op": "open", "session": "b"}) is None

    def test_chunk_rate_token_bucket_with_injected_clock(self):
        clock = FakeClock()
        gate = AdmissionGate(
            ServiceConfig(chunk_rate=2.0), clock=clock
        )
        conn = gate.connection()
        chunk = {"op": "chunk", "session": "a"}
        # Burst capacity = max(1, rate) = 2 chunks immediately...
        assert gate.screen(conn, chunk) is None
        assert gate.screen(conn, chunk) is None
        # ...then the bucket is empty until time passes.
        denied = gate.screen(conn, chunk)
        assert denied["code"] == ServiceErrorCode.QUOTA.value
        clock.now += 0.5  # refills one token at 2/s
        assert gate.screen(conn, chunk) is None
        assert gate.screen(conn, chunk)["code"] == (
            ServiceErrorCode.QUOTA.value
        )

    def test_token_clients_pool_quota_across_connections(self):
        gate = AdmissionGate(
            ServiceConfig(
                auth_tokens=("alpha",), max_sessions_per_client=1
            )
        )
        hello = {
            "op": "hello", "version": PROTOCOL_VERSION, "token": "alpha",
        }
        first = gate.connection()
        gate.screen(first, hello)
        opened = {"op": "open", "session": "a"}
        assert gate.screen(first, opened) is None
        gate.observe(first, opened, {"ok": True})
        # A second connection with the same token shares the budget.
        second = gate.connection()
        gate.screen(second, hello)
        denied = gate.screen(second, {"op": "open", "session": "b"})
        assert denied["code"] == ServiceErrorCode.QUOTA.value


class TestOnTheWire:
    """The codes as clients actually see them, over a live listener."""

    def test_auth_and_quota_codes_while_good_client_continues(self):
        config = ServiceConfig(
            auth_tokens=("secret",), max_sessions_per_client=1
        )

        async def go():
            async with DetectionService(config) as service:
                host, port = await service.serve()
                loop = asyncio.get_running_loop()

                def bad_clients():
                    # Missing token: denied with "auth", then hung up.
                    with pytest.raises(AuthError):
                        api.connect(host, port)
                    # Wrong token: same, as a typed AuthError.
                    with pytest.raises(AuthError) as err:
                        api.connect(host, port, token="wrong")
                    assert err.value.code is ServiceErrorCode.AUTH

                def good_client():
                    with api.connect(host, port, token="secret") as client:
                        assert client.authenticated
                        assert client.server_version == PROTOCOL_VERSION
                        client.open("p")
                        # Second session breaks the per-client quota...
                        with pytest.raises(QuotaError) as err:
                            client.open("q")
                        assert err.value.code is ServiceErrorCode.QUOTA
                        # ...but the connection survives the denial.
                        for seq in range(4):
                            result = client.push(
                                "p", np.zeros((2, 2 * FS)), seq=seq
                            )
                            assert result.accepted
                        events = client.poll("p")
                        summary = client.close("p")
                        return events, summary

                await loop.run_in_executor(None, bad_clients)
                events, summary = await loop.run_in_executor(
                    None, good_client
                )
                snapshot = service.snapshot()
                return events, summary, snapshot

        events, summary, snapshot = run(go())
        assert summary.windows == len(events) + len(summary.trailing_events)
        assert summary.error is None
        assert snapshot["admission"]["handshakes"] == 1
        assert snapshot["admission"]["auth_failures"] == 2
        assert snapshot["admission"]["quota_rejected"] == 1

    def test_legacy_versionless_client_still_works_without_auth(self):
        async def go():
            async with DetectionService(ServiceConfig()) as service:
                host, port = await service.serve()
                loop = asyncio.get_running_loop()

                def legacy():
                    client = api.connect(host, port, handshake=False)
                    try:
                        assert client.server_version is None
                        client.open("p")
                        for seq in range(5):
                            assert client.push(
                                "p", np.zeros((2, FS)), seq=seq
                            ).accepted
                        return client.close("p")
                    finally:
                        client.disconnect()

                return await loop.run_in_executor(None, legacy)

        summary = run(go())
        assert summary.chunks == 5
        assert summary.windows == 2  # 5 s of signal, 4 s/1 s windows

    def test_unauthenticated_socket_is_closed_after_error_frame(self):
        config = ServiceConfig(auth_tokens=("secret",))

        async def go():
            async with DetectionService(config) as service:
                host, port = await service.serve()

                def probe():
                    client = api.connect(host, port, handshake=False)
                    try:
                        with pytest.raises(AuthError):
                            client.open("p")
                        # The service hung up after the fatal denial.
                        with pytest.raises(ServiceError):
                            client.open("p")
                    finally:
                        client.disconnect()

                await asyncio.get_running_loop().run_in_executor(
                    None, probe
                )

        run(go())


class TestClientVerbSet:
    """Both socket surfaces answer one verb set: the pool-internal
    ``drain``/``shutdown`` verbs are refused like any unknown op."""

    @pytest.mark.parametrize("op", ["drain", "shutdown", "bogus"])
    @pytest.mark.parametrize("workers", [1, 2], ids=["single", "pool-2"])
    def test_non_client_op_refused_and_connection_survives(self, workers, op):
        async def go():
            async with api.start_service(workers=workers) as service:
                host, port = await service.serve()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    replies = []
                    for message in ({"op": op}, {"op": "open", "session": "p"}):
                        write_frame(writer, message)
                        await writer.drain()
                        replies.append(await read_frame(reader))
                finally:
                    writer.close()
                    await writer.wait_closed()
                return replies

        refused, opened = run(go())
        assert refused == {
            "ok": False,
            "error": f"unknown op {op!r}",
            "code": ServiceErrorCode.PROTOCOL.value,
        }
        assert opened == {"ok": True, "session": "p"}
