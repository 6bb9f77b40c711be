"""The service's wire codec: length-prefixed JSON frames, shared by
every transport.

One frame is ``[4-byte big-endian payload length][UTF-8 JSON object]``.
The codec grew up inside :mod:`repro.service.ingest` for the client
socket protocol; the multi-process shard pool (:mod:`repro.service
.fleet`) speaks the *same* frames over its parent↔worker pipes, so the
encode/decode/limit logic lives here once and both transports import
it — a frame captured on either wire is readable by the same tooling.

Two I/O flavors cover every peer:

* :func:`read_frame` / :func:`write_frame` — asyncio streams (both
  services' listeners, the shard pool's pipe clients, and each shard's
  end of its IPC socket);
* :func:`read_frame_sync` / :func:`write_frame_sync` — blocking binary
  file objects (the synchronous :class:`~repro.service.client
  .ServiceClient`).

Both enforce :data:`MAX_FRAME_BYTES` and the same payload validation,
raising :class:`~repro.exceptions.ServiceError` on violations; a clean
EOF reads as ``None`` so callers can tell "peer hung up" from "peer
sent garbage".

Chunk payloads (the hot frame) carry row-major float64 samples as
base64 — :func:`chunk_message` / :func:`decode_chunk` are the only
encode/decode pair, so the parent can route a client's chunk frame to a
shard verbatim and the shard decodes it exactly as the single-process
service would.
"""

from __future__ import annotations

import asyncio
import base64
import json
import struct
from typing import BinaryIO

import numpy as np

from ..exceptions import (
    AuthError,
    BackpressureError,
    QuotaError,
    ServiceError,
    ServiceErrorCode,
    ShardDeathError,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "chunk_message",
    "decode_chunk",
    "decode_payload",
    "encode_frame",
    "error_frame",
    "exception_for",
    "read_frame",
    "read_frame_sync",
    "write_frame",
    "write_frame_sync",
]

#: Upper bound of one frame's payload; a length prefix past this is
#: treated as a protocol violation (protects the server from a single
#: garbage frame allocating gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Version of the socket protocol spoken after a ``hello`` handshake.
#: Versionless clients (no hello frame) speak the PR 7 legacy protocol,
#: which stays accepted while the service has auth disabled.
PROTOCOL_VERSION = 1

_LEN = struct.Struct(">I")


def encode_frame(message: dict) -> bytes:
    """One canonical frame: length prefix + compact sorted-key JSON."""
    payload = json.dumps(
        message, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return _LEN.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    """Parse and validate one frame's payload bytes."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"malformed frame: {exc}") from None
    if not isinstance(message, dict):
        raise ServiceError("frame payload must be a JSON object")
    return message


#: code string -> exception class, the inverse of ``exc.code`` for
#: clients rebuilding a typed exception from a wire error frame.
_CODE_CLASSES: dict[str, type[ServiceError]] = {
    ServiceErrorCode.AUTH.value: AuthError,
    ServiceErrorCode.QUOTA.value: QuotaError,
    ServiceErrorCode.BACKPRESSURE.value: BackpressureError,
    ServiceErrorCode.PROTOCOL.value: ServiceError,
    ServiceErrorCode.SHARD_DEATH.value: ShardDeathError,
}


def error_frame(
    exc: Exception | str, code: ServiceErrorCode | None = None
) -> dict:
    """The one structured error frame: ``{"ok": False, "error", "code"}``.

    Every error any transport emits is built here so the ``code`` field
    is never forgotten.  Pass an exception (a :class:`ServiceError`'s
    class carries its code; anything else is ``protocol``) or a bare
    message, plus an optional explicit code override.
    """
    if code is None:
        code = getattr(exc, "code", ServiceErrorCode.PROTOCOL)
    return {"ok": False, "error": str(exc), "code": code.value}


def exception_for(reply: dict) -> ServiceError:
    """Rebuild the typed exception an error reply encodes.

    Unknown or missing codes degrade to plain :class:`ServiceError`
    (``protocol``), so old servers and hand-built frames stay readable.
    """
    message = str(reply.get("error", "service error"))
    cls = _CODE_CLASSES.get(str(reply.get("code", "")), ServiceError)
    return cls(message)


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ServiceError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte "
            f"limit"
        )


# ---------------------------------------------------------------------------
# asyncio flavor
# ---------------------------------------------------------------------------
async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame from an asyncio stream; ``None`` on clean EOF."""
    try:
        head = await reader.readexactly(_LEN.size)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    (length,) = _LEN.unpack(head)
    _check_length(length)
    return decode_payload(await reader.readexactly(length))


def write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    """Queue one frame on an asyncio stream (caller drains)."""
    writer.write(encode_frame(message))


# ---------------------------------------------------------------------------
# blocking flavor (synchronous client)
# ---------------------------------------------------------------------------
def read_frame_sync(fp: BinaryIO) -> dict | None:
    """Read one frame from a blocking binary file; ``None`` on EOF.

    A mid-frame EOF (the peer died between prefix and payload) also
    reads as ``None`` — any EOF means "peer is gone", never a
    recoverable condition.
    """
    head = fp.read(_LEN.size)
    if len(head) < _LEN.size:
        return None
    (length,) = _LEN.unpack(head)
    _check_length(length)
    payload = fp.read(length)
    if len(payload) < length:
        return None
    return decode_payload(payload)


def write_frame_sync(fp: BinaryIO, message: dict) -> None:
    """Write and flush one frame to a blocking binary file."""
    fp.write(encode_frame(message))
    fp.flush()


# ---------------------------------------------------------------------------
# chunk payloads
# ---------------------------------------------------------------------------
def chunk_message(session_id: str, seq: int | None, chunk: np.ndarray) -> dict:
    """Build the ``chunk`` frame for one sample block.

    The inverse of :func:`decode_chunk`; benchmarks, tests, and the
    shard pool's in-process ingest path all build their frames here so
    the encoding is defined exactly once.
    """
    chunk = np.ascontiguousarray(chunk, dtype=np.float64)
    if chunk.ndim == 1:
        chunk = chunk[None, :]
    message = {
        "op": "chunk",
        "session": str(session_id),
        "shape": list(chunk.shape),
        "data": base64.b64encode(chunk.tobytes()).decode("ascii"),
    }
    if seq is not None:
        message["seq"] = int(seq)
    return message


def decode_chunk(message: dict) -> np.ndarray:
    """Decode a ``chunk`` frame's samples back into a float64 array."""
    try:
        shape = tuple(int(v) for v in message["shape"])
        raw = base64.b64decode(message["data"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"bad chunk frame: {exc}") from None
    if len(shape) != 2 or shape[0] < 1 or shape[1] < 0:
        raise ServiceError(f"bad chunk shape {shape}")
    expected = shape[0] * shape[1] * 8
    if len(raw) != expected:
        raise ServiceError(
            f"chunk payload is {len(raw)} bytes, shape {shape} needs "
            f"{expected}"
        )
    return np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()
