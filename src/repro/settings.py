"""One documented home for every ``REPRO_*`` environment knob.

The sampling protocol reads :envvar:`REPRO_SAMPLES_PER_SEIZURE` /
:envvar:`REPRO_PAPER_DURATIONS`, and the real-time service adds
:envvar:`REPRO_SERVICE_QUEUE_DEPTH` / :envvar:`REPRO_SERVICE_BACKPRESSURE`
/ :envvar:`REPRO_SERVICE_WORKERS` and its admission and re-homing
knobs.  :class:`ReproSettings` resolves them all in one place — through
the *same* validating parsers each subsystem uses, so a bad value fails
identically whether it is read here or at the point of use — and is the
default-provider of :func:`repro.api.evaluate_cohort` and
:meth:`~repro.service.config.ServiceConfig.from_settings`.

``ReproSettings.from_env()`` is a snapshot: it captures the environment
once, so a long-lived process (the detection service) keeps consistent
configuration even if the environment mutates underneath it.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Mapping

from .exceptions import ServiceError

__all__ = [
    "ENV_SERVICE_QUEUE_DEPTH",
    "ENV_SERVICE_BACKPRESSURE",
    "ENV_SERVICE_WORKERS",
    "ENV_SERVICE_AUTH_TOKENS",
    "ENV_SERVICE_MAX_SESSIONS",
    "ENV_SERVICE_CHUNK_RATE",
    "ENV_SERVICE_REPLAY_BUFFER",
    "BACKPRESSURE_POLICIES",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_REPLAY_BUFFER",
    "ReproSettings",
]

#: Bounded per-session ingest queue depth of the detection service.
ENV_SERVICE_QUEUE_DEPTH = "REPRO_SERVICE_QUEUE_DEPTH"
#: Backpressure policy when a session's ingest queue is full.
ENV_SERVICE_BACKPRESSURE = "REPRO_SERVICE_BACKPRESSURE"
#: Worker shard processes of the detection service (1 = in-process).
ENV_SERVICE_WORKERS = "REPRO_SERVICE_WORKERS"
#: Comma-separated client auth tokens; empty disables authentication.
ENV_SERVICE_AUTH_TOKENS = "REPRO_SERVICE_AUTH_TOKENS"
#: Max concurrently open sessions per client (0 = unlimited).
ENV_SERVICE_MAX_SESSIONS = "REPRO_SERVICE_MAX_SESSIONS"
#: Sustained chunk frames/second budget per client (0 = unlimited).
ENV_SERVICE_CHUNK_RATE = "REPRO_SERVICE_CHUNK_RATE"
#: Per-session replay journal depth for shard re-homing (0 = off).
ENV_SERVICE_REPLAY_BUFFER = "REPRO_SERVICE_REPLAY_BUFFER"

#: ``reject`` refuses the new chunk (the caller sees a rejected
#: IngestResult / BackpressureError); ``shed-oldest`` drops the oldest
#: *queued* chunk to admit the new one, with the shed count surfaced in
#: the result and telemetry — never a silent drop.
BACKPRESSURE_POLICIES = ("reject", "shed-oldest")

DEFAULT_QUEUE_DEPTH = 64

#: Chunks of re-homing journal the pool parent keeps per session.  256
#: one-second chunks cover minutes of stream at the paper's geometry
#: while bounding parent memory; 0 disables resilience entirely
#: (a dead shard then errors its sessions, the PR 9 behavior).
DEFAULT_REPLAY_BUFFER = 256


def _queue_depth_from(env: Mapping[str, str]) -> int:
    raw = env.get(ENV_SERVICE_QUEUE_DEPTH, "").strip()
    if not raw:
        return DEFAULT_QUEUE_DEPTH
    try:
        depth = int(raw)
    except ValueError:
        raise ServiceError(
            f"{ENV_SERVICE_QUEUE_DEPTH} must be an integer, got {raw!r}"
        ) from None
    if depth < 1:
        raise ServiceError(
            f"{ENV_SERVICE_QUEUE_DEPTH} must be >= 1, got {depth}"
        )
    return depth


def _workers_from(env: Mapping[str, str]) -> int:
    raw = env.get(ENV_SERVICE_WORKERS, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ServiceError(
            f"{ENV_SERVICE_WORKERS} must be an integer, got {raw!r}"
        ) from None
    if workers < 1:
        raise ServiceError(
            f"{ENV_SERVICE_WORKERS} must be >= 1, got {workers}"
        )
    return workers


def _auth_tokens_from(env: Mapping[str, str]) -> tuple[str, ...]:
    raw = env.get(ENV_SERVICE_AUTH_TOKENS, "")
    tokens = tuple(part.strip() for part in raw.split(",") if part.strip())
    return tokens


def _max_sessions_from(env: Mapping[str, str]) -> int:
    raw = env.get(ENV_SERVICE_MAX_SESSIONS, "").strip()
    if not raw:
        return 0
    try:
        limit = int(raw)
    except ValueError:
        raise ServiceError(
            f"{ENV_SERVICE_MAX_SESSIONS} must be an integer, got {raw!r}"
        ) from None
    if limit < 0:
        raise ServiceError(
            f"{ENV_SERVICE_MAX_SESSIONS} must be >= 0, got {limit}"
        )
    return limit


def _chunk_rate_from(env: Mapping[str, str]) -> float:
    raw = env.get(ENV_SERVICE_CHUNK_RATE, "").strip()
    if not raw:
        return 0.0
    try:
        rate = float(raw)
    except ValueError:
        raise ServiceError(
            f"{ENV_SERVICE_CHUNK_RATE} must be a number, got {raw!r}"
        ) from None
    if rate < 0 or rate != rate:  # NaN guard
        raise ServiceError(
            f"{ENV_SERVICE_CHUNK_RATE} must be >= 0, got {raw!r}"
        )
    return rate


def _replay_buffer_from(env: Mapping[str, str]) -> int:
    raw = env.get(ENV_SERVICE_REPLAY_BUFFER, "").strip()
    if not raw:
        return DEFAULT_REPLAY_BUFFER
    try:
        depth = int(raw)
    except ValueError:
        raise ServiceError(
            f"{ENV_SERVICE_REPLAY_BUFFER} must be an integer, got {raw!r}"
        ) from None
    if depth < 0:
        raise ServiceError(
            f"{ENV_SERVICE_REPLAY_BUFFER} must be >= 0, got {depth}"
        )
    return depth


def _backpressure_from(env: Mapping[str, str]) -> str:
    raw = env.get(ENV_SERVICE_BACKPRESSURE, "").strip().lower()
    if not raw:
        return "reject"
    if raw not in BACKPRESSURE_POLICIES:
        raise ServiceError(
            f"{ENV_SERVICE_BACKPRESSURE} must be one of "
            f"{BACKPRESSURE_POLICIES}, got {raw!r}"
        )
    return raw


@dataclass(frozen=True)
class ReproSettings:
    """A resolved snapshot of every ``REPRO_*`` environment knob.

    Attributes
    ----------
    samples_per_seizure:
        :envvar:`REPRO_SAMPLES_PER_SEIZURE` — ``None`` when unset, so
        each caller keeps its own documented fallback (the CLI's 1, the
        benchmarks' 3, ``--paper-scale``'s 100).
    paper_durations:
        :envvar:`REPRO_PAPER_DURATIONS` as a boolean: record durations
        default to the paper's 30-60 minutes when true.
    service_queue_depth / service_backpressure:
        The real-time service's bounded ingest queue depth and
        full-queue policy (see :data:`BACKPRESSURE_POLICIES`).
    service_workers:
        :envvar:`REPRO_SERVICE_WORKERS` — how many worker shard
        processes the detection service runs its sessions across
        (1, the default, keeps the PR 7 single-process service).
    service_auth_tokens:
        :envvar:`REPRO_SERVICE_AUTH_TOKENS` split on commas; any
        non-empty set turns the versioned ``hello`` handshake from
        optional into mandatory for every socket client.
    service_max_sessions:
        :envvar:`REPRO_SERVICE_MAX_SESSIONS` — concurrently open
        sessions one client may hold (0 = unlimited).
    service_chunk_rate:
        :envvar:`REPRO_SERVICE_CHUNK_RATE` — sustained chunk
        frames/second budget per client, enforced as a token bucket
        with one second of burst (0 = unlimited).
    service_replay_buffer:
        :envvar:`REPRO_SERVICE_REPLAY_BUFFER` — admitted chunks the
        shard-pool parent journals per session so a killed worker's
        sessions can be re-homed byte-identically (0 disables
        resilience).
    """

    samples_per_seizure: int | None = None
    paper_durations: bool = False
    service_queue_depth: int = DEFAULT_QUEUE_DEPTH
    service_backpressure: str = "reject"
    service_workers: int = 1
    service_auth_tokens: tuple[str, ...] = ()
    service_max_sessions: int = 0
    service_chunk_rate: float = 0.0
    service_replay_buffer: int = DEFAULT_REPLAY_BUFFER

    def __post_init__(self) -> None:
        if self.service_queue_depth < 1:
            raise ServiceError(
                f"service_queue_depth must be >= 1, got "
                f"{self.service_queue_depth}"
            )
        if self.service_backpressure not in BACKPRESSURE_POLICIES:
            raise ServiceError(
                f"service_backpressure must be one of "
                f"{BACKPRESSURE_POLICIES}, got {self.service_backpressure!r}"
            )
        if self.service_workers < 1:
            raise ServiceError(
                f"service_workers must be >= 1, got {self.service_workers}"
            )
        if self.service_max_sessions < 0:
            raise ServiceError(
                f"service_max_sessions must be >= 0, got "
                f"{self.service_max_sessions}"
            )
        if not self.service_chunk_rate >= 0:
            raise ServiceError(
                f"service_chunk_rate must be >= 0, got "
                f"{self.service_chunk_rate}"
            )
        if self.service_replay_buffer < 0:
            raise ServiceError(
                f"service_replay_buffer must be >= 0, got "
                f"{self.service_replay_buffer}"
            )

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "ReproSettings":
        """Resolve every knob from ``env`` (default: ``os.environ``).

        Delegates to the canonical per-subsystem parsers, so validation
        behavior (which raw values raise, and with what message) is
        defined exactly once.  The imports are local to keep this module
        a leaf the rest of the package can import freely.
        """
        from .data.sampling import (
            ENV_SAMPLES,
            PAPER_DURATION_RANGE_S,
            duration_range_from_env,
            samples_per_seizure_from_env,
        )

        if env is None:
            env = os.environ
            samples = (
                samples_per_seizure_from_env(0)
                if env.get(ENV_SAMPLES, "")
                else None
            )
            # The sentinel default cannot equal the paper range, so the
            # resolver's return value doubles as the boolean.
            paper = (
                duration_range_from_env((0.0, 0.0)) == PAPER_DURATION_RANGE_S
            )
        else:
            # The canonical parsers read os.environ; for an explicit
            # mapping (tests, frozen snapshots) run them under a patched
            # view without mutating the process environment.
            import unittest.mock

            with unittest.mock.patch.dict(os.environ, env, clear=True):
                return cls.from_env(None)
        return cls(
            samples_per_seizure=samples,
            paper_durations=paper,
            service_queue_depth=_queue_depth_from(env),
            service_backpressure=_backpressure_from(env),
            service_workers=_workers_from(env),
            service_auth_tokens=_auth_tokens_from(env),
            service_max_sessions=_max_sessions_from(env),
            service_chunk_rate=_chunk_rate_from(env),
            service_replay_buffer=_replay_buffer_from(env),
        )

    # ------------------------------------------------------------------
    def resolve_samples(self, default: int) -> int:
        """Samples per seizure: the env knob, else the caller's default."""
        return (
            self.samples_per_seizure
            if self.samples_per_seizure is not None
            else default
        )

    def resolve_duration_range(
        self, default: tuple[float, float]
    ) -> tuple[float, float]:
        """Record duration range: the paper's 30-60 min when
        ``paper_durations`` is set, else the caller's default."""
        from .data.sampling import PAPER_DURATION_RANGE_S

        return PAPER_DURATION_RANGE_S if self.paper_durations else default

    def to_dict(self) -> dict:
        """Plain-data view (for ``repro``'s diagnostics and tooling)."""
        return asdict(self)
