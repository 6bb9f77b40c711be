"""Real-time detection service.

The live-path counterpart of the batch cohort pipeline: per-patient
:class:`~repro.service.session.DetectorSession` streams hosted by a
:class:`~repro.service.manager.SessionManager` (bounded ingest queues,
explicit backpressure, per-session ordering), fronted by the asyncio
:class:`~repro.service.ingest.DetectionService` (in-process async API
and a length-prefixed socket protocol), exercised by the wall-clock
:class:`~repro.service.replayer.Replayer`, and observed through
:class:`~repro.service.telemetry.ServiceTelemetry` (ingest→decision
latency percentiles, queue depth, shed counts).  For multi-core hosts,
:class:`~repro.service.fleet.ServiceShardPool` is N single-process
services behind one router: each worker process runs an unchanged
``DetectionService`` on its IPC connection, and the parent's one
listener routes sessions to them (session-sticky), journals for
re-homing, and merges fleet telemetry.

The binding contract: a record streamed through a session produces
per-window decisions byte-identical to
:func:`~repro.service.session.batch_window_decisions` on the same
record, for any chunking — the batch/stream parity discipline extended
to the live path.
"""

from .admission import AdmissionGate
from .client import ServiceClient
from .config import ServiceConfig
from .fleet import ServiceShardPool, shard_index_of
from .framing import PROTOCOL_VERSION
from .ingest import DetectionService
from .manager import IngestResult, SessionManager, SessionSummary
from .replayer import Replayer, ReplayReport
from .session import (
    DetectorSession,
    FeatureThresholdDetector,
    ForestWindowDetector,
    WindowDecision,
    WindowDetector,
    batch_window_decisions,
    decisions_from_scores,
    detector_from_state,
    detector_state_of,
)
from .telemetry import LatencySummary, ServiceTelemetry, telemetry_to_json

__all__ = [
    "AdmissionGate",
    "DetectionService",
    "DetectorSession",
    "FeatureThresholdDetector",
    "ForestWindowDetector",
    "IngestResult",
    "LatencySummary",
    "PROTOCOL_VERSION",
    "ReplayReport",
    "Replayer",
    "ServiceClient",
    "ServiceConfig",
    "ServiceShardPool",
    "ServiceTelemetry",
    "SessionManager",
    "SessionSummary",
    "WindowDecision",
    "WindowDetector",
    "batch_window_decisions",
    "decisions_from_scores",
    "detector_from_state",
    "detector_state_of",
    "shard_index_of",
    "telemetry_to_json",
]
