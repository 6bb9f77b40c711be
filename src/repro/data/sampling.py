"""Evaluation-sample iteration: the Sec. VI-A test-generation protocol.

"Each sample consists of an EEG signal of random duration ranging between
30 minutes and 1 hour that contains a single epileptic seizure.  For each
one of the 45 epileptic seizures contained in the database, 100 different
samples were produced, resulting in a total of 4500 test samples."

This module provides the iteration helpers the benchmarks use, with the
sample count and duration range as explicit knobs (the repository default
shrinks both so the full harness runs on a laptop; set the paper values to
replicate the original scale — see "Paper-scale runs" in the README).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

from .dataset import SeizureEvent, SyntheticEEGDataset
from .records import EEGRecord

__all__ = [
    "EvaluationSample",
    "iter_evaluation_samples",
    "samples_per_seizure_from_env",
    "duration_range_from_env",
]

#: Environment variable controlling samples per seizure (paper: 100).
ENV_SAMPLES = "REPRO_SAMPLES_PER_SEIZURE"
#: Environment variable selecting the paper's 30-60 min durations.
ENV_PAPER_DURATIONS = "REPRO_PAPER_DURATIONS"

#: Repository defaults chosen so the full 45-seizure harness finishes in
#: minutes rather than hours.
DEFAULT_SAMPLES_PER_SEIZURE = 3
DEFAULT_DURATION_RANGE_S = (480.0, 900.0)
PAPER_DURATION_RANGE_S = (1800.0, 3600.0)


@dataclass(frozen=True)
class EvaluationSample:
    """One generated test sample plus its provenance."""

    event: SeizureEvent
    sample_index: int
    record: EEGRecord


def samples_per_seizure_from_env(default: int = DEFAULT_SAMPLES_PER_SEIZURE) -> int:
    """Resolve the per-seizure sample count from the environment."""
    raw = os.environ.get(ENV_SAMPLES, "")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_SAMPLES} must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"{ENV_SAMPLES} must be >= 1, got {value}")
    return value


def duration_range_from_env(
    default: tuple[float, float] = DEFAULT_DURATION_RANGE_S,
) -> tuple[float, float]:
    """Resolve the record duration range from the environment.

    ``REPRO_PAPER_DURATIONS=1`` (or ``true``/``yes``, any case) selects
    the paper's 30-60 minutes.  An unrecognized value raises rather than
    silently running laptop-sized records through an expensive
    paper-scale session.
    """
    raw = os.environ.get(ENV_PAPER_DURATIONS, "").strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return PAPER_DURATION_RANGE_S
    if raw in ("", "0", "false", "no", "off"):
        return default
    raise ValueError(
        f"{ENV_PAPER_DURATIONS} must be a boolean flag (1/true/yes or "
        f"0/false/no), got {raw!r}"
    )


def iter_evaluation_samples(
    dataset: SyntheticEEGDataset,
    samples_per_seizure: int,
    patient_id: int | None = None,
    duration_range_s: tuple[float, float] | None = None,
) -> Iterator[EvaluationSample]:
    """Yield evaluation samples for every seizure (optionally one patient).

    Records are generated lazily; nothing is cached, so memory stays flat
    regardless of the total sample count.
    """
    for event in dataset.seizure_events(patient_id):
        for sample_index in range(samples_per_seizure):
            record = dataset.generate_sample(
                event.patient_id,
                event.seizure_index,
                sample_index,
                duration_range_s=duration_range_s,
            )
            yield EvaluationSample(
                event=event, sample_index=sample_index, record=record
            )
