"""Memory budget of the edge device (Sec. V-B / VI-C).

The paper states the platform has 48 KB RAM and 384 KB flash, and that
"the required memory for one hour of data is 240 KB".  Raw two-channel
256 Hz 16-bit samples for an hour occupy 3.6 MB, so the 240 KB figure can
only refer to a reduced representation; storing the *feature stream*
(what Algorithm 1 actually consumes: 10 float16/32 features per second)
plus bookkeeping lands in that range, and that is the interpretation this
model implements.  Both raw and feature
budgets are computed so the discrepancy is visible rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import PlatformError
from .mcu import Microcontroller, STM32L151

__all__ = [
    "raw_buffer_bytes",
    "feature_buffer_bytes",
    "MemoryBudget",
]


def raw_buffer_bytes(
    duration_s: float,
    fs: float = 256.0,
    n_channels: int = 2,
    sample_bits: int = 16,
) -> int:
    """Bytes needed to buffer raw EEG samples."""
    if duration_s <= 0 or fs <= 0 or n_channels < 1 or sample_bits < 1:
        raise PlatformError("invalid raw-buffer parameters")
    return int(duration_s * fs) * n_channels * ((sample_bits + 7) // 8)


def feature_buffer_bytes(
    duration_s: float,
    n_features: int = 10,
    feature_step_s: float = 1.0,
    bytes_per_feature: int = 4,
    overhead_factor: float = 1.0,
) -> int:
    """Bytes needed to buffer the extracted feature stream.

    With the paper's geometry (10 features/second, float32) an hour is
    ``3600 * 10 * 4 = 144 KB``; scratch/double-buffering overhead brings
    the budget to the paper's 240 KB figure at ``overhead_factor ~ 1.67``.
    """
    if duration_s <= 0 or n_features < 1 or feature_step_s <= 0:
        raise PlatformError("invalid feature-buffer parameters")
    if bytes_per_feature < 1 or overhead_factor < 1.0:
        raise PlatformError("invalid storage parameters")
    n_rows = int(duration_s / feature_step_s)
    return int(n_rows * n_features * bytes_per_feature * overhead_factor)


@dataclass(frozen=True)
class MemoryBudget:
    """Check a buffering strategy against the MCU's memory."""

    mcu: Microcontroller = STM32L151

    def fits_ram(self, n_bytes: int) -> bool:
        return n_bytes <= self.mcu.ram_bytes

    def fits_flash(self, n_bytes: int) -> bool:
        return n_bytes <= self.mcu.flash_bytes

    def hourly_report(self) -> dict[str, float]:
        """The Sec. VI-C hour-of-data accounting, in KB."""
        raw = raw_buffer_bytes(3600.0)
        feats = feature_buffer_bytes(3600.0)
        paper_budget = feature_buffer_bytes(3600.0, overhead_factor=5.0 / 3.0)
        return {
            "raw_hour_kb": raw / 1024.0,
            "feature_hour_kb": feats / 1024.0,
            "paper_claimed_kb": 240.0,
            "feature_hour_with_overhead_kb": paper_budget / 1024.0,
            "flash_kb": self.mcu.flash_bytes / 1024.0,
            "ram_kb": self.mcu.ram_bytes / 1024.0,
        }
