"""Reference kernels: the per-window scalar functions, looped.

Each kernel here maps the corresponding scalar implementation
(:mod:`repro.entropy`, :mod:`repro.features.wavelet_features`,
:mod:`repro.signals.spectral`) over the window rows, with the same
signature as its batched twin in :mod:`repro.kernels.vectorized`.  It is
the oracle ``tests/test_kernels_parity.py`` holds the production kernels
to bit-for-bit, and the baseline ``benchmarks/bench_kernels.py`` times
them against; no production path calls it.
"""

from __future__ import annotations

import numpy as np

from ..entropy.permutation import permutation_entropy
from ..entropy.renyi import renyi_entropy
from ..entropy.sample import sample_entropy
from ..features.wavelet_features import dwt_details
from ..signals.spectral import band_power_from_psd, welch_psd
from .vectorized import _check_windows

__all__ = [
    "sample_entropy_reference",
    "permutation_entropy_reference",
    "renyi_entropy_reference",
    "dwt_details_reference",
    "band_powers_reference",
]


def sample_entropy_reference(
    windows: np.ndarray, m: int = 2, k: float = 0.2, r: float | None = None
) -> np.ndarray:
    windows = _check_windows(windows)
    return np.array(
        [sample_entropy(row, m=m, k=k, r=r) for row in windows], dtype=float
    )


def permutation_entropy_reference(
    windows: np.ndarray,
    order: int = 5,
    delay: int = 1,
    normalize: bool = True,
) -> np.ndarray:
    windows = _check_windows(windows)
    return np.array(
        [
            permutation_entropy(row, order=order, delay=delay, normalize=normalize)
            for row in windows
        ],
        dtype=float,
    )


def renyi_entropy_reference(
    windows: np.ndarray,
    alpha: float = 2.0,
    bins: int = 16,
    normalize: bool = False,
) -> np.ndarray:
    windows = _check_windows(windows)
    return np.array(
        [
            renyi_entropy(row, alpha=alpha, bins=bins, normalize=normalize)
            for row in windows
        ],
        dtype=float,
    )


def dwt_details_reference(
    windows: np.ndarray, level: int = 7, wavelet: int = 4
) -> dict[int, np.ndarray]:
    """Per-level detail coefficients, ``{lvl: (n_windows, n_coeffs)}``."""
    windows = _check_windows(windows)
    per_row = [dwt_details(row, level=level, wavelet=wavelet) for row in windows]
    return {
        lvl: np.stack([d[lvl] for d in per_row])
        for lvl in range(1, level + 1)
    }


def band_powers_reference(
    windows: np.ndarray,
    fs: float,
    bands: tuple[tuple[float, float], ...],
) -> np.ndarray:
    """Welch band powers per window: ``(n_windows, len(bands))``.

    Matches the extractors' usage exactly: one full-window Hann segment
    per window (``nperseg = n_samples``), every band integrated from
    that single PSD.
    """
    windows = _check_windows(windows)
    out = np.empty((windows.shape[0], len(bands)), dtype=float)
    for i, row in enumerate(windows):
        freqs, psd = welch_psd(row, fs, nperseg=row.size)
        out[i] = [band_power_from_psd(freqs, psd, band) for band in bands]
    return out
