"""Precomputed per-record plans shared across windows.

The per-window reference path rebuilds the same state for every window:
``daubechies_filter`` re-runs its spectral factorization (polynomial
root finding!) twice per DWT level, embedding index grids are re-built
per entropy call, and the Welch window is re-generated per PSD.  A plan
computes each of these once per (parameter set) and shares it across
every window of a record — and across records, via small keyed caches —
so the batched kernels spend their time on signal math only.

Everything cached here is a pure function of its key, so sharing is
invisible to results (the parity suites enforce this).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..entropy.sample import embedding_indices
from ..exceptions import FeatureError
from ..signals.wavelet import daubechies_filter, quadrature_mirror

__all__ = ["WaveletPlan", "wavelet_plan", "embedding_plan", "hann_window"]


@lru_cache(maxsize=64)
def embedding_plan(n: int, m: int, delay: int = 1) -> np.ndarray:
    """Cached (read-only) embedding index grid — see
    :func:`repro.entropy.sample.embedding_indices`."""
    idx = embedding_indices(n, m, delay)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=32)
def hann_window(n: int) -> np.ndarray:
    """Cached (read-only) Hann window of length ``n`` (``np.hanning``,
    exactly what :func:`repro.signals.spectral.welch_psd` builds per call)."""
    win = np.hanning(n)
    win.setflags(write=False)
    return win


class WaveletPlan:
    """One record's (or one window geometry's) DWT execution plan.

    Holds the analysis filter bank — the Daubechies scaling filter ``h``
    and its quadrature mirror ``g``, built once instead of per window —
    and runs the batched multilevel decomposition.  The batched single
    level reproduces ``repro.signals.wavelet.dwt_single`` bit-for-bit:
    same circular padding, same tap order (accumulated ascending, the
    accumulation order of ``np.convolve``'s small-kernel path), same
    dyadic downsampling phase.
    """

    def __init__(self, wavelet: int = 4, level: int = 7) -> None:
        if level < 1:
            raise FeatureError(f"level must be >= 1, got {level}")
        self.wavelet = wavelet
        self.level = level
        self.h = daubechies_filter(wavelet)
        self.g = quadrature_mirror(self.h)
        self.h.setflags(write=False)
        self.g.setflags(write=False)

    def _single(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched single-level periodized DWT of ``(n_windows, n)`` rows."""
        n = x.shape[1]
        if n < 2:
            raise FeatureError(
                f"signal too short for {self.level}-level decomposition"
            )
        if n % 2:
            x = np.concatenate([x, x[:, -1:]], axis=1)  # edge-repeat pad
            n += 1
        k = self.h.size
        reps = int(np.ceil((k - 1) / n))
        xp = np.concatenate([x] * (1 + reps), axis=1)[:, : n + k - 1]
        view = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)[:, ::2, :]
        approx = self.h[0] * view[:, :, 0]
        detail = self.g[0] * view[:, :, 0]
        for tap in range(1, k):
            approx = approx + self.h[tap] * view[:, :, tap]
            detail = detail + self.g[tap] * view[:, :, tap]
        return approx, detail

    def details_batch(self, windows: np.ndarray) -> dict[int, np.ndarray]:
        """Detail coefficients of every window, keyed by level.

        ``windows`` is ``(n_windows, n_samples)``; each value is the
        ``(n_windows, n_coeffs_at_level)`` detail array — row ``i``
        bitwise equal to ``dwt_details(windows[i], level)[lvl]``.

        Raises
        ------
        FeatureError
            If the windows are too short for the requested depth, or if
            any level's input is non-finite: a NaN/inf sample, or finite
            extremes (e.g. ``1e308``) whose approximation overflows
            partway down.  Both match the per-window path, whose
            ``wavedec`` checks every level's input.
        """
        windows = np.asarray(windows, dtype=float)
        if windows.ndim != 2:
            raise FeatureError(
                f"expected (n_windows, n_samples) windows, got {windows.shape}"
            )
        if windows.shape[1] < 2:
            raise FeatureError(
                f"signal too short for {self.level}-level decomposition "
                f"({windows.shape[1]} samples per window)"
            )
        approx = windows
        details: dict[int, np.ndarray] = {}
        for lvl in range(1, self.level + 1):
            if not np.all(np.isfinite(approx)):
                raise FeatureError(
                    "window contains NaN or infinite samples"
                    if lvl == 1
                    else f"DWT level-{lvl - 1} approximation overflows "
                    "to NaN or infinite values"
                )
            approx, det = self._single(approx)
            # The tap accumulation inherits the strided layout of the
            # sliding-window view; hand downstream kernels (and the next
            # level) plain C-contiguous arrays.
            details[lvl] = np.ascontiguousarray(det)
            approx = np.ascontiguousarray(approx)
        return details


@lru_cache(maxsize=16)
def wavelet_plan(wavelet: int = 4, level: int = 7) -> WaveletPlan:
    """Cached :class:`WaveletPlan` for a (wavelet order, depth) pair."""
    return WaveletPlan(wavelet, level)
