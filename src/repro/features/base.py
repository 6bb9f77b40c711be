"""Feature-extraction interfaces and the feature-matrix container.

Feature extractors turn one multichannel window into a fixed-length
vector; :func:`repro.features.extraction.extract_features` maps them over
a sliding window to produce the ``X[L][F]`` array that Algorithm 1 and the
real-time classifier consume.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..exceptions import FeatureError
from ..signals.windowing import WindowSpec

__all__ = ["FeatureExtractor", "FeatureMatrix"]


class FeatureExtractor(ABC):
    """Maps one (n_channels, n_samples) window to a feature vector."""

    #: Channel names the extractor expects, in order.
    channel_names: tuple[str, ...] = ("F7T3", "F8T4")

    @property
    @abstractmethod
    def feature_names(self) -> tuple[str, ...]:
        """Names of the produced features, in output order."""

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @abstractmethod
    def extract_window(self, window: np.ndarray, fs: float) -> np.ndarray:
        """Compute the feature vector of one window.

        Parameters
        ----------
        window:
            Array of shape (n_channels, window_samples).
        fs:
            Sampling frequency in Hz.
        """

    def extract_batch(self, windows: np.ndarray, fs: float) -> np.ndarray:
        """Compute the feature matrix of a batch of windows.

        ``windows`` has shape (n_windows, n_channels, window_samples) —
        typically a zero-copy strided view of the record.  The default
        implementation loops :meth:`extract_window`, so every extractor
        supports batching with unchanged per-window semantics; extractors
        with batched feature kernels (e.g.
        :class:`~repro.features.paper10.Paper10FeatureExtractor`)
        override this to process all windows at once.  Batch, streaming
        and engine extraction all funnel through this method, so an
        override defines the behavior of *every* path.
        """
        windows = self._check_batch(windows)
        out = np.empty((windows.shape[0], self.n_features))
        for i in range(windows.shape[0]):
            out[i] = self.extract_window(windows[i], fs)
        return out

    def _check_batch(self, windows: np.ndarray) -> np.ndarray:
        windows = np.asarray(windows, dtype=float)
        if windows.ndim != 3:
            raise FeatureError(
                "batch must be (windows, channels, samples), got shape "
                f"{windows.shape}"
            )
        if windows.shape[1] < len(self.channel_names):
            raise FeatureError(
                f"{type(self).__name__} needs {len(self.channel_names)} "
                f"channels, windows have {windows.shape[1]}"
            )
        if not np.all(np.isfinite(windows)):
            raise FeatureError("window contains NaN or infinite samples")
        return windows

    def _check_window(self, window: np.ndarray) -> np.ndarray:
        window = np.asarray(window, dtype=float)
        if window.ndim != 2:
            raise FeatureError(
                f"window must be (channels, samples), got {window.shape}"
            )
        if window.shape[0] < len(self.channel_names):
            raise FeatureError(
                f"{type(self).__name__} needs {len(self.channel_names)} "
                f"channels, window has {window.shape[0]}"
            )
        if not np.all(np.isfinite(window)):
            raise FeatureError("window contains NaN or infinite samples")
        return window


@dataclass
class FeatureMatrix:
    """The ``X[L][F]`` array of Sec. IV plus its provenance.

    Attributes
    ----------
    values:
        Array of shape (n_windows, n_features).
    feature_names:
        Column labels.
    spec:
        The window geometry used (maps row index <-> record time).
    fs:
        Sampling rate of the source record.
    """

    values: np.ndarray
    feature_names: tuple[str, ...]
    spec: WindowSpec
    fs: float

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise FeatureError(f"values must be 2-D, got shape {self.values.shape}")
        if self.values.shape[1] != len(self.feature_names):
            raise FeatureError(
                f"{self.values.shape[1]} columns vs {len(self.feature_names)} names"
            )

    @property
    def n_windows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def window_start_times(self) -> np.ndarray:
        """Start time (s) of each row's window."""
        return np.arange(self.n_windows) * self.spec.step_s

    def column(self, name: str) -> np.ndarray:
        """Return one feature column by name."""
        try:
            idx = self.feature_names.index(name)
        except ValueError:
            raise FeatureError(
                f"no feature {name!r}; have {self.feature_names}"
            ) from None
        return self.values[:, idx]

    def select(self, names: tuple[str, ...] | list[str]) -> "FeatureMatrix":
        """Return a sub-matrix with only the named columns, in that order."""
        idx = []
        for name in names:
            if name not in self.feature_names:
                raise FeatureError(f"no feature {name!r}")
            idx.append(self.feature_names.index(name))
        return FeatureMatrix(
            values=self.values[:, idx],
            feature_names=tuple(names),
            spec=self.spec,
            fs=self.fs,
        )
