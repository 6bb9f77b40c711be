"""Shannon and spectral entropy estimators.

Members of the e-Glass 54-feature family (Sec. III-C): Shannon entropy of
the amplitude distribution and entropy of the normalized power spectrum.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import SignalError
from ..signals.spectral import welch_psd

__all__ = ["shannon_entropy", "spectral_entropy", "histogram_edges"]


def histogram_edges(x: np.ndarray, bins: int, axis: int | None = None):
    """The ``bins + 1`` equal-width edges ``np.histogram`` builds over the
    [min, max] of ``x`` (per row, with ``axis=1``), and whether they
    resolve the values, i.e. strictly increase.

    They do not for a constant series, nor for a spread of a few
    subnormal steps, where numpy's edges collide (and ``np.histogram``
    raises ``ValueError``).  Such a series carries no resolvable
    amplitude information: every histogram entropy path returns 0.0.

    Raises
    ------
    SignalError
        If the range is NaN or overflows to infinity (a NaN or infinite
        sample, or finite extremes such as ``-1e308`` and ``1e308``):
        there are no finite edges, and numpy would raise a bare
        ``ValueError`` (or, in the batched kernel, index garbage).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        first = np.min(x, axis=axis)
        last = np.max(x, axis=axis)
        span = last - first
    if not np.all(np.isfinite(span)):
        raise SignalError(
            "value range is NaN or overflows to infinity: no finite "
            "histogram bins"
        )
    edges = np.linspace(first, last, bins + 1, axis=-1)
    return edges, np.all(edges[..., :-1] < edges[..., 1:], axis=-1)


def shannon_entropy(x: np.ndarray, bins: int = 16, normalize: bool = False) -> float:
    """Shannon entropy (bits) of the histogram distribution of ``x``.

    Constant or empty series return 0.0; ``normalize`` maps to [0, 1] by
    dividing by ``log2(bins)``.
    """
    if bins < 2:
        raise SignalError(f"need at least 2 histogram bins, got {bins}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise SignalError(f"expected 1-D series, got shape {x.shape}")
    if x.size == 0 or not histogram_edges(x, bins)[1]:
        return 0.0
    counts, _ = np.histogram(x, bins=bins)
    p = counts[counts > 0] / x.size
    h = float(-(p * np.log2(p)).sum())
    if normalize:
        h /= math.log2(bins)
    return h


def spectral_entropy(
    x: np.ndarray, fs: float, normalize: bool = True
) -> float:
    """Entropy of the normalized Welch power spectrum of ``x``.

    A flat (white) spectrum gives 1.0 when normalized; a pure tone gives a
    value near 0.  Ictal EEG concentrates power in a narrow rhythmic band,
    lowering this feature — which is why it belongs to the detector's
    feature family.
    """
    freqs, psd = welch_psd(np.asarray(x, dtype=float), fs, nperseg=min(len(x), 256))
    total = psd.sum()
    if total <= 0.0:
        return 0.0
    p = psd[psd > 0] / total
    h = float(-(p * np.log2(p)).sum())
    if normalize:
        h /= math.log2(psd.size)
    return h
