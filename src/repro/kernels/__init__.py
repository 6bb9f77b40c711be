"""Batched feature kernels behind one fixed lookup.

The paper's detector computes a fixed set of ten features per 4 s window
(Sec. III-A) from five kernels.  Each kernel is *batched*: it takes a
2-D ``(n_windows, n_samples)`` array of per-window series and returns
one value row per window (or a dict of per-level arrays, for the DWT
kernel).

- :mod:`repro.kernels.vectorized` holds the production implementations,
  engineered to be bitwise-identical to the per-window scalar functions.
- :mod:`repro.kernels.reference` loops those scalar functions over the
  rows.  It is the oracle the parity tests and ``bench_kernels.py``
  import directly; nothing in production calls it.

:func:`get_kernel` is the seam every extractor resolves kernels through
at call time, so a profiler can wrap the callables it hands out.
"""

from __future__ import annotations

from typing import Callable

from ..exceptions import KernelError
from .plans import WaveletPlan, embedding_plan, hann_window, wavelet_plan
from .vectorized import (
    band_powers_vectorized,
    dwt_details_vectorized,
    permutation_entropy_vectorized,
    renyi_entropy_vectorized,
    sample_entropy_vectorized,
)

__all__ = [
    "get_kernel",
    "WaveletPlan",
    "wavelet_plan",
    "embedding_plan",
    "hann_window",
]

_KERNELS: dict[str, Callable] = {
    "band_powers": band_powers_vectorized,
    "dwt_details": dwt_details_vectorized,
    "permutation_entropy": permutation_entropy_vectorized,
    "renyi_entropy": renyi_entropy_vectorized,
    "sample_entropy": sample_entropy_vectorized,
}


def get_kernel(name: str) -> Callable:
    """The batched implementation of kernel ``name``.

    Raises
    ------
    KernelError
        If ``name`` is not one of the five feature kernels.
    """
    try:
        return _KERNELS[name]
    except KeyError:
        raise KernelError(
            f"unknown kernel {name!r}; known: {sorted(_KERNELS)}"
        ) from None
