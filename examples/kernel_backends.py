"""Feature-kernel walkthrough: the lookup, bitwise parity, and plans.

Shows the batched feature kernels end to end:

1. lookup — ``get_kernel(name)`` hands out the production batched kernel
   for each of the five names the paper's extractor uses; any other
   name is refused with :class:`~repro.exceptions.KernelError`;
2. the bitwise-parity contract — each batched kernel reproduces the
   looped scalar oracle in :mod:`repro.kernels.reference` bit for bit,
   which is what keeps cohort reports byte-identical to the per-window
   path;
3. plans — the precomputed wavelet filter banks and embedding grids the
   batched kernels share across windows;
4. the end-to-end effect on :class:`Paper10FeatureExtractor` batches.

Run:
    PYTHONPATH=src python examples/kernel_backends.py
"""

import time

import numpy as np

from repro.exceptions import KernelError
from repro.features.paper10 import Paper10FeatureExtractor
from repro.kernels import embedding_plan, get_kernel, wavelet_plan
from repro.kernels.reference import (
    permutation_entropy_reference,
    sample_entropy_reference,
)

rng = np.random.default_rng(7)

# ── 1. One fixed lookup ─────────────────────────────────────────────────
for name in (
    "band_powers",
    "dwt_details",
    "permutation_entropy",
    "renyi_entropy",
    "sample_entropy",
):
    kernel = get_kernel(name)
    print(f"  {name:22s} -> {kernel.__module__}.{kernel.__name__}")
try:
    get_kernel("turbo_entropy")
except KernelError as err:
    print(f"unknown name refused: {err}\n")

# ── 2. The parity contract is bitwise, not approximate ──────────────────
windows = rng.standard_normal((64, 64))  # 64 windows of a DWT subband

vec = get_kernel("sample_entropy")(windows, m=2, k=0.2)
ref = sample_entropy_reference(windows, m=2, k=0.2)
assert np.array_equal(vec, ref)
print("sample entropy, batched == looped reference:", np.array_equal(vec, ref))

vec = get_kernel("permutation_entropy")(windows, order=5)
ref = permutation_entropy_reference(windows, order=5)
assert np.array_equal(vec, ref)
print("permutation entropy, batched == looped reference:", np.array_equal(vec, ref), "\n")

# ── 3. Plans: shared precomputed state ──────────────────────────────────
plan = wavelet_plan(wavelet=4, level=7)  # filter bank built once, cached
details = plan.details_batch(rng.standard_normal((8, 1024)))
print("DWT plan levels:", sorted(details), "level-7 shape:", details[7].shape)
print("embedding grid (n=6, m=2, delay=2):")
print(embedding_plan(6, 2, delay=2), "\n")

# ── 4. End to end: the paper's 10 features, batched ─────────────────────
extractor = Paper10FeatureExtractor()
batch = rng.standard_normal((120, 2, 1024))  # 2 minutes of 256 Hz windows

t0 = time.perf_counter()
loop_rows = np.stack(
    [extractor.extract_window(w, 256.0) for w in batch]
)  # the per-window scalar path
t_loop = time.perf_counter() - t0

t0 = time.perf_counter()
batch_rows = extractor.extract_batch(batch, 256.0)  # the kernel path
t_batch = time.perf_counter() - t0

assert np.array_equal(loop_rows, batch_rows)
print(
    f"per-window loop {t_loop * 1e3:.0f} ms -> batched kernels "
    f"{t_batch * 1e3:.0f} ms ({t_loop / t_batch:.1f}x), bitwise equal"
)
