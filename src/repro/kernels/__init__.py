"""Parity-gated registry of batched (vectorized) feature kernels.

Importing this package registers every built-in kernel:

- ``reference`` — the per-window scalar functions, looped (ground truth,
  and the contract carrier).
- ``vectorized`` — batched numpy implementations engineered to be
  bitwise-identical to the reference; the default backend.

Select a backend globally with ``REPRO_KERNEL_BACKEND=reference |
vectorized`` or per call via ``get_kernel(name, prefer=...)``.
Because every non-reference backend must pass its differential contract
*at registration*, a cohort run produces byte-identical reports under
any backend choice — the engine parity suite enforces exactly that.
"""

from __future__ import annotations

from .plans import WaveletPlan, embedding_plan, hann_window, wavelet_plan
from .reference import (
    approximate_entropy_reference,
    band_powers_reference,
    dwt_details_reference,
    permutation_entropy_reference,
    renyi_entropy_reference,
    sample_entropy_reference,
    shannon_entropy_reference,
)
from .registry import (
    BACKENDS,
    ENV_BACKEND,
    KernelContract,
    available_backends,
    contract_battery,
    get_kernel,
    kernel_backend_from_env,
    kernel_contract,
    register_kernel,
    registered_kernels,
)
from .vectorized import (
    approximate_entropy_vectorized,
    band_powers_vectorized,
    dwt_details_vectorized,
    permutation_entropy_vectorized,
    renyi_entropy_vectorized,
    sample_entropy_vectorized,
    shannon_entropy_vectorized,
)

__all__ = [
    "ENV_BACKEND",
    "BACKENDS",
    "KernelContract",
    "contract_battery",
    "register_kernel",
    "get_kernel",
    "kernel_backend_from_env",
    "available_backends",
    "registered_kernels",
    "kernel_contract",
    "WaveletPlan",
    "wavelet_plan",
    "embedding_plan",
    "hann_window",
]


def _register_builtin_kernels() -> None:
    """Register the shipped backends.  Runs once, at package import.

    Each ``vectorized`` registration re-runs its differential contract
    against the reference right here, so a parity regression in the
    batched code fails the *import*, not some downstream cohort run.
    The batteries are kept small (the dedicated parity test suite runs
    much larger ones) because engine worker processes pay this cost on
    spawn.
    """
    register_kernel(
        "sample_entropy",
        "reference",
        sample_entropy_reference,
        contract=KernelContract(
            params=(
                {"m": 2, "k": 0.2},
                {"m": 2, "k": 0.35},
                {"m": 3},
                {"m": 2, "r": 0.5},
            ),
            n_samples=(4, 8, 16, 48),
        ),
    )
    register_kernel("sample_entropy", "vectorized", sample_entropy_vectorized)

    register_kernel(
        "approximate_entropy",
        "reference",
        approximate_entropy_reference,
        contract=KernelContract(
            params=({"m": 2, "k": 0.2}, {"m": 3, "k": 0.35}),
            n_samples=(4, 8, 16, 48),
        ),
    )
    register_kernel(
        "approximate_entropy", "vectorized", approximate_entropy_vectorized
    )

    register_kernel(
        "permutation_entropy",
        "reference",
        permutation_entropy_reference,
        contract=KernelContract(
            params=(
                {"order": 3},
                {"order": 5},
                {"order": 7},
                {"order": 3, "delay": 2},
                {"order": 5, "normalize": False},
            ),
            n_samples=(4, 8, 16, 64),
        ),
    )
    register_kernel(
        "permutation_entropy", "vectorized", permutation_entropy_vectorized
    )

    register_kernel(
        "renyi_entropy",
        "reference",
        renyi_entropy_reference,
        contract=KernelContract(
            params=(
                {"alpha": 2.0},
                {"alpha": 1.0},
                {"alpha": 0.5, "bins": 8, "normalize": True},
                {"alpha": 3.0, "bins": 32},
            ),
            n_samples=(8, 16, 64),
        ),
    )
    register_kernel("renyi_entropy", "vectorized", renyi_entropy_vectorized)

    register_kernel(
        "shannon_entropy",
        "reference",
        shannon_entropy_reference,
        contract=KernelContract(
            params=({}, {"bins": 8, "normalize": True}),
            n_samples=(8, 16, 64),
        ),
    )
    register_kernel("shannon_entropy", "vectorized", shannon_entropy_vectorized)

    register_kernel(
        "dwt_details",
        "reference",
        dwt_details_reference,
        contract=KernelContract(
            params=({"level": 2}, {"level": 7}),
            n_samples=(256, 257),
        ),
    )
    register_kernel("dwt_details", "vectorized", dwt_details_vectorized)

    register_kernel(
        "band_powers",
        "reference",
        band_powers_reference,
        contract=KernelContract(
            params=(
                {"fs": 256.0, "bands": ((4.0, 8.0), (0.0, 128.0), (0.5, 4.0))},
                {"fs": 64.0, "bands": ((0.5, 4.0), "theta", (0.0, 32.0))},
            ),
            n_samples=(64, 256),
        ),
    )
    register_kernel("band_powers", "vectorized", band_powers_vectorized)


_register_builtin_kernels()
