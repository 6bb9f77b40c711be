"""Versioned, parity-gated registry of batched feature kernels.

Per-window feature extraction (entropies, DWT subbands, band powers)
dominates cohort wall-clock.  This registry lets several implementations
of the same kernel coexist — the per-window ``reference`` (a loop over
the scalar functions in :mod:`repro.entropy` / :mod:`repro.signals`)
and a batched ``vectorized`` backend — behind one resolution point, so
batch, streaming, engine and shard extraction all hit the same
implementation.

Every kernel is *batched*: it takes a 2-D ``(n_windows, n_samples)``
array of per-window series and returns one value row per window (or a
dict of per-level arrays, for the DWT kernel).

Parity contract
---------------
A non-reference implementation **cannot register** without passing a
differential contract against the already-registered reference: it is
run over the reference's seeded case battery (white noise, constants,
ramps, spikes, short windows, float32 input — see
:func:`contract_battery`) under every registered parameter set, and any
disagreement beyond the contract tolerances raises
:class:`~repro.exceptions.KernelError` and leaves the registry
unchanged.  The backends shipped in :mod:`repro.kernels.vectorized` are
engineered to be *bitwise* identical to the reference (reductions along
contiguous window rows, identical accumulation orders), which is what
keeps cohort reports byte-identical across ``REPRO_KERNEL_BACKEND``
values.

Resolution
----------
:func:`get_kernel` picks a backend per call: an explicit ``prefer``
argument wins, then the ``REPRO_KERNEL_BACKEND`` environment variable,
then the fastest always-available backend (``vectorized``).  Both are
always registered, and a request for either is strict: there is no
fallback.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..exceptions import KernelError

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
]

#: Environment variable selecting the kernel backend for every
#: registry-resolved kernel (``reference`` | ``vectorized``).
ENV_BACKEND = "REPRO_KERNEL_BACKEND"

#: Canonical backend names, in default preference order (first match
#: wins when no explicit preference is given).
BACKENDS = ("vectorized", "reference")


@dataclass(frozen=True)
class KernelContract:
    """The differential battery a non-reference implementation must pass.

    Attributes
    ----------
    params:
        Parameter sets (kwargs dicts) the kernel is exercised under.
    rtol, atol:
        Agreement tolerances.  The shipped vectorized backends agree
        bitwise; the default tolerances leave headroom for other
        implementations without admitting real divergence.
    n_samples:
        Window lengths the battery generates (per case family).
    """

    params: tuple[Mapping[str, object], ...] = ({},)
    rtol: float = 1e-9
    atol: float = 1e-12
    n_samples: tuple[int, ...] = (8, 16, 64, 257)


def contract_battery(
    n_samples: tuple[int, ...], n_windows: int = 7, seed: int = 2019
) -> list[np.ndarray]:
    """Deterministic batched input battery for the differential gate.

    One ``(n_windows, n)`` array per window length and case family:
    white noise, constant rows, ramps, sparse spikes on a flat baseline,
    a sinusoid mix, and float32-quantized noise — NaN-free by
    construction, covering the signal shapes the extractors actually
    see (DWT subbands, raw windows) plus the degenerate ones
    (zero-variance, barely-embeddable short series).
    """
    rng = np.random.default_rng(seed)
    cases: list[np.ndarray] = []
    for n in n_samples:
        cases.append(rng.standard_normal((n_windows, n)))
        cases.append(np.tile(rng.standard_normal((n_windows, 1)), (1, n)))
        ramp = np.arange(n, dtype=float)[None, :] * rng.uniform(
            0.1, 3.0, (n_windows, 1)
        )
        cases.append(ramp - ramp.mean(axis=1, keepdims=True))
        spikes = np.zeros((n_windows, n))
        for i in range(n_windows):
            hits = rng.integers(0, n, size=max(1, n // 8))
            spikes[i, hits] = rng.standard_normal(hits.size) * 10.0
        cases.append(spikes)
        t = np.arange(n) / 256.0
        cases.append(
            np.sin(2 * np.pi * rng.uniform(1.0, 40.0, (n_windows, 1)) * t)
            + 0.1 * rng.standard_normal((n_windows, n))
        )
        cases.append(
            rng.standard_normal((n_windows, n)).astype(np.float32).astype(float)
        )
    return cases


#: name -> backend -> implementation
_REGISTRY: dict[str, dict[str, Callable]] = {}
#: name -> contract (attached by the reference registration)
_CONTRACTS: dict[str, KernelContract] = {}


def _compare_outputs(name, backend, ref_out, out, contract, case_no, params):
    """Assert one contract case's outputs agree; raise KernelError if not."""
    if isinstance(ref_out, dict) != isinstance(out, dict):
        raise KernelError(
            f"kernel {name!r} backend {backend!r} returns "
            f"{type(out).__name__}, reference returns {type(ref_out).__name__}"
        )
    pairs = (
        [(k, ref_out[k], out.get(k)) for k in ref_out]
        if isinstance(ref_out, dict)
        else [(None, ref_out, out)]
    )
    if isinstance(ref_out, dict) and set(ref_out) != set(out):
        raise KernelError(
            f"kernel {name!r} backend {backend!r} keys {sorted(out)} != "
            f"reference keys {sorted(ref_out)}"
        )
    for key, ref_arr, arr in pairs:
        ref_arr = np.asarray(ref_arr)
        arr = np.asarray(arr)
        where = f"case {case_no}, params {dict(params)!r}" + (
            f", key {key!r}" if key is not None else ""
        )
        if arr.shape != ref_arr.shape:
            raise KernelError(
                f"kernel {name!r} backend {backend!r} shape {arr.shape} != "
                f"reference {ref_arr.shape} ({where})"
            )
        if not np.allclose(
            arr, ref_arr, rtol=contract.rtol, atol=contract.atol, equal_nan=True
        ):
            worst = float(np.max(np.abs(arr - ref_arr)))
            raise KernelError(
                f"kernel {name!r} backend {backend!r} fails the parity "
                f"contract: max abs deviation {worst:.3e} exceeds "
                f"rtol={contract.rtol}/atol={contract.atol} ({where})"
            )


def _run_contract(name: str, backend: str, impl: Callable) -> None:
    reference = _REGISTRY[name]["reference"]
    contract = _CONTRACTS[name]
    for params in contract.params:
        for case_no, windows in enumerate(
            contract_battery(contract.n_samples)
        ):
            ref_out = reference(windows, **params)
            out = impl(windows, **params)
            _compare_outputs(
                name, backend, ref_out, out, contract, case_no, params
            )


def register_kernel(
    name: str,
    version: str,
    impl: Callable,
    contract: KernelContract | None = None,
) -> None:
    """Register ``impl`` as the ``version`` backend of kernel ``name``.

    The first registration of a kernel must be its ``reference`` version
    and must carry the :class:`KernelContract` every later backend is
    gated on.  Non-reference versions are differentially verified
    against the reference before they become visible; a failing
    implementation raises :class:`~repro.exceptions.KernelError` and is
    **not** registered.
    """
    if version == "reference":
        if contract is None:
            raise KernelError(
                f"reference registration of {name!r} must supply the "
                "differential contract"
            )
        _REGISTRY.setdefault(name, {})["reference"] = impl
        _CONTRACTS[name] = contract
        return
    if name not in _REGISTRY or "reference" not in _REGISTRY[name]:
        raise KernelError(
            f"cannot register backend {version!r} of {name!r}: no reference "
            "implementation to gate against"
        )
    if contract is not None:
        raise KernelError(
            "only the reference registration defines the contract"
        )
    _run_contract(name, version, impl)  # raises KernelError on divergence
    _REGISTRY[name][version] = impl


def kernel_backend_from_env() -> str | None:
    """The backend named by ``REPRO_KERNEL_BACKEND``, or None when unset.

    An unknown value raises immediately rather than silently running a
    different backend.
    """
    raw = os.environ.get(ENV_BACKEND, "").strip().lower()
    if not raw:
        return None
    if raw not in BACKENDS:
        raise KernelError(
            f"{ENV_BACKEND} must be one of {BACKENDS}, got {raw!r}"
        )
    return raw


def get_kernel(name: str, prefer: str | None = None) -> Callable:
    """Resolve the implementation of kernel ``name``.

    ``prefer`` overrides the ``REPRO_KERNEL_BACKEND`` environment
    variable, which overrides the default (``vectorized``, falling back
    to ``reference``).  An explicit request is strict.
    """
    try:
        versions = _REGISTRY[name]
    except KeyError:
        raise KernelError(
            f"unknown kernel {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    requested = prefer if prefer is not None else kernel_backend_from_env()
    if requested is None:
        order: tuple[str, ...] = BACKENDS
    else:
        if requested not in BACKENDS:
            raise KernelError(
                f"unknown kernel backend {requested!r}; use one of {BACKENDS}"
            )
        order = (requested,)
    for backend in order:
        impl = versions.get(backend)
        if impl is not None:
            return impl
    raise KernelError(
        f"kernel {name!r} has no backend among {order}; "
        f"registered: {sorted(versions)}"
    )


def available_backends(name: str) -> tuple[str, ...]:
    """Registered backend names of ``name``, in canonical order."""
    if name not in _REGISTRY:
        raise KernelError(f"unknown kernel {name!r}")
    have = _REGISTRY[name]
    return tuple(b for b in ("reference", "vectorized") if b in have)


def registered_kernels() -> dict[str, tuple[str, ...]]:
    """Mapping of kernel name -> registered backends (for tests/tools)."""
    return {name: available_backends(name) for name in sorted(_REGISTRY)}


def kernel_contract(name: str) -> KernelContract:
    """The differential contract attached to kernel ``name``."""
    if name not in _CONTRACTS:
        raise KernelError(f"unknown kernel {name!r}")
    return _CONTRACTS[name]
