"""Differential parity harness for the batched feature kernels.

Every production kernel in :mod:`repro.kernels.vectorized` is held
*bitwise* (not just within tolerance) to the looped scalar oracle in
:mod:`repro.kernels.reference`, over seeded case batteries under each
kernel's parameter sets.  The suite also pins the fixed
``get_kernel`` lookup and the edge-case contracts every path shares.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.entropy.permutation import permutation_entropy
from repro.entropy.renyi import renyi_entropy
from repro.entropy.sample import embedding_indices, sample_entropy
from repro.exceptions import FeatureError, KernelError, SignalError
from repro.features.paper10 import Paper10FeatureExtractor
from repro.kernels import embedding_plan, get_kernel, hann_window, wavelet_plan
from repro.kernels.reference import (
    band_powers_reference,
    dwt_details_reference,
    permutation_entropy_reference,
    renyi_entropy_reference,
    sample_entropy_reference,
)
from repro.kernels.vectorized import (
    band_powers_vectorized,
    dwt_details_vectorized,
    permutation_entropy_vectorized,
    renyi_entropy_vectorized,
    sample_entropy_vectorized,
)
from repro.features.wavelet_features import dwt_details as scalar_dwt_details

#: name -> (looped scalar oracle, production batched kernel)
PAIRS = {
    "band_powers": (band_powers_reference, band_powers_vectorized),
    "dwt_details": (dwt_details_reference, dwt_details_vectorized),
    "permutation_entropy": (
        permutation_entropy_reference,
        permutation_entropy_vectorized,
    ),
    "renyi_entropy": (renyi_entropy_reference, renyi_entropy_vectorized),
    "sample_entropy": (sample_entropy_reference, sample_entropy_vectorized),
}
KERNELS = sorted(PAIRS)


def _kernel(name, backend):
    """The ``reference`` oracle or the ``vectorized`` kernel of ``name``."""
    return PAIRS[name][backend == "vectorized"]


#: name -> (parameter sets, window lengths): the differential contract
#: each kernel is exercised under.
CONTRACTS = {
    "sample_entropy": (
        ({"m": 2, "k": 0.2}, {"m": 2, "k": 0.35}, {"m": 3}, {"m": 2, "r": 0.5}),
        (4, 8, 16, 48),
    ),
    "permutation_entropy": (
        (
            {"order": 3},
            {"order": 5},
            {"order": 7},
            {"order": 3, "delay": 2},
            {"order": 5, "normalize": False},
        ),
        (4, 8, 16, 64),
    ),
    "renyi_entropy": (
        (
            {"alpha": 2.0},
            {"alpha": 1.0},
            {"alpha": 0.5, "bins": 8, "normalize": True},
            {"alpha": 3.0, "bins": 32},
        ),
        (8, 16, 64),
    ),
    "dwt_details": (({"level": 2}, {"level": 7}), (256, 257)),
    "band_powers": (
        (
            {"fs": 256.0, "bands": ((4.0, 8.0), (0.0, 128.0), (0.5, 4.0))},
            {"fs": 64.0, "bands": ((0.5, 4.0), "theta", (0.0, 32.0))},
        ),
        (64, 256),
    ),
}

#: Kernels whose battery windows are long enough to embed/decompose at
#: arbitrary lengths are exercised on extra lengths beyond the contract.
EXTRA_LENGTHS = {
    "sample_entropy": (5, 33, 129),
    "permutation_entropy": (5, 33, 129),
    "renyi_entropy": (5, 33, 129),
    "dwt_details": (320, 640),
    "band_powers": (128, 640),
}


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


def _battery(name):
    """A bigger, differently-seeded battery than the base contract."""
    params, lengths = CONTRACTS[name]
    return params, contract_battery(
        lengths + EXTRA_LENGTHS[name], n_windows=11, seed=97
    )


def _pairs(ref_out, out):
    """Yield comparable (reference, candidate) array pairs."""
    if isinstance(ref_out, dict):
        assert set(ref_out) == set(out)
        for key in ref_out:
            yield np.asarray(ref_out[key]), np.asarray(out[key])
    else:
        yield np.asarray(ref_out), np.asarray(out)


class TestDifferentialHarness:
    """Seeded random-signal batteries, parameterized over the kernels."""

    def test_all_five_kernels_registered(self):
        assert KERNELS == [
            "band_powers",
            "dwt_details",
            "permutation_entropy",
            "renyi_entropy",
            "sample_entropy",
        ]
        for name in KERNELS:
            assert get_kernel(name) is _kernel(name, "vectorized")

    @pytest.mark.parametrize("name", KERNELS)
    def test_vectorized_is_bitwise_identical(self, name):
        """The production kernel must match the looped oracle
        bit-for-bit — that is what keeps cohort reports and decision
        streams byte-identical to the per-window path.  Runs the base
        contract battery (seed 2019, 7 windows) and a bigger, differently
        seeded one."""
        reference, vectorized = PAIRS[name]
        params, lengths = CONTRACTS[name]
        _, bigger = _battery(name)
        for kwargs in params:
            for windows in contract_battery(lengths) + bigger:
                ref_out = reference(windows, **kwargs)
                out = vectorized(windows, **kwargs)
                for ref_arr, arr in _pairs(ref_out, out):
                    assert arr.shape == ref_arr.shape
                    np.testing.assert_array_equal(arr, ref_arr)

    @pytest.mark.parametrize("name", KERNELS)
    def test_strided_and_float32_inputs_match_contiguous(self, name):
        """Kernels normalize input layout: a strided view and its
        contiguous copy produce bitwise-identical results."""
        params, lengths = CONTRACTS[name]
        rng = np.random.default_rng(1234)
        n = max(lengths)
        base = rng.standard_normal((9, 2 * n))
        strided = base[::2, ::2]  # non-contiguous in both axes
        assert not strided.flags["C_CONTIGUOUS"]
        kwargs = dict(params[0])
        kern = get_kernel(name)
        for ref_arr, arr in _pairs(
            kern(np.ascontiguousarray(strided), **kwargs),
            kern(strided, **kwargs),
        ):
            np.testing.assert_array_equal(arr, ref_arr)

    @pytest.mark.parametrize("name", KERNELS)
    def test_batch_size_invariance(self, name):
        """Row ``i`` of a batched call equals the single-row call — no
        cross-window leakage through the batched reductions."""
        params, lengths = CONTRACTS[name]
        rng = np.random.default_rng(777)
        windows = rng.standard_normal((8, max(lengths)))
        kwargs = dict(params[-1])
        kern = get_kernel(name)
        full = kern(windows, **kwargs)
        for i in (0, 3, 7):
            single = kern(windows[i : i + 1], **kwargs)
            for full_arr, one_arr in _pairs(full, single):
                np.testing.assert_array_equal(one_arr[0], full_arr[i])


class TestRegistryResolution:
    """``get_kernel`` is a fixed name -> production kernel lookup."""

    def test_default_prefers_vectorized(self):
        assert get_kernel("sample_entropy") is sample_entropy_vectorized
        assert get_kernel("sample_entropy") is not sample_entropy_reference

    def test_unknown_kernel_raises(self):
        with pytest.raises(KernelError, match="unknown kernel"):
            get_kernel("does_not_exist")
        # The batched Shannon/approximate entropies are not kernels: the
        # e-Glass extractor calls the scalar functions per window.
        for name in ("shannon_entropy", "approximate_entropy"):
            with pytest.raises(KernelError, match="unknown kernel"):
                get_kernel(name)

    def test_kernel_error_is_a_feature_error(self):
        assert issubclass(KernelError, FeatureError)


class TestEntropyEdgeCases:
    """Degenerate signals must have *defined* behavior — the same one —
    on the scalar, batched-reference and vectorized paths."""

    ENTROPY_KERNELS = (
        "sample_entropy",
        "permutation_entropy",
        "renyi_entropy",
    )

    @pytest.mark.parametrize("name", ENTROPY_KERNELS)
    @pytest.mark.parametrize("backend", ("reference", "vectorized"))
    def test_constant_signal_is_zero_not_nan(self, name, backend):
        windows = np.full((4, 64), 3.25)
        out = _kernel(name, backend)(windows)
        np.testing.assert_array_equal(out, np.zeros(4))

    @pytest.mark.parametrize("backend", ("reference", "vectorized"))
    def test_window_shorter_than_embedding_is_zero(self, backend, rng):
        # n < m + 2: the scalar contract returns 0.0; batched paths agree.
        windows = rng.standard_normal((5, 3))
        out = _kernel("sample_entropy", backend)(windows, m=2)
        np.testing.assert_array_equal(out, np.zeros(5))
        # n < order: no complete ordinal vector -> entropy 0.
        out = _kernel("permutation_entropy", backend)(
            windows, order=5
        )
        np.testing.assert_array_equal(out, np.zeros(5))

    @pytest.mark.parametrize("backend", ("reference", "vectorized"))
    def test_permutation_delay_two(self, backend, rng):
        windows = rng.standard_normal((6, 48))
        kern = _kernel("permutation_entropy", backend)
        batched = kern(windows, order=3, delay=2)
        scalar = np.array(
            [permutation_entropy(row, order=3, delay=2) for row in windows]
        )
        np.testing.assert_array_equal(batched, scalar)
        # delay=2 skips every other sample: two interleaved increasing
        # subsequences look monotone at lag 2, so the delay-2 entropy
        # collapses to zero while the delay-1 entropy does not.
        saw = np.empty(32)
        saw[0::2] = np.arange(16)  # 0, 1, 2, ...
        saw[1::2] = 100.0 + np.arange(16)  # 100, 101, 102, ...
        assert permutation_entropy(saw, order=3, delay=2) == 0.0
        assert permutation_entropy(saw, order=3, delay=1) > 0.0
        np.testing.assert_array_equal(
            kern(saw[None, :], order=3, delay=2), np.zeros(1)
        )

    def test_sample_entropy_zero_variance_with_absolute_r(self):
        # With an absolute tolerance the constant row is still live and
        # every template matches: both paths give the same finite value.
        windows = np.full((3, 32), -1.5)
        ref = _kernel("sample_entropy", "reference")(
            windows, m=2, r=0.5
        )
        vec = _kernel("sample_entropy", "vectorized")(
            windows, m=2, r=0.5
        )
        np.testing.assert_array_equal(ref, vec)
        assert np.all(np.isfinite(ref))
        assert ref[0] == sample_entropy(windows[0], m=2, r=0.5)

    def test_embedding_indices_short_series(self):
        assert embedding_indices(3, 5).shape == (0, 5)
        grid = embedding_indices(6, 2, delay=2)
        np.testing.assert_array_equal(
            grid, [[0, 2], [1, 3], [2, 4], [3, 5]]
        )


class TestShortWindowContract:
    """Windows too short to decompose raise FeatureError on every path."""

    def test_kernel_path(self):
        for backend in ("reference", "vectorized"):
            with pytest.raises(FeatureError, match="too short"):
                _kernel("dwt_details", backend)(
                    np.zeros((3, 1)), level=7
                )

    def test_scalar_path(self):
        with pytest.raises(FeatureError, match="too short"):
            scalar_dwt_details(np.zeros(1), level=7)

    def test_batch_path(self):
        extractor = Paper10FeatureExtractor()
        with pytest.raises(FeatureError, match="too short"):
            extractor.extract_batch(np.zeros((2, 2, 1)), 256.0)

    def test_window_path(self):
        extractor = Paper10FeatureExtractor()
        with pytest.raises(FeatureError, match="too short"):
            extractor.extract_window(np.zeros((2, 1)), 256.0)

    def test_streaming_path(self):
        from repro.core.streaming import StreamingFeatureExtractor
        from repro.signals.windowing import WindowSpec

        stream = StreamingFeatureExtractor(
            fs=4.0, spec=WindowSpec(length_s=0.25, step_s=0.25)
        )
        assert stream.spec.length_samples(4.0) == 1  # 1-sample windows
        with pytest.raises(FeatureError, match="too short"):
            stream.push(np.zeros((2, 2)))

    def test_batch_rejects_nan(self):
        extractor = Paper10FeatureExtractor()
        windows = np.zeros((2, 2, 1024))
        windows[1, 0, 5] = np.nan
        with pytest.raises(FeatureError, match="NaN"):
            extractor.extract_batch(windows, 256.0)

    def test_band_powers_contract_matches_scalar(self):
        # The spectral kernels keep the scalar SignalError contract for
        # bad inputs (too short for Welch, invalid band name).
        for backend in ("reference", "vectorized"):
            kern = _kernel("band_powers", backend)
            with pytest.raises(SignalError, match="too short"):
                kern(np.zeros((2, 4)), fs=256.0, bands=("theta",))
            with pytest.raises(SignalError, match="invalid band"):
                kern(np.ones((2, 64)), fs=256.0, bands=((8.0, 4.0),))
            with pytest.raises(KeyError):
                kern(np.ones((2, 64)), fs=256.0, bands=("not_a_band",))


class TestExtremeFiniteInput:
    """Finite but extreme samples (1e308) whose arithmetic overflows
    must raise the same typed error on the scalar, oracle and production
    paths — never a bare numpy ``IndexError``/``ValueError``."""

    @pytest.mark.parametrize("backend", ("reference", "vectorized"))
    def test_renyi_overflowing_range_raises_signal_error(self, backend, rng):
        windows = rng.standard_normal((3, 64))
        windows[1, 5] = -1e308
        windows[1, 9] = 1e308  # max - min overflows to inf
        with pytest.raises(SignalError, match="range"):
            _kernel("renyi_entropy", backend)(windows)
        with pytest.raises(SignalError, match="range"):
            renyi_entropy(windows[1])

    @pytest.mark.parametrize("backend", ("reference", "vectorized"))
    def test_renyi_unresolvable_subnormal_spread_is_zero(self, backend):
        # One subnormal step cannot be split into 16 bins (numpy's bin
        # edges collide): no amplitude information, like a constant row.
        windows = np.zeros((2, 8))
        windows[0, 0] = 5e-324
        out = _kernel("renyi_entropy", backend)(windows)
        np.testing.assert_array_equal(out, np.zeros(2))

    @pytest.mark.parametrize("backend", ("reference", "vectorized"))
    def test_dwt_overflowing_approximation_raises_feature_error(
        self, backend
    ):
        # 1e308 is finite, but the level-1 approximation (filter gain
        # sqrt 2) is ~1.4e308 and level 2 overflows to inf.
        windows = np.full((2, 1024), 1e308)
        with pytest.raises(FeatureError, match="infinite"):
            _kernel("dwt_details", backend)(windows, level=7)

    def test_paper10_batch_and_window_raise_alike(self, rng):
        window = rng.standard_normal((2, 1024))
        window[1] = 1e308  # the F8T4 channel
        extractor = Paper10FeatureExtractor()
        with pytest.raises(FeatureError):
            extractor.extract_window(window, 256.0)
        with pytest.raises(FeatureError):
            extractor.extract_batch(window[None], 256.0)


class TestPlans:
    def test_embedding_plan_cached_and_read_only(self):
        a = embedding_plan(64, 2)
        b = embedding_plan(64, 2)
        assert a is b
        assert not a.flags.writeable
        np.testing.assert_array_equal(a, embedding_indices(64, 2))

    def test_hann_window_matches_numpy(self):
        win = hann_window(1024)
        assert not win.flags.writeable
        np.testing.assert_array_equal(win, np.hanning(1024))

    def test_wavelet_plan_cached(self):
        assert wavelet_plan(4, 7) is wavelet_plan(4, 7)
        assert wavelet_plan(4, 2) is not wavelet_plan(4, 7)

    def test_details_batch_rows_match_scalar_dwt(self, rng):
        windows = rng.standard_normal((5, 1024))
        batched = wavelet_plan(4, 7).details_batch(windows)
        for i in range(5):
            scalar = scalar_dwt_details(windows[i], level=7)
            assert set(batched) == set(scalar)
            for lvl in scalar:
                np.testing.assert_array_equal(batched[lvl][i], scalar[lvl])
