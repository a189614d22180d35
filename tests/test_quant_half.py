"""Tests for half-precision conversion helpers."""

import numpy as np

from repro.quant import (dequantize_lut, dequantize_to_half, from_half,
                         half_ulp, lut_gather, quantize_half_lut,
                         tensor_to_half, to_half)
from repro.tensor import DType, QuantParams, Tensor


class TestHalfConversion:
    def test_to_half_dtype(self, rng):
        assert to_half(rng.standard_normal(4)).dtype == np.float16

    def test_from_half_exact_widening(self):
        halves = np.array([0.5, 1.25, -3.0], dtype=np.float16)
        widened = from_half(halves)
        assert widened.dtype == np.float32
        np.testing.assert_array_equal(widened,
                                      halves.astype(np.float32))

    def test_roundtrip_error_within_half_precision(self, rng):
        values = rng.uniform(-10, 10, 1000).astype(np.float32)
        recovered = from_half(to_half(values))
        # f16 has a 10-bit significand: relative error < 2^-10.
        rel = np.abs(recovered - values) / np.maximum(np.abs(values),
                                                      1e-3)
        assert rel.max() < 2 ** -10

    def test_tensor_to_half(self, rng):
        t = Tensor.from_float(rng.standard_normal(8).astype(np.float32))
        half = tensor_to_half(t)
        assert half.dtype is DType.F16

    def test_half_overflow_to_inf(self):
        assert np.isinf(to_half(np.array([1e6]))[0])


class TestDequantizeToHalf:
    def test_matches_f32_dequantize_within_half_ulp(self, rng):
        qp = QuantParams.from_range(-2.0, 2.0)
        codes = rng.integers(0, 256, 500).astype(np.uint8)
        half = dequantize_to_half(codes, qp).astype(np.float32)
        full = qp.dequantize(codes)
        # Error bounded by one half-precision ULP of the magnitude.
        tolerance = np.vectorize(half_ulp)(np.abs(full) + 1e-3)
        assert np.all(np.abs(half - full) <= tolerance + 1e-6)

    def test_zero_point_maps_to_zero(self):
        qp = QuantParams(scale=0.013, zero_point=131)
        out = dequantize_to_half(np.array([131], dtype=np.uint8), qp)
        assert out[0] == 0.0

    def test_output_is_float16(self):
        qp = QuantParams(scale=0.1, zero_point=0)
        out = dequantize_to_half(np.array([1, 2], dtype=np.uint8), qp)
        assert out.dtype == np.float16


class TestLutGather:
    def test_matches_fancy_indexing(self, rng):
        """Pair gathers (even, contiguous) and the one-code fallback
        (odd counts, strided views) all equal ``lut[codes]``."""
        lut = dequantize_lut(QuantParams(scale=0.037, zero_point=131))
        gather = lut_gather(lut)
        expected_lut = lut.astype(np.float32)
        for shape in ((6, 5), (7, 5), (1, 1), (3, 1024), (2, 3, 9, 4)):
            codes = rng.integers(0, 256, shape).astype(np.uint8)
            for view in (codes, codes[..., ::2], codes.T):
                got = gather(view)
                expected = expected_lut[view]
                assert got.dtype == np.float32
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()


class TestQuantizeHalfLut:
    """The f16 -> code table equals the F16 epilogue it replaces: widen
    to f32, optional ReLU, quantize -- on every non-NaN f16 value."""

    def test_matches_widen_relu_quantize(self, rng):
        bits = rng.permutation(1 << 16).astype(np.uint16).reshape(256, 256)
        halves = bits.view(np.float16)
        finite_or_inf = ~np.isnan(halves)
        for qparams in (QuantParams(scale=0.02, zero_point=0),
                        QuantParams(scale=0.37, zero_point=131),
                        QuantParams(scale=1e-4, zero_point=255)):
            for relu in (False, True):
                values = halves.astype(np.float32)
                if relu:
                    values = np.maximum(values, 0.0)
                with np.errstate(invalid="ignore"):    # NaN codes
                    expected = qparams.quantize(values)
                table = quantize_half_lut(qparams, relu)
                assert table.shape == (1 << 16,)
                assert table.dtype == np.uint8
                got = np.take(table, bits)
                assert np.array_equal(got[finite_or_inf],
                                      expected[finite_or_inf])

    def test_infinities(self):
        qparams = QuantParams(scale=0.1, zero_point=40)
        inf = np.array([np.inf, -np.inf], np.float16).view(np.uint16)
        assert quantize_half_lut(qparams, False)[inf].tolist() == [255, 0]
        assert quantize_half_lut(qparams, True)[inf].tolist() == [255, 40]


class TestHalfUlp:
    def test_ulp_positive(self):
        assert half_ulp(1.0) > 0

    def test_ulp_grows_with_magnitude(self):
        assert half_ulp(100.0) > half_ulp(1.0)
