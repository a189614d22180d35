"""Tests for 8-bit linear quantization and gemmlowp requantization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import QuantizationError
from repro.quant import (prepare_requantize, quantize, dequantize,
                         quantize_tensor, quantized_multiplier,
                         requantize, requantize_float_reference,
                         requantize_prepared)
from repro.tensor import DType, QuantParams, Tensor


class TestQuantizeDequantize:
    def test_quantize_matches_qparams(self, rng):
        qp = QuantParams.from_range(-2.0, 2.0)
        values = rng.uniform(-2, 2, 100)
        np.testing.assert_array_equal(quantize(values, qp),
                                      qp.quantize(values))

    def test_dequantize_matches_qparams(self):
        qp = QuantParams.from_range(-2.0, 2.0)
        codes = np.arange(256, dtype=np.uint8)
        np.testing.assert_array_equal(dequantize(codes, qp),
                                      qp.dequantize(codes))

    def test_quantize_tensor_from_float(self, rng):
        t = Tensor.from_float(rng.uniform(-1, 1, 50).astype(np.float32))
        q = quantize_tensor(t)
        assert q.dtype is DType.QUINT8
        assert np.max(np.abs(q.to_float() - t.to_float())) <= q.qparams.scale

    def test_quantize_tensor_explicit_params(self, rng):
        qp = QuantParams.from_range(-4.0, 4.0)
        t = Tensor.from_float(rng.uniform(-1, 1, 10).astype(np.float32))
        q = quantize_tensor(t, qp)
        assert q.qparams == qp


class TestQuantizedMultiplier:
    def test_decomposition_accuracy(self):
        for value in (0.001, 0.3, 0.4999, 0.5, 0.77, 0.9999):
            mantissa, shift = quantized_multiplier(value)
            reconstructed = mantissa * 2.0 ** (-31 - shift)
            assert reconstructed == pytest.approx(value, rel=1e-6)

    def test_mantissa_in_q31_range(self):
        for value in (0.01, 0.5, 0.99):
            mantissa, _ = quantized_multiplier(value)
            assert (1 << 30) <= mantissa <= (1 << 31)

    def test_multiplier_above_one_uses_left_shift(self):
        mantissa, shift = quantized_multiplier(3.7)
        assert shift < 0
        assert mantissa * 2.0 ** (-31 - shift) == pytest.approx(3.7,
                                                                rel=1e-6)

    def test_zero_multiplier_raises(self):
        with pytest.raises(QuantizationError):
            quantized_multiplier(0.0)

    def test_negative_multiplier_raises(self):
        with pytest.raises(QuantizationError):
            quantized_multiplier(-0.5)


class TestRequantize:
    def test_matches_float_reference(self, rng):
        acc = rng.integers(-100000, 100000, size=(64, 64)).astype(np.int32)
        out = QuantParams(scale=0.05, zero_point=128)
        fixed = requantize(acc, 0.01, 0.002, out)
        ref = requantize_float_reference(acc, 0.01, 0.002, out)
        # The fixed-point pipeline may differ by at most 1 code from the
        # float reference (round-to-even boundary cases).
        assert np.max(np.abs(fixed.astype(int) - ref.astype(int))) <= 1

    def test_exact_for_small_accumulators(self):
        acc = np.arange(-128, 128, dtype=np.int32)
        out = QuantParams(scale=0.02, zero_point=128)
        fixed = requantize(acc, 0.1, 0.1, out)
        ref = requantize_float_reference(acc, 0.1, 0.1, out)
        assert np.max(np.abs(fixed.astype(int) - ref.astype(int))) <= 1

    def test_saturates_to_uint8(self):
        acc = np.array([10 ** 9, -10 ** 9], dtype=np.int32)
        out = QuantParams(scale=0.05, zero_point=128)
        codes = requantize(acc, 0.01, 0.01, out)
        assert codes[0] == 255
        assert codes[1] == 0

    def test_zero_accumulator_maps_to_zero_point(self):
        out = QuantParams(scale=0.05, zero_point=77)
        codes = requantize(np.array([0], dtype=np.int32), 0.01, 0.01, out)
        assert codes[0] == 77

    def test_large_multiplier_path(self):
        # Narrow output range -> multiplier > 1 -> left-shift path.
        acc = np.array([5, -5, 100], dtype=np.int32)
        out = QuantParams(scale=1e-4, zero_point=128)
        fixed = requantize(acc, 0.01, 0.01, out)
        ref = requantize_float_reference(acc, 0.01, 0.01, out)
        assert np.max(np.abs(fixed.astype(int) - ref.astype(int))) <= 1

    def test_output_dtype(self):
        out = QuantParams(scale=0.05, zero_point=128)
        codes = requantize(np.zeros(4, dtype=np.int32), 0.01, 0.01, out)
        assert codes.dtype == np.uint8


INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1


def two_step_requantize(acc, mantissa, shift, output):
    """gemmlowp's two roundings, as requantize_prepared computed them
    before they were fused: SaturatingRoundingDoublingHighMul, then
    RoundingDivideByPOT.  Its int32 mask is defined up to shift 31.

    One deliberate difference: the zero point is added in int64.  The
    old int32 add wrapped for results within 255 of INT32_MAX
    (reachable only at shift <= 0), turning a saturating positive
    value into code 0."""
    assert shift <= 31

    def divide_by_pot(value, exponent):
        if exponent == 0:
            return value
        if exponent < 0:
            shifted = value.astype(np.int64) << (-exponent)
            return np.clip(shifted, INT32_MIN, INT32_MAX).astype(np.int32)
        mask = np.int32((1 << exponent) - 1)
        remainder = value & mask
        threshold = (mask >> 1) + np.where(value < 0, 1, 0).astype(np.int32)
        return (value >> exponent) + (remainder > threshold).astype(np.int32)

    acc = np.asarray(acc, dtype=np.int32)
    if shift < 0:
        acc = divide_by_pot(acc, shift)
        shift = 0
    product = acc.astype(np.int64) * np.int64(mantissa)
    nudge = np.where(product >= 0, np.int64(1 << 30),
                     np.int64(1 - (1 << 30)))
    high = np.clip((product + nudge) >> 31, INT32_MIN,
                   INT32_MAX).astype(np.int32)
    scaled = divide_by_pot(high, shift)
    shifted = scaled.astype(np.int64) + output.zero_point
    return np.clip(shifted, 0, 255).astype(np.uint8)


def expected_codes(acc, mantissa, shift, output, relu=False):
    """The two-step reference; from shift 32 on the real product
    ``acc * mantissa * 2**(-31-shift)`` is below one half in magnitude,
    so every code is the zero point.  ``relu`` clamps the codes at the
    zero point afterwards, as a separate pass."""
    if shift >= 32:
        return np.full(np.shape(acc), output.zero_point, dtype=np.uint8)
    codes = two_step_requantize(acc, mantissa, shift, output)
    if relu:
        codes = np.maximum(codes, np.uint8(output.zero_point))
    return codes


_EDGE_ACCUMULATORS = [INT32_MIN, INT32_MAX, 0, 1, -1]

accumulators = hnp.arrays(
    np.int32, st.integers(1, 64),
    elements=st.one_of(st.sampled_from(_EDGE_ACCUMULATORS),
                       st.integers(-(1 << 16), 1 << 16),
                       st.integers(INT32_MIN, INT32_MAX)))
mantissas = st.integers(1 << 30, (1 << 31) - 1)
zero_points = st.integers(0, 255)


def _landing_on(target, mantissa):
    """The accumulator whose rounded high-mul is exactly ``target``
    (consecutive accumulators move the product by ``mantissa`` < 2**31,
    so the smallest one reaching ``target``'s interval lands in it)."""
    nudge = (1 << 30) if target >= 0 else 1 - (1 << 30)
    acc = -((nudge - target * (1 << 31)) // mantissa)   # ceil division
    assert (acc * mantissa + nudge) >> 31 == target
    return acc


class TestRequantizeOneRounding:
    """requantize_prepared's single rounding step equals gemmlowp's two
    nested roundings byte for byte."""

    @given(accumulators, mantissas, st.integers(-3, 40), zero_points,
           st.booleans())
    @example(np.array(_EDGE_ACCUMULATORS, np.int32), (1 << 31) - 1, 31, 0,
             False)
    @example(np.array(_EDGE_ACCUMULATORS, np.int32), 1 << 30, 0, 255,
             False)
    @example(np.array(_EDGE_ACCUMULATORS, np.int32), (1 << 31) - 1, -3,
             128, False)
    @example(np.array(_EDGE_ACCUMULATORS, np.int32), (1 << 31) - 1, 31, 0,
             True)
    @example(np.array(_EDGE_ACCUMULATORS, np.int32), 1 << 30, 0, 255,
             True)
    @example(np.array(_EDGE_ACCUMULATORS, np.int32), (1 << 31) - 1, -3,
             128, True)
    @example(np.array(_EDGE_ACCUMULATORS, np.int32), 1 << 30, 33, 77,
             True)
    @settings(max_examples=400, deadline=None)
    def test_matches_two_step_formula(self, acc, mantissa, shift, zero,
                                      relu):
        """With ``relu`` the clip's lower bound is the zero point, which
        equals clamping the unfused codes at it afterwards."""
        out = QuantParams(scale=0.05, zero_point=zero)
        got = requantize_prepared(acc, mantissa, shift, out, relu=relu)
        assert got.dtype == np.uint8
        assert got.tobytes() == expected_codes(acc, mantissa, shift, out,
                                               relu).tobytes()

    @given(mantissas, st.integers(1, 31), st.integers(-64, 63),
           zero_points, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_ties_of_the_second_rounding(self, mantissa, shift, quotient,
                                         zero, relu):
        """High-mul results exactly halfway between two multiples of
        2**shift, on both signs."""
        half = 1 << (shift - 1)
        targets = [q * (1 << shift) + half for q in (quotient, -quotient,
                                                     -quotient - 1)]
        acc = np.array([a for a in (_landing_on(t, mantissa)
                                    for t in targets)
                        if INT32_MIN <= a <= INT32_MAX], dtype=np.int32)
        out = QuantParams(scale=0.05, zero_point=zero)
        assert (requantize_prepared(acc, mantissa, shift, out,
                                    relu=relu).tobytes()
                == expected_codes(acc, mantissa, shift, out,
                                  relu).tobytes())

    @given(mantissas, st.integers(0, 31), zero_points, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_ties_of_the_high_mul(self, mantissa, shift, zero, relu):
        """Products exactly halfway between two multiples of 2**31:
        ``acc * m = 2**30 (mod 2**31)``, on both signs."""
        mantissa |= 1          # odd, so invertible modulo 2**31
        tie = ((1 << 30) * pow(mantissa, -1, 1 << 31)) % (1 << 31)
        acc = np.array([tie, tie - (1 << 31)], dtype=np.int32)
        assert all(int(a) * mantissa % (1 << 31) == 1 << 30 for a in acc)
        out = QuantParams(scale=0.05, zero_point=zero)
        assert (requantize_prepared(acc, mantissa, shift, out,
                                    relu=relu).tobytes()
                == expected_codes(acc, mantissa, shift, out,
                                  relu).tobytes())

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("negative", [False, True])
    @pytest.mark.parametrize("shift", [0, 1, 2, 3, 7, 14])
    def test_exact_rounding_boundaries(self, shift, negative, offset):
        """Unsaturated products on (and one either side of) a point
        where the two-step result steps: ``acc*m + nudge1 + nudge2 *
        2**31`` a multiple of ``2**(31+shift)``, with ``nudge1`` the
        high-mul's sign-dependent nudge and ``nudge2 = 2**(shift-1) -
        [acc < 0]`` the divide's (0 at shift 0)."""
        nudge1 = 1 - (1 << 30) if negative else 1 << 30
        nudge2 = ((1 << (shift - 1)) - int(negative)) if shift else 0
        sign = -1 if negative else 1
        pairs = []
        for step in range(1, 100):
            # acc * m == product exactly: search the divisors of
            # |product| for an accumulator whose cofactor is a valid
            # mantissa in [2**30, 2**31).
            product = (sign * step * (1 << (31 + shift)) + offset
                       - nudge1 - nudge2 * (1 << 31))
            magnitude = abs(product)
            candidates = np.arange((magnitude >> 31) + 1,
                                   (magnitude >> 30) + 1, dtype=np.int64)
            for acc in candidates[magnitude % candidates == 0].tolist():
                mantissa = magnitude // acc
                if (1 << 30) <= mantissa < (1 << 31):
                    pairs.append((sign * acc, mantissa))
            if len(pairs) >= 8:
                break
        assert pairs
        out = QuantParams(scale=0.05, zero_point=128)
        for acc, mantissa in pairs:
            arr = np.array([acc], dtype=np.int32)
            for relu in (False, True):
                assert (requantize_prepared(arr, mantissa, shift, out,
                                            relu=relu).tobytes()
                        == expected_codes(arr, mantissa, shift, out,
                                          relu).tobytes()), (acc, mantissa)

    def test_saturating_positive_does_not_wrap(self):
        """Regression: a high-mul result near INT32_MAX plus the zero
        point wrapped in int32 and clipped to code 0."""
        out = QuantParams(scale=0.05, zero_point=128)
        acc = np.array([INT32_MAX, 1 << 28, INT32_MIN], np.int32)
        codes = requantize_prepared(acc, (1 << 31) - 1, -3, out)
        assert codes.tolist() == [255, 255, 0]

    def test_large_shift_returns_zero_point(self):
        """Regression: a fixed-point shift >= 32 overflowed the int32
        rounding mask with OverflowError; the rounded value is 0."""
        out = QuantParams.from_array(np.array([-1000.0, 1000.0],
                                              np.float32))
        _, shift = prepare_requantize(0.01, 1e-8, out)
        assert shift >= 32
        codes = requantize(np.array([5], np.int32), 0.01, 1e-8, out)
        assert codes.tolist() == [out.zero_point]
        extremes = np.array([INT32_MIN, INT32_MAX], np.int32)
        assert requantize(extremes, 0.01, 1e-8, out).tolist() == [
            out.zero_point] * 2
