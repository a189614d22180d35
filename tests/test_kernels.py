"""Tests for the numerical kernels: im2col, GEMM, qgemm, integer
depthwise convolution, pooling."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ShapeError
from repro.kernels import (avg_pool, conv_output_hw,
                           depthwise_conv_quint8, flatten_filters,
                           fused_const_row, gemm_f16, gemm_f32,
                           global_avg_pool, im2col, max_pool,
                           pack_depthwise_taps, pack_f32_blocks, qgemm,
                           qgemm_accumulate, qgemm_fused, quantize_bias)
from repro.kernels.qgemm import EXACT_F32_BLOCK
from repro.quant import prepare_requantize, requantize_prepared
from repro.tensor import QuantParams


def naive_conv(x, weights, bias, stride, padding):
    """O(n^7) reference convolution for correctness checks."""
    batch, in_c, in_h, in_w = x.shape
    out_c, _, k, _ = weights.shape
    out_h, out_w = conv_output_hw(in_h, in_w, k, stride, padding)
    padded = np.zeros((batch, in_c, in_h + 2 * padding,
                       in_w + 2 * padding), dtype=np.float64)
    padded[:, :, padding:padding + in_h, padding:padding + in_w] = x
    out = np.zeros((batch, out_c, out_h, out_w), dtype=np.float64)
    for b in range(batch):
        for oc in range(out_c):
            for oy in range(out_h):
                for ox in range(out_w):
                    window = padded[b, :, oy * stride:oy * stride + k,
                                    ox * stride:ox * stride + k]
                    out[b, oc, oy, ox] = (window
                                          * weights[oc]).sum() + bias[oc]
    return out.astype(np.float32)


class TestConvOutputHw:
    def test_basic(self):
        assert conv_output_hw(28, 28, 5, 1, 2) == (28, 28)

    def test_stride(self):
        assert conv_output_hw(224, 224, 7, 2, 3) == (112, 112)

    def test_too_small_raises(self):
        with pytest.raises(ShapeError):
            conv_output_hw(2, 2, 5, 1, 0)


class TestIm2col:
    def test_conv_via_im2col_matches_naive(self, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        weights = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        for stride, padding in ((1, 0), (1, 1), (2, 1)):
            columns = im2col(x, 3, stride, padding)
            flat = flatten_filters(weights)
            out = columns @ flat.T + bias
            out_h, out_w = conv_output_hw(8, 8, 3, stride, padding)
            out = out.reshape(2, out_h, out_w, 4).transpose(0, 3, 1, 2)
            expected = naive_conv(x, weights, bias, stride, padding)
            np.testing.assert_allclose(out, expected, rtol=1e-4,
                                       atol=1e-4)

    def test_custom_pad_value(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        columns = im2col(x, 2, 1, 1, pad_value=9.0)
        assert (columns == 9.0).any()

    def test_non_nchw_rejected(self):
        with pytest.raises(ShapeError):
            im2col(np.zeros((2, 2)), 1, 1, 0)

    def test_column_count(self):
        x = np.zeros((3, 2, 10, 10), dtype=np.float32)
        columns = im2col(x, 3, 1, 0)
        assert columns.shape == (3, 64, 18)

    @given(channels=st.integers(1, 6), kernel=st.integers(1, 5),
           stride=st.integers(1, 3), batch=st.integers(1, 3),
           extra_h=st.integers(0, 6), extra_w=st.integers(0, 6),
           pad_frac=st.integers(0, 2),
           dtype=st.sampled_from([np.uint8, np.float16, np.float32]),
           pad_value=st.integers(1, 255), seed=st.integers(0, 2 ** 32 - 1))
    @example(channels=2, kernel=5, stride=2, batch=3, extra_h=3, extra_w=0,
             pad_frac=2, dtype=np.uint8, pad_value=17, seed=0)
    @example(channels=8, kernel=3, stride=1, batch=2, extra_h=1, extra_w=5,
             pad_frac=1, dtype=np.float16, pad_value=200, seed=1)
    @example(channels=3, kernel=1, stride=3, batch=1, extra_h=6, extra_w=2,
             pad_frac=0, dtype=np.float32, pad_value=9, seed=2)
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_gather(self, channels, kernel, stride, batch,
                                  extra_h, extra_w, pad_frac, dtype,
                                  pad_value, seed):
        """Both branches (per-tap copies when ``channels >= kernel``,
        one window-view copy otherwise) equal a per-window gather loop
        byte for byte, on non-square inputs with padding."""
        padding = pad_frac * (kernel // 2) // 2
        in_h, in_w = kernel + extra_h, kernel + extra_w + 1
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 256, (batch, channels, in_h, in_w)).astype(
            dtype)
        got = im2col(x, kernel, stride, padding, pad_value=float(pad_value))
        padded = np.full((batch, channels, in_h + 2 * padding,
                          in_w + 2 * padding), pad_value, dtype=dtype)
        padded[:, :, padding:padding + in_h, padding:padding + in_w] = x
        out_h, out_w = conv_output_hw(in_h, in_w, kernel, stride, padding)
        expected = np.empty((batch, out_h * out_w,
                             channels * kernel * kernel), dtype=dtype)
        for oy in range(out_h):
            for ox in range(out_w):
                window = padded[:, :, oy * stride:oy * stride + kernel,
                                ox * stride:ox * stride + kernel]
                expected[:, oy * out_w + ox] = window.reshape(batch, -1)
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_flatten_filters_shape(self):
        filters = np.zeros((4, 3, 5, 5))
        assert flatten_filters(filters).shape == (4, 75)

    def test_flatten_filters_rank_check(self):
        with pytest.raises(ShapeError):
            flatten_filters(np.zeros((4, 75)))


class TestGemm:
    def test_f32_matches_numpy(self, rng):
        a = rng.standard_normal((8, 16)).astype(np.float32)
        b = rng.standard_normal((16, 4)).astype(np.float32)
        np.testing.assert_allclose(gemm_f32(a, b), a @ b, rtol=1e-6)

    def test_f32_bias(self, rng):
        a = rng.standard_normal((2, 3)).astype(np.float32)
        b = rng.standard_normal((3, 5)).astype(np.float32)
        bias = rng.standard_normal(5).astype(np.float32)
        np.testing.assert_allclose(gemm_f32(a, b, bias), a @ b + bias,
                                   rtol=1e-6)

    def test_f16_output_dtype(self, rng):
        a = rng.standard_normal((4, 4)).astype(np.float16)
        out = gemm_f16(a, a)
        assert out.dtype == np.float16

    def test_f16_close_to_f32(self, rng):
        a = rng.standard_normal((16, 32)).astype(np.float32)
        b = rng.standard_normal((32, 8)).astype(np.float32)
        full = a @ b
        half = gemm_f16(a, b).astype(np.float32)
        np.testing.assert_allclose(half, full, rtol=2e-2, atol=2e-2)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            gemm_f32(np.zeros((2, 3), np.float32),
                     np.zeros((4, 5), np.float32))


class TestQgemm:
    def test_accumulator_matches_float_affine(self, rng):
        """The integer accumulator must equal the exact centred
        product sum: sum (ql - zl)(qr - zr)."""
        lhs_q = rng.integers(0, 256, (6, 12)).astype(np.uint8)
        rhs_q = rng.integers(0, 256, (12, 5)).astype(np.uint8)
        zl, zr = 100, 140
        acc = qgemm_accumulate(lhs_q, zl, rhs_q, zr)
        expected = ((lhs_q.astype(np.int64) - zl)
                    @ (rhs_q.astype(np.int64) - zr))
        np.testing.assert_array_equal(acc, expected.astype(np.int32))

    def test_full_qgemm_approximates_float_gemm(self, rng):
        real_lhs = rng.uniform(-1, 1, (8, 32)).astype(np.float32)
        real_rhs = rng.uniform(-0.5, 0.5, (32, 6)).astype(np.float32)
        lhs_params = QuantParams.from_array(real_lhs)
        rhs_params = QuantParams.from_array(real_rhs)
        real_out = real_lhs @ real_rhs
        out_params = QuantParams.from_array(real_out)
        codes = qgemm(lhs_params.quantize(real_lhs), lhs_params,
                      rhs_params.quantize(real_rhs), rhs_params,
                      out_params)
        approx = out_params.dequantize(codes)
        # Error from two 8-bit operands accumulates; stay within a few
        # output steps.
        assert np.max(np.abs(approx - real_out)) < 6 * out_params.scale

    def test_bias_folding(self, rng):
        real_lhs = rng.uniform(-1, 1, (4, 16)).astype(np.float32)
        real_rhs = rng.uniform(-1, 1, (16, 3)).astype(np.float32)
        bias = np.array([0.5, -0.25, 1.0], dtype=np.float32)
        lhs_params = QuantParams.from_array(real_lhs)
        rhs_params = QuantParams.from_array(real_rhs)
        real_out = real_lhs @ real_rhs + bias
        out_params = QuantParams.from_array(real_out)
        codes = qgemm(lhs_params.quantize(real_lhs), lhs_params,
                      rhs_params.quantize(real_rhs), rhs_params,
                      out_params, bias=bias)
        approx = out_params.dequantize(codes)
        assert np.max(np.abs(approx - real_out)) < 6 * out_params.scale

    def test_fused_relu_clamps_at_zero_point(self, rng):
        real_lhs = rng.uniform(-1, 1, (4, 8)).astype(np.float32)
        real_rhs = rng.uniform(-1, 1, (8, 4)).astype(np.float32)
        lhs_params = QuantParams.from_array(real_lhs)
        rhs_params = QuantParams.from_array(real_rhs)
        out_params = QuantParams.from_range(-2.0, 2.0)
        codes = qgemm(lhs_params.quantize(real_lhs), lhs_params,
                      rhs_params.quantize(real_rhs), rhs_params,
                      out_params, relu=True)
        assert codes.min() >= out_params.zero_point

    def test_f32_block_bound(self):
        """Every partial sum of a block of centred products stays below
        2**24, where float32 holds every integer; one more row breaks
        the bound."""
        assert EXACT_F32_BLOCK * 255 ** 2 < 2 ** 24
        assert (EXACT_F32_BLOCK + 1) * 255 ** 2 >= 2 ** 24
        rhs = np.zeros((2 * EXACT_F32_BLOCK + 1, 3), np.uint8)
        blocks = pack_f32_blocks(rhs, 7)
        assert [b.shape[0] for b in blocks] == [EXACT_F32_BLOCK,
                                                EXACT_F32_BLOCK, 1]
        assert all(b.dtype == np.float32 for b in blocks)
        assert all((b == -7).all() for b in blocks)

    @given(depth=st.sampled_from([1, 257, 258, 259, 516, 517, 33_100]),
           batch=st.integers(1, 3), rows=st.integers(1, 4),
           cols=st.integers(1, 5),
           lhs_fill=st.sampled_from([None, 0, 255]),
           rhs_fill=st.sampled_from([None, 0, 255]),
           x_zero=st.sampled_from([0, 128, 255]),
           w_zero=st.sampled_from([0, 128, 255]),
           out_scale=st.sampled_from([1e-3, 0.05, 4.0]),
           relu=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_fused_matches_qgemm(self, depth, batch, rows, cols, lhs_fill,
                                 rhs_fill, x_zero, w_zero, out_scale, relu,
                                 seed):
        """qgemm_fused (blocked f32 sgemm over centred weights) equals
        the int32 reference qgemm byte for byte, across block edges and
        past depth 33,025 (where the next test forces the wrap)."""
        rng = np.random.default_rng(seed)

        def codes(shape, fill):
            if fill is None:
                return rng.integers(0, 256, shape).astype(np.uint8)
            return np.full(shape, fill, np.uint8)

        lhs = codes((batch * rows, depth), lhs_fill)
        rhs = codes((depth, cols), rhs_fill)
        bias_i32 = rng.integers(-(1 << 20), 1 << 20, cols).astype(np.int32)
        x_params = QuantParams(scale=0.02, zero_point=x_zero)
        w_params = QuantParams(scale=0.01, zero_point=w_zero)
        out = QuantParams(scale=out_scale,
                          zero_point=int(rng.integers(0, 256)))
        # The reference's int32 scalar terms wrap at the deepest size.
        with np.errstate(over="ignore"):
            expected = qgemm(lhs, x_params, rhs, w_params, out,
                             bias_i32=bias_i32, relu=relu)
        mantissa, shift = prepare_requantize(x_params.scale,
                                             w_params.scale, out)
        const_row = fused_const_row(rhs.astype(np.int32), x_zero, w_zero,
                                    bias_i32)
        got = qgemm_fused(lhs, pack_f32_blocks(rhs, w_zero), const_row,
                          mantissa, shift, out, relu=relu)
        assert got.dtype == np.uint8
        assert got.tobytes() == expected.tobytes()

    def test_fused_wraps_like_int32(self):
        """Past depth 33,025 the exact accumulator leaves the int32
        range; the blocks sum in wrapping int32 exactly as qgemm's
        int32 matmul does."""
        depth = 33_100
        lhs = np.full((2, depth), 255, np.uint8)
        rhs = np.zeros((depth, 3), np.uint8)
        exact = (lhs.astype(np.int64) @ (rhs.astype(np.int64) - 255))
        assert exact.min() < -(1 << 31)
        x_params = QuantParams(scale=0.02, zero_point=0)
        w_params = QuantParams(scale=0.01, zero_point=255)
        out = QuantParams(scale=1e-3, zero_point=100)
        with np.errstate(over="ignore"):
            acc = qgemm_accumulate(lhs, 0, rhs, 255)
            expected = qgemm(lhs, x_params, rhs, w_params, out)
        assert acc.tolist() == exact.astype(np.int32).tolist()
        mantissa, shift = prepare_requantize(0.02, 0.01, out)
        const_row = fused_const_row(rhs.astype(np.int32), 0, 255,
                                    np.zeros(3, np.int32))
        got = qgemm_fused(lhs, pack_f32_blocks(rhs, 255), const_row,
                          mantissa, shift, out)
        assert got.tobytes() == expected.tobytes()

    def test_quantize_bias_units(self):
        bias = np.array([1.0])
        assert quantize_bias(bias, 0.1, 0.1)[0] == 100

    def test_non_uint8_rejected(self):
        with pytest.raises(ShapeError):
            qgemm_accumulate(np.zeros((2, 2), np.int32), 0,
                             np.zeros((2, 2), np.uint8), 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            qgemm_accumulate(np.zeros((2, 3), np.uint8), 0,
                             np.zeros((4, 2), np.uint8), 0)


def naive_max_pool(x, kernel, stride, padding):
    """Per-window loop over the in-bounds part of each window."""
    batch, channels, height, width = x.shape
    out_h, out_w = conv_output_hw(height, width, kernel, stride, padding)
    out = np.empty((batch, channels, out_h, out_w), dtype=x.dtype)
    for n in range(batch):
        for c in range(channels):
            for oh in range(out_h):
                for ow in range(out_w):
                    top = oh * stride - padding
                    left = ow * stride - padding
                    out[n, c, oh, ow] = x[n, c,
                                          max(top, 0):top + kernel,
                                          max(left, 0):left + kernel].max()
    return out


def _pool_elements(dtype):
    if dtype == np.uint8:
        return st.integers(0, 255)
    width = np.finfo(dtype).bits
    specials = [-np.inf, np.nan, float(np.finfo(dtype).min)]
    # One NaN payload only, and no -0.0: signed zeros compare equal,
    # so which one a maximum returns depends on evaluation order.
    return st.one_of(
        st.sampled_from(specials),
        st.floats(width=width, allow_nan=False).map(lambda v: v + 0.0))


@st.composite
def max_pool_cases(draw):
    kernel = draw(st.integers(1, 4))
    stride = draw(st.integers(1, kernel + 2))
    padding = draw(st.integers(0, kernel // 2))
    low = max(1, kernel - 2 * padding)
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)),
             draw(st.integers(low, 9)), draw(st.integers(low, 9)))
    dtype = draw(st.sampled_from([np.uint8, np.float16, np.float32]))
    x = draw(hnp.arrays(dtype, shape, elements=_pool_elements(dtype)))
    return x, kernel, stride, padding


class TestPooling:
    @given(max_pool_cases())
    @example((np.array([[[[0, 255, 7], [255, 0, 3]]]], np.uint8), 2, 1, 1))
    @example((np.array([[[[-np.inf, np.nan, 1.0],
                          [np.finfo(np.float32).min, -np.inf, 2.0]]]],
                       np.float32), 3, 2, 1))
    @example((np.array([[[[-np.inf, np.finfo(np.float16).min],
                          [np.nan, 4.0]]]], np.float16), 2, 3, 1))
    @settings(max_examples=200, deadline=None)
    def test_max_pool_matches_naive_windows(self, case):
        x, kernel, stride, padding = case
        out = max_pool(x, kernel, stride, padding)
        expected = naive_max_pool(x, kernel, stride, padding)
        assert out.dtype == x.dtype
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    def test_max_pool_basic(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = max_pool(x, 2, 2)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_uint8(self):
        x = np.arange(16, dtype=np.uint8).reshape(1, 1, 4, 4)
        out = max_pool(x, 2, 2)
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_padding_never_wins(self):
        x = -np.ones((1, 1, 2, 2), dtype=np.float32)
        out = max_pool(x, 3, 1, padding=1)
        assert np.all(out == -1.0)

    def test_avg_pool_basic(self):
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        out = avg_pool(x, 2, 2)
        assert np.all(out == 1.0)

    def test_avg_pool_count_include_pad(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        # 3x3 window with padding 1 centred on a corner: 4 ones of 9.
        out = avg_pool(x, 3, 2, padding=1, count_include_pad=True)
        assert out[0, 0, 0, 0] == pytest.approx(4.0 / 9.0)

    def test_avg_pool_exclude_pad(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        out = avg_pool(x, 3, 2, padding=1, count_include_pad=False)
        assert out[0, 0, 0, 0] == pytest.approx(1.0)

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        out = global_avg_pool(x)
        assert out.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(out[:, :, 0, 0], x.mean(axis=(2, 3)),
                                   rtol=1e-5)

    def test_pool_rejects_non_nchw(self):
        with pytest.raises(ShapeError):
            max_pool(np.zeros((4, 4)), 2, 2)


def einsum_depthwise_uint8(codes, x_zero, weight_codes, w_zero, bias_i32,
                           kernel, stride, padding, mantissa, shift,
                           output, relu):
    """The im2col + int64 einsum lowering the depthwise kernel replaced:
    per-channel patch columns padded with the zero point, contracted
    against the tiled centred filters, wrapped to int32, bias tiled per
    patch, then requantized."""
    batch, channels, in_h, in_w = codes.shape
    columns = im2col(codes.reshape(batch * channels, 1, in_h, in_w),
                     kernel, stride, padding, pad_value=float(x_zero))
    lhs = columns.astype(np.int32) - np.int32(x_zero)
    rhs = (np.tile(weight_codes.reshape(channels, -1),
                   (batch, 1)).astype(np.int32) - np.int32(w_zero))
    acc = np.einsum("npk,nk->np", lhs, rhs, dtype=np.int64).astype(
        np.int32)
    acc = acc + np.repeat(np.tile(bias_i32, batch),
                          acc.shape[1]).reshape(acc.shape)
    out = requantize_prepared(acc, mantissa, shift, output)
    out_h, out_w = conv_output_hw(in_h, in_w, kernel, stride, padding)
    out = out.reshape(batch, channels, out_h, out_w)
    if relu:
        out = np.maximum(out, np.uint8(output.zero_point))
    return out


class TestDepthwiseUint8:
    """The shifted-tap int32 kernel equals the im2col + int64 einsum
    lowering byte for byte."""

    CHANNELS = 6

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_matches_einsum_lowering(self, kernel, stride, padding,
                                     batch):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
        channels = self.CHANNELS
        x = rng.integers(0, 256, (batch, channels, 9, 8)).astype(np.uint8)
        weights = rng.integers(0, 256, (channels, kernel, kernel)).astype(
            np.uint8)
        bias = rng.integers(-5000, 5000, channels).astype(np.int32)
        # A wide multiplier so codes land across the whole uint8 range.
        mantissa, shift = 1518500250, 7
        for x_zero in (0, 128, 255):
            w_zero = int(rng.integers(0, 256))
            output = QuantParams(scale=0.1,
                                 zero_point=int(rng.integers(0, 256)))
            for lo, hi in ((0, channels), (2, 5)):
                taps = pack_depthwise_taps(weights[lo:hi], w_zero)
                for relu in (False, True):
                    got = depthwise_conv_quint8(
                        x[:, lo:hi], x_zero, taps, bias[lo:hi], stride,
                        padding, mantissa, shift, output, relu)
                    expected = einsum_depthwise_uint8(
                        np.ascontiguousarray(x[:, lo:hi]), x_zero,
                        weights[lo:hi], w_zero, bias[lo:hi], kernel,
                        stride, padding, mantissa, shift, output, relu)
                    assert got.dtype == np.uint8
                    assert got.shape == expected.shape
                    assert got.tobytes() == expected.tobytes(), (
                        x_zero, (lo, hi), relu)

    def test_accumulator_wraps_like_int32(self):
        """Extreme taps whose int32 sum wraps: the wrap is the same
        modular value the int64 contraction truncates to."""
        x = np.full((1, 2, 7, 7), 255, np.uint8)
        weights = np.zeros((2, 5, 5), np.uint8)
        bias = np.array([(1 << 31) - 1, -(1 << 31)], np.int32)
        output = QuantParams(scale=0.1, zero_point=100)
        taps = pack_depthwise_taps(weights, 255)
        got = depthwise_conv_quint8(x, 0, taps, bias, 1, 2, 1 << 30, 0,
                                    output)
        expected = einsum_depthwise_uint8(x, 0, weights, 255, bias, 5, 1,
                                          2, 1 << 30, 0, output, False)
        assert got.tobytes() == expected.tobytes()

    def test_taps_layout(self):
        weights = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        taps = pack_depthwise_taps(weights, 4)
        assert taps.shape == (3, 3, 1, 2, 1, 1)
        assert taps.dtype == np.int32
        assert taps[1, 2, 0, 1, 0, 0] == int(weights[1, 1, 2]) - 4

    def test_rejects_non_nchw(self):
        taps = pack_depthwise_taps(np.zeros((2, 3, 3), np.uint8), 0)
        with pytest.raises(ShapeError):
            depthwise_conv_quint8(np.zeros((2, 5, 5), np.uint8), 0, taps,
                                  np.zeros(2, np.int32), 1, 1, 1 << 30, 0,
                                  QuantParams(scale=0.1, zero_point=0))

    @pytest.mark.parametrize("batch", [1, 3])
    def test_compiled_mixed_split_matches_executor(
            self, mobilenet_mini, mobilenet_mini_calibration, batch):
        """A 0.5 CPU/GPU pfq split: every depthwise step pairs an
        integer CPU part with an F16 GPU part, and the compiled program
        stays byte-identical to the functional interpreter."""
        from repro.compile import compile_program
        from repro.runtime import PROCESSOR_FRIENDLY
        from repro.runtime.executor import Executor
        from repro.runtime.plan import ExecutionPlan, LayerAssignment
        from repro.soc import EXYNOS_7420
        graph = mobilenet_mini
        assignments = {}
        for name in graph.compute_layers():
            if graph.layer(name).supports_channel_split:
                assignments[name] = LayerAssignment.cooperative(name, 0.5)
            else:
                assignments[name] = LayerAssignment.on_cpu(name)
        plan = ExecutionPlan(graph_name=graph.name,
                             policy=PROCESSOR_FRIENDLY,
                             assignments=assignments)
        executor = Executor(EXYNOS_7420)
        program = compile_program(graph, plan,
                                  mobilenet_mini_calibration, batch=batch)
        mixed = [step for step in program.steps
                 if step.kind == "depthwise_conv"
                 and {resource for resource, _ in step.placements}
                 == {"cpu", "gpu"}]
        assert mixed
        x = np.random.default_rng(batch).standard_normal(
            (batch, 3, 32, 32)).astype(np.float32)
        functional = executor.run(graph, plan, x=x,
                                  calibration=mobilenet_mini_calibration)
        compiled = executor.run(graph, plan, x=x,
                                calibration=mobilenet_mini_calibration,
                                program=program)
        assert set(functional.outputs) == set(compiled.outputs)
        for name, tensor in functional.outputs.items():
            assert (compiled.outputs[name].data.tobytes()
                    == tensor.data.tobytes()), name
