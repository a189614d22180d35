"""Microbenchmarks of the numerical kernels (host wall-clock).

Unlike the figure benchmarks (which report *simulated* SoC time), these
measure the reproduction's own numpy kernels, so regressions in the
functional pipeline show up as real slowdowns.
"""

import numpy as np
import pytest

from repro.kernels import gemm_f16, gemm_f32, im2col, max_pool, qgemm
from repro.tensor import QuantParams

RNG = np.random.default_rng(42)


@pytest.fixture(scope="module")
def conv_input():
    return RNG.standard_normal((1, 64, 56, 56)).astype(np.float32)


def test_bench_im2col(benchmark, conv_input):
    result = benchmark(im2col, conv_input, 3, 1, 1)
    assert result.shape == (1, 56 * 56, 64 * 9)


def test_bench_gemm_f32(benchmark):
    lhs = RNG.standard_normal((3136, 576)).astype(np.float32)
    rhs = RNG.standard_normal((576, 128)).astype(np.float32)
    out = benchmark(gemm_f32, lhs, rhs)
    assert out.shape == (3136, 128)


def test_bench_gemm_f16(benchmark):
    lhs = RNG.standard_normal((3136, 576)).astype(np.float16)
    rhs = RNG.standard_normal((576, 128)).astype(np.float16)
    out = benchmark(gemm_f16, lhs, rhs)
    assert out.dtype == np.float16


def test_bench_qgemm(benchmark):
    lhs_params = QuantParams.from_range(-1.0, 1.0)
    rhs_params = QuantParams.from_range(-0.5, 0.5)
    out_params = QuantParams.from_range(-8.0, 8.0)
    lhs = RNG.integers(0, 256, (3136, 576)).astype(np.uint8)
    rhs = RNG.integers(0, 256, (576, 128)).astype(np.uint8)
    out = benchmark(qgemm, lhs, lhs_params, rhs, rhs_params, out_params)
    assert out.dtype == np.uint8


def test_bench_max_pool(benchmark, conv_input):
    out = benchmark(max_pool, conv_input, 2, 2)
    assert out.shape == (1, 64, 28, 28)


@pytest.mark.parametrize("dtype", [np.uint8, np.float32])
def test_bench_max_pool_padded(benchmark, dtype):
    """GoogLeNet's pool1/3x3_s2 (k3 s2 p1 on 1x64x112x112), checked
    byte for byte against the window-view reduction it replaced."""
    x = RNG.integers(0, 256, (1, 64, 112, 112)).astype(dtype)
    out = benchmark(max_pool, x, 3, 2, 1)
    low = (np.iinfo(dtype).min if np.issubdtype(dtype, np.integer)
           else -np.inf)
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)),
                    constant_values=low)
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (3, 3), axis=(2, 3))[:, :, ::2, ::2]
    reference = windows.max(axis=(-1, -2))
    assert out.dtype == dtype
    assert out.tobytes() == reference.tobytes()


def test_bench_depthwise_uint8(benchmark):
    """MobileNet's conv1/dw (k3 s1 p1 on 1x32x112x112) through the
    shifted-tap int32 kernel, checked byte for byte against the im2col
    + int64 einsum lowering it replaced."""
    from repro.kernels import depthwise_conv_quint8, pack_depthwise_taps
    from repro.quant import requantize_prepared
    x = RNG.integers(0, 256, (1, 32, 112, 112)).astype(np.uint8)
    weights = RNG.integers(0, 256, (32, 3, 3)).astype(np.uint8)
    bias = RNG.integers(-3000, 3000, 32).astype(np.int32)
    x_zero, w_zero, mantissa, shift = 121, 134, 1518500250, 8
    output = QuantParams(scale=0.05, zero_point=96)
    taps = pack_depthwise_taps(weights, w_zero)
    out = benchmark(depthwise_conv_quint8, x, x_zero, taps, bias, 1, 1,
                    mantissa, shift, output, True)
    columns = im2col(x.reshape(32, 1, 112, 112), 3, 1, 1,
                     pad_value=float(x_zero))
    rhs = weights.reshape(32, 9).astype(np.int32) - np.int32(w_zero)
    acc = np.einsum("npk,nk->np", columns.astype(np.int32) - x_zero, rhs,
                    dtype=np.int64).astype(np.int32) + bias[:, None]
    reference = np.maximum(
        requantize_prepared(acc, mantissa, shift, output),
        np.uint8(output.zero_point)).reshape(1, 32, 112, 112)
    assert out.tobytes() == reference.tobytes()


def test_bench_requantize(benchmark):
    """The one-rounding requantization epilogue on 401,408 accumulators
    (conv1/dw's output), checked byte for byte against gemmlowp's two
    nested roundings."""
    from repro.quant import requantize_prepared
    acc = RNG.integers(-(1 << 20), 1 << 20, 401408).astype(np.int32)
    mantissa, shift = 1518500250, 9
    output = QuantParams(scale=0.05, zero_point=96)
    out = benchmark(requantize_prepared, acc, mantissa, shift, output)
    product = acc.astype(np.int64) * mantissa
    high = (product + np.where(product >= 0, 1 << 30, 1 - (1 << 30))) >> 31
    mask = (1 << shift) - 1
    threshold = (mask >> 1) + (high < 0)
    rounded = (high >> shift) + ((high & mask) > threshold)
    reference = np.clip(rounded + output.zero_point, 0, 255).astype(
        np.uint8)
    assert out.tobytes() == reference.tobytes()


def test_bench_mulayer_planning(benchmark):
    """Wall-clock cost of planning GoogLeNet with the oracle
    partitioner -- the runtime's one-time setup cost."""
    from repro.models import build_model
    from repro.runtime import Partitioner, PartitionerConfig
    from repro.soc import EXYNOS_7420
    graph = build_model("googlenet", with_weights=False)
    partitioner = Partitioner(
        EXYNOS_7420, config=PartitionerConfig(use_oracle_costs=True))
    plan = benchmark(partitioner.plan, graph)
    plan.validate(graph)


def test_bench_simulated_execution(benchmark):
    """Wall-clock cost of one timed (non-functional) GoogLeNet
    inference through the whole simulator."""
    from repro.models import build_model
    from repro.runtime import MuLayer
    from repro.soc import EXYNOS_7420
    graph = build_model("googlenet", with_weights=False)
    runtime = MuLayer(EXYNOS_7420, use_oracle_costs=True)
    runtime.run(graph)   # warm the plan cache
    result = benchmark(runtime.run, graph)
    assert result.latency_s > 0
