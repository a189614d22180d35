"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kernels import qgemm_accumulate
from repro.nn import LayerWork
from repro.quant import fake_quantize, requantize, \
    requantize_float_reference
from repro.runtime import split_counts
from repro.soc import EXYNOS_7420, Timeline, CPU, GPU
from repro.tensor import QMAX, QMIN, QuantParams

finite_ranges = st.tuples(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
).map(sorted).filter(lambda pair: pair[1] - pair[0] > 1e-6)


class TestQuantizationProperties:
    @given(finite_ranges,
           hnp.arrays(np.float32, st.integers(1, 64),
                      elements=st.floats(-1e4, 1e4, width=32)))
    # The range end of the widest range: float32 rounding pushes the
    # error 3e-5 past scale/2.
    @example((-1e4, 1e4), np.array([1e4], dtype=np.float32))
    # A rounding midpoint: 1.3 float32 spacings past scale/2.
    @example((-0.004149206973990358, 0.06097680098663849),
             np.array([0.054016277], dtype=np.float32))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_error_bounded(self, bounds, values):
        """Round-trip error is at most half a quantization step plus
        float32 rounding.  With M = max(|range_min|, |range_max|) and
        u = spacing(float32(M)) >= M * 2**-24, the float32 scale is off
        by at most M * 2**-24 <= u over the code range, the float32
        dequantized value and the float32 difference below each round
        by at most u / 2: 2 u in all."""
        qp = QuantParams.from_range(*bounds)
        clipped = np.clip(values, qp.range_min, qp.range_max)
        recovered = qp.dequantize(qp.quantize(clipped))
        ulp = float(np.spacing(np.float32(
            max(abs(qp.range_min), abs(qp.range_max)))))
        assert (np.max(np.abs(recovered - clipped))
                <= qp.scale / 2 + 2 * ulp)

    @given(finite_ranges)
    @settings(max_examples=200, deadline=None)
    def test_zero_exactly_representable(self, bounds):
        qp = QuantParams.from_range(*bounds)
        assert qp.dequantize(qp.quantize(np.array([0.0])))[0] == 0.0

    @given(finite_ranges,
           hnp.arrays(np.float32, st.integers(1, 32),
                      elements=st.floats(-1e4, 1e4, width=32)))
    @settings(max_examples=100, deadline=None)
    def test_codes_in_range(self, bounds, values):
        qp = QuantParams.from_range(*bounds)
        codes = qp.quantize(values)
        assert codes.min() >= QMIN
        assert codes.max() <= QMAX

    @given(finite_ranges,
           hnp.arrays(np.float32, st.integers(1, 32),
                      elements=st.floats(-100, 100, width=32)))
    @settings(max_examples=100, deadline=None)
    def test_fake_quantize_idempotent(self, bounds, values):
        qp = QuantParams.from_range(*bounds)
        once = fake_quantize(values, qp)
        np.testing.assert_array_equal(once, fake_quantize(once, qp))

    @given(st.integers(-10 ** 6, 10 ** 6),
           st.floats(1e-4, 1e-1), st.floats(1e-4, 1e-1),
           st.floats(1e-3, 1.0), st.integers(0, 255))
    @settings(max_examples=200, deadline=None)
    def test_requantize_close_to_reference(self, acc, s_in, s_w, s_out,
                                           zero_point):
        out = QuantParams(scale=s_out, zero_point=zero_point)
        acc_array = np.array([acc], dtype=np.int32)
        fixed = requantize(acc_array, s_in, s_w, out)
        ref = requantize_float_reference(acc_array, s_in, s_w, out)
        assert abs(int(fixed[0]) - int(ref[0])) <= 1


class TestQGemmProperties:
    @given(st.integers(1, 8), st.integers(1, 16), st.integers(1, 8),
           st.integers(0, 255), st.integers(0, 255),
           st.integers(0, 2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_accumulator_exact(self, m, k, n, zl, zr, seed):
        rng = np.random.default_rng(seed)
        lhs = rng.integers(0, 256, (m, k)).astype(np.uint8)
        rhs = rng.integers(0, 256, (k, n)).astype(np.uint8)
        acc = qgemm_accumulate(lhs, zl, rhs, zr)
        expected = ((lhs.astype(np.int64) - zl)
                    @ (rhs.astype(np.int64) - zr))
        np.testing.assert_array_equal(acc, expected.astype(np.int32))


class TestSplitProperties:
    @given(st.integers(1, 4096), st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_split_counts_partition(self, total, split):
        cpu, gpu = split_counts(total, split)
        assert cpu + gpu == total
        assert cpu >= 0 and gpu >= 0

    @given(st.integers(2, 4096),
           st.floats(0.01, 0.99).filter(lambda p: 0 < p < 1))
    @settings(max_examples=300, deadline=None)
    def test_cooperative_split_nondegenerate(self, total, split):
        cpu, gpu = split_counts(total, split)
        assert cpu >= 1
        assert gpu >= 1

    @given(st.integers(0, 10 ** 9), st.integers(0, 10 ** 6),
           st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
           st.integers(1, 4096), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_scaled_work_subadditive(self, macs, simple, params,
                                     elements, channels, fraction):
        work = LayerWork(macs=macs, simple_ops=simple,
                         param_elements=params,
                         input_elements=elements,
                         output_elements=elements,
                         parallel_channels=channels)
        part = work.scaled(fraction)
        rest = work.scaled(1.0 - fraction)
        # Rounding each half can drift by at most one MAC.
        assert part.macs + rest.macs == pytest.approx(work.macs, abs=1)


class TestTimelineProperties:
    @given(st.lists(st.tuples(st.sampled_from([CPU, GPU]),
                              st.floats(0.0, 1.0),
                              st.floats(0.0, 2.0)),
                    min_size=0, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_reservations_never_overlap(self, reservations):
        tl = Timeline()
        for resource, duration, earliest in reservations:
            tl.reserve(resource, duration, "l", "compute",
                       earliest=earliest)
        tl.validate()

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_makespan_at_least_busy_time(self, durations):
        tl = Timeline()
        for duration in durations:
            tl.reserve(CPU, duration, "l", "compute")
        assert tl.makespan() >= tl.busy_seconds(CPU) - 1e-9


class TestUtilizationProperties:
    @given(st.floats(1.0, 1e10), st.floats(1.0, 1e10),
           st.integers(1, 4096))
    @settings(max_examples=200, deadline=None)
    def test_utilization_monotone_and_bounded(self, macs_a, macs_b,
                                              channels):
        gpu = EXYNOS_7420.gpu
        low, high = sorted([macs_a, macs_b])
        u_low = gpu.utilization(low, channels)
        u_high = gpu.utilization(high, channels)
        assert 0.0 < u_low <= u_high <= 1.0
