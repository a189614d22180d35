"""Lowering an execution plan into a :class:`CompiledProgram`.

:func:`compile_program` walks the graph once, in topological order,
and emits one fused step per compute layer:

* **fusion** -- a conv/FC layer's im2col lowering, GEMM, bias add,
  ReLU, and requantization collapse into a single kernel call
  (:func:`~repro.kernels.qgemm.qgemm_fused` on the integer pipeline,
  one ``gemm_f16``/``matmul`` with epilogue on the float pipelines);
  all weight-side operands are packed at compile time, including the
  centred f32 weight blocks of the exact blocked-sgemm integer GEMM
  (:func:`~repro.kernels.qgemm.pack_f32_blocks`), the folded
  bias/zero-point constant row
  (:func:`~repro.kernels.qgemm.fused_const_row`), the pre-decomposed
  requantization multiplier
  (:func:`~repro.quant.linear.prepare_requantize`), and, for an F16
  part over QUInt8 storage, the 65,536-entry table from f16 results to
  stored codes (:func:`~repro.quant.half.quantize_half_lut`);
* **batched GEMM** -- the batch axis folds into the GEMM row dimension
  wherever that is byte-exact: always on the integer pipeline, whose
  accumulators are order-independent (modular int32 arithmetic is
  associative and commutative, and each exact f32 sgemm block is a
  mathematically determined integer).  Float pipelines at batch > 1
  instead issue one GEMM per sample *inside* the step -- numpy's BLAS
  can change blocking (and therefore float summation order) with the
  row count M, so folding samples into one ``(B*M, K) @ (K, N)`` call
  would change float results between batch sizes.  The per-sample
  calls are exactly the ones the functional path makes, so batch-N
  output rows equal N stacked batch-1 runs, byte for byte;
* **static resolution** -- quantization parameters propagate through
  the graph at compile time (pass-through kinds inherit their input's
  parameters, everything else reads the calibration table), so no
  per-run qparams, placement, or shape lookups remain.

Cooperative layers lower into one part per processor over the plan's
channel ranges (:func:`~repro.runtime.distribution.channel_ranges`),
each on its processor's pipeline, concatenated in channel order --
exactly :meth:`LayerComputer.run_cooperative_shares`.  The parts of a
quantized-storage conv share one uint8 code column matrix, which the
float parts dequantize through a 256-entry table (one ``np.take``
gather, as for every 256-entry table here); this mirrors (and
statically guarantees) the functional path's column-cache sharing.

Channel-independent kinds (pooling, ReLU, depthwise with uniform
pipelines, elementwise) are computed whole even when the plan splits
them: slicing, computing, and concatenating channel slices of a
channel-independent operation is byte-identical to computing it
unsplit.  Depthwise layers with *mixed* pipelines (the processor-
friendly policy's CPU integer / GPU F16 split) do lower per part,
since their parts genuinely differ numerically.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from ..analysis.memory import plan_arena
from ..errors import PlanError, QuantizationError
from ..kernels import (conv_output_hw, depthwise_conv_quint8,
                       flatten_filters, fused_const_row, im2col, max_pool,
                       pack_depthwise_taps, pack_f32_blocks, qgemm_fused,
                       quantize_bias)
from ..nn import Graph, LayerKind
from ..nn.layers import Conv2D, DepthwiseConv2D, FullyConnected, Input
from ..quant import (dequantize_lut, lut_gather, prepare_requantize,
                     quantize_half_lut)
from ..quant.calibrate import CalibrationTable
from ..runtime.distribution import channel_ranges
from ..runtime.plan import ExecutionPlan, LayerAssignment
from ..tensor import DType, QuantParams
from .program import (CompiledProgram, CompiledStep, InputSpec,
                      PlacementPart, StepFn)

#: Layers lowered through the shared GEMM path.
_GemmLayer = Union[Conv2D, FullyConnected]

#: Kinds whose quantization parameters pass through from their input.
_QPARAMS_PASSTHROUGH = frozenset({
    LayerKind.MAX_POOL, LayerKind.RELU, LayerKind.FLATTEN,
    LayerKind.AVG_POOL,
})


def _resolve_batch(plan: ExecutionPlan, batch: Optional[int]) -> int:
    chosen = plan.batch if batch is None else int(batch)
    if chosen < 1:
        raise PlanError(f"batch must be >= 1, got {chosen}")
    if plan.batch not in (1, chosen):
        raise PlanError(
            f"plan was partitioned for batch {plan.batch} but the "
            f"program is compiled for batch {chosen}")
    return chosen


def _matmul_rows(lhs: np.ndarray, matmul: Callable[[np.ndarray],
                                                   np.ndarray],
                 chunk: Optional[int]) -> np.ndarray:
    """Apply ``matmul`` to ``lhs``, folded or per-sample.

    ``chunk`` is the per-sample row count; when set, ``matmul`` runs
    once per ``chunk`` rows, reproducing the functional path's
    per-sample GEMM calls -- BLAS results can differ with the row
    count M, so float pipelines must keep the batch-1 call shapes
    (see the module docstring).  ``None`` folds everything into one
    call.
    """
    if chunk is None or lhs.shape[0] <= chunk:
        return matmul(lhs)
    return np.concatenate(
        [matmul(lhs[i:i + chunk]) for i in range(0, lhs.shape[0], chunk)],
        axis=0)


def _fold_gemm_output(out_rows: np.ndarray,
                      shape: Tuple[int, ...]) -> np.ndarray:
    """Row-major GEMM output back to NCHW (LayerComputer's fold)."""
    if len(shape) == 4:
        batch, out_c, out_h, out_w = shape
        out = out_rows.reshape(batch, out_h, out_w, out_c)
        return np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    return out_rows.reshape(shape)


class _Lowering:
    """Single-use state of one :func:`compile_program` invocation."""

    def __init__(self, graph: Graph, plan: ExecutionPlan,
                 calibration: Optional[CalibrationTable],
                 batch: int) -> None:
        self.graph = graph
        self.plan = plan
        self.calibration = calibration
        self.batch = batch
        self.policy = plan.policy
        self.storage = plan.policy.activation_storage
        self.shapes = graph.infer_shapes()
        self.qparams: Dict[str, Optional[QuantParams]] = {}
        self.weight_refs: List[Tuple[str, np.ndarray, np.ndarray]] = []
        self.half_luts: Dict[str, np.ndarray] = {}

    # -- static metadata -----------------------------------------------------

    def out_shape(self, name: str) -> Tuple[int, ...]:
        shape = self.shapes[name]
        return (self.batch,) + tuple(int(d) for d in shape[1:])

    def propagate_qparams(self) -> None:
        """Static per-layer output quantization parameters.

        Mirrors what the functional path resolves at run time: pass-
        through kinds (pooling, ReLU, flatten) keep their input's
        parameters, everything else is requantized into its calibrated
        range.  Float storage carries no parameters.
        """
        if self.storage is not DType.QUINT8:
            for name in self.graph.topological_order():
                self.qparams[name] = None
            return
        assert self.calibration is not None
        for name in self.graph.topological_order():
            layer = self.graph.layer(name)
            if layer.kind in _QPARAMS_PASSTHROUGH:
                (producer,) = self.graph.inputs_of(name)
                self.qparams[name] = self.qparams[producer]
            else:
                self.qparams[name] = self.calibration.get(name)

    def resource_shares(self, name: str) -> Dict[str, float]:
        placement = self.plan.placement_of(name)
        if isinstance(placement, LayerAssignment):
            return placement.shares()
        return {placement: 1.0}

    def placement_parts(self, name: str
                        ) -> Tuple[PlacementPart, ...]:
        """The step's ``(resource, channel range)`` parts, in order."""
        shares = self.resource_shares(name)
        if len(shares) == 1:
            (resource,) = shares
            return ((resource, None),)
        total = int(self.shapes[name][1])
        ranges = channel_ranges(total, shares)
        return tuple((resource, (lo, hi))
                     for resource, (lo, hi) in ranges.items())

    def quantized_weights(self, weights: np.ndarray
                          ) -> Tuple[np.ndarray, QuantParams]:
        """Full-filter codes, exactly LayerComputer._quantized_weights."""
        w_qparams = QuantParams.from_array(weights)
        return w_qparams.quantize(weights), w_qparams

    # -- GEMM layers (conv / FC) ----------------------------------------------

    def lower_gemm(self, name: str) -> StepFn:
        layer = self.graph.layer(name)
        assert isinstance(layer, (Conv2D, FullyConnected))
        if layer.weights is None or layer.bias is None:
            raise PlanError(f"layer {name!r} has no weights")
        self.weight_refs.append((name, layer.weights, layer.bias))
        (producer,) = self.graph.inputs_of(name)
        x_qparams = self.qparams[producer]
        is_conv = isinstance(layer, Conv2D)
        if is_conv:
            in_shape = self.out_shape(producer)
            out_h, out_w = conv_output_hw(in_shape[2], in_shape[3],
                                          layer.kernel, layer.stride,
                                          layer.padding)
            per_sample_rows = out_h * out_w
        else:
            per_sample_rows = 1
        # Float pipelines keep the functional path's per-sample GEMM
        # call shapes at batch > 1; integer pipelines always fold.
        chunk = per_sample_rows if self.batch > 1 else None

        parts = [self._gemm_part(name, layer, resource, rng, x_qparams,
                                 chunk)
                 for resource, rng in self.placement_parts(name)]
        lhs_of = self._gemm_lhs(layer, x_qparams,
                                {variant for variant, _ in parts})
        axis = 1 if len(self.out_shape(name)) >= 2 else 0

        # Each lhs variant is built once; parts concatenate in channel
        # order.
        def fn(inputs: List[np.ndarray]) -> np.ndarray:
            lhs = lhs_of(inputs[0])
            outs = [part(lhs[variant]) for variant, part in parts]
            if len(outs) == 1:
                return outs[0]
            return np.concatenate(outs, axis=axis)

        return fn

    def _gemm_lhs(self, layer: _GemmLayer,
                  x_qparams: Optional[QuantParams], variants: Set[str]
                  ) -> Callable[[np.ndarray], Dict[str, np.ndarray]]:
        """The activation-side lowering of one GEMM layer: the step
        input to one lhs matrix per variant its parts use.

        Under QUInt8 storage every variant derives from one uint8 code
        column matrix, built once per call -- the float pipelines map
        it through a 256-entry dequantization table, bit-identical to
        the interpreter's per-placement gather and dequantize.
        """
        geometry = ((layer.kernel, layer.stride, layer.padding)
                    if isinstance(layer, Conv2D) else None)
        if self.storage is DType.QUINT8:
            assert x_qparams is not None
            pad = float(x_qparams.zero_point)
            halves = variants & {"half", "half_f32"}
            if halves:
                gather = lut_gather(dequantize_lut(x_qparams))

            def lhs_quantized(x: np.ndarray) -> Dict[str, np.ndarray]:
                codes = x
                if geometry is not None:
                    c = im2col(x, *geometry, pad_value=pad)
                    codes = c.reshape(-1, c.shape[-1])
                lhs = {"codes": codes}
                if halves:
                    values = gather(codes)
                    for variant in halves:
                        lhs[variant] = values
                return lhs

            return lhs_quantized

        # Half-precision variants carry float32 arrays holding exactly
        # representable f16 values: rounding through f16 *before* the
        # im2col and widening back commutes exactly with doing it on
        # the column matrix (both are value-exact casts), and the fused
        # matmul then needs no per-call operand casts.
        def columns(x: np.ndarray) -> np.ndarray:
            if geometry is None:
                return x
            c = im2col(x, *geometry, pad_value=0.0)
            return c.reshape(-1, c.shape[-1])

        def lhs_float(x: np.ndarray) -> Dict[str, np.ndarray]:
            x32 = x.astype(np.float32)
            lhs: Dict[str, np.ndarray] = {}
            if "f16" in variants:
                lhs["f16"] = columns(
                    x32.astype(np.float16).astype(np.float32))
            if "f32" in variants:
                lhs["f32"] = columns(x32)
            return lhs

        return lhs_float

    def _gemm_part(self, name: str, layer: _GemmLayer, resource: str,
                   rng: Optional[Tuple[int, int]],
                   x_qparams: Optional[QuantParams],
                   chunk: Optional[int]
                   ) -> Tuple[str, Callable[[np.ndarray], np.ndarray]]:
        """(lhs variant, bound kernel) of one processor's portion."""
        compute = self.policy.compute_dtype(resource)
        if self.storage is DType.QUINT8 and compute is DType.QUINT8:
            assert x_qparams is not None
            return "codes", self._integer_gemm_part(name, layer, rng,
                                                    x_qparams)
        if self.storage is DType.QUINT8:
            variant = "half" if compute is DType.F16 else "half_f32"
            return variant, self._float_gemm_part(name, layer, rng,
                                                  compute, chunk,
                                                  quantized=True)
        variant = "f16" if compute is DType.F16 else "f32"
        return variant, self._float_gemm_part(name, layer, rng, compute,
                                              chunk, quantized=False)

    def _part_shape(self, layer: _GemmLayer,
                    rng: Optional[Tuple[int, int]]
                    ) -> Tuple[int, ...]:
        if isinstance(layer, Conv2D):
            out_c = layer.out_channels
        else:
            out_c = layer.out_features
        lo, hi = (0, out_c) if rng is None else rng
        full = self.out_shape(layer.name)
        return (full[0], hi - lo) + full[2:]

    def _integer_gemm_part(self, name: str, layer: _GemmLayer,
                           rng: Optional[Tuple[int, int]],
                           x_qparams: QuantParams
                           ) -> Callable[[np.ndarray], np.ndarray]:
        """Fused integer pipeline: one qgemm_fused call per run."""
        weight_codes, w_qparams = self.quantized_weights(layer.weights)
        bias = layer.bias
        if rng is not None:
            lo, hi = rng
            weight_codes = weight_codes[lo:hi]
            bias = bias[lo:hi]
        if isinstance(layer, Conv2D):
            rhs = flatten_filters(weight_codes).T
        else:
            rhs = weight_codes.T
        rhs_blocks = pack_f32_blocks(rhs, w_qparams.zero_point)
        bias_i32 = quantize_bias(bias, x_qparams.scale, w_qparams.scale)
        const_row = fused_const_row(rhs.astype(np.int32),
                                    x_qparams.zero_point,
                                    w_qparams.zero_point, bias_i32)
        out_qparams = self.qparams[name]
        assert out_qparams is not None
        mantissa, shift = prepare_requantize(
            x_qparams.scale, w_qparams.scale, out_qparams)
        relu = layer.relu
        shape = self._part_shape(layer, rng)

        def run(lhs: np.ndarray) -> np.ndarray:
            out_rows = qgemm_fused(lhs, rhs_blocks, const_row, mantissa,
                                   shift, out_qparams, relu=relu)
            return _fold_gemm_output(out_rows, shape)

        return run

    def _float_gemm_part(self, name: str, layer: _GemmLayer,
                         rng: Optional[Tuple[int, int]],
                         compute: DType, chunk: Optional[int],
                         quantized: bool
                         ) -> Callable[[np.ndarray], np.ndarray]:
        """F16/F32 pipeline with folded epilogue (bias, ReLU, store)."""
        weights, bias = layer.weights, layer.bias
        if rng is not None:
            lo, hi = rng
            weights = weights[lo:hi]
            bias = bias[lo:hi]
        if isinstance(layer, Conv2D):
            rhs = flatten_filters(weights).T
        else:
            rhs = weights.T
        half = compute is DType.F16
        relu = layer.relu
        shape = self._part_shape(layer, rng)
        out_qparams = self.qparams[name]
        storage_np = self.storage.numpy_dtype

        if half:
            # gemm_f16 unrolled over compile-time-cast operands: the
            # lhs arrives as the exact f32 image of its f16 rounding
            # (see _gemm_lhs_builders), the weight/bias casts are
            # hoisted here, and only the half-precision rounding of
            # the output remains per call.  Arithmetic is identical to
            # gemm_f16(lhs16, rhs16, bias), byte for byte.
            rhs32 = rhs.astype(np.float16).astype(np.float32)
            bias32 = np.asarray(bias, dtype=np.float16).astype(
                np.float32)

            def matmul(lhs: np.ndarray) -> np.ndarray:
                return (lhs @ rhs32 + bias32).astype(np.float16)
        else:
            def matmul(lhs: np.ndarray) -> np.ndarray:
                return lhs @ rhs + bias

        if half and quantized:
            # The stored code is an elementwise function of the f16
            # result, so widening, ReLU and quantize are one gather
            # through the layer's table (shared by its F16 parts).
            assert out_qparams is not None
            lut = self.half_luts.get(name)
            if lut is None:
                lut = quantize_half_lut(out_qparams, relu)
                self.half_luts[name] = lut

            def run_lut(lhs: np.ndarray) -> np.ndarray:
                out16 = _matmul_rows(lhs, matmul, chunk)
                return _fold_gemm_output(
                    np.take(lut, out16.view(np.uint16)), shape)

            return run_lut

        def run(lhs: np.ndarray) -> np.ndarray:
            out_rows = _matmul_rows(lhs, matmul, chunk)
            if half:
                out_rows = out_rows.astype(np.float32)
            if relu:
                out_rows = np.maximum(out_rows, 0.0)
            folded = _fold_gemm_output(out_rows, shape)
            if quantized:
                assert out_qparams is not None
                return out_qparams.quantize(folded)
            if folded.dtype == storage_np:
                return folded
            return folded.astype(storage_np)

        return run

    # -- depthwise convolution ------------------------------------------------

    def lower_depthwise(self, name: str) -> StepFn:
        layer = self.graph.layer(name)
        assert isinstance(layer, DepthwiseConv2D)
        if layer.weights is None or layer.bias is None:
            raise PlanError(f"layer {name!r} has no weights")
        self.weight_refs.append((name, layer.weights, layer.bias))
        (producer,) = self.graph.inputs_of(name)
        x_qparams = self.qparams[producer]
        in_shape = self.out_shape(producer)
        parts_meta = self.placement_parts(name)
        # Channel-independent: identical pipelines may lower unsplit.
        computes = {self.policy.compute_dtype(resource)
                    for resource, _ in parts_meta}
        if len(computes) == 1:
            parts_meta = ((parts_meta[0][0], None),)

        parts = [self._depthwise_part(name, layer, resource, rng,
                                      x_qparams, in_shape)
                 for resource, rng in parts_meta]
        if len(parts) == 1:
            return parts[0]

        def fn(inputs: List[np.ndarray]) -> np.ndarray:
            return np.concatenate([part(inputs) for part in parts], axis=1)

        return fn

    def _depthwise_part(self, name: str, layer: DepthwiseConv2D,
                        resource: str, rng: Optional[Tuple[int, int]],
                        x_qparams: Optional[QuantParams],
                        in_shape: Tuple[int, ...]) -> StepFn:
        """One placement's depthwise computation over its channel slice
        of the step input (each channel is independent, so a slice
        computes exactly what the whole layer computes there)."""
        compute = self.policy.compute_dtype(resource)
        total = int(in_shape[1])
        lo, hi = (0, total) if rng is None else rng
        channels = hi - lo
        batch = self.batch
        in_h, in_w = int(in_shape[2]), int(in_shape[3])
        out_h, out_w = conv_output_hw(in_h, in_w, layer.kernel,
                                      layer.stride, layer.padding)
        bias = layer.bias[lo:hi]
        relu = layer.relu
        out_qparams = self.qparams[name]
        storage_np = self.storage.numpy_dtype

        if self.storage is DType.QUINT8 and compute is DType.QUINT8:
            assert x_qparams is not None and out_qparams is not None
            weight_codes, w_qparams = self.quantized_weights(
                layer.weights)
            taps = pack_depthwise_taps(weight_codes[lo:hi],
                                       w_qparams.zero_point)
            bias_i32 = quantize_bias(bias, x_qparams.scale,
                                     w_qparams.scale)
            mantissa, shift = prepare_requantize(
                x_qparams.scale, w_qparams.scale, out_qparams)
            x_zero = x_qparams.zero_point
            stride, padding = layer.stride, layer.padding

            def run_int(inputs: List[np.ndarray]) -> np.ndarray:
                return depthwise_conv_quint8(
                    inputs[0][:, lo:hi], x_zero, taps, bias_i32, stride,
                    padding, mantissa, shift, out_qparams, relu)

            return run_int

        # Float compute (uniform float or F16-over-quantized storage).
        half = compute is DType.F16
        w = layer.weights[lo:hi]
        if half:
            w = w.astype(np.float16).astype(np.float32)
        filters = np.tile(w.reshape(channels, -1), (batch, 1))
        if self.storage is DType.QUINT8:
            # Dequantize via Tensor.to_float (f32), optionally rounding
            # through f16 -- LayerComputer._dequant_lut's "f16f"/"f32f"
            # tables.  The table maps the zero point to exactly 0.0,
            # the float lowering's padding.
            assert x_qparams is not None
            table = x_qparams.dequantize(np.arange(256, dtype=np.uint8))
            if half:
                table = table.astype(np.float16).astype(np.float32)

            def values_of(x: np.ndarray) -> np.ndarray:
                return np.take(table, x[:, lo:hi])
        else:
            def values_of(x: np.ndarray) -> np.ndarray:
                values = x[:, lo:hi].astype(np.float32)
                if half:
                    values = values.astype(np.float16).astype(np.float32)
                return values

        def run_float(inputs: List[np.ndarray]) -> np.ndarray:
            columns = im2col(
                values_of(inputs[0]).reshape(batch * channels, 1, in_h,
                                             in_w),
                layer.kernel, layer.stride, layer.padding)
            out = np.einsum("npk,nk->np", columns, filters)
            out = out.reshape(batch, channels, out_h, out_w)
            out = out + bias[None, :, None, None]
            if half:
                out = out.astype(np.float16).astype(np.float32)
            if relu:
                out = np.maximum(out, 0.0)
            out = out.astype(np.float32)
            if self.storage is DType.QUINT8:
                assert out_qparams is not None
                return out_qparams.quantize(out)
            if out.dtype == storage_np:
                return out
            return out.astype(storage_np)

        return run_float

    # -- placement-invariant layers -------------------------------------------

    def lower_invariant(self, name: str) -> StepFn:
        layer = self.graph.layer(name)
        producers = tuple(self.graph.inputs_of(name))
        if self.storage is not DType.QUINT8:
            storage_np = self.storage.numpy_dtype

            def fn_float(inputs: List[np.ndarray]) -> np.ndarray:
                values = [a.astype(np.float32) for a in inputs]
                out = np.asarray(layer.forward_f32(values),
                                 dtype=np.float32)
                if out.dtype == storage_np:
                    return out
                return out.astype(storage_np)

            return fn_float

        kind = layer.kind
        in_qps = [self.qparams[p] for p in producers]
        out_qparams = self.qparams[name]
        if kind is LayerKind.MAX_POOL:
            # max_pool preserves the uint8 code dtype, so no store
            # conversion is needed (max over codes == max over reals
            # under one monotone affine quantization).
            def fn(inputs: List[np.ndarray]) -> np.ndarray:
                (x,) = inputs
                return max_pool(x, layer.kernel, layer.stride,
                                layer.padding)
            return fn
        if kind is LayerKind.RELU:
            in_qp = in_qps[0]
            assert in_qp is not None
            zero_code = np.uint8(in_qp.zero_point)

            def fn(inputs: List[np.ndarray]) -> np.ndarray:
                return np.maximum(inputs[0], zero_code)
            return fn
        if kind is LayerKind.FLATTEN:
            def fn(inputs: List[np.ndarray]) -> np.ndarray:
                (x,) = inputs
                return x.reshape(x.shape[0], -1)
            return fn
        codes256 = np.arange(256, dtype=np.uint8)
        if kind is LayerKind.AVG_POOL:
            in_qp = in_qps[0]
            assert in_qp is not None
            zero_point = in_qp.zero_point
            # Zero-point removal is elementwise on the 256 code values,
            # so it compiles to one table gather.
            centered = (codes256.astype(np.float32)
                        - np.float32(float(zero_point)))

            def fn(inputs: List[np.ndarray]) -> np.ndarray:
                (x,) = inputs
                values = layer.forward_f32([np.take(centered, x)])
                return np.clip(np.round(values + zero_point),
                               0, 255).astype(np.uint8)
            return fn
        if kind is LayerKind.CONCAT:
            assert out_qparams is not None
            axis = layer.axis
            # quantize(dequantize(code)) is an elementwise function of
            # the uint8 code, so each input's rescaling into the output
            # range is a precomputed 256-entry remap -- byte-identical
            # to the functional path's dequantize/quantize round trip.
            remaps = []
            for qp in in_qps:
                assert qp is not None
                remaps.append(out_qparams.quantize(
                    qp.dequantize(codes256)))

            def fn(inputs: List[np.ndarray]) -> np.ndarray:
                parts = [np.take(remap, a)
                         for a, remap in zip(inputs, remaps)]
                return np.concatenate(parts, axis=axis)
            return fn
        # ADD / SOFTMAX / LRN: dequantize (one table gather per input),
        # float reference, requantize.
        assert out_qparams is not None
        tables = []
        for qp in in_qps:
            assert qp is not None
            tables.append(qp.dequantize(codes256))

        def fn(inputs: List[np.ndarray]) -> np.ndarray:
            values = [np.take(table, a)
                      for a, table in zip(inputs, tables)]
            return out_qparams.quantize(layer.forward_f32(values))
        return fn

    # -- inputs ---------------------------------------------------------------

    def input_spec(self, name: str) -> InputSpec:
        shape = self.out_shape(name)
        if self.storage is DType.QUINT8:
            qp = self.qparams[name]
            assert qp is not None

            def seed(data: np.ndarray) -> np.ndarray:
                return qp.quantize(np.asarray(data, dtype=np.float32))
        else:
            storage_np = self.storage.numpy_dtype

            def seed(data: np.ndarray) -> np.ndarray:
                return np.asarray(data,
                                  dtype=np.float32).astype(storage_np)
        return InputSpec(layer=name, shape=shape, fn=seed)

    # -- driver ---------------------------------------------------------------

    def lower(self, mechanism: str) -> CompiledProgram:
        self.propagate_qparams()
        inputs: List[InputSpec] = []
        steps: List[CompiledStep] = []
        for name in self.graph.topological_order():
            layer = self.graph.layer(name)
            if isinstance(layer, Input):
                inputs.append(self.input_spec(name))
                continue
            if layer.kind in (LayerKind.CONV, LayerKind.FC):
                fn = self.lower_gemm(name)
            elif layer.kind is LayerKind.DEPTHWISE_CONV:
                fn = self.lower_depthwise(name)
            else:
                fn = self.lower_invariant(name)
            steps.append(CompiledStep(
                layer=name, kind=layer.kind.value,
                placements=self.placement_parts(name),
                dtype=self.storage,
                inputs=tuple(self.graph.inputs_of(name)),
                fn=fn))
        shapes = {name: self.out_shape(name)
                  for name in self.graph.topological_order()}
        dtypes = {name: self.storage for name in shapes}
        return CompiledProgram(
            graph_name=self.graph.name,
            policy_name=self.policy.name,
            mechanism=mechanism,
            batch=self.batch,
            inputs=tuple(inputs),
            steps=tuple(steps),
            outputs=tuple(self.graph.output_layers()),
            arena=plan_arena(self.graph, self.plan, self.batch),
            dtypes=dtypes,
            qparams=dict(self.qparams),
            shapes=shapes,
            graph=self.graph,
            plan=self.plan,
            calibration=self.calibration,
            weight_refs=tuple(self.weight_refs))


def compile_program(graph: Graph, plan: ExecutionPlan,
                    calibration: Optional[CalibrationTable] = None,
                    batch: Optional[int] = None,
                    mechanism: str = "custom") -> CompiledProgram:
    """Lower ``plan`` into a flat, pre-resolved :class:`CompiledProgram`.

    Args:
        graph: the network (must match the plan).
        plan: the execution plan to lower.
        calibration: per-layer activation ranges; required when the
            policy stores activations as QUInt8.
        batch: batch size to specialize for (defaults to the plan's).
            A plan built for batch B > 1 only compiles at batch B; a
            batch-1 plan compiles at any batch.
        mechanism: provenance label recorded on the program.

    Returns:
        The compiled program, byte-identical in its outputs to running
        the same plan through the functional executor.
    """
    plan.validate(graph)
    if plan.policy.is_quantized and calibration is None:
        raise QuantizationError(
            "QUInt8 activation storage requires a calibration table "
            "(run repro.nn.calibrate_graph first)")
    chosen = _resolve_batch(plan, batch)
    return _Lowering(graph, plan, calibration, chosen).lower(mechanism)
