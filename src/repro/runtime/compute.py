"""Functional layer execution under a quantization policy.

The :class:`LayerComputer` produces the actual numbers an execution
computes -- on the integer pipeline for QUInt8 compute (Figure 9a), on
the half-precision pipeline for F16 GPU compute over QUInt8 storage
(Figure 9b), or on plain float pipelines for the uniform baselines.

Placement only changes the *numerics* of GEMM-shaped layers (conv, FC):
under the processor-friendly policy the CPU's channels come from the
integer pipeline and the GPU's from the F16 pipeline, both requantized
into the same calibrated output range, so a cooperative layer's output
is the channel-wise concatenation of the two pipelines' results.
Non-GEMM layers (pooling, ReLU, concat, ...) are computed identically
on either processor, which keeps their cooperative split bit-exact.

Performance engineering
-----------------------

Two operand caches (both :class:`~repro.kernels.op_cache.OperandCache`)
remove the redundant numpy work that otherwise dominates functional
wall clock; they are on by default and can be disabled with
``enable_caches=False`` for the bit-exactness reference path:

* an **im2col column cache**, keyed ``(layer, "cols", variant)`` and
  validated against the input array's identity, so the placements of a
  cooperative layer share one column matrix per numeric variant
  instead of each re-gathering it.  Under QUInt8 storage *every*
  pipeline lowers the uint8 codes (variant ``"codes"``): the float
  pipelines dequantize the shared code columns through a 256-entry
  lookup table (:func:`~repro.quant.half.dequantize_lut`), which is
  bit-identical to gathering dequantized data because an elementwise
  map commutes with an index gather and the table maps the integer
  pipeline's zero-point padding to exactly 0.0.  A cooperative PFQ
  layer therefore gathers its columns once for both the CPU's integer
  GEMM and the GPU's F16 GEMM.  Float storage keeps per-dtype variants
  (``"f16"``/``"f32"``).  Float depthwise placements cache the
  *full-input* columns once and take their channel slice; integer
  depthwise placements build no columns
  (:func:`~repro.kernels.depthwise.depthwise_conv_quint8` reads shifted
  views of the padded input).  The cache is bounded (LRU) and cleared
  by :meth:`begin_inference`.

* a persistent **packed-operand cache**, keyed
  ``(layer, kind, channel_range, ...)`` and validated against the
  weight/bias array identity, holding the flattened/transposed filter
  matrices, the f16 filter casts, and -- for QUInt8 compute -- the
  pre-quantized codes, the int32-widened GEMM operand, the weight-side
  column sums ``sum_k qr`` of the gemmlowp identity, the centred
  depthwise taps, and the accumulator-domain bias.  Entries invalidate
  automatically when a layer's weight *array object* is replaced
  (``set_weights`` after surgery/QAT); in-place mutation of the same
  array requires an explicit :meth:`invalidate_weights`.

Cached execution is byte-identical to the uncached path: every cached
artifact is either built by exactly the same expression the uncached
path evaluates, or differs only by operations that commute bit-exactly
(elementwise casts/dequantization versus index gathers and slices).
``tests/test_op_caches.py`` verifies this across the model zoo and all
policies.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..errors import PlanError, QuantizationError
from ..kernels import (OperandCache, conv_output_hw,
                       depthwise_conv_quint8, flatten_filters, gemm_f16,
                       im2col, pack_depthwise_taps, qgemm)
from ..nn import Graph, LayerKind
from ..nn.layers import (Conv2D, DepthwiseConv2D, FullyConnected)
from ..kernels.qgemm import quantize_bias
from ..quant import (dequantize_lut, dequantize_to_half,
                     prepare_requantize)
from ..quant.calibrate import CalibrationTable
from ..tensor import DType, QuantParams, Tensor, concat_channels
from .distribution import channel_ranges
from .pfq import QuantizationPolicy

#: Kinds computed identically regardless of processor placement.
_PLACEMENT_INVARIANT_KINDS = frozenset({
    LayerKind.MAX_POOL, LayerKind.AVG_POOL, LayerKind.RELU,
    LayerKind.CONCAT, LayerKind.ADD, LayerKind.SOFTMAX, LayerKind.LRN,
    LayerKind.FLATTEN,
})

#: LRU bound of the activation-side column cache: large enough for all
#: placements of the layers currently in flight, small enough that the
#: column matrices of a deep network never accumulate.
_COLUMN_CACHE_ENTRIES = 8

#: LRU bound of the weight-side packed-operand cache (entries, not
#: bytes; the int32-widened integer operands are the largest at 4x the
#: weight footprint of their layer).
_PACKED_CACHE_ENTRIES = 512


def _int_rhs(rhs_codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The int32-widened GEMM operand and its column sums."""
    rhs_i32 = rhs_codes.astype(np.int32)
    return rhs_i32, rhs_i32.sum(axis=0, keepdims=True)


class LayerComputer:
    """Computes layer outputs under one quantization policy.

    Args:
        graph: the network.
        policy: data types per processor and storage.
        calibration: per-layer activation ranges (required when the
            policy stores activations as QUInt8).
        enable_caches: use the im2col / packed-operand caches (True,
            the default); False computes every operand from scratch on
            every call -- the reference path the cache bit-exactness
            tests compare against.
    """

    def __init__(self, graph: Graph, policy: QuantizationPolicy,
                 calibration: Optional[CalibrationTable] = None,
                 enable_caches: bool = True) -> None:
        if policy.is_quantized and calibration is None:
            raise QuantizationError(
                "QUInt8 activation storage requires a calibration table "
                "(run repro.nn.calibrate_graph first)")
        self._graph = graph
        self._policy = policy
        self._calibration = calibration
        self._enable_caches = enable_caches
        self._columns = OperandCache(
            name="im2col", max_entries=_COLUMN_CACHE_ENTRIES)
        self._packed = OperandCache(
            name="packed", max_entries=_PACKED_CACHE_ENTRIES)
        # Shape memo: Graph.infer_shapes() returns a fresh dict copy on
        # every call, which turns the per-layer channel lookups of a
        # cooperative run into O(layers^2) dict copies.  A computer is
        # bound to one (already complete) graph, so the shapes are
        # resolved once and reused.
        self._shapes: "Optional[Dict[str, Tuple[int, ...]]]" = None

    # -- public API ---------------------------------------------------------

    def begin_inference(self) -> None:
        """Drop activation-derived cache state before a new inference.

        Only the column cache is cleared -- its entries are keyed to
        the previous inference's activation arrays and can never hit
        again; releasing them bounds memory.  Packed weight operands
        persist across inferences (that is their point).
        """
        self._columns.clear()

    def invalidate_weights(self, name: Optional[str] = None) -> None:
        """Drop packed operands derived from weights.

        Needed only after *in-place* mutation of a layer's weight or
        bias arrays (``layer.weights *= 2``); installing new arrays via
        ``set_weights`` is detected automatically by array identity.

        Args:
            name: a single layer to invalidate, or None for all.
        """
        if name is None:
            self._packed.invalidate()
        else:
            self._packed.invalidate(name)

    def cache_stats(self) -> Dict[str, Dict[str, float]]:
        """Hit/miss counters of both operand caches."""
        return {"im2col": self._columns.stats(),
                "packed": self._packed.stats()}

    def input_tensor(self, layer_name: str, data: np.ndarray) -> Tensor:
        """Convert external input data into storage representation."""
        data = np.asarray(data, dtype=np.float32)
        storage = self._policy.activation_storage
        if storage is DType.QUINT8:
            return Tensor.from_float(data, storage,
                                     self._out_qparams(layer_name))
        return Tensor.from_float(data, storage)

    def run_full(self, name: str, inputs: List[Tensor],
                 resource: str) -> Tensor:
        """Execute one whole layer on ``resource`` (``"cpu"``/``"gpu"``)."""
        layer = self._graph.layer(name)
        if layer.kind in (LayerKind.CONV, LayerKind.FC):
            return self._run_gemm_layer(name, inputs, resource,
                                        channel_range=None)
        if layer.kind is LayerKind.DEPTHWISE_CONV:
            return self._run_depthwise(name, inputs, resource,
                                       channel_range=None)
        return self._run_invariant(name, inputs)

    def run_cooperative(self, name: str, inputs: List[Tensor],
                        split: float) -> Tensor:
        """Execute one layer split channel-wise between CPU and GPU."""
        return self.run_cooperative_shares(
            name, inputs, {"cpu": split, "gpu": 1.0 - split})

    def run_cooperative_shares(self, name: str, inputs: List[Tensor],
                               shares: "dict[str, float]") -> Tensor:
        """Execute one layer split channel-wise by per-processor shares.

        Supports the three-way CPU/NPU/GPU distribution of the paper's
        Section 8.3 extension: each processor computes its contiguous
        channel range through its own pipeline (integer for CPU/NPU,
        F16 for the GPU under the processor-friendly policy), and the
        parts concatenate in channel order.
        """
        layer = self._graph.layer(name)
        if not layer.supports_channel_split:
            raise PlanError(
                f"layer {name!r} ({layer.kind}) cannot be split")
        total = self._output_channels(name)
        ranges = channel_ranges(total, shares)
        parts: List[Tensor] = []
        if layer.kind in (LayerKind.CONV, LayerKind.FC):
            for resource, (lo, hi) in ranges.items():
                parts.append(self._run_gemm_layer(
                    name, inputs, resource, channel_range=(lo, hi)))
            return concat_channels(parts,
                                   axis=self._channel_axis(name))
        if layer.kind is LayerKind.DEPTHWISE_CONV:
            for resource, (lo, hi) in ranges.items():
                parts.append(self._run_depthwise(
                    name, inputs, resource, channel_range=(lo, hi)))
            return concat_channels(parts)
        # Input-split kinds compute identically on every processor, so
        # split, process, and merge channel slices.
        (x,) = inputs
        for _, (lo, hi) in ranges.items():
            parts.append(self._run_invariant(
                name, [x.slice_channels(lo, hi)]))
        return concat_channels(parts)

    # -- helpers --------------------------------------------------------------

    def _shape_of(self, name: str) -> Tuple[int, ...]:
        if self._shapes is None:
            self._shapes = self._graph.infer_shapes()
        return self._shapes[name]

    def _channel_axis(self, name: str) -> int:
        shape = self._shape_of(name)
        return 1 if len(shape) >= 2 else 0

    def _output_channels(self, name: str) -> int:
        shape = self._shape_of(name)
        return shape[1]

    def _dequant_lut(self, name: str, qparams: QuantParams,
                     variant: str) -> np.ndarray:
        """The 256-entry code->real table one float pipeline applies to
        shared uint8 columns; cached per (layer, variant, qparams)."""

        def build() -> np.ndarray:
            lut = dequantize_lut(qparams)
            if variant == "half":
                return lut
            if variant == "half_f32":
                return lut.astype(np.float32)
            # Depthwise float lowering dequantizes via Tensor.to_float
            # (f32), optionally rounding through f16 -- replicate that
            # exact elementwise map.
            table = qparams.dequantize(np.arange(256, dtype=np.uint8))
            if variant == "f16f":
                table = table.astype(np.float16).astype(np.float32)
            return table

        return self._packed_operand(
            (name, "deq_lut", variant, qparams.scale, qparams.zero_point),
            None, build)

    def _out_qparams(self, name: str) -> QuantParams:
        assert self._calibration is not None
        return self._calibration.get(name)

    def _cached_columns(self, name: str, variant: str, source: Any,
                        builder: Callable[[], np.ndarray]) -> np.ndarray:
        """im2col columns shared across placements of one layer."""
        if not self._enable_caches:
            return builder()
        return self._columns.get((name, "cols", variant), source, builder)

    def _packed_operand(self, key: Hashable, source: Any,
                        builder: Callable[[], Any]) -> Any:
        if not self._enable_caches:
            return builder()
        return self._packed.get(key, source, builder)

    def _quantized_weights(self, name: str, weights: np.ndarray
                           ) -> Tuple[np.ndarray, QuantParams]:
        """Quantized filter codes, cached per layer and validated
        against the weight array's identity so surgery/QAT weight
        updates can never serve stale codes."""

        def build() -> Tuple[np.ndarray, QuantParams]:
            qparams = QuantParams.from_array(weights)
            return (qparams.quantize(weights), qparams)

        return self._packed.get((name, "wcodes"), weights, build)

    def _store(self, name: str, values: np.ndarray) -> Tensor:
        """Pack float results into the storage representation."""
        storage = self._policy.activation_storage
        if storage is DType.QUINT8:
            qparams = self._out_qparams(name)
            return Tensor(qparams.quantize(values), storage, qparams)
        return Tensor.from_float(values, storage)

    # -- GEMM layers (conv / FC) ----------------------------------------------

    def _run_gemm_layer(self, name: str, inputs: List[Tensor],
                        resource: str,
                        channel_range: Optional[Tuple[int, int]]) -> Tensor:
        layer = self._graph.layer(name)
        (x,) = inputs
        if isinstance(layer, (Conv2D, FullyConnected)):
            weights, bias = layer.weights, layer.bias
        else:
            raise PlanError(f"layer {name!r} is not GEMM-shaped")
        if weights is None or bias is None:
            raise PlanError(f"layer {name!r} has no weights")
        compute_dtype = self._policy.compute_dtype(resource)
        storage = self._policy.activation_storage
        if storage is DType.QUINT8 and compute_dtype is DType.QUINT8:
            return self._gemm_integer(name, layer, x, weights, bias,
                                      channel_range)
        if storage is DType.QUINT8:
            return self._gemm_float_over_quant(name, layer, x, weights,
                                               bias, channel_range,
                                               compute_dtype)
        return self._gemm_float(name, layer, x, weights, bias,
                                channel_range, compute_dtype)

    def _conv_out_shape(self, layer: Conv2D, x_arr: np.ndarray,
                        out_channels: int) -> Tuple[int, ...]:
        out_h, out_w = conv_output_hw(x_arr.shape[2], x_arr.shape[3],
                                      layer.kernel, layer.stride,
                                      layer.padding)
        return (x_arr.shape[0], out_channels, out_h, out_w)

    @staticmethod
    def _fold_gemm_output(out_rows: np.ndarray,
                          shape: Tuple[int, ...]) -> np.ndarray:
        if len(shape) == 4:
            batch, out_c, out_h, out_w = shape
            out = out_rows.reshape(batch, out_h, out_w, out_c)
            return np.ascontiguousarray(out.transpose(0, 3, 1, 2))
        return out_rows.reshape(shape)

    def _gemm_integer(self, name: str, layer, x: Tensor,
                      weights: np.ndarray, bias: np.ndarray,
                      channel_range: Optional[Tuple[int, int]]) -> Tensor:
        """CPU path: gemmlowp-style integer GEMM (Figure 9a)."""
        weight_codes, w_qparams = self._quantized_weights(name, weights)
        bias_slice = bias
        if channel_range is not None:
            lo, hi = channel_range
            weight_codes = weight_codes[lo:hi]
            bias_slice = bias[lo:hi]
        assert x.qparams is not None
        x_qparams = x.qparams
        pad = float(x_qparams.zero_point)
        if isinstance(layer, Conv2D):
            columns = self._cached_columns(
                name, "codes", x.data,
                lambda: im2col(x.data, layer.kernel, layer.stride,
                               layer.padding, pad_value=pad))
            lhs = columns.reshape(-1, columns.shape[-1])
            rhs = flatten_filters(weight_codes).T
            shape = self._conv_out_shape(layer, x.data,
                                         weight_codes.shape[0])
        else:
            lhs = x.data
            rhs = weight_codes.T
            shape = (x.data.shape[0], weight_codes.shape[0])
        if self._enable_caches:
            rhs_i32, rhs_sums = self._packed_operand(
                (name, "rhs_int", channel_range), weights,
                lambda: _int_rhs(rhs))
            bias_i32 = self._packed_operand(
                (name, "bias_i32", channel_range, x_qparams.scale,
                 w_qparams.scale), bias,
                lambda: quantize_bias(bias_slice, x_qparams.scale,
                                      w_qparams.scale))
        else:
            rhs_i32 = rhs_sums = bias_i32 = None
        out_qparams = self._out_qparams(name)
        out_rows = qgemm(lhs, x_qparams, rhs, w_qparams, out_qparams,
                         bias=bias_slice, relu=layer.relu,
                         rhs_i32=rhs_i32, rhs_sums=rhs_sums,
                         bias_i32=bias_i32)
        folded = self._fold_gemm_output(out_rows, shape)
        return Tensor(folded, DType.QUINT8, out_qparams)

    def _gemm_float_over_quant(self, name: str, layer, x: Tensor,
                               weights: np.ndarray, bias: np.ndarray,
                               channel_range: Optional[Tuple[int, int]],
                               compute_dtype: DType) -> Tensor:
        """GPU path: load QUInt8, compute in F16, requantize
        (Figure 9b)."""
        weights_slice, bias_slice = weights, bias
        if channel_range is not None:
            lo, hi = channel_range
            weights_slice = weights[lo:hi]
            bias_slice = bias[lo:hi]
        assert x.qparams is not None
        x_qparams = x.qparams
        # Conv layers gather the *uint8 code* columns (shared with the
        # integer pipeline of a cooperative PFQ layer) and dequantize
        # them through a lookup table -- bit-identical to gathering the
        # dequantized input, since the elementwise map commutes with
        # the gather and lut[zero_point] == 0.0 matches the float
        # pipeline's zero padding.
        pad = float(x_qparams.zero_point)
        if compute_dtype is DType.F16:
            if isinstance(layer, Conv2D):
                codes = self._cached_columns(
                    name, "codes", x.data,
                    lambda: im2col(x.data, layer.kernel, layer.stride,
                                   layer.padding, pad_value=pad))
                lut = self._dequant_lut(name, x_qparams, "half")
                lhs: np.ndarray = lut[codes].reshape(-1, codes.shape[-1])
                rhs16 = self._packed_operand(
                    (name, "rhs_f16oq", channel_range), weights,
                    lambda: flatten_filters(weights_slice).T.astype(
                        np.float16))
                shape = self._conv_out_shape(layer, x.data,
                                             weights_slice.shape[0])
            else:
                lhs = dequantize_to_half(x.data, x_qparams)
                rhs16 = self._packed_operand(
                    (name, "rhs_f16oq", channel_range), weights,
                    lambda: weights_slice.T.astype(np.float16))
                shape = (x.data.shape[0], weights_slice.shape[0])
            out_rows = gemm_f16(lhs, rhs16, bias_slice).astype(np.float32)
        else:  # F32 compute over quantized storage
            if isinstance(layer, Conv2D):
                codes = self._cached_columns(
                    name, "codes", x.data,
                    lambda: im2col(x.data, layer.kernel, layer.stride,
                                   layer.padding, pad_value=pad))
                lut = self._dequant_lut(name, x_qparams, "half_f32")
                lhs = lut[codes].reshape(-1, codes.shape[-1])
                rhs = flatten_filters(weights_slice).T
                shape = self._conv_out_shape(layer, x.data,
                                             weights_slice.shape[0])
            else:
                lhs = dequantize_to_half(x.data, x_qparams).astype(
                    np.float32)
                rhs = weights_slice.T
                shape = (x.data.shape[0], weights_slice.shape[0])
            out_rows = lhs @ rhs + bias_slice
        if layer.relu:
            out_rows = np.maximum(out_rows, 0.0)
        folded = self._fold_gemm_output(out_rows, shape)
        out_qparams = self._out_qparams(name)
        return Tensor(out_qparams.quantize(folded), DType.QUINT8,
                      out_qparams)

    def _gemm_float(self, name: str, layer, x: Tensor,
                    weights: np.ndarray, bias: np.ndarray,
                    channel_range: Optional[Tuple[int, int]],
                    compute_dtype: DType) -> Tensor:
        """Uniform float path (F32 or F16 end to end)."""
        weights_slice, bias_slice = weights, bias
        if channel_range is not None:
            lo, hi = channel_range
            weights_slice = weights[lo:hi]
            bias_slice = bias[lo:hi]
        if compute_dtype is DType.F16:
            if isinstance(layer, Conv2D):
                columns = self._cached_columns(
                    name, "f16", x.data,
                    lambda: im2col(x.to_float().astype(np.float16),
                                   layer.kernel, layer.stride,
                                   layer.padding, pad_value=0.0))
                lhs: np.ndarray = columns.reshape(-1, columns.shape[-1])
                rhs = self._packed_operand(
                    (name, "rhs_f16", channel_range), weights,
                    lambda: flatten_filters(
                        weights_slice.astype(np.float16)).T)
                shape = self._conv_out_shape(layer, x.data,
                                             weights_slice.shape[0])
            else:
                lhs = x.to_float().astype(np.float16)
                rhs = self._packed_operand(
                    (name, "rhs_f16", channel_range), weights,
                    lambda: weights_slice.astype(np.float16).T)
                shape = (x.data.shape[0], weights_slice.shape[0])
            out_rows = gemm_f16(lhs, rhs, bias_slice).astype(np.float32)
        else:
            if isinstance(layer, Conv2D):
                columns = self._cached_columns(
                    name, "f32", x.data,
                    lambda: im2col(x.to_float(), layer.kernel,
                                   layer.stride, layer.padding,
                                   pad_value=0.0))
                lhs = columns.reshape(-1, columns.shape[-1])
                rhs = flatten_filters(weights_slice).T
                shape = self._conv_out_shape(layer, x.data,
                                             weights_slice.shape[0])
            else:
                lhs = x.to_float()
                rhs = weights_slice.T
                shape = (x.data.shape[0], weights_slice.shape[0])
            out_rows = lhs @ rhs + bias_slice
        if layer.relu:
            out_rows = np.maximum(out_rows, 0.0)
        folded = self._fold_gemm_output(out_rows, shape)
        return self._store(name, folded)

    # -- depthwise convolution ------------------------------------------------

    def _run_depthwise(self, name: str, inputs: List[Tensor],
                       resource: str,
                       channel_range: Optional[Tuple[int, int]]) -> Tensor:
        layer = self._graph.layer(name)
        assert isinstance(layer, DepthwiseConv2D)
        if layer.weights is None or layer.bias is None:
            raise PlanError(f"layer {name!r} has no weights")
        (x,) = inputs
        total = layer.weights.shape[0]
        lo, hi = (0, total) if channel_range is None else channel_range
        weights = layer.weights[lo:hi]
        bias = layer.bias[lo:hi]
        x_slice = x if channel_range is None else x.slice_channels(lo, hi)
        compute_dtype = self._policy.compute_dtype(resource)
        storage = self._policy.activation_storage
        if storage is DType.QUINT8 and compute_dtype is DType.QUINT8:
            return self._depthwise_integer(name, layer, x_slice, bias,
                                           lo, hi)
        # Float compute (uniform float, or F16-over-quantized).
        out = self._depthwise_float(name, layer, x, x_slice, weights,
                                    bias, compute_dtype, lo, hi)
        if storage is DType.QUINT8:
            out_qparams = self._out_qparams(name)
            return Tensor(out_qparams.quantize(out), DType.QUINT8,
                          out_qparams)
        return self._store(name, out)

    def _depthwise_columns(self, name: str, layer: DepthwiseConv2D,
                           x: Tensor, variant: str,
                           full_builder: Callable[[], np.ndarray],
                           slice_builder: Callable[[], np.ndarray],
                           lo: int, hi: int) -> np.ndarray:
        """Per-channel patch columns of a depthwise conv placement.

        With caching on, the columns of the *full* input are built once
        and every placement takes its channel slice (each channel is an
        independent single-channel image, so slicing the full column
        matrix is bit-exact against lowering the sliced input); with
        caching off, each placement lowers its own input slice exactly
        as before.
        """
        if not self._enable_caches:
            return slice_builder()
        columns_full = self._columns.get((name, "cols", variant),
                                         x.data, full_builder)
        batch, channels = x.shape[0], x.shape[1]
        if (lo, hi) == (0, channels):
            return columns_full
        patches, kk = columns_full.shape[1], columns_full.shape[2]
        view = columns_full.reshape(batch, channels, patches, kk)[:, lo:hi]
        return np.ascontiguousarray(view).reshape(
            batch * (hi - lo), patches, kk)

    def _depthwise_float(self, name: str, layer: DepthwiseConv2D,
                         x: Tensor, x_slice: Tensor, weights: np.ndarray,
                         bias: np.ndarray, compute_dtype: DType,
                         lo: int, hi: int) -> np.ndarray:
        batch, channels, in_h, in_w = x_slice.shape
        variant = "f16f" if compute_dtype is DType.F16 else "f32f"

        if x.dtype is DType.QUINT8:
            # Quantized storage: gather the uint8 code columns (shared
            # by a cooperative layer's float placements) and
            # dequantize through the per-variant lookup table; the
            # table maps the zero-point padding to exactly 0.0, the
            # float lowering's padding.
            assert x.qparams is not None
            x_qparams = x.qparams
            pad = float(x_qparams.zero_point)

            def lower_codes(tensor: Tensor) -> np.ndarray:
                n, c = tensor.shape[0], tensor.shape[1]
                return im2col(tensor.data.reshape(n * c, 1, in_h, in_w),
                              layer.kernel, layer.stride, layer.padding,
                              pad_value=pad)

            codes = self._depthwise_columns(
                name, layer, x, "codes",
                lambda: lower_codes(x), lambda: lower_codes(x_slice),
                lo, hi)
            lut = self._dequant_lut(name, x_qparams, variant)
            columns = lut[codes]
        else:
            def lower(tensor: Tensor) -> np.ndarray:
                values = tensor.to_float()
                if compute_dtype is DType.F16:
                    values = values.astype(np.float16).astype(np.float32)
                n, c = tensor.shape[0], tensor.shape[1]
                return im2col(values.reshape(n * c, 1, in_h, in_w),
                              layer.kernel, layer.stride, layer.padding)

            columns = self._depthwise_columns(
                name, layer, x, variant,
                lambda: lower(x), lambda: lower(x_slice), lo, hi)

        def pack_filters() -> np.ndarray:
            w = weights
            if compute_dtype is DType.F16:
                w = w.astype(np.float16).astype(np.float32)
            return np.tile(w.reshape(channels, -1), (batch, 1))

        filters = self._packed_operand(
            (name, "dw_filters", variant, (lo, hi), batch),
            layer.weights, pack_filters)
        out = np.einsum("npk,nk->np", columns, filters)
        out_h, out_w = conv_output_hw(in_h, in_w, layer.kernel,
                                      layer.stride, layer.padding)
        out = out.reshape(batch, channels, out_h, out_w)
        out = out + bias[None, :, None, None]
        if compute_dtype is DType.F16:
            out = out.astype(np.float16).astype(np.float32)
        if layer.relu:
            out = np.maximum(out, 0.0)
        return out.astype(np.float32)

    def _depthwise_integer(self, name: str, layer: DepthwiseConv2D,
                           x_slice: Tensor, bias: np.ndarray,
                           lo: int, hi: int) -> Tensor:
        """Integer depthwise conv with i32 accumulation + requantize."""
        weight_codes, w_qparams = self._quantized_weights(
            name, layer.weights)
        assert x_slice.qparams is not None
        x_qparams = x_slice.qparams
        taps = self._packed_operand(
            (name, "dw_taps", (lo, hi)), layer.weights,
            lambda: pack_depthwise_taps(weight_codes[lo:hi],
                                        w_qparams.zero_point))
        bias_i32 = self._packed_operand(
            (name, "dw_bias_i32", (lo, hi), x_qparams.scale,
             w_qparams.scale), layer.bias,
            lambda: quantize_bias(bias, x_qparams.scale, w_qparams.scale))
        out_qparams = self._out_qparams(name)
        mantissa, shift = prepare_requantize(
            x_qparams.scale, w_qparams.scale, out_qparams)
        codes = depthwise_conv_quint8(
            x_slice.data, x_qparams.zero_point, taps, bias_i32,
            layer.stride, layer.padding, mantissa, shift, out_qparams,
            layer.relu)
        return Tensor(codes, DType.QUINT8, out_qparams)

    # -- placement-invariant layers ------------------------------------------

    def _run_invariant(self, name: str, inputs: List[Tensor]) -> Tensor:
        layer = self._graph.layer(name)
        if layer.kind not in _PLACEMENT_INVARIANT_KINDS:
            raise PlanError(
                f"layer {name!r} ({layer.kind}) has no placement-"
                "invariant implementation")
        storage = self._policy.activation_storage
        if storage is not DType.QUINT8:
            values = [t.to_float() for t in inputs]
            return self._store(name, layer.forward_f32(values))
        return self._run_invariant_quantized(name, layer, inputs)

    def _run_invariant_quantized(self, name: str, layer,
                                 inputs: List[Tensor]) -> Tensor:
        kind = layer.kind
        if kind is LayerKind.MAX_POOL:
            # Max of codes == max of reals (monotone map); parameters
            # pass through unchanged, as in TFLite.
            (x,) = inputs
            from ..kernels import max_pool
            codes = max_pool(x.data, layer.kernel, layer.stride,
                             layer.padding)
            return Tensor(codes.astype(np.uint8), DType.QUINT8, x.qparams)
        if kind is LayerKind.RELU:
            (x,) = inputs
            assert x.qparams is not None
            codes = np.maximum(x.data, np.uint8(x.qparams.zero_point))
            return Tensor(codes, DType.QUINT8, x.qparams)
        if kind is LayerKind.FLATTEN:
            (x,) = inputs
            return Tensor(x.data.reshape(x.shape[0], -1), DType.QUINT8,
                          x.qparams)
        if kind is LayerKind.AVG_POOL:
            # Averaging is affine, so averaging codes (with real-zero
            # padding = the zero point) equals averaging reals; round
            # back to the same grid.
            (x,) = inputs
            assert x.qparams is not None
            values = layer.forward_f32(
                [x.data.astype(np.float32)
                 - float(x.qparams.zero_point)])
            codes = np.clip(np.round(values + x.qparams.zero_point),
                            0, 255).astype(np.uint8)
            return Tensor(codes, DType.QUINT8, x.qparams)
        if kind is LayerKind.CONCAT:
            out_qparams = self._out_qparams(name)
            parts = [Tensor(out_qparams.quantize(t.to_float()),
                            DType.QUINT8, out_qparams) for t in inputs]
            return concat_channels(parts, axis=layer.axis)
        # ADD / SOFTMAX / LRN: dequantize, compute in float, requantize.
        values = [t.to_float() for t in inputs]
        out = layer.forward_f32(values)
        out_qparams = self._out_qparams(name)
        return Tensor(out_qparams.quantize(out), DType.QUINT8, out_qparams)
