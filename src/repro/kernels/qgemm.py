"""gemmlowp-style quantized GEMM with 32-bit integer accumulation.

This is the CPU arithmetic path of the paper's processor-friendly
quantization (Figure 9a): uint8 inputs and filters are combined with
integer multiply-accumulates; products of 8-bit values occupy 16 bits
and are accumulated into 32-bit integers; the accumulator is finally
requantized back to uint8 using the pre-trained output range.

The affine decomposition used below is the standard gemmlowp identity.
With ``real = s * (q - z)`` for LHS (activations) and RHS (weights):

    sum_k (ql - zl)(qr - zr)
        = sum_k ql*qr - zl * sum_k qr - zr * sum_k ql + K * zl * zr

so a single integer matmul plus row/column sums produces the exact
integer accumulator.  :func:`qgemm` computes it that way and is the
reference.  :func:`qgemm_fused`, the compiled path's kernel, centres
the weights on their zero point at pack time instead and runs the
matmul as exact blocked float32 BLAS sgemm.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import ShapeError
from ..quant.linear import requantize, requantize_prepared
from ..tensor import QuantParams


def qgemm_accumulate(lhs_q: np.ndarray, lhs_zero: int, rhs_q: np.ndarray,
                     rhs_zero: int,
                     bias_i32: "np.ndarray | None" = None) -> np.ndarray:
    """Integer accumulator of a quantized GEMM.

    Args:
        lhs_q: (m, k) uint8 activation codes.
        lhs_zero: activation zero point.
        rhs_q: (k, n) uint8 weight codes.
        rhs_zero: weight zero point.
        bias_i32: optional (n,) int32 bias already scaled to
            ``lhs_scale * rhs_scale`` units.

    Returns:
        (m, n) int32 accumulators representing
        ``real / (lhs_scale * rhs_scale)``.
    """
    lhs_q = np.asarray(lhs_q)
    rhs_q = np.asarray(rhs_q)
    if lhs_q.dtype != np.uint8 or rhs_q.dtype != np.uint8:
        raise ShapeError(
            f"qgemm operands must be uint8, got {lhs_q.dtype} and "
            f"{rhs_q.dtype}")
    if lhs_q.shape[-1] != rhs_q.shape[0]:
        raise ShapeError(
            f"qgemm inner dimensions differ: {lhs_q.shape} @ {rhs_q.shape}")
    depth = lhs_q.shape[-1]
    rhs_i32 = rhs_q.astype(np.int32)
    raw = lhs_q.astype(np.int32) @ rhs_i32
    lhs_sums = lhs_q.astype(np.int32).sum(axis=-1, keepdims=True)  # (m, 1)
    rhs_sums = rhs_i32.sum(axis=0, keepdims=True)
    acc = (raw
           - np.int32(lhs_zero) * rhs_sums
           - np.int32(rhs_zero) * lhs_sums
           + np.int32(depth) * np.int32(lhs_zero) * np.int32(rhs_zero))
    if bias_i32 is not None:
        acc = acc + np.asarray(bias_i32, dtype=np.int32)
    return acc.astype(np.int32)


def quantize_bias(bias: np.ndarray, lhs_scale: float,
                  rhs_scale: float) -> np.ndarray:
    """Scale a float bias into i32 accumulator units.

    gemmlowp folds the bias into the accumulator before requantization,
    so the bias must be expressed in ``lhs_scale * rhs_scale`` units.
    """
    return np.round(np.asarray(bias, dtype=np.float64)
                    / (lhs_scale * rhs_scale)).astype(np.int32)


def fused_const_row(rhs_i32: np.ndarray, lhs_zero: int, rhs_zero: int,
                    bias_i32: np.ndarray) -> np.ndarray:
    """The weight-only constant row of the fused quantized GEMM.

    Of the four terms of the gemmlowp identity only
    ``- zr * sum_k ql`` depends on the activations, and the centred
    weights of :func:`pack_f32_blocks` absorb it into the matmul; the
    remaining ``bias - zl * sum_k qr + K * zl * zr`` is folded into one
    row at compile time.  Integer addition wraps modulo 2^32 and is
    therefore associative, so re-associating the sum this way -- and
    returning the row already wrapped to int32 -- keeps the final int32
    accumulator byte-identical to :func:`qgemm_accumulate`.
    """
    depth = rhs_i32.shape[0]
    rhs_sums = rhs_i32.sum(axis=0, keepdims=True)
    const = (np.asarray(bias_i32, dtype=np.int64)
             - np.int64(lhs_zero) * rhs_sums
             + np.int64(depth) * np.int64(lhs_zero) * np.int64(rhs_zero))
    return const.astype(np.int32)


#: Deepest row block of centred weight codes whose products sum
#: exactly in float32: every partial sum of ``EXACT_F32_BLOCK`` terms
#: ``ql * (qr - zr)`` (each of magnitude at most ``255 * 255``) is an
#: integer of magnitude below ``2**24``, and float32 holds every such
#: integer.
EXACT_F32_BLOCK = 2 ** 24 // (255 * 255)


def pack_f32_blocks(rhs_q: np.ndarray,
                    rhs_zero: int) -> Tuple[np.ndarray, ...]:
    """Centre (k, n) uint8 weight codes and split them for
    :func:`qgemm_fused`.

    Returns float32 row blocks of ``rhs_q - rhs_zero`` (values in
    [-255, 255]) of at most :data:`EXACT_F32_BLOCK` rows each, in depth
    order.  Centring the weights absorbs the ``- zr * sum_k ql`` term of
    the gemmlowp identity, so no activation row sums are needed.
    """
    centred = rhs_q.astype(np.float32) - np.float32(rhs_zero)
    depth = centred.shape[0]
    return tuple(np.ascontiguousarray(centred[k:k + EXACT_F32_BLOCK])
                 for k in range(0, depth, EXACT_F32_BLOCK))


def qgemm_fused(lhs_q: np.ndarray, rhs_blocks: Sequence[np.ndarray],
                const_row: np.ndarray, mantissa: int, shift: int,
                output_params: QuantParams,
                relu: bool = False) -> np.ndarray:
    """Fully fused quantized GEMM: blocked sgemm plus epilogue.

    The compiled execution path's integer kernel.  All weight-side
    operands are pre-packed: the centred f32 weight blocks of
    :func:`pack_f32_blocks`, the bias and zero-point terms folded into
    :func:`fused_const_row`, and the requantization multiplier
    pre-decomposed by :func:`~repro.quant.linear.prepare_requantize`.
    Per call the uint8 columns are widened to float32 once, each depth
    block runs as one BLAS sgemm, and the blocks are summed in int32.

    This is *exact*, not approximate: within a block every partial sum
    is an integer of magnitude below ``2**24`` (see
    :data:`EXACT_F32_BLOCK`), so each f32 addition is performed without
    rounding in any summation order, FMA included, and the cast to
    int32 recovers the block's integer.  Summing the blocks and
    ``const_row`` in wrapping int32 then gives the exact accumulator
    modulo 2^32, which is the int32 that :func:`qgemm_accumulate`
    returns, at every depth.  So the output is byte-identical to
    :func:`qgemm` over the same operands.
    """
    lhs = lhs_q.astype(np.float32)
    acc: "np.ndarray | None" = None
    start = 0
    for block in rhs_blocks:
        stop = start + block.shape[0]
        part = (lhs[:, start:stop] @ block).astype(np.int32)
        if acc is None:
            acc = part
        else:
            acc += part
        start = stop
    assert acc is not None
    acc += const_row
    return requantize_prepared(acc, mantissa, shift, output_params,
                               relu=relu)


def qgemm(lhs_q: np.ndarray, lhs_params: QuantParams, rhs_q: np.ndarray,
          rhs_params: QuantParams, output_params: QuantParams,
          bias: "np.ndarray | None" = None,
          relu: bool = False,
          bias_i32: "np.ndarray | None" = None) -> np.ndarray:
    """Full quantized GEMM: accumulate, add bias, requantize to uint8.

    Args:
        lhs_q / rhs_q: uint8 codes of activations / weights.
        lhs_params / rhs_params: their quantization parameters.
        output_params: the pre-trained output range used to requantize.
        bias: optional float bias (folded in integer domain).
        relu: fuse a ReLU by clamping the output at the code that
            represents real zero (gemmlowp's fused activation).
        bias_i32: optional pre-quantized bias in accumulator units;
            takes precedence over ``bias``.

    Returns:
        (m, n) uint8 output codes.
    """
    if bias_i32 is None and bias is not None:
        bias_i32 = quantize_bias(bias, lhs_params.scale, rhs_params.scale)
    acc = qgemm_accumulate(lhs_q, lhs_params.zero_point, rhs_q,
                           rhs_params.zero_point, bias_i32)
    out = requantize(acc, lhs_params.scale, rhs_params.scale, output_params)
    if relu:
        out = np.maximum(out, np.uint8(output_params.zero_point))
    return out
