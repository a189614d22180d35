"""The integer depthwise convolution kernel for QUInt8 activations.

A depthwise layer filters each channel with its own ``k x k`` kernel
(Section 2.1), so there is no cross-channel reduction for a GEMM.
:func:`depthwise_conv_quint8` instead accumulates the ``k*k`` taps as
int32 multiply-adds over strided shifted views of the padded input.
Integer addition wraps modulo 2^32 and is associative, so the result
is byte-identical to an im2col lowering contracted in int64 and
truncated to int32, in any tap order.  The functional interpreter and
the compiled path run this kernel for every integer depthwise part.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..quant.linear import requantize_prepared
from ..tensor import QuantParams
from .im2col import conv_output_hw


def pack_depthwise_taps(weight_codes: np.ndarray,
                        weight_zero: int) -> np.ndarray:
    """Centre ``(C, k, k)`` uint8 weight codes into per-tap columns.

    Returns an int32 array of shape ``(k, k, 1, C, 1, 1)``: entry
    ``[i, j]`` is tap ``(i, j)`` of every channel minus the weight zero
    point, shaped to broadcast against an NCHW activation.
    """
    if weight_codes.ndim != 3:
        raise ShapeError(
            f"depthwise weights must be (C, k, k), got {weight_codes.shape}")
    channels, kernel = weight_codes.shape[0], weight_codes.shape[1]
    centred = weight_codes.astype(np.int32) - np.int32(weight_zero)
    return np.ascontiguousarray(centred.transpose(1, 2, 0)).reshape(
        kernel, kernel, 1, channels, 1, 1)


def depthwise_conv_quint8(codes: np.ndarray, input_zero: int,
                          taps: np.ndarray, bias_i32: np.ndarray,
                          stride: int, padding: int, mantissa: int,
                          shift: int, output: QuantParams,
                          relu: bool = False) -> np.ndarray:
    """Depthwise convolution of NCHW uint8 codes, requantized to uint8.

    Args:
        codes: input activation codes ``(N, C, H, W)``.
        input_zero: the input's zero point (the padding value).
        taps: centred weights from :func:`pack_depthwise_taps`.
        bias_i32: per-channel bias in accumulator units, ``(C,)``.
        stride / padding: the layer's geometry.
        mantissa / shift: the pre-decomposed requantization multiplier
            (:func:`~repro.quant.linear.prepare_requantize`).
        output: the calibrated output range.
        relu: clamp at the code that represents real zero.

    Returns:
        ``(N, C, OH, OW)`` uint8 output codes.
    """
    if codes.ndim != 4:
        raise ShapeError(
            f"depthwise conv expects NCHW input, got shape {codes.shape}")
    batch, channels, in_h, in_w = codes.shape
    kernel = taps.shape[0]
    # Centred on the input zero point, so the padding contributes 0.
    padded = np.zeros((batch, channels, in_h + 2 * padding,
                       in_w + 2 * padding), dtype=np.int32)
    np.subtract(codes, np.int32(input_zero),
                out=padded[:, :, padding:padding + in_h,
                           padding:padding + in_w],
                dtype=np.int32)
    out_h, out_w = conv_output_hw(in_h, in_w, kernel, stride, padding)
    rows, cols = stride * (out_h - 1) + 1, stride * (out_w - 1) + 1
    acc = np.multiply(padded[:, :, :rows:stride, :cols:stride], taps[0, 0])
    product = np.empty_like(acc)
    for i in range(kernel):
        for j in range(kernel):
            if i or j:
                np.multiply(padded[:, :, i:i + rows:stride,
                                   j:j + cols:stride],
                            taps[i, j], out=product)
                acc += product
    acc += np.asarray(bias_i32, dtype=np.int32).reshape(1, channels, 1, 1)
    return requantize_prepared(acc, mantissa, shift, output, relu=relu)
