"""8-bit linear quantization primitives (Jacob et al., CVPR 2018).

These functions implement the arithmetic the paper's Section 4.1
describes: values are stored as 8-bit unsigned integers related to reals
by ``real = scale * (q - zero_point)``; multiplying two 8-bit values
yields 16 bits and sums accumulate in 32 bits; *requantization* converts
the 32-bit accumulators back to 8-bit codes using the pre-trained output
range.  The requantization path mirrors gemmlowp's fixed-point
multiplier so the integer pipeline is faithful to what runs on a real
CPU's vector ALUs.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..errors import QuantizationError
from ..tensor import DType, QuantParams, Tensor
from ..tensor.qparams import QMAX, QMIN


def quantize(values: np.ndarray, qparams: QuantParams) -> np.ndarray:
    """Quantize real values to uint8 codes under ``qparams``."""
    return qparams.quantize(values)


def dequantize(codes: np.ndarray, qparams: QuantParams) -> np.ndarray:
    """Dequantize uint8 codes to float32 reals under ``qparams``."""
    return qparams.dequantize(codes)


def quantize_tensor(tensor: Tensor,
                    qparams: "QuantParams | None" = None) -> Tensor:
    """Return a QUInt8 version of ``tensor``.

    When ``qparams`` is omitted the parameters are derived from the
    tensor's own min/max (post-training quantization).
    """
    values = tensor.to_float()
    if qparams is None:
        qparams = QuantParams.from_array(values)
    return Tensor(qparams.quantize(values), DType.QUINT8, qparams)


def quantized_multiplier(real_multiplier: float) -> Tuple[int, int]:
    """Decompose a real multiplier as ``m * 2**-shift`` with m in Q31.

    gemmlowp/TFLite represent the requantization multiplier
    ``input_scale * weight_scale / output_scale`` as a 32-bit
    fixed-point mantissa in [0.5, 1.0) and a shift, so the whole
    pipeline stays in integer arithmetic.  Multipliers below one use a
    right shift (positive); multipliers of one or more (possible with
    narrow output ranges) use a left shift (negative), as in TFLite's
    ``QuantizeMultiplier``.

    Returns:
        (quantized_multiplier, right_shift) with
        ``real_multiplier ~= quantized_multiplier * 2**(-31 - right_shift)``.

    Raises:
        QuantizationError: if the multiplier is not positive and finite.
    """
    if not math.isfinite(real_multiplier) or real_multiplier <= 0.0:
        raise QuantizationError(
            f"requantization multiplier must be positive and finite, "
            f"got {real_multiplier!r}")
    shift = 0
    while real_multiplier < 0.5:
        real_multiplier *= 2.0
        shift += 1
    while real_multiplier >= 1.0:
        real_multiplier /= 2.0
        shift -= 1
    q = int(round(real_multiplier * (1 << 31)))
    if q == (1 << 31):  # round-up to 1.0: renormalize
        q //= 2
        shift -= 1
    return q, shift


def prepare_requantize(input_scale: float, weight_scale: float,
                       output: QuantParams) -> Tuple[int, int]:
    """Pre-decompose the requantization multiplier of one layer.

    The multiplier ``input_scale * weight_scale / output.scale`` and
    its fixed-point (mantissa, shift) decomposition depend only on the
    quantization parameters, so a compiled program computes them once
    at compile time and :func:`requantize_prepared` replays only the
    integer arithmetic per call.
    """
    real_multiplier = (input_scale * weight_scale) / output.scale
    return quantized_multiplier(real_multiplier)


def requantize_prepared(acc: np.ndarray, mantissa: int, shift: int,
                        output: QuantParams,
                        relu: bool = False) -> np.ndarray:
    """Convert i32 accumulators to uint8 codes with a pre-decomposed
    multiplier (see :func:`prepare_requantize`).

    gemmlowp's pipeline rounds twice: SaturatingRoundingDoublingHighMul
    computes ``x = floor((acc*m + c1) / 2**31)`` and RoundingDivideByPOT
    then computes ``floor((x + c2) / 2**shift)``, where the nudges
    ``c1``/``c2`` depend on the signs of ``acc*m`` and ``x``.  Nested
    floor divisions fold: ``floor((floor(a/B) + c)/D) ==
    floor((a + c*B) / (B*D))`` for integers ``a, c`` and positive
    ``B, D``; and since the mantissa is positive, ``x < 0`` exactly
    when ``acc < 0``.  So both roundings collapse into one int64
    multiply, one sign-dependent constant, and one arithmetic shift by
    ``31 + shift`` -- byte-identical to the two-step form, and exact
    in int64 up to shift 31 (``|acc*m|`` and the constant are both
    below ``2**62``).

    A negative shift (multiplier >= 1) applies TFLite's saturating
    left shift to the accumulator first.  For ``shift >= 32`` the
    product ``|acc * m * 2**(-31-shift)|`` is below one half, so the
    correctly rounded value is 0 and every output is the zero-point
    code.  The zero point is added in int64, so a result near
    INT32_MAX saturates to 255 instead of wrapping.

    ``relu`` fuses gemmlowp's clamp at the code that represents real
    zero into the saturating clip, by raising its lower bound to the
    zero point: ``clip(v, zp, 255) == max(clip(v, 0, 255), zp)`` for
    every zero point in [0, 255].
    """
    acc = np.asarray(acc, dtype=np.int32)
    if shift < 0:
        # Multiplier >= 1: apply the saturating left shift *before*
        # the rounding multiply (TFLite's MultiplyByQuantizedMultiplier
        # order), otherwise small accumulators lose all precision.
        acc = np.clip(acc.astype(np.int64) << -shift, -(1 << 31),
                      (1 << 31) - 1).astype(np.int32)
        shift = 0
    if shift >= 32:
        return np.full(acc.shape, output.zero_point, dtype=np.uint8)
    # Both steps' nudges summed: ``nudge`` for acc >= 0; for acc < 0
    # both steps take their negative nudges, together ``drop`` smaller.
    nudge = (1 << 30) + ((1 << (30 + shift)) if shift else 0)
    drop = (1 << 31) - 1 + ((1 << 31) if shift else 0)
    scaled = np.multiply(acc, np.int64(mantissa), dtype=np.int64)
    scaled += nudge
    scaled -= (acc >> 31).astype(np.int64) & drop
    scaled >>= 31 + shift
    scaled += output.zero_point
    np.clip(scaled, output.zero_point if relu else QMIN, QMAX,
            out=scaled)
    return scaled.astype(np.uint8)


def requantize(acc: np.ndarray, input_scale: float, weight_scale: float,
               output: QuantParams) -> np.ndarray:
    """Convert i32 accumulators to uint8 codes under ``output``.

    Implements the gemmlowp fixed-point pipeline: the accumulator (which
    represents ``real / (input_scale * weight_scale)``) is rescaled by
    the fixed-point multiplier and shifted to land on the output grid,
    then offset by the output zero point and saturated to [0, 255].
    """
    mantissa, shift = prepare_requantize(input_scale, weight_scale, output)
    return requantize_prepared(acc, mantissa, shift, output)


def requantize_float_reference(acc: np.ndarray, input_scale: float,
                               weight_scale: float,
                               output: QuantParams) -> np.ndarray:
    """Float-domain reference for :func:`requantize` (used in tests)."""
    acc = np.asarray(acc, dtype=np.float64)
    real = acc * (input_scale * weight_scale)
    return output.quantize(real)
