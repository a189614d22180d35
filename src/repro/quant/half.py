"""Half-precision (F16) conversion helpers.

F16 (IEEE 754 binary16) keeps 5 exponent and 10 significand bits --
three and thirteen fewer than F32, as Section 4.1 notes.  The paper's
GPU path loads QUInt8 data and converts it to F16 on the fly; these
helpers model both the plain F32<->F16 casts and that on-the-fly
dequantize-to-half step.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..tensor import DType, QuantParams, Tensor


def to_half(values: np.ndarray) -> np.ndarray:
    """Cast real values to float16 (round-to-nearest-even).

    Values beyond the f16 range overflow to infinity, exactly as the
    hardware cast would; numpy's overflow warning is suppressed because
    that saturation is the intended semantics.
    """
    with np.errstate(over="ignore"):
        return np.asarray(values).astype(np.float16)


def from_half(values: np.ndarray) -> np.ndarray:
    """Widen float16 values back to float32 (exact)."""
    return np.asarray(values, dtype=np.float16).astype(np.float32)


def tensor_to_half(tensor: Tensor) -> Tensor:
    """Return an F16 version of ``tensor`` via the real domain."""
    return Tensor(to_half(tensor.to_float()), DType.F16)


def dequantize_to_half(codes: np.ndarray, qparams: QuantParams) -> np.ndarray:
    """Dequantize QUInt8 codes directly to float16.

    Models the GPU's on-the-fly integer-to-half conversion (Figure 9b):
    the subtraction of the zero point happens in integer arithmetic and
    the scaling happens in half precision, matching what an OpenCL
    kernel operating on ``half`` vectors would compute.
    """
    centred = np.asarray(codes).astype(np.int16) - np.int16(qparams.zero_point)
    return (centred.astype(np.float16) * np.float16(qparams.scale))


def dequantize_lut(qparams: QuantParams) -> np.ndarray:
    """The 256-entry F16 lookup table of :func:`dequantize_to_half`.

    ``dequantize_to_half`` is a pure elementwise function of the code,
    so gathering through this table (``lut[codes]``) is bit-identical
    to calling it on the codes directly.  Two properties make the table
    the bridge between the integer and float pipelines of one layer:

    * applying it *after* an index gather (im2col) equals applying it
      before -- shared uint8 column matrices can be dequantized in
      place of re-gathering the float input;
    * ``lut[zero_point] == 0.0`` exactly, so the integer pipeline's
      zero-point padding maps onto the float pipeline's 0.0 padding.
    """
    return dequantize_to_half(np.arange(256, dtype=np.uint8), qparams)


def lut_gather(lut: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``np.take(lut, codes)`` over uint8 codes, widened to float32 and
    done two codes per index.

    A uint16 view of a contiguous code array indexes a table of every
    code pair, so ``np.take`` converts and gathers half as many
    indices.  The pairs come from the uint8 view of every uint16, so
    the table follows the machine's byte order.  An odd element count
    or a non-contiguous array takes the 256-entry table.
    """
    lut = np.asarray(lut).astype(np.float32)
    pairs = np.take(lut, np.arange(1 << 16, dtype=np.uint16).view(
        np.uint8)).reshape(-1, 2)

    def gather(codes: np.ndarray) -> np.ndarray:
        if codes.size % 2 or not codes.flags.c_contiguous:
            return np.take(lut, codes)
        flat = codes.reshape(-1).view(np.uint16)
        return np.take(pairs, flat, axis=0).reshape(codes.shape)

    return gather


def quantize_half_lut(qparams: QuantParams, relu: bool) -> np.ndarray:
    """The 65,536-entry table from float16 bit patterns to uint8 codes.

    Entry ``b`` is ``qparams.quantize(f32(h))`` for the f16 value ``h``
    whose bit pattern is ``b`` -- after ``max(., 0)`` when ``relu`` is
    set -- with +-inf and NaN included.  Widening, clamping and
    quantizing are all elementwise, so storing an F16 result as codes
    is one gather, ``np.take(table, out16.view(np.uint16))``,
    bit-identical to running the expression on the result itself.
    """
    values = np.arange(1 << 16, dtype=np.uint16).view(
        np.float16).astype(np.float32)
    if relu:
        values = np.maximum(values, 0.0)
    # NaN entries cast to uint8 exactly as they would per element.
    with np.errstate(invalid="ignore"):
        return qparams.quantize(values)


def half_ulp(value: float) -> float:
    """The gap between ``value`` and the next representable float16.

    Useful for accuracy assertions: F16 has ~3 decimal digits of
    precision, so comparisons against F32 references need tolerances of
    a few ULPs rather than machine epsilon.
    """
    half = np.float16(value)
    next_half = np.nextafter(half, np.float16(np.inf), dtype=np.float16)
    return float(next_half.astype(np.float64) - half.astype(np.float64))
