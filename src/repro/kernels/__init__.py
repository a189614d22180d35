"""Numerical kernels: im2col, float GEMM, quantized GEMM, integer
depthwise convolution, pooling.

One kernel per operation: the compiler and the functional interpreter
call the same functions, and no alternative lowerings are kept for
selection by timing."""

from .depthwise import depthwise_conv_quint8, pack_depthwise_taps
from .gemm import gemm_f16, gemm_f32
from .im2col import (col2im_shape, conv_output_hw, flatten_filters, im2col)
from .op_cache import OperandCache
from .pooling import avg_pool, global_avg_pool, max_pool
from .qgemm import (fused_const_row, qgemm, qgemm_accumulate, qgemm_fused,
                    quantize_bias)

__all__ = [
    "depthwise_conv_quint8",
    "pack_depthwise_taps",
    "gemm_f16",
    "gemm_f32",
    "OperandCache",
    "col2im_shape",
    "conv_output_hw",
    "flatten_filters",
    "im2col",
    "avg_pool",
    "global_avg_pool",
    "max_pool",
    "fused_const_row",
    "qgemm",
    "qgemm_accumulate",
    "qgemm_fused",
    "quantize_bias",
]
