"""Max- and average-pooling kernels for NCHW activations.

Pooling has no filters and applies its global function per channel
(Section 2.1), which is why the channel-wise workload distribution
splits the *input* of a pooling layer across processors (Figure 7b).

:func:`max_pool` pads once with the dtype's lowest value, then folds
the ``k*k`` strided views of the padded input -- one per window
offset -- into the output with an in-place elementwise maximum.  Max
is exact, so the result does not depend on the fold order (up to which
of two equal signed zeros wins).  The reference interpreter, the
quantized functional path and the compiled path all run this one
kernel.  :func:`avg_pool` reduces a strided view of all windows.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .im2col import conv_output_hw


def _padded(images: np.ndarray, padding: int,
            pad_value: float) -> np.ndarray:
    """``images`` (NCHW) with ``padding`` rows/columns of
    ``pad_value`` on every spatial border."""
    if images.ndim != 4:
        raise ShapeError(
            f"pooling expects NCHW input, got shape {images.shape}")
    if padding <= 0:
        return images
    batch, channels, in_h, in_w = images.shape
    padded = np.full(
        (batch, channels, in_h + 2 * padding, in_w + 2 * padding),
        pad_value, dtype=images.dtype)
    padded[:, :, padding:padding + in_h, padding:padding + in_w] = images
    return padded


def _pool_windows(images: np.ndarray, kernel: int, stride: int,
                  padding: int, pad_value: float) -> np.ndarray:
    """All pooling windows as a strided view.

    Returns an array of shape (batch, channels, out_h, out_w, k, k).
    """
    padded = _padded(images, padding, pad_value)
    batch, channels, in_h, in_w = padded.shape
    out_h, out_w = conv_output_hw(in_h, in_w, kernel, stride, 0)
    stride_b, stride_c, stride_h, stride_w = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded,
        shape=(batch, channels, out_h, out_w, kernel, kernel),
        strides=(stride_b, stride_c, stride_h * stride, stride_w * stride,
                 stride_h, stride_w),
        writeable=False,
    )


def max_pool(images: np.ndarray, kernel: int, stride: int,
             padding: int = 0) -> np.ndarray:
    """Max pooling as a running maximum over shifted strided views.

    Padding uses the dtype's lowest value so padded positions never
    win.  Output dtype equals the input dtype.
    """
    if np.issubdtype(images.dtype, np.integer):
        pad_value = np.iinfo(images.dtype).min
    else:
        pad_value = -np.inf
    padded = _padded(images, padding, pad_value)
    out_h, out_w = conv_output_hw(padded.shape[2], padded.shape[3],
                                  kernel, stride, 0)
    rows, cols = stride * (out_h - 1) + 1, stride * (out_w - 1) + 1
    result = padded[:, :, :rows:stride, :cols:stride].copy()
    for i in range(kernel):
        for j in range(kernel):
            if i or j:
                np.maximum(result,
                           padded[:, :, i:i + rows:stride,
                                  j:j + cols:stride],
                           out=result)
    return result


def avg_pool(images: np.ndarray, kernel: int, stride: int, padding: int = 0,
             count_include_pad: bool = True) -> np.ndarray:
    """Average pooling.

    With ``count_include_pad`` (Caffe's default, matching the evaluated
    networks) the divisor is always ``kernel * kernel`` and padded
    positions contribute zeros.
    """
    windows = _pool_windows(
        images.astype(np.float32), kernel, stride, padding, 0.0)
    if count_include_pad:
        return windows.mean(axis=(-1, -2)).astype(np.float32)
    ones = np.ones(images.shape[2:], dtype=np.float32)[None, None]
    counts = _pool_windows(ones, kernel, stride, padding, 0.0).sum(
        axis=(-1, -2))
    return (windows.sum(axis=(-1, -2)) / counts).astype(np.float32)


def global_avg_pool(images: np.ndarray) -> np.ndarray:
    """Average over the full spatial extent, keeping 1x1 spatial dims."""
    if images.ndim != 4:
        raise ShapeError(
            f"pooling expects NCHW input, got shape {images.shape}")
    return images.astype(np.float32).mean(
        axis=(2, 3), keepdims=True).astype(np.float32)
