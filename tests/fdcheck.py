"""Finite-difference gradient checking used across the layer and model tests.

All checks run on float64 copies of the layer state (`clone_network` makes
one of a whole network). `central_diff` perturbs one scalar slot at a time,
so the callable must re-read its inputs on every invocation (no caching of
intermediate state between calls).
"""

from __future__ import annotations

import copy
from typing import Callable

import numpy as np

from forgenet.model import Network

STEP = 1e-4


def clone_network(net: Network, dtype=None) -> Network:
    """Deep copy; optional dtype cast (float64 for gradient checking)."""
    out = copy.deepcopy(net)
    if dtype is not None:
        for layer in (*out.convs, *out.bns, out.dense):
            for name, value in vars(layer).items():
                if isinstance(value, np.ndarray):
                    setattr(layer, name, value.astype(dtype))
    return out


def central_diff(
    f: Callable[[], float], x: np.ndarray, step: float = STEP
) -> np.ndarray:
    """Gradient of scalar f with respect to every element of x.

    x is perturbed in place and restored; f must depend on the live values
    of x when called.
    """
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        up = f()
        flat[i] = keep - step
        down = f()
        flat[i] = keep
        grad.reshape(-1)[i] = (up - down) / (2.0 * step)
    return grad


def assert_close(
    actual: np.ndarray,
    expected: np.ndarray,
    rtol: float,
    atol: float = 1e-7,
    what: str = "gradient",
) -> None:
    """Elementwise |a - e| <= rtol * max(|a|, |e|) + atol."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape, (
        f"{what}: shape {actual.shape} != {expected.shape}"
    )
    scale = np.maximum(np.abs(actual), np.abs(expected))
    err = np.abs(actual - expected)
    bad = err > rtol * scale + atol
    assert not bad.any(), (
        f"{what}: {int(bad.sum())} of {actual.size} entries off; worst "
        f"|err|={err.max():.3e} at scale {scale.flat[np.argmax(err)]:.3e}"
    )
