"""Numeric substrate: checked dense kernels, stable softmax, seeded RNG,
momentum SGD and matrix text serialization.

Everything runs on 64-bit numpy arrays. The conventions fixed here
(leaky-ReLU derivative at 0 equals the slope, softmax with max-subtraction,
17-significant-digit text round-trips) are relied on by the rest of the
package for bit-reproducibility.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "DimensionError",
    "as_matrix",
    "softmax_rows",
    "leaky_relu",
    "leaky_relu_grad",
    "make_rng",
    "MomentumSgd",
    "save_matrix",
    "load_matrix",
]


class DimensionError(ValueError):
    """Shapes of the operands do not line up."""


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting NaN/Inf entries."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name}: expected 2-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name}: contains non-finite entries")
    return m


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with max-subtraction; rows sum to 1."""
    m = np.asarray(m, dtype=np.float64)
    z = m - m.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def leaky_relu(m, slope: float) -> np.ndarray:
    if slope < 0:
        raise ValueError("leaky_relu slope must be >= 0")
    m = np.asarray(m, dtype=np.float64)
    return np.where(m > 0, m, slope * m)


def leaky_relu_grad(m, slope: float) -> np.ndarray:
    """Derivative mask; the value at exactly 0 is the slope."""
    if slope < 0:
        raise ValueError("leaky_relu slope must be >= 0")
    m = np.asarray(m, dtype=np.float64)
    return np.where(m > 0, 1.0, slope)


def make_rng(seed) -> np.random.Generator:
    """Seeded PCG64 generator; identical seeds give identical streams on
    every platform."""
    return np.random.Generator(np.random.PCG64(seed))


class MomentumSgd:
    """Heavy-ball SGD over named arrays, updated in place:
    ``v = momentum * v + g`` then ``p -= lr * v``. A parameter with no
    gradient in a step keeps its value and its velocity."""

    def __init__(self, params: dict, lr: float, momentum: float):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.velocity = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict) -> None:
        for name in self.params:
            g = grads.get(name)
            if g is None:
                continue
            self.velocity[name] = self.momentum * self.velocity[name] + g
            self.params[name] -= self.lr * self.velocity[name]


def save_matrix(path, m) -> None:
    """Write the text form: a `rows cols` header then one row per line,
    17 significant digits (lossless for float64)."""
    m = as_matrix(m)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for row in m:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed matrix header")
        rows, cols = int(header[0]), int(header[1])
        out = np.empty((rows, cols), dtype=np.float64)
        for i in range(rows):
            parts = fh.readline().split()
            if len(parts) != cols:
                raise ValueError(f"{path}: row {i} has {len(parts)} values, expected {cols}")
            out[i] = [float(p) for p in parts]
    return as_matrix(out, name=str(path))
