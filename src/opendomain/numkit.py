"""Numeric substrate: checked dense kernels, stable softmax, seeded RNG,
momentum SGD, the checkers of config fields, the reader of the headed
text tables, matrix text serialization and the JSON file form.

Everything runs on 64-bit numpy arrays. The conventions fixed here
(softmax with max-subtraction, 17-significant-digit text round-trips) are
relied on by the rest of the package for bit-reproducibility.
"""
from __future__ import annotations

import json
import math
import numbers
from array import array
from contextlib import contextmanager
from dataclasses import fields

import numpy as np

__all__ = [
    "DimensionError",
    "as_matrix",
    "softmax_rows",
    "leaky_relu",
    "make_rng",
    "flat_views",
    "MomentumSgd",
    "check_types",
    "check_fields",
    "save_matrix",
    "load_matrix",
    "text_file",
    "read_rows",
    "parse_tokens",
    "size",
    "write_json",
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


def softmax_rows(m, out=None) -> np.ndarray:
    """Softmax of each row of the 2-D ``m`` with max-subtraction, into
    ``out`` (``m`` itself for one in place) or a new array; rows sum to 1."""
    m = np.asarray(m, dtype=np.float64)
    # a max is exact in any order; one pass per column beats one call per row
    e = np.subtract(m, np.ascontiguousarray(m.T).max(axis=0)[:, None], out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def leaky_relu(m, slope: float) -> np.ndarray:
    if slope < 0:
        raise ValueError("leaky_relu slope must be >= 0")
    m = np.asarray(m, dtype=np.float64)
    return np.where(m > 0, m, slope * m)


def make_rng(seed) -> np.random.Generator:
    """Seeded PCG64 generator; identical seeds give identical streams on
    every platform."""
    return np.random.Generator(np.random.PCG64(seed))


def flat_views(arrays, flat=None):
    """Copies of ``arrays`` laid end to end in one new float64 buffer (or,
    uncopied, the slices of ``flat`` in that layout): returns (buffer,
    views), each view shaped like its array. An update of the buffer is
    then one pass over every array."""
    if flat is None:
        flat = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
    views, start = [], 0
    for a in arrays:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    return flat, views


class MomentumSgd:
    """Heavy-ball SGD on one float64 array, updated in place with a
    gradient of its shape: ``v = momentum * v + g`` then ``p -= lr * v``.
    Several parameters train as one array through ``flat_views``."""

    def __init__(self, params: np.ndarray, lr: float, momentum: float):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.velocity = np.zeros_like(params)

    def step(self, grad: np.ndarray) -> None:
        v = self.velocity
        v *= self.momentum
        v += grad
        self.params -= self.lr * v


# a config key's kind is the type of its default: the values it takes, its name
_KINDS = {bool: ((bool, np.bool_), "a bool"), int: (numbers.Integral, "an int"),
          float: (numbers.Real, "a float")}


def check_types(obj, section, optional=()) -> None:
    """Refuse each bool, int or float field of the dataclass ``obj`` whose
    value is not of its default's kind (a bool is no number, a float no
    int) with the ValueError ``<section>.<name> must be <a kind>, got
    <value>``; store an accepted value as the kind itself, so an int given
    to a float key writes the text of a float. ``section`` is the section
    name or a function from a field name to it. The fields named in
    ``optional`` are float keys whose default None they may keep."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        kind = float if f.name in optional else type(f.default)
        if kind not in _KINDS or (value is None and f.name in optional):
            continue
        types, noun = _KINDS[kind]
        if isinstance(value, types) and (kind is bool or not isinstance(value, bool)):
            try:
                object.__setattr__(obj, f.name, kind(value))
                continue
            except OverflowError:  # an int past the float64 range
                pass
        where = section(f.name) if callable(section) else section
        raise ValueError(f"{where}.{f.name} must be {noun}, got {value!r}")


def check_fields(obj, section: str, names: str, ok, rule: str) -> None:
    """Refuse each field of ``obj`` named in the space-separated ``names``
    whose value is not finite or fails ``ok``, with the ValueError
    ``<section>.<name> must be <rule>, got <value>``."""
    for name in names.split():
        value = getattr(obj, name)
        # an int is finite however large; math.isfinite overflows on a huge one
        if not ((isinstance(value, int) or math.isfinite(value)) and ok(value)):
            raise ValueError(f"{section}.{name} must be {rule}, got {value}")


def save_matrix(path, m) -> None:
    """Write the text form: a `rows cols` header then one row per line,
    17 significant digits (lossless for float64)."""
    m = as_matrix(m)
    np.savetxt(path, m, fmt="%.17g", header=f"{m.shape[0]} {m.shape[1]}", comments="",
               encoding="utf-8")


@contextmanager
def text_file(path):
    """``path`` open for reading as UTF-8; a byte that does not decode, or
    JSON that does not parse, raises ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def load_matrix(path) -> np.ndarray:
    with text_file(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed matrix header")
        rows, cols = parse_tokens(path, 1, (size, size), header)
        values = read_rows(fh, path, rows, (float,) * cols)
    return as_matrix(values, name=str(path))


def parse_tokens(path, lineno: int, kinds, tokens) -> list:
    """Each token converted by its kind (``int``, ``float`` or any callable
    that raises ValueError on a bad token); a token that does not convert
    raises ValueError naming the file and the line."""
    try:
        return [kind(token) for kind, token in zip(kinds, tokens)]
    except ValueError as exc:
        raise ValueError(f"{path}: line {lineno}: {exc}") from None


def size(token) -> int:
    """A count or an index in a text table: an integer in [0, 2**53), where
    the float64 rows of ``read_rows`` hold every integer exactly."""
    value = int(token)
    if not 0 <= value < 2**53:
        raise ValueError(f"{value} is not a count or index in [0, 2**53)")
    return value


def read_rows(fh, path, count: int, kinds) -> np.ndarray:
    """The ``count`` rows that follow a text table's header line as a
    (count, len(kinds)) float64 array; each row has exactly one token per
    kind and is converted by ``parse_tokens`` as it is read. Raises
    ValueError on a row of any other width, a token that does not convert,
    or anything but blank lines after the last row."""
    width = len(kinds)
    # grown row by row: a header may declare more rows than the file holds
    values = array("d")
    for i in range(count):
        parts = fh.readline().split()
        if len(parts) != width:
            raise ValueError(f"{path}: line {i + 2} has {len(parts)} fields, "
                             f"expected {width}")
        values.extend(parse_tokens(path, i + 2, kinds, parts))
    for line in fh:
        if line.strip():
            raise ValueError(f"{path}: data after the {count} declared rows")
    return np.array(values, dtype=np.float64).reshape(count, width)


def write_json(path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON plus a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
