"""Numeric substrate: checked dense kernels, stable softmax, seeded RNG,
momentum SGD, config keys and their checker, the reader of the headed
text tables, matrix text serialization and the JSON file form.

Everything runs on 64-bit numpy arrays. The conventions fixed here
(softmax with max-subtraction, 17-significant-digit text round-trips) are
relied on by the rest of the package for bit-reproducibility. The GCN's
leaky ReLU lives with its one user, :mod:`opendomain.gcn`.
"""
from __future__ import annotations

import json
import math
import numbers
from array import array
from contextlib import contextmanager
from dataclasses import MISSING, field, fields

import numpy as np

__all__ = [
    "DimensionError",
    "as_matrix",
    "softmax_rows",
    "make_rng",
    "MomentumSgd",
    "key",
    "check_keys",
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


def make_rng(seed) -> np.random.Generator:
    """Seeded PCG64 generator; identical seeds give identical streams on
    every platform."""
    return np.random.Generator(np.random.PCG64(seed))


class MomentumSgd:
    """Heavy-ball SGD on copies of ``arrays`` laid end to end in one float64
    buffer. ``params`` are views of that buffer shaped like the arrays, and
    ``grads`` views of a gradient buffer in the same layout, which the
    caller fills before each ``step``: ``v = momentum * v + g`` then
    ``p -= lr * v``, one pass over each whole buffer, ``lr * v`` written
    into a scratch buffer of the optimizer's own. ``grads_finite`` tests
    every gradient in one scan of the gradient buffer."""

    def __init__(self, arrays, lr: float, momentum: float):
        self.lr = lr
        self.momentum = momentum
        self._buffer = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
        self._grad_buffer = np.zeros_like(self._buffer)
        self.velocity = np.zeros_like(self._buffer)
        self._scaled = np.empty_like(self._buffer)  # lr * v
        self.params, self.grads, start = [], [], 0
        for a in arrays:
            shape, stop = np.shape(a), start + np.size(a)
            self.params.append(self._buffer[start:stop].reshape(shape))
            self.grads.append(self._grad_buffer[start:stop].reshape(shape))
            start = stop

    def step(self) -> None:
        v = self.velocity
        v *= self.momentum
        v += self._grad_buffer
        self._buffer -= np.multiply(v, self.lr, out=self._scaled)

    def grads_finite(self) -> bool:
        return bool(np.isfinite(self._grad_buffer).all())


# a config key's kind is the type of its default: the values it takes, its name
_KINDS = {bool: ((bool, np.bool_), "a bool"), int: (numbers.Integral, "an int"),
          float: (numbers.Real, "a float")}
# each range a key may declare: its text in an error, and its test
_RULES = {">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1, "> 0": lambda v: v > 0,
          "in [0, 1)": lambda v: 0 <= v < 1, "in (0, 1)": lambda v: 0 < v < 1,
          "finite": lambda v: True, ">= 2 (>= total_classes builds a star)": lambda v: v >= 2}


def key(default, rule: str, kind=None):
    """A config key's field: its default, its kind (``default``'s type, or ``kind``
    for a default None) and its ``_RULES`` range."""
    return field(default=default, metadata={"rule": rule, "kind": kind or type(default)})


def check_keys(obj, section) -> None:
    """Check each field of the dataclass ``obj``: a section of its own (a
    field with a default factory) must be of that class, and a bool, int or
    float key of its kind (a bool is no number, a float no int), stored as
    the kind itself, so an int given to a float key writes a float's text;
    a ``key`` must be finite and meet its rule. The first bad field in
    declaration order is refused, a ValueError ``<section>.<name> must be
    <rule or kind>, got <value>``; ``section`` is the section name or a
    function from a field name to it."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.default_factory is not MISSING:
            if not isinstance(value, f.default_factory):
                raise ValueError(f"{f.name} must be a {f.default_factory.__name__}, "
                                 f"got {value!r}")
            continue
        if value is None and f.default is None:  # loss.w, derived where it is read
            continue
        kind = f.metadata.get("kind", type(f.default))
        where = section(f.name) if callable(section) else section
        types, noun = _KINDS[kind]
        try:
            if not isinstance(value, types) or (kind is not bool and isinstance(value, bool)):
                raise TypeError
            value = kind(value)
        except (TypeError, OverflowError):  # overflow: an int past the float64 range
            raise ValueError(f"{where}.{f.name} must be {noun}, got {value!r}") from None
        object.__setattr__(obj, f.name, value)
        rule = f.metadata.get("rule")
        # an int is finite however large; math.isfinite overflows on a huge one
        if rule and not ((kind is int or math.isfinite(value)) and _RULES[rule](value)):
            raise ValueError(f"{where}.{f.name} must be {rule}, got {value}")


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


# tokens converted per chunk of read_rows: as str objects they take about
# nine times the memory of their floats, so a larger chunk raises the
# peak memory of a run that reads its tables first
_CHUNK_TOKENS = 1024


def read_rows(fh, path, count: int, kinds) -> np.ndarray:
    """The ``count`` rows that follow a text table's header line as a
    (count, len(kinds)) float64 array; each row has exactly one token per
    kind. Rows are split as they are read, and each chunk of about
    _CHUNK_TOKENS tokens is converted a column at a time, in one call per
    column: a ``float`` column by numpy, which calls ``float`` on each
    token, any other through its kind into an ``array('d')``. Only when
    that fails are the chunk's rows walked again with ``parse_tokens``, so
    the first bad row is named as a row-by-row read names it. Raises
    ValueError on a row of any other width or the end of the file before
    the ``count``-th row, whatever the width (after a bad token above it), a
    token that does not convert, or anything but blank lines after the last
    row. A row of a table with no columns is a blank line."""
    width = len(kinds)
    # grown chunk by chunk: a header may declare more rows than the file holds
    chunks, tokens, first = [], [], 0
    for i in range(count):
        line = fh.readline()
        parts = line.split()
        if len(parts) != width or not line:
            _convert(tokens, first, i, path, kinds)  # a bad token above is named first
            raise ValueError(f"{path}: line {i + 2} " + (
                f"has {len(parts)} fields, expected {width}" if line
                else f"is missing: the header declares {count} rows"))
        tokens += parts
        if len(tokens) >= _CHUNK_TOKENS:
            chunks.append(_convert(tokens, first, i + 1, path, kinds))
            tokens, first = [], i + 1
    chunks.append(_convert(tokens, first, count, path, kinds))
    for line in fh:
        if line.strip():
            raise ValueError(f"{path}: data after the {count} declared rows")
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


def _convert(tokens, first: int, stop: int, path, kinds) -> np.ndarray:
    """Rows ``first`` to ``stop - 1`` of a table, their ``tokens`` laid out
    row after row, as a float64 array, converted as :func:`read_rows` says."""
    width, rows = len(kinds), stop - first
    values = np.empty((rows, width))
    try:
        for c, kind in enumerate(kinds):
            column = tokens[c::width]
            values[:, c] = (np.array(column, dtype=np.float64) if kind is float
                            else array("d", map(kind, column)))
    except (ValueError, OverflowError):
        for i in range(rows):
            row = tokens[i * width:(i + 1) * width]
            array("d", parse_tokens(path, first + i + 2, kinds, row))
        raise
    return values


def write_json(path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON plus a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
