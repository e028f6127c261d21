"""Numerics and text I/O: checked dense matrices, stable softmax, seeded
RNG, momentum SGD, the writer and the reader of the headed text tables,
matrix text serialization and the JSON file form.

Every headed text table is written by :func:`write_rows` and read by
:func:`read_rows`. Each writer refuses, before it opens its file, what its
reader would: non-finite entries (``save_matrix``, ``save_dataset``), a
label out of range (``save_dataset``), a repeated index (``save_pairs``),
and a value strict JSON cannot hold, NaN included (:func:`write_json`).

Everything runs on 64-bit numpy arrays. The conventions fixed here
(softmax with max-subtraction, 17-significant-digit text round-trips) are
relied on by the rest of the package for bit-reproducibility. The GCN's
leaky ReLU lives with its one user, :mod:`opendomain.gcn`.
"""
from __future__ import annotations

import json
from array import array
from contextlib import contextmanager

import numpy as np

__all__ = [
    "DimensionError",
    "as_matrix",
    "softmax_rows",
    "make_rng",
    "MomentumSgd",
    "save_matrix",
    "load_matrix",
    "write_rows",
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


def save_matrix(path, m) -> None:
    """Write the text form: a `rows cols` header then one row per line."""
    m = as_matrix(m)
    write_rows(path, f"{m.shape[0]} {m.shape[1]}", "", m.shape[1], m.tolist())


def write_rows(path, header: str, lead: str, floats: int, rows) -> None:
    """The write half of :func:`read_rows`: the ``header`` line, then a line per row, its
    leading values by the %-format ``lead``, then its last ``floats`` as lossless %.17g."""
    fmt = lead + " ".join(["%.17g"] * floats) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(fmt % tuple(row) for row in rows)


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
    the float64 rows of ``read_rows`` hold every integer exactly. ``token`` is
    its text or, in a writer, an integer; a bool or a float is none."""
    if isinstance(token, bool) or not isinstance(token, str) and not hasattr(token, "__index__"):
        raise ValueError(f"{token!r} is not an integer")
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
    """Write ``payload`` as indented, key-sorted JSON plus a newline. A value
    JSON cannot hold, a NaN or infinity included, raises ValueError naming the
    file before it opens."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
