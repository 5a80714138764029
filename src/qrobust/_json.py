"""Deterministic JSON emission and strict complex-matrix decoding.

Reports must be byte-identical across runs, so floats are rendered with
17 significant digits (enough to round-trip an IEEE double) instead of
whatever ``repr`` happens to produce, and infinities keep the ``Infinity``
token that ``json.loads`` already understands.  Complex scalars are
encoded as two-element ``[re, im]`` arrays; matrices as row-major nested
arrays of those pairs.

A 2-D complex ndarray is emitted through one layout template and one
``%`` format over all its floats; decoding type-checks the entries in
one pass and reads them with one ``np.fromiter`` call.
"""

import json
import math
from itertools import chain

import numpy as np

from .errors import ModelError

__all__ = [
    "dumps",
    "format_float",
    "format_matrix",
    "matrix_from_lists",
]


def format_float(x):
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    out = format(x, ".17g")
    # keep integral floats recognizable as numbers, not ints
    return out if "." in out or "e" in out else out + ".0"


def format_matrix(x, cell, col_sep, row_open, row_close, row_sep):
    """Text of a 2-D complex array, each part as format_float writes it:
    cell has a %s slot for the real and one for the imaginary part."""
    x = np.ascontiguousarray(x, dtype=complex)
    vals = x.view(float).ravel()
    if np.isfinite(vals).all():
        # %.17g is format_float's text less the ".0" it appends where that
        # has no "." or "e": on integral values below 1e17, -0.0 included
        slot, args = "%.17g%s", [None] * (2 * vals.size)
        args[::2] = vals.tolist()
        args[1::2] = np.where((np.trunc(vals) == vals) & (np.abs(vals) < 1e17), ".0", "").tolist()
    else:
        slot, args = "%s", [format_float(v) for v in vals.tolist()]
    row = row_open + col_sep.join([cell % (slot, slot)] * x.shape[1]) + row_close
    return row_sep.join([row] * x.shape[0]) % tuple(args)


def matrix_from_lists(rows, name):
    """Strictly decode nested [re, im] pairs into a complex matrix.

    Every entry must be a two-element list of numbers; anything else is
    rejected with the entry position in the message.
    """
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ModelError(f"{name}: expected a non-empty nested array of [re, im] pairs")
    ncols = len(rows[0])
    if ncols == 0:
        raise ModelError(f"{name}: rows must be non-empty")
    ragged = next((i for i, row in enumerate(rows) if len(row) != ncols), len(rows))
    ok = [isinstance(e, (list, tuple)) and len(e) == 2
          and isinstance(e[0], (int, float)) and not isinstance(e[0], bool)
          and isinstance(e[1], (int, float)) and not isinstance(e[1], bool)
          for row in rows[:ragged] for e in row]
    if not all(ok):
        # rows are checked in order, each for its length, then its entries
        i, j = divmod(ok.index(False), ncols)
        raise ModelError(f"{name}: entry ({i}, {j}) is not a [re, im] pair")
    if ragged < len(rows):
        raise ModelError(f"{name}: row {ragged} has {len(rows[ragged])} entries, "
                         f"expected {ncols}")
    parts = chain.from_iterable(chain.from_iterable(rows))
    return np.fromiter(parts, float, 2 * len(rows) * ncols).view(complex).reshape(len(rows), ncols)


def _emit(obj, indent, level, pieces):
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(format_float(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        _emit([obj.real, obj.imag], indent, level, pieces)
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.size and obj.dtype.kind == "c":
        pair, part = (" " * (indent * (level + k)) for k in (2, 3))
        cell = f"{pair}[\n{part}%s,\n{part}%s\n{pair}]"
        pieces.append("[\n" + format_matrix(obj, cell, ",\n", inner + "[\n", "\n" + inner + "]",
                                            ",\n") + "\n" + pad + "]")
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), indent, level, pieces)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for k, item in enumerate(obj):
            pieces.append(inner)
            _emit(item, indent, level + 1, pieces)
            pieces.append(",\n" if k + 1 < len(obj) else "\n")
        pieces.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        items = list(obj.items())
        for k, (key, value) in enumerate(items):
            pieces.append(inner + json.dumps(str(key)) + ": ")
            _emit(value, indent, level + 1, pieces)
            pieces.append(",\n" if k + 1 < len(items) else "\n")
        pieces.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, indent=2):
    pieces = []
    _emit(obj, indent, 0, pieces)
    return "".join(pieces)
