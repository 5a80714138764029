"""The JSON codec: array-at-a-time emission and decoding against the
entry-by-entry codec it replaced, byte for byte and bit for bit."""

import json
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qrobust._json import dumps, format_float, format_matrix, matrix_from_lists
from qrobust.errors import ModelError
from qrobust.model import model_from_json
from qrobust.uncertainty import uncertainty_from_json

# ---------------------------------------------------------------- reference
# The codec as it was before matrices went through it one array at a time:
# every matrix became nested lists of [re, im] pairs, emitted one by one.


def reference_format_float(x):
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    out = format(x, ".17g")
    if "." not in out and "e" not in out and "E" not in out \
            and "n" not in out and "N" not in out:
        out += ".0"
    return out


def complex_to_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_lists(x):
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError("expected a 2-D array")
    return [[complex_to_pair(v) for v in row] for row in x]


def reference_emit(obj, indent, level, pieces):
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(reference_format_float(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        reference_emit(complex_to_pair(obj), indent, level, pieces)
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        reference_emit(obj.tolist(), indent, level, pieces)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for k, item in enumerate(obj):
            pieces.append(inner)
            reference_emit(item, indent, level + 1, pieces)
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
            reference_emit(value, indent, level + 1, pieces)
            pieces.append(",\n" if k + 1 < len(items) else "\n")
        pieces.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dumps(obj, indent=2):
    pieces = []
    reference_emit(obj, indent, 0, pieces)
    return "".join(pieces)


def reference_text_rows(x):
    return "\n".join("  " + ", ".join(f"[{reference_format_float(re)}, "
                                      f"{reference_format_float(im)}]"
                                      for re, im in row)
                     for row in matrix_to_lists(x))


# ---------------------------------------------------------------- strategies

# values where the ".0" rule and the 17-digit text have edges
SPECIAL = [0.0, -0.0, 1.0, -3.0, 2.0 ** 53, 2.0 ** 53 + 2, 1e15 + 0.5, 1e16, -1e16,
           9.999999999999998e16, 1e17, -1e17, 1.5e17, 1e22, 0.1, 1e-5, 1e-4, 123456789.0,
           5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
           math.nan, math.inf, -math.inf]

parts = st.one_of(st.sampled_from(SPECIAL),
                  st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                  st.integers(-10 ** 6, 10 ** 6).map(float))


@st.composite
def complex_matrices(draw):
    shape = draw(st.tuples(st.integers(1, 32), st.integers(1, 32)))
    # fill keeps the large shapes cheap to draw; the special values still
    # land anywhere through the drawn entries
    re = draw(hnp.arrays(float, shape, elements=parts, fill=parts))
    im = draw(hnp.arrays(float, shape, elements=parts, fill=parts))
    x = np.empty(shape, dtype=complex)
    x.real, x.imag = re, im  # re + 1j * im would not keep -0.0 and infinities
    return x


def nest(x, depth):
    """x inside depth alternating dict and list levels, beside other values."""
    obj = x
    for level in range(depth):
        obj = {"before": level, "x": obj, "after": [1.5, None]} if level % 2 == 0 \
            else [True, "s", obj, 2.0 + 1j]
    return obj


# shrinking a failing 32 x 32 draw takes minutes: a failure reports the
# matrix as drawn
ARRAY_SETTINGS = settings(max_examples=60, deadline=None, database=None,
                          phases=(Phase.explicit, Phase.generate))

# ---------------------------------------------------------------- emission

@ARRAY_SETTINGS
@given(x=complex_matrices(), depth=st.integers(0, 3))
def test_dumps_matches_the_pairwise_emitter(x, depth):
    assert dumps(nest(x, depth)) == reference_dumps(nest(matrix_to_lists(x), depth))
    assert dumps(nest(x, depth), indent=4) == reference_dumps(nest(x, depth), indent=4)
    assert format_matrix(x, "[%s, %s]", ", ", "  ", "", "\n") == reference_text_rows(x)


@ARRAY_SETTINGS
@given(x=complex_matrices())
def test_decoding_an_emitted_matrix_reproduces_its_bits(x):
    back = matrix_from_lists(json.loads(dumps(x)), "X")
    assert back.shape == x.shape and back.dtype == complex
    got, want = back.view(float), x.view(float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@settings(max_examples=500, deadline=None, database=None)
@given(x=parts)
def test_format_float_matches_the_reference(x):
    assert format_float(x) == reference_format_float(x)


def test_dumps_special_floats_exactly():
    x = np.array([[complex(-0.0, 1e16), complex(1e17, -0.0)],
                  [complex(math.nan, 3.0), complex(-math.inf, 5e-324)]])
    text = dumps({"x": x})
    assert text == reference_dumps({"x": matrix_to_lists(x)})
    for token in ("-0.0,", "10000000000000000.0", "1e+17", "NaN", "-Infinity",
                  "4.9406564584124654e-324"):
        assert token in text


@pytest.mark.parametrize("x", [np.zeros((0, 3), dtype=complex), np.zeros((2, 0), dtype=complex),
                               np.ones((2, 2)), np.array([1 + 2j, 3.0])],
                         ids=["no-rows", "empty-rows", "real", "one-dimensional"])
def test_dumps_other_arrays_as_before(x):
    assert dumps({"x": x}) == reference_dumps({"x": x})


# ---------------------------------------------------------------- decoding

BASE = [[[1.0, 0.0], [2, -1]], [[3.5, 4], [0, 0.25]]]


def with_entry(i, j, entry):
    rows = json.loads(json.dumps(BASE))
    rows[i][j] = entry
    return rows


@pytest.mark.parametrize("rows, message", [
    (with_entry(0, 1, [True, 0.0]), "M: entry (0, 1) is not a [re, im] pair"),
    (with_entry(1, 0, [0.0, False]), "M: entry (1, 0) is not a [re, im] pair"),
    (with_entry(1, 1, ["1", 0.0]), "M: entry (1, 1) is not a [re, im] pair"),
    (with_entry(0, 0, [[1.0], 0.0]), "M: entry (0, 0) is not a [re, im] pair"),
    (with_entry(1, 0, [1.0]), "M: entry (1, 0) is not a [re, im] pair"),
    (with_entry(0, 1, [1.0, 2.0, 3.0]), "M: entry (0, 1) is not a [re, im] pair"),
    (with_entry(0, 0, 1.0), "M: entry (0, 0) is not a [re, im] pair"),
    (with_entry(0, 0, None), "M: entry (0, 0) is not a [re, im] pair"),
    (with_entry(1, 0, [1.0, -(10 ** 400)]), "M: entry (1, 0) is beyond the floating-point range"),
    ([BASE[0], BASE[1][:1]], "M: row 1 has 1 entries, expected 2"),
    ([BASE[0], BASE[1] + [[1.0, 1.0]]], "M: row 1 has 3 entries, expected 2"),
    # rows are checked in order, each for its length before its entries
    ([[[1.0, 0.0], [True, 0.0]], [[1.0, 0.0]]], "M: entry (0, 1) is not a [re, im] pair"),
    ([BASE[0], [[1.0, 0.0]], [["x", 0.0], [1.0, 0.0]]], "M: row 1 has 1 entries, expected 2"),
    ([], "M: expected a non-empty nested array of [re, im] pairs"),
    ([[]], "M: rows must be non-empty"),
    ([[[1.0, 0.0]], "row"], "M: expected a non-empty nested array of [re, im] pairs"),
    ({"re": 1.0}, "M: expected a non-empty nested array of [re, im] pairs"),
], ids=["bool", "bool-imaginary", "string", "nested-list", "one-element", "three-element",
        "bare-number", "null", "beyond-float", "ragged-short", "ragged-long", "entry-before-ragged",
        "ragged-before-entry", "empty", "empty-row", "row-not-a-list", "object"])
def test_decoder_messages(rows, message):
    with pytest.raises(ModelError) as info:
        matrix_from_lists(rows, "M")
    assert str(info.value) == message


def test_decoder_values():
    x = matrix_from_lists(BASE, "M")
    assert x.dtype == complex and x.flags["C_CONTIGUOUS"]
    assert np.array_equal(x, [[1.0, 2 - 1j], [3.5 + 4j, 0.25j]])
    big = matrix_from_lists([[[2 ** 53 + 1, -(10 ** 20)]]], "M")[0, 0]
    assert big == complex(2 ** 53 + 1, -(10 ** 20))


def test_model_file_messages_name_the_field():
    doc = {"n_a": 1, "n_b": 1, "M": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
           "N_a": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
           "N_b": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
           "E_tilde": [[[1.0, 0.0], [0.0, 0.0]]]}
    with pytest.raises(ModelError, match=r"^N_a: row 1 has 1 entries, expected 2$"):
        model_from_json(json.dumps(doc))


@pytest.mark.parametrize("parse, what, fields", [
    (model_from_json, "model file", "E_tilde, M, N_a, N_b, n_a, n_b"),
    (uncertainty_from_json, "uncertainty file", "A_u, B_u, C_u, NoiseCov"),
], ids=["model", "uncertainty"])
@pytest.mark.parametrize("text, message", [
    ('{"n": 1,', "{what} is not valid JSON: line 1 column 9: "
                 "Expecting property name enclosed in double quotes"),
    ("[1, 2]", "{what} must contain a JSON object"),
    ('{"zeta": 1, "alpha": 2}', "unknown field(s) in {what}: alpha, zeta"),
    ("{}", "missing field(s) in {what}: {fields}"),
], ids=["not-json", "not-object", "unknown", "missing"])
def test_file_reader_messages(parse, what, fields, text, message):
    with pytest.raises(ModelError) as info:
        parse(text)
    assert str(info.value) == message.format(what=what, fields=fields)
