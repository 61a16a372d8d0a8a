import contextlib
import json
import math
import sys
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmanin import cli
from gaussmanin.intdep import dependence_relation


def written(obj) -> list[str]:
    chunks = []
    cli.write_json(obj, chunks.append)
    return chunks


@contextlib.contextmanager
def no_int_digit_limit():
    # cli.main lifts Python's 4,300-digit int-to-str limit the same way
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


SPECIAL_FLOATS = (1e-17, -0.0, 0.0, 1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan)
STRINGS = st.text() | st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "λ·x²", "\ud800", "é\n\t\"q\""])
BIG_INTS = st.builds(lambda k, s, t: s * (10 ** k + t), st.integers(4300, 6000),
                     st.sampled_from([1, -1]), st.integers(0, 10 ** 6))
LEAVES = (st.none() | st.booleans() | st.integers() | BIG_INTS | STRINGS
          | st.floats() | st.sampled_from(SPECIAL_FLOATS)
          | st.floats().map(np.float64) | st.sampled_from(SPECIAL_FLOATS).map(np.float64))
KEYS = (STRINGS | st.integers() | st.floats() | st.sampled_from(SPECIAL_FLOATS)
        | st.booleans() | st.none())
TREES = st.recursive(
    LEAVES,
    lambda kids: (st.lists(kids, max_size=5) | st.lists(kids, max_size=5).map(tuple)
                  | st.dictionaries(KEYS, kids, max_size=5)
                  | st.dictionaries(KEYS, kids, max_size=5).map(OrderedDict)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(TREES)
def test_writer_matches_json_dumps(obj):
    with no_int_digit_limit():
        assert "".join(written(obj)) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("obj", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[[[[[]]]]]], [[[[[[{}]]]]]],
    [[[[[[1, [2, {"x": ()}]]]]]]], {"k": [{"l": [{"m": [{"n": [0]}]}]}]},
    0, -1, "s", None, True, False, math.nan, np.float64(-0.0), {True: 1, None: 2, 1.5: 3},
])
def test_writer_matches_json_dumps_on_edge_trees(obj):
    assert "".join(written(obj)) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("obj", [
    Fraction(1, 2), [Fraction(1, 2)], {"a": Fraction(1, 2)}, [[[[[[{"a": Fraction(1, 2)}]]]]]],
    {(1, 2): 0}, [[[[[{(1, 2): 0}]]]]], {1j: 0}, {Fraction(1, 2): 0}, [b"bytes"], {1, 2},
])
def test_writer_refuses_what_json_dumps_refuses(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        written(obj)
    assert str(got.value) == str(expected.value)


def test_writer_streams_e3_relation_in_small_pieces(e3):
    obj = dependence_relation(e3).to_json()
    chunks = written(obj)
    text = "".join(chunks)
    assert text == json.dumps(obj, indent=2) + "\n"
    assert len(chunks) > 1
    assert max(map(len, chunks)) <= len(text) / 10


def test_writer_defaults_to_the_current_stdout(capsys):
    cli.write_json({"a": [1, 2]})
    assert capsys.readouterr().out == json.dumps({"a": [1, 2]}, indent=2) + "\n"
