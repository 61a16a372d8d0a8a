"""The JSON text of json.dumps(obj, indent=2), written piece by piece.

`write_json` prints every --format json result.  It lives apart from the
CLI so that `intdep` can write a relation's head with it and stream the
terms itself.
"""

from __future__ import annotations

import sys
from json.encoder import encode_basestring_ascii as _json_str

# write_json streams this many levels of containers item by item and joins
# each deeper subtree into one string.  At 4 the largest piece of any output
# on the shipped specs is 95 KB of e61's 194 KB `factor --prec 63` report (at
# 3, 117 KB); streaming deeper only adds write calls.
STREAM_DEPTH = 4


def _json_key(k) -> str:
    if isinstance(k, str):
        return _json_str(k)
    if k is None or isinstance(k, (int, float)):   # bool is an int
        return _json_str(json_text(k, ""))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _json_list(o, nl: str) -> str:
    if not o:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join([json_text(v, inner) for v in o]) + nl + "]"


def _json_dict(o, nl: str) -> str:
    if not o:
        return "{}"
    inner = nl + "  "
    return "{" + inner + ("," + inner).join(
        [(_json_str(k) if type(k) is str else _json_key(k)) + ": " + json_text(v, inner)
         for k, v in o.items()]) + nl + "}"


def json_text(o, nl: str) -> str:
    """o as json.dumps(o, indent=2) writes it where nl is the newline and
    indent of its own line."""
    t = type(o)
    if t is str:
        return _json_str(o)
    if t is int:
        return int.__repr__(o)
    if t is list or t is tuple:
        return _json_list(o, nl)
    if t is dict:
        return _json_dict(o, nl)
    # subclasses and the other leaves, in json's order: bool before int
    if isinstance(o, str):
        return _json_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o in (float("inf"), -float("inf")):
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    if isinstance(o, (list, tuple)):
        return _json_list(o, nl)
    if isinstance(o, dict):
        return _json_dict(o, nl)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _json_stream(o, nl: str, depth: int, write) -> None:
    is_list = isinstance(o, (list, tuple))
    if not (is_list or isinstance(o, dict)) or not o:
        write(json_text(o, nl))
        return
    inner = nl + "  "
    write("[" if is_list else "{")
    sep = inner
    for item in o if is_list else o.items():
        head, value = (sep, item) if is_list else (sep + _json_key(item[0]) + ": ", item[1])
        if isinstance(value, (list, tuple, dict)) and depth > 1:
            write(head)
            _json_stream(value, inner, depth - 1, write)
        else:
            write(head + json_text(value, inner))
        sep = "," + inner
    write(nl + ("]" if is_list else "}"))


def write_json(obj, write=None) -> None:
    """Write json.dumps(obj, indent=2) + "\n", byte for byte, to write
    (sys.stdout.write, looked up at call time, by default) piece by piece,
    so that the whole text is never held at once."""
    if write is None:
        write = sys.stdout.write
    _json_stream(obj, "\n", STREAM_DEPTH, write)
    write("\n")
