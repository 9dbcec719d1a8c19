"""Deterministic JSON serialisation for snapshot files.

All artefacts this package writes (map snapshots, model snapshots, reports)
go through :func:`canonical_dumps` so that identical in-memory state always
produces byte-identical files.  Rules:

* dict keys are emitted in sorted order, list order is preserved,
* floats are written with 17 significant digits, which round-trips any IEEE
  double exactly through :func:`load_file` (and through ``json.loads``),
* a float that would print as a bare integer gets a trailing ``.0`` so the
  reader gets a float back, not an int,
* non-finite floats are rejected; callers encode them explicitly (the model
  snapshot stores an infinite relative distance as the string ``"inf"``).

:func:`load_file` parses with orjson, several times faster than ``json``
on the float-heavy snapshots.  It reads the same values from this writer's
output, and is stricter than ``json.loads`` elsewhere; see its docstring.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np
import orjson

__all__ = ["canonical_dumps", "dump_file", "load_file", "encode_float"]

INF_TOKEN = "inf"

# orjson builds the parsed document by recursion on the C stack and sets no
# depth limit of its own (3.8.3): about 60 000 nested objects or 130 000
# nested arrays overflow an 8 MB stack and kill the process.  The reader
# refuses anything nested deeper than this, at most about 1.5 MB of stack;
# a snapshot nests four levels deep.
MAX_DEPTH = 10_000


def encode_float(x: float) -> float | str:
    """Map a possibly-infinite distance value to its JSON form."""
    if math.isinf(x):
        return INF_TOKEN
    return float(x)


def _float_repr(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float reached the JSON writer; encode it first")
    s = format(x, ".17g")
    if "." not in s and "e" not in s:
        s += ".0"
    return s


def _write(obj: Any, out: list[str]) -> None:
    # Nearly every value has one of these exact types.  Anything else, a
    # subclass among them (bool, numpy's float64, a str subclass), takes
    # the general chain, which raises every error the writer raises.
    # ``encode_basestring_ascii`` is the encoder that
    # ``json.dumps(s, ensure_ascii=True)`` ends up calling.
    t = type(obj)
    if t is float:
        out.append(_float_repr(obj))
    elif t is str:
        out.append(encode_basestring_ascii(obj))
    elif t is list:
        _write_array(obj, out)
    elif t is dict:
        _write_object(obj, out)
    elif t is int:
        out.append(str(obj))
    else:
        _write_general(obj, out)


def _write_general(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_float_repr(obj))
    elif isinstance(obj, (list, tuple)):
        _write_array(obj, out)
    elif isinstance(obj, dict):
        _write_object(obj, out)
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__} canonically")


def _write_array(items, out: list[str]) -> None:
    out.append("[")
    for i, item in enumerate(items):
        if i:
            out.append(",")
        _write(item, out)
    out.append("]")


def _write_object(obj: dict, out: list[str]) -> None:
    out.append("{")
    for i, key in enumerate(sorted(obj)):
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
        if i:
            out.append(",")
        out.append(encode_basestring_ascii(key))
        out.append(":")
        _write(obj[key], out)
    out.append("}")


def canonical_dumps(obj: Any) -> str:
    parts: list[str] = []
    _write(obj, parts)
    return "".join(parts)


def dump_file(path, obj: Any) -> None:
    """Write ``obj`` canonically to ``path``; a value the writer refuses
    raises before the file is opened, so it leaves no partial file."""
    text = canonical_dumps(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_file(path) -> Any:
    """The JSON document in ``path``, parsed by orjson.

    Bytes that are not UTF-8 raise ``UnicodeDecodeError``.  Text that is
    not strict JSON raises orjson's ``JSONDecodeError``, a subclass of
    ``json.JSONDecodeError``, and so does
    what ``json.loads`` would accept: ``NaN``, ``Infinity`` and
    ``-Infinity``, a number that overflows a double (``1e400``), a lone
    surrogate escape (``"\\ud800"``), and arrays and objects nested deeper
    than ``MAX_DEPTH``.  An integer literal outside the range of int64 and
    uint64 reads as the nearest float, not as an int.  The file's bytes are
    freed before the parse, so the text and the document are the most it
    holds at once."""
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("utf-8")  # orjson's own message for bad bytes names no byte
    pos = _too_deep_at(data)
    if pos is not None:
        doc = data[:pos].decode("utf-8")
        raise json.JSONDecodeError(f"arrays and objects nested deeper than {MAX_DEPTH} levels",
                                   doc, len(doc))
    del data
    return orjson.loads(text)


# Bytes that ``_too_deep_at`` classifies at a time.
_SCAN_BYTES = 1 << 16


def _too_deep_at(data: bytes) -> int | None:
    """The offset of the first bracket of ``data`` that opens level
    ``MAX_DEPTH + 1``, or None if there is none.  Exact on valid JSON, where
    a backslash only occurs in a string; on other text orjson raises
    anyway, before it builds anything.  The quote, backslash and bracket
    positions are collected ``_SCAN_BYTES`` at a time, so that no
    temporary is the size of the text."""
    b = np.frombuffer(data, np.uint8)
    offsets = range(0, len(b), _SCAN_BYTES)
    # Depth is at most the number of opening brackets, strings included;
    # "[" reads as "{" once 0x20 is set.
    if sum(np.count_nonzero((b[s:s + _SCAN_BYTES] | 0x20) == 0x7B) for s in offsets) <= MAX_DEPTH:
        return None
    found = ([], [], [])  # quotes, backslashes, brackets
    for s in offsets:
        chunk = b[s:s + _SCAN_BYTES]
        c = chunk | 0x20
        for out, hit in zip(found, (chunk == 0x22, chunk == 0x5C, (c == 0x7B) | (c == 0x7D))):
            at = np.flatnonzero(hit)
            at += s
            out.append(at)
    quotes, backslashes, brackets = map(np.concatenate, found)
    if backslashes.size:
        # A quote after an odd run of backslashes is escaped.
        cut = np.flatnonzero(np.diff(backslashes) != 1)
        starts = backslashes[np.r_[0, cut + 1]]
        ends = backslashes[np.r_[cut, backslashes.size - 1]]
        quotes = np.setdiff1d(quotes, ends[(ends - starts) % 2 == 0] + 1, assume_unique=True)
    brackets = brackets[np.searchsorted(quotes, brackets) % 2 == 0]  # outside strings
    depth = np.cumsum(np.where((b[brackets] | 0x20) == 0x7B, 1, -1))
    deep = np.flatnonzero(depth > MAX_DEPTH)
    return int(brackets[deep[0]]) if deep.size else None
