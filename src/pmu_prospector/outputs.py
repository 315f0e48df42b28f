"""Writers for the files one pipeline stage hands to another, the counterpart
of inputs.  A JSON file is UTF-8 with sorted keys, a 2-space indent and one
trailing newline, so a rewrite of the same document is byte-identical.  A
CSV file is UTF-8, a header row then the rows, with CRLF line ends (RFC
4180).  No other module writes JSON or CSV, apart from the scan's NDJSON
record stream, which collector renders in blocks because it is the hot path.

Every output file, the record stream included, goes through completed_stream,
the writers' whole text at once: to path + ".partial", renamed onto path, so
path never holds part of a file.  A regular file at path (or one a symlink
there names) is overwritten in place, not truncated, which keeps its blocks; a
FIFO or a device is written directly.  The directory of path must be writable.

The JSON text is exactly json.dumps(doc, indent=2, sort_keys=True) plus a
newline, but json.dumps does not make it: given an indent, it runs json's
pure-Python encoder, one generator step per token.  _render_json quotes
each string with json's C encode_basestring_ascii, renders a list of plain
ints with one str.join, and writes every other scalar as json would."""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from collections.abc import Iterable, Iterator, Sequence
from json.encoder import encode_basestring_ascii
from typing import BinaryIO


def _scalar_text(value: object) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render_json(value: object, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for a value whose object
    keys are strings; indent is the line break and leading spaces of the
    line value starts on."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(item) is int for item in value):
            items = map(repr, value)
        else:
            items = (_render_json(item, inner) for item in value)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(key) + ": " + _render_json(item, inner)
            for key, item in sorted(value.items())
        ) + indent + "}"
    return _scalar_text(value)


def write_json(path: str, doc: object) -> None:
    data = (_render_json(doc) + "\n").encode()
    with completed_stream(path) as fh:
        fh.write(data)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    data = text.getvalue().encode()
    with completed_stream(path) as fh:
        fh.write(data)


@contextlib.contextmanager
def completed_stream(path: str) -> Iterator[BinaryIO]:
    """Open path + ".partial" for the with block, and rename it onto path when
    the block ends without an exception (the module docstring has the rest)."""
    if os.path.lexists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            yield fh
        return
    if os.path.islink(path):  # never rename a symlink, such as /dev/stdout
        path = os.path.realpath(path)
    partial = path + ".partial"
    if os.path.exists(path):
        os.replace(path, partial)
    with open(os.open(partial, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        yield fh
        fh.truncate()
    os.replace(partial, path)
