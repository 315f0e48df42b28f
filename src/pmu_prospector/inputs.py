"""Typed readers for the files one pipeline stage reads from another.  Each
reader checks a Field's type and bounds, and a malformed value raises
ReportParseError naming the file and the field's path, such as
`sim model m.json: families[2].seed`.  No other module parses JSON."""

from __future__ import annotations

import json
import math
import re
import sys
from collections.abc import Collection, Mapping

from .errors import ProspectorError, ReportParseError
from .events import EventSelector, parse_selector

_INTEGER_TEXT = re.compile(r"\s*[+-]?(0[xX][0-9a-fA-F]+|[0-9]+)\s*").fullmatch


def read_json(path: str, what: str, unreadable: type[ProspectorError] = ReportParseError) -> Field:
    """The JSON file at path, named `what path`; one that cannot be opened raises `unreadable`."""
    source = f"{what} {path}"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return Field(json.load(fh), source)
    except OSError as exc:
        raise unreadable(f"cannot read {source}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, not JSON, or a number too long to convert
        at = f" at byte offset {exc.pos}" if isinstance(exc, json.JSONDecodeError) else ""
        raise ReportParseError(f"{source}: invalid JSON{at}: {exc}") from exc


class Field:
    """A value of an input file (source) at a path such as families[2].seed."""

    __slots__ = ("value", "source", "path")

    def __init__(self, value: object, source: str, path: str = ""):
        self.value, self.source, self.path = value, source, path

    def _need(self, ok: bool, expected: str, got: object = None):
        got = self.value if got is None else got  # the value as parsed, else as written
        if not ok:
            where = self.path or "top level"
            raise ReportParseError(f"{self.source}: {where} must be {expected}, got {got!r}")
        return got

    def _in(self, value, low, high):
        if low <= value <= high:
            return value
        two = isinstance(value, int) and high == low + 1  # "0 or 1", not "in [0, 1]"
        return self._need(False, f"{low} or {high}" if two else f"in [{low}, {high}]", value)

    def integer(self, low: float = -math.inf, high: float = math.inf, text: bool = False) -> int:
        """An int in [low, high]; with text, also a decimal or "0x.." string."""
        value = self.value
        if text and type(value) is str and _INTEGER_TEXT(value):
            value = int(value, 16 if "x" in value or "X" in value else 10)
        if type(value) is not int:  # a bool is not one
            raise ReportParseError(f"{self.source}: non-integer {self.path}: {self.value!r}")
        return self._in(value, low, high)

    def number(self, low: float = -math.inf, high: float = math.inf) -> float:
        """A finite int or float in [low, high], as a float."""
        value = self.value  # the abs bound below is false for NaN, infinities and huge ints
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
        return self._in(float(self._need(ok, "a finite number")), low, high)

    def boolean(self) -> bool:
        return self._need(type(self.value) is bool, "true or false")

    def string(self) -> str:
        return self._need(type(self.value) is str, "a string")

    def list_of(self, kind: type, allowed: Collection | None = None) -> list:
        """A list of `kind` items (str or int), each one of `allowed` when that is given."""
        if type(self.value) is list and all(
                type(item) is kind and (allowed is None or item in allowed) for item in self.value):
            return self.value
        noun = {str: "strings", int: "integers"}[kind]
        return self._need(False, f"a list drawn from {', '.join(allowed)}" if allowed
                          else f"a list of {noun}")

    def selector(self) -> EventSelector:
        try:
            return parse_selector(self.string())
        except ValueError:
            return self._need(False, 'a selector "0xUUEE"')

    def items(self) -> list[Field]:
        self._need(type(self.value) is list, "a list")
        return [Field(item, self.source, f"{self.path}[{i}]") for i, item in enumerate(self.value)]

    def entries(self) -> list[tuple[Field, Field]]:
        """(key, value) of each member of an object whose keys are data."""
        self._need(type(self.value) is dict, "an object")
        return [(Field(key, self.source, f"{self.path} key {key!r}"),
                 Field(item, self.source, f"{self.path}[{key!r}]"))
                for key, item in self.value.items()]

    def object(self, required: Collection[str] = (), optional: Mapping[str, object] = {}
               ) -> dict[str, Field]:
        """An object's fields: every required key, each optional one or its default, no other."""
        value = self._need(type(self.value) is dict, "an object")
        prefix = f"{self.path}." if self.path else ""
        for key in value:
            if key not in required and key not in optional:
                raise ReportParseError(f"{self.source}: invalid field {prefix}{key}: unknown")
        for key in required:
            if key not in value:
                raise ReportParseError(f"{self.source}: invalid field {prefix}{key}: missing")
        return {key: Field(value.get(key, optional.get(key)), self.source, prefix + key)
                for key in (*required, *optional)}
