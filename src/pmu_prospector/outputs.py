"""Writers for the files one pipeline stage hands to another, the counterpart
of inputs.  A JSON file is UTF-8 with sorted keys, a 2-space indent and one
trailing newline, so a rewrite of the same document is byte-identical.  A
CSV file is UTF-8, a header row then the rows, with CRLF line ends (RFC
4180).  No other module writes JSON or CSV, apart from the scan's NDJSON
record stream, which collector renders in blocks because it is the hot path."""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable, Sequence


def write_json(path: str, doc: object) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
