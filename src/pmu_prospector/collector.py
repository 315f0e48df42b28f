"""Full-space scan orchestration and scan-report persistence.

The scan walks the instruction corpus (outer loop) and the 65536-point
selector space (inner loop, packed order).  Each instruction gets one
measuring pass through backend.measure (_scan_snippet): a simulated PMU
runs it once per repetition and yields the deltas of its armed selectors
only, while a real one is programmed four selectors at a time across the
programmable slots.  The pass keeps the batches' outcome spans and the
selectors whose lower median over the repetitions is nonzero, with those
medians.  The hidden events (medians at the quiet threshold, selectors
absent from the catalog), the executed count and the NDJSON records
(RecordRenderer) all come from that one result; no per-selector list of
the whole space is built.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .backend import BackendError, measure
from .corpus import ExecStatus, InstructionEntry, Snippet, instantiate
from .errors import InstantiationError, NormalizationError, ReportParseError
from .events import (
    EVENT_SPACE_SIZE,
    EventCatalog,
    PerfEvtSelValue,
    format_selector,
    parse_selector,
    scan_control,
    selector_ascii,
    unpack_selector,
)
from .inputs import Field, read_json
from .outputs import write_json

log = logging.getLogger(__name__)

RECORD_BLOCK = 4096  # NDJSON lines per record_sink call: the rows of the reused quiet-line buffer


@dataclass(frozen=True)
class ScanConfig:
    repetitions: int = 5
    quiet_threshold: int = 1
    any_thread: bool = False

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.quiet_threshold < 1:
            raise ValueError("quiet threshold must be at least 1")


@dataclass(frozen=True)
class ScanRecord:
    selector: int
    instruction_id: int
    delta: int
    outcome: ExecStatus
    repetitions: int


@dataclass
class ScanReport:
    """Scan result: which undocumented selectors react to which instructions.

    hidden_events maps each hidden selector, as its packed value
    umask * 256 + event_code, to the ids of the instructions it counted;
    full_scan gives it in packed order.  load_report gives each key as a
    PackedSelector, whose .packed benchmarks/ reads.
    """

    microarchitecture_label: str
    total_instructions: int
    executed_success: int
    hidden_events: dict[int, set[int]] = field(default_factory=dict)
    catalog_source: str = ""


# No src/ caller: benchmarks/ reads it until ROADMAP item 7 deletes it.
def control_values(any_thread: bool = False) -> list[PerfEvtSelValue]:
    """Scan control values for the whole space, indexed by packed selector."""
    return [scan_control(unpack_selector(p), any_thread) for p in range(EVENT_SPACE_SIZE)]


def _lower_medians(deltas: np.ndarray) -> np.ndarray:
    # lower middle element per row; keeps medians integral for even repetition counts
    return np.sort(deltas, axis=1)[:, (deltas.shape[1] - 1) // 2]


def _scan_snippet(
    executor, snippet: Snippet, codes: Sequence[int], config: ScanConfig
) -> tuple[list[list], np.ndarray, np.ndarray]:
    """The one measuring pass of a snippet over codes: (spans, index, medians).

    spans are [start, stop, outcome] over positions of codes and tile them,
    neighbours with one outcome merged.  An outcome is the workload's
    ExecStatus, or the BackendError that lost the batch, so two lost batches
    are two spans.  index holds the ascending positions whose lower median
    over the repetitions is nonzero, medians those medians.
    """
    def run(_rep: int) -> ExecStatus:
        return executor.execute(snippet).status

    spans: list[list] = []
    index, medians = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for start, stop, rows, deltas, outcome in measure(
        executor.backend, codes, run, config.repetitions, config.any_thread
    ):
        if spans and spans[-1][2] is outcome:
            spans[-1][1] = stop
        else:
            spans.append([start, stop, outcome])
        batch = _lower_medians(deltas)
        if np.count_nonzero(batch):  # the scalar path's 16,384 batches are mostly quiet
            nonzero = batch != 0
            index.append(rows[nonzero])
            medians.append(batch[nonzero])
    return spans, np.concatenate(index), np.concatenate(medians)


# No src/ caller: benchmarks/ reads it until ROADMAP item 8 deletes it.
def scan_instruction(
    entry: InstructionEntry,
    selectors: Iterable[int],
    executor,
    config: ScanConfig = ScanConfig(),
) -> list[ScanRecord]:
    """Measure one instruction against the given selectors, in one pass.

    One record per selector, in the given order: its delta is the lower
    median across repetitions and its outcome that of its batch's workload
    run.  A batch lost to the backend raises its own BackendError.
    """
    codes = list(selectors)
    spans, index, medians = _scan_snippet(executor, instantiate(entry), codes, config)
    deltas = np.zeros(len(codes), np.int64)
    deltas[index] = medians
    records: list[ScanRecord] = []
    for start, stop, outcome in spans:
        if isinstance(outcome, BackendError):
            raise outcome
        records += [ScanRecord(selector, entry.id, delta, outcome, config.repetitions)
                    for selector, delta in zip(codes[start:stop], deltas[start:stop].tolist())]
    return records


class RecordRenderer:
    """Renders a scan's NDJSON records as bytes, RECORD_BLOCK lines a block.

    Each line is byte-identical to json.dumps({"selector":
    format_selector(p), "instruction": instruction_id, "delta": delta,
    "outcome": outcome}, sort_keys=True) followed by a newline, for integer
    ids and deltas and the ExecStatus values, none of which need JSON
    escaping.

    Most lines of a scan are quiet: delta 0 and the outcome of their span.
    They are cut from one reused RECORD_BLOCK x width uint8 buffer of quiet
    lines, whose head columns are rewritten only when the instruction or the
    outcome changes and which is rebuilt only when the head's width does;
    the selector columns are copied in per block from selector_ascii().
    Each line with a nonzero delta is rendered on its own and spliced in.
    """

    def __init__(self) -> None:
        self._head = b""
        self._lines = np.empty((RECORD_BLOCK, 0), np.uint8)

    def render(
        self,
        instruction_id: int,
        spans: Iterable[tuple[int, int, str]],
        index: np.ndarray,
        deltas: np.ndarray,
    ) -> Iterator[bytes]:
        """The records of one instruction, one bytes object per RECORD_BLOCK
        block of the packed order (blocks start at multiples of it).

        spans are (start, stop, outcome value) and tile a range of packed
        selectors in order; index is the ascending int64 array of the
        selectors in that range whose delta, at the same position of
        deltas, is nonzero.  Every other selector's delta is 0.
        """
        parts: list[bytes] = []
        for start, stop, outcome in spans:
            self._set_head(instruction_id, outcome)
            while start < stop:
                end = min(stop, (start // RECORD_BLOCK + 1) * RECORD_BLOCK)
                parts.append(self._piece(instruction_id, outcome, index, deltas, start, end))
                if end % RECORD_BLOCK == 0:
                    yield b"".join(parts)
                    parts = []
                start = end
        if parts:
            yield b"".join(parts)

    def _set_head(self, instruction_id: int, outcome: str) -> None:
        head = _record_line(0, instruction_id, outcome, "")[:-3]  # up to the selector
        if head == self._head:
            return
        width = len(head) + 9  # the selector's six characters, then '"}\n'
        if self._lines.shape[1] != width:
            self._lines = np.empty((RECORD_BLOCK, width), np.uint8)
            self._lines[:, -3:] = np.frombuffer(b'"}\n', np.uint8)
        self._lines[:, : len(head)] = np.frombuffer(head, np.uint8)
        self._head = head

    def _piece(self, instruction_id: int, outcome: str, index: np.ndarray,
               deltas: np.ndarray, start: int, stop: int) -> bytes:
        """The lines of selectors start..stop-1, all in one block and span."""
        lines, width = self._lines, self._lines.shape[1]
        lines[: stop - start, width - 9 : width - 3] = selector_ascii()[start:stop]
        flat = memoryview(lines.reshape(-1))
        low, high = np.searchsorted(index, (start, stop)).tolist()
        parts = []
        row = 0  # first quiet line not yet taken
        for selector, delta in zip(index[low:high].tolist(), deltas[low:high].tolist()):
            parts.append(flat[row * width : (selector - start) * width])
            parts.append(_record_line(delta, instruction_id, outcome, format_selector(selector)))
            row = selector - start + 1
        parts.append(flat[row * width : (stop - start) * width])
        return b"".join(parts)


def _record_line(delta: int, instruction_id: int, outcome: str, selector: str) -> bytes:
    return (f'{{"delta": {delta}, "instruction": {instruction_id}, '
            f'"outcome": "{outcome}", "selector": "{selector}"}}\n').encode()


def full_scan(
    entries: Iterable[InstructionEntry],
    catalog: EventCatalog,
    executor,
    config: ScanConfig = ScanConfig(),
    record_sink: Callable[[bytes], object] | None = None,
) -> ScanReport:
    """Scan every corpus instruction against the full selector space.

    Each instruction gets one measuring pass over the space in packed order
    (_scan_snippet), and its hidden events, its executed count and its
    records all come from that pass's spans and nonzero medians.  A batch
    lost to a backend failure is logged, one warning per batch, and the scan
    goes on.  An instruction counts as executed when at least one batch was
    measured and every measured batch ran with the success outcome.
    Instructions whose templates cannot be instantiated are skipped (and
    logged); they still count toward total_instructions.

    record_sink, when given, receives the NDJSON records of each scanned
    instruction as bytes, RECORD_BLOCK lines per call, in packed order: one
    line per selector (see RecordRenderer), whose outcome is that of the
    selector's own batch, or backend-error for a lost batch.  A skipped
    instruction writes nothing.
    """
    codes = range(EVENT_SPACE_SIZE)
    documented = np.zeros(EVENT_SPACE_SIZE, bool)
    documented[list(catalog.entries)] = True
    renderer = RecordRenderer()
    hidden: dict[int, set[int]] = {}
    total = executed_success = 0
    for entry in entries:
        total += 1
        try:
            snippet = instantiate(entry)
        except (NormalizationError, InstantiationError) as exc:
            log.warning("skipping id %d (%s): %s", entry.id, entry.mnemonic, exc)
            continue
        spans, index, medians = _scan_snippet(executor, snippet, codes, config)
        for span in spans:
            if isinstance(span[2], BackendError):
                log.warning("backend failure scanning selectors 0x%04X..0x%04X for id %d: %s",
                            codes[span[0]], codes[span[1] - 1], entry.id, span[2])
                span[2] = ExecStatus.BACKEND_ERROR
        # codes is the space in packed order, so a position is its selector;
        # a position outside index measured 0, below the threshold's floor of 1
        loud = index[(medians >= config.quiet_threshold) & ~documented[index]]
        for packed in loud.tolist():
            hidden.setdefault(packed, set()).add(entry.id)
        log.info("scanned id %d (%s): %d hidden events", entry.id, entry.mnemonic, len(loud))
        measured = {outcome for _, _, outcome in spans} - {ExecStatus.BACKEND_ERROR}
        if measured == {ExecStatus.SUCCESS}:
            executed_success += 1
        if record_sink is not None:
            values = [(start, stop, outcome.value) for start, stop, outcome in spans]
            for block in renderer.render(entry.id, values, index, medians):
                record_sink(block)
    return ScanReport(
        microarchitecture_label=_backend_label(executor),
        total_instructions=total,
        executed_success=executed_success,
        hidden_events=dict(sorted(hidden.items())),
        catalog_source=os.path.basename(catalog.source),
    )


def _backend_label(executor) -> str:
    backend = getattr(executor, "backend", None)
    return getattr(backend, "label", "native")


_REPORT_FORMAT = "pmu-prospector-scan-v1"


def ndjson_record_sink(fh) -> Callable[[bytes], object]:
    """Record sink for full_scan: writes each rendered block of NDJSON
    records to the binary file fh as it arrives."""
    return fh.write


def persist_report(report: ScanReport, path: str) -> None:
    """Write a scan report as a single sorted JSON document.

    Selector keys use the fixed-width "0xUUEE" form, so lexicographic key
    order equals packed order and repeated writes are byte-identical.
    """
    doc = {
        "format": _REPORT_FORMAT,
        "microarchitecture": report.microarchitecture_label,
        "catalog_source": report.catalog_source,
        "total_instructions": report.total_instructions,
        "executed_success": report.executed_success,
        "hidden_events": {
            format_selector(selector): sorted(ids)
            for selector, ids in report.hidden_events.items()
        },
    }
    write_json(path, doc)


def load_report(path: str) -> ScanReport:
    """Load a persisted scan report, round-tripping persist_report exactly."""
    doc = read_json(path, "report")
    if not isinstance(doc.value, dict) or doc.value.get("format") != _REPORT_FORMAT:
        raise ReportParseError(f"report {path} lacks the {_REPORT_FORMAT} format marker")
    fields = doc.object(("format", "microarchitecture", "total_instructions", "executed_success",
                         "hidden_events"), {"catalog_source": ""})
    total = fields["total_instructions"].integer(low=0)
    return ScanReport(
        microarchitecture_label=fields["microarchitecture"].string(),
        total_instructions=total,
        executed_success=fields["executed_success"].integer(0, total),
        hidden_events=_hidden_events(fields["hidden_events"]),
        catalog_source=fields["catalog_source"].string(),
    )


def _hidden_events(hidden: Field) -> dict[int, set[int]]:
    """A report's hidden_events object, read in one loop: each key a
    parse_selector spelling of a selector, each value a list of int ids.  Two
    keys that spell one selector, such as "0x016C" and "0x16c", are an
    error.  A Field is made only for a malformed member, to raise its error."""
    members = hidden.members()
    events: dict[int, set[int]] = {}
    for text, ids in members.items():
        try:
            packed = parse_selector(text)
        except ValueError:  # Field.selector rejects the same texts
            Field(text, hidden.source, f"{hidden.path} key {text!r}").selector()
            raise
        if packed in events:  # a JSON object's key texts are distinct
            first = next(key for key in members if parse_selector(key) == packed)
            raise ReportParseError(f"{hidden.source}: {hidden.path} keys {first!r} "
                                   f"and {text!r} name the same entry")
        if type(ids) is not list or not all(type(i) is int for i in ids):  # a bool is not one
            Field(ids, hidden.source, f"{hidden.path}[{text!r}]").list_of(int)  # raises
        events[packed] = set(ids)
    return events
