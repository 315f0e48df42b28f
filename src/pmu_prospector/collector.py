"""Full-space scan orchestration and scan-report persistence.

The scan measures the instructions of the corpus against the 65536-point
selector space in packed order, all in one backend.measure call
(_scan_snippets): a simulated PMU runs a group of instructions once per
repetition and computes the deltas of their armed selectors in one pass,
while a real one is programmed four selectors at a time across the
programmable slots, instruction after instruction.  For each instruction
the call keeps the batches' outcome spans and the selectors whose lower
median over the repetitions is nonzero, with those medians.  The hidden
events (medians at the quiet threshold, selectors absent from the
catalog), the executed count and the NDJSON records (RecordRenderer) all
come from that result; no per-selector list of the whole space is built.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .backend import BackendError, measure
from .corpus import ExecStatus, InstructionEntry, Snippet, instantiate
from .errors import InstantiationError, NormalizationError, ReportParseError
from .events import (
    EVENT_SPACE_SIZE,
    EventCatalog,
    PerfEvtSelValue,
    format_selector,
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


def _scan_snippets(
    executor, snippets: Sequence[Snippet], codes: Sequence[int], config: ScanConfig
) -> Iterator[tuple[list[list], np.ndarray, np.ndarray]]:
    """The one measuring pass of snippets over codes: (spans, index,
    medians) per snippet, in order, each as soon as its last batch is
    measured.

    spans are [start, stop, outcome] over positions of codes and tile them,
    neighbours with one outcome merged.  An outcome is the workload's
    ExecStatus, or the BackendError that lost the batch, so two lost batches
    are two spans.  index holds the ascending positions whose lower median
    over the repetitions is nonzero, medians those medians.
    """
    runs = [lambda _rep, snippet=snippet: executor.execute(snippet).status
            for snippet in snippets]
    for _, start, stop, rows, deltas, outcome in measure(
        executor.backend, codes, runs, config.repetitions, config.any_thread
    ):
        if not start:  # the snippet's first batch
            spans, index, medians = [], [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        if spans and spans[-1][2] is outcome:
            spans[-1][1] = stop
        else:
            spans.append([start, stop, outcome])
        batch = _lower_medians(deltas)
        if np.count_nonzero(batch):  # the scalar path's 16,384 batches are mostly quiet
            nonzero = batch != 0
            index.append(rows[nonzero])
            medians.append(batch[nonzero])
        if stop == len(codes):  # its last batch
            yield spans, np.concatenate(index), np.concatenate(medians)


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
    records: list[ScanRecord] = []
    for spans, index, medians in _scan_snippets(executor, [instantiate(entry)], codes, config):
        deltas = np.zeros(len(codes), np.int64)
        deltas[index] = medians
        for start, stop, outcome in spans:
            if isinstance(outcome, BackendError):
                raise outcome
            records += [ScanRecord(selector, entry.id, delta, outcome, config.repetitions)
                        for selector, delta in zip(codes[start:stop], deltas[start:stop].tolist())]
    return records


class RecordRenderer:
    """Renders a scan's NDJSON records, RECORD_BLOCK lines a block.

    Each line is byte-identical to json.dumps({"selector":
    format_selector(p), "instruction": instruction_id, "delta": delta,
    "outcome": outcome}, sort_keys=True) followed by a newline, for integer
    ids and deltas and the ExecStatus values, none of which need JSON
    escaping.

    Most lines of a scan are quiet: delta 0 and the outcome of their span.
    They are cut from one reused RECORD_BLOCK x width uint8 buffer of quiet
    lines, row p % RECORD_BLOCK holding selector p.  Its head columns are
    rewritten only when the instruction or the outcome changes, and it is
    rebuilt only when the head's width does.  The rows of every aligned
    block of selector_ascii() differ from its first RECORD_BLOCK rows only
    in the columns of the top digits, so a rebuild copies in those rows and
    a block rewrites only those columns, and only when they change.  Each
    line with a nonzero delta is rendered on its own from the span's bytes
    template.  A block leaves as its list of buffers: full_scan hands it to
    its record sink in one call, and the buffers are valid only during it.
    """

    def __init__(self) -> None:
        self._head = self._template = b""
        self._lines = np.empty((RECORD_BLOCK, 0), np.uint8)
        table = selector_ascii()
        top = np.flatnonzero((table[::RECORD_BLOCK] != table[0]).any(axis=0)).tolist()
        self._top = slice(top[0], top[-1] + 1)  # the columns of the top digits
        self._block = 0  # the aligned block whose top digits the buffer holds

    def render(
        self,
        instruction_id: int,
        spans: Iterable[tuple[int, int, str]],
        index: np.ndarray,
        deltas: np.ndarray,
    ) -> Iterator[list[bytes | memoryview]]:
        """The records of one instruction, one list of buffers per
        RECORD_BLOCK block of the packed order (blocks start at multiples of
        it); the block's lines are the buffers' bytes in order.  The buffers
        are slices of the reused quiet-line buffer and the rendered nonzero
        lines, valid only until the generator is resumed.

        spans are (start, stop, outcome value) and tile a range of packed
        selectors in order; index is the ascending int64 array of the
        selectors in that range whose delta, at the same position of
        deltas, is nonzero.  Every other selector's delta is 0.
        """
        buffers: list[bytes | memoryview] = []
        for start, stop, outcome in spans:
            if buffers:  # a span starting inside a block: its head may rewrite their rows
                buffers = [b"".join(buffers)]
            self._set_head(instruction_id, outcome)
            while start < stop:
                end = min(stop, (start // RECORD_BLOCK + 1) * RECORD_BLOCK)
                self._piece(buffers, index, deltas, start, end)
                if end % RECORD_BLOCK == 0:
                    yield buffers
                    buffers = []
                start = end
        if buffers:
            yield buffers

    def _set_head(self, instruction_id: int, outcome: str) -> None:
        """Make the buffer's heads and the nonzero-line template those of the
        span."""
        self._template = (f'{{"delta": %d, "instruction": {instruction_id}, '
                          f'"outcome": "{outcome}", "selector": "%b"}}\n').encode()
        head = (self._template % (0, b""))[:-3]  # a quiet line up to the selector
        if head == self._head:
            return
        width = len(head) + 9  # the selector's six characters, then '"}\n'
        if self._lines.shape[1] != width:
            self._lines = np.empty((RECORD_BLOCK, width), np.uint8)
            self._lines[:, -9:-3] = selector_ascii()[:RECORD_BLOCK]
            self._lines[:, -3:] = np.frombuffer(b'"}\n', np.uint8)
            self._block = 0
        self._lines[:, : len(head)] = np.frombuffer(head, np.uint8)
        self._head = head

    def _piece(self, buffers: list[bytes | memoryview], index: np.ndarray,
               deltas: np.ndarray, start: int, stop: int) -> None:
        """Append the lines of selectors start..stop-1, all in one block and
        span, to buffers."""
        block = start // RECORD_BLOCK
        if block != self._block:
            self._lines[:, -9:-3][:, self._top] = selector_ascii()[block * RECORD_BLOCK, self._top]
            self._block = block
        first = block * RECORD_BLOCK
        flat, width = memoryview(self._lines.reshape(-1)), self._lines.shape[1]
        low, high = np.searchsorted(index, (start, stop)).tolist()
        row = start - first  # first quiet line not yet taken
        for selector, delta in zip(index[low:high].tolist(), deltas[low:high].tolist()):
            line = (selector - first) * width
            buffers.append(flat[row * width : line])
            buffers.append(self._template % (delta, flat[line + width - 9 : line + width - 3]))
            row = selector - first + 1
        buffers.append(flat[row * width : (stop - first) * width])


def full_scan(
    entries: Iterable[InstructionEntry],
    catalog: EventCatalog,
    executor,
    config: ScanConfig = ScanConfig(),
    record_sink: Callable[[list[bytes | memoryview]], object] | None = None,
) -> ScanReport:
    """Scan every corpus instruction against the full selector space.

    Each instruction is measured over the space in packed order
    (_scan_snippets), and its hidden events, its executed count and its
    records all come from its spans and nonzero medians.  A batch
    lost to a backend failure is logged, one warning per batch, and the scan
    goes on.  An instruction counts as executed when at least one batch was
    measured and every measured batch ran with the success outcome.
    Instructions whose templates cannot be instantiated are skipped (and
    logged); they still count toward total_instructions.

    record_sink, when given, receives the NDJSON records of each scanned
    instruction in packed order, one call per RECORD_BLOCK block of lines:
    one line per selector (see RecordRenderer), whose outcome is that of the
    selector's own batch, or backend-error for a lost batch.  Each call gets
    a list of bytes-like buffers whose bytes, in order, are the block's
    lines; they are valid only during the call, so a sink that keeps them
    copies them.  A skipped instruction writes nothing.  An instruction's
    records go out once its last batch is measured: on a simulated backend
    after the pass of its whole group (see backend.measure), so a run that
    raises leaves none of its group.
    """
    codes = range(EVENT_SPACE_SIZE)
    documented = np.zeros(EVENT_SPACE_SIZE, bool)
    documented[list(catalog.entries)] = True
    renderer = RecordRenderer() if record_sink is not None else None  # it builds selector_ascii()
    hidden: dict[int, set[int]] = {}
    prepared = []  # (entry, its snippet or why it is skipped), in corpus order
    for entry in entries:
        try:
            prepared.append((entry, instantiate(entry)))
        except (NormalizationError, InstantiationError) as exc:
            prepared.append((entry, str(exc)))  # the error's traceback would hold this frame
    passes = _scan_snippets(executor, [snippet for _, snippet in prepared
                                       if isinstance(snippet, Snippet)], codes, config)
    executed_success = 0
    for entry, snippet in prepared:
        if not isinstance(snippet, Snippet):
            log.warning("skipping id %d (%s): %s", entry.id, entry.mnemonic, snippet)
            continue
        spans, index, medians = next(passes)
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
        if renderer is not None:
            values = [(start, stop, outcome.value) for start, stop, outcome in spans]
            for block in renderer.render(entry.id, values, index, medians):
                record_sink(block)
    return ScanReport(
        microarchitecture_label=executor.backend.label,
        total_instructions=len(prepared),
        executed_success=executed_success,
        hidden_events=dict(sorted(hidden.items())),
        catalog_source=os.path.basename(catalog.source),
    )


_REPORT_FORMAT = "pmu-prospector-scan-v1"


def ndjson_record_sink(fh) -> Callable[[list[bytes | memoryview]], None]:
    """Record sink for full_scan, which calls it once per block of NDJSON
    records with a list of buffers valid only during the call: it writes
    them to the binary file fh before it returns.

    It flushes fh, then hands the buffers to os.writev on fh's descriptor,
    at most SC_IOV_MAX of them a call, again past a short write.  Without
    os.writev, or for a file with no descriptor (such as io.BytesIO), it
    calls fh.writelines instead.
    """
    writev = getattr(os, "writev", None)
    try:
        fd = fh.fileno()
    except OSError:  # io.UnsupportedOperation: no descriptor
        writev = None
    if writev is None:
        return fh.writelines
    iov_max = os.sysconf("SC_IOV_MAX")

    def sink(buffers: list[bytes | memoryview]) -> None:
        fh.flush()
        first = 0
        while first < len(buffers):
            chunk = buffers[first : first + iov_max]
            written = writev(fd, chunk)
            for size in map(len, chunk):  # skip the buffers written whole
                if written < size:
                    break
                written -= size
                first += 1
            if written:  # a short write stopped inside buffers[first]
                buffers = [memoryview(buffers[first])[written:], *buffers[first + 1 :]]
                first = 0

    return sink


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
    """A report's hidden_events object, read in bulk: each key a
    parse_selector spelling of a selector, each value a list of int ids.  Two
    keys that spell one selector, such as "0x016C" and "0x16c", are an
    error.  Only a malformed object goes through Field.mapping, for its error."""
    members = hidden.members()
    ids = members.values()
    try:
        keys = list(map(unpack_selector, map(int, members, repeat(16))))
    except ValueError:
        keys = []
    if (len(set(keys)) < len(ids) or not {*map(type, ids)} <= {list}
            or not {*map(type, chain.from_iterable(ids))} <= {int}):  # a bool is not an int
        hidden.mapping(Field.selector, lambda item: item.list_of(int))  # raises, in file order
    return dict(zip(keys, map(set, ids)))
