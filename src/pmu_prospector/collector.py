"""Full-space scan orchestration and scan-report persistence.

The scan walks the instruction corpus (outer loop) and the 65536-point
selector space (inner loop, packed order) through backend.measure: a
simulated PMU runs each instruction once per repetition and yields the
deltas of its armed selectors only (every other delta is 0), while a real
one is programmed four selectors at a time across the programmable slots,
so one workload run measures four candidates.  A selector is readable for
an instruction when the lower median delta over the repetitions reaches
the quiet threshold; readable selectors absent from the documented catalog
are the hidden events.  Since the threshold is at least 1, only the rows a
batch yields are searched, and the dense medians of the whole space are
built only for the NDJSON records.
"""

from __future__ import annotations

import functools
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
    parse_selector,
    scan_control,
    unpack_selector,
)
from .inputs import Field, read_json
from .outputs import write_json

log = logging.getLogger(__name__)

RECORD_BLOCK = 4096  # NDJSON lines per record_sink call; bounds the text held at once


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
    # lower middle element per row; keeps medians integral for even repetition
    # counts.  Only rows whose repetitions differ are sorted: a row that
    # repeats one value, as every quiet selector's does, has that median.
    medians = deltas[:, 0].copy()
    varied = np.zeros(len(deltas), bool)
    for column in deltas.T[1:]:  # column by column: far cheaper than any(axis=1)
        varied |= column != medians
    medians[varied] = np.sort(deltas[varied], axis=1)[:, (deltas.shape[1] - 1) // 2]
    return medians


def _measure_snippet(
    executor, snippet: Snippet, codes: Sequence[int], config: ScanConfig
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, object]]:
    """measure() with one run of the snippet per repetition; each batch's
    outcome is the workload's ExecStatus or the BackendError that lost it."""
    def run(_rep: int) -> ExecStatus:
        return executor.execute(snippet).status

    return measure(executor.backend, codes, run, config.repetitions, config.any_thread)


# No src/ caller: benchmarks/ reads it until ROADMAP item 8 deletes it.
def scan_instruction(
    entry: InstructionEntry,
    selectors: Iterable[int],
    executor,
    config: ScanConfig = ScanConfig(),
) -> list[ScanRecord]:
    """Measure one instruction against the given selectors.

    Packed selectors are visited in the given order; the recorded delta is the
    lower median across repetitions and the outcome that of the batch's
    workload run.  A batch lost to the backend raises its BackendError.
    """
    snippet = instantiate(entry)
    codes = list(selectors)
    records: list[ScanRecord] = []
    for start, stop, index, deltas, outcome in _measure_snippet(executor, snippet, codes, config):
        if isinstance(outcome, BackendError):
            raise outcome
        medians = np.zeros(stop - start, np.int64)
        medians[index - start] = _lower_medians(deltas)
        for selector, median in zip(codes[start:stop], medians.tolist()):
            records.append(ScanRecord(selector, entry.id, median, outcome, config.repetitions))
    return records


@functools.cache
def selector_texts() -> tuple[str, ...]:
    """format_selector(p) for every packed selector p, at index p; the tuple
    is built once per process."""
    digits = [f"{i:02X}" for i in range(256)]
    return tuple("0x" + umask + code for umask in digits for code in digits)


def render_records(
    instruction_id: int,
    texts: Sequence[str],
    deltas: Sequence[int] | np.ndarray,
    outcomes: Sequence[str],
    start: int,
    stop: int,
) -> str:
    """NDJSON lines for the selectors at indexes start..stop-1 of the
    aligned texts, deltas and outcome values.

    Each line is byte-identical to json.dumps({"selector": text,
    "instruction": instruction_id, "delta": delta, "outcome": outcome},
    sort_keys=True) followed by a newline, for integer ids and deltas and
    the ExecStatus values, none of which need JSON escaping.

    A line is quiet when its delta is 0 and its outcome is the range's first
    one; most lines of a scan are.  Each run of quiet lines is rendered with
    one str.join over its selector texts and every other line on its own, so
    the text is byte-identical to rendering each line by itself.
    """
    texts, deltas, outcomes = texts[start:stop], deltas[start:stop], outcomes[start:stop]
    if not texts:
        return ""
    first = outcomes[0]
    odd = np.asarray(deltas) != 0
    if outcomes.count(first) != len(outcomes):  # a lost or faulting batch
        odd |= np.array([outcome != first for outcome in outcomes])

    def head(delta: int, outcome: str) -> str:
        return (f'{{"delta": {delta}, "instruction": {instruction_id}, '
                f'"outcome": "{outcome}", "selector": "')

    quiet = head(0, first)
    sep = '"}\n' + quiet
    parts = []
    run = 0  # first index of the current run of quiet lines
    for i in np.flatnonzero(odd).tolist():
        if run < i:
            parts.append(quiet + sep.join(texts[run:i]) + '"}\n')
        parts.append(head(int(deltas[i]), outcomes[i]) + texts[i] + '"}\n')
        run = i + 1
    if run < len(texts):
        parts.append(quiet + sep.join(texts[run:]) + '"}\n')
    return "".join(parts)


def full_scan(
    entries: Iterable[InstructionEntry],
    catalog: EventCatalog,
    executor,
    config: ScanConfig = ScanConfig(),
    record_sink: Callable[[str], object] | None = None,
) -> ScanReport:
    """Scan every corpus instruction against the full selector space.

    Selectors are measured in packed order.  A batch lost to a backend
    failure is logged and skipped, and the scan goes on.  An instruction
    counts as executed when at least one batch was measured and every
    measured batch ran with the success outcome.  Instructions whose
    templates cannot be instantiated are skipped (and logged); they still
    count toward total_instructions.

    record_sink, when given, receives the NDJSON records of each scanned
    instruction as rendered text, RECORD_BLOCK lines per call, in packed
    order: one line per selector (see render_records), whose outcome is
    that of the selector's own batch, or backend-error for a lost batch.
    A skipped instruction writes nothing.
    """
    codes = range(EVENT_SPACE_SIZE)
    documented = np.zeros(EVENT_SPACE_SIZE, bool)
    documented[list(catalog.entries)] = True
    texts = selector_texts() if record_sink is not None else None
    hidden: dict[int, set[int]] = {}
    total = 0
    executed_success = 0
    threshold = config.quiet_threshold
    for entry in entries:
        total += 1
        try:
            snippet = instantiate(entry)
        except (NormalizationError, InstantiationError) as exc:
            log.warning("skipping id %d (%s): %s", entry.id, entry.mnemonic, exc)
            continue
        medians = np.zeros(EVENT_SPACE_SIZE, np.int64) if record_sink is not None else None
        measured: list[tuple[int, int, ExecStatus]] = []  # start, stop, outcome per batch
        for start, stop, index, deltas, outcome in _measure_snippet(
            executor, snippet, codes, config
        ):
            if isinstance(outcome, BackendError):
                log.warning(
                    "backend failure scanning selectors 0x%04X..0x%04X for id %d: %s",
                    codes[start], codes[stop - 1], entry.id, outcome,
                )
                continue
            measured.append((start, stop, outcome))
            # a position outside index measured 0, whose median never reaches
            # the threshold (ScanConfig keeps it at least 1); codes is the
            # space in packed order, so codes[index] is index itself
            batch = _lower_medians(deltas)
            for packed in index[(batch >= threshold) & ~documented[index]].tolist():
                hidden.setdefault(packed, set()).add(entry.id)
            if medians is not None:
                medians[index] = batch
        if measured and all(outcome is ExecStatus.SUCCESS for _, _, outcome in measured):
            executed_success += 1
        if record_sink is not None:
            outcomes = [ExecStatus.BACKEND_ERROR.value] * EVENT_SPACE_SIZE  # lost batches keep it
            for start, stop, outcome in measured:
                outcomes[start:stop] = [outcome.value] * (stop - start)
            for start in range(0, EVENT_SPACE_SIZE, RECORD_BLOCK):
                record_sink(render_records(
                    entry.id, texts, medians, outcomes, start, start + RECORD_BLOCK
                ))
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


def ndjson_record_sink(fh) -> Callable[[str], object]:
    """Record sink for full_scan: writes each rendered block of NDJSON
    records to the text file fh as it arrives."""
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
            f"0x{packed:04X}": sorted(ids) for packed, ids in report.hidden_events.items()
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
