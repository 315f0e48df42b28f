"""Full-space scan orchestration and scan-report persistence.

The scan walks the instruction corpus (outer loop) and the 65536-point
selector space (inner loop, packed order) through backend.measure: a
simulated PMU runs each instruction once per repetition and computes every
selector's delta at once, while a real one is programmed four selectors at
a time across the programmable slots, so one workload run measures four
candidates.  A selector is readable for an instruction when the median
delta over the repetitions reaches the quiet threshold; readable selectors
absent from the documented catalog are the hidden events.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .backend import PROGRAMMABLE_SLOTS, BackendError, measure
from .corpus import (
    DEFAULT_POOL,
    ExecStatus,
    InstructionEntry,
    RegisterPool,
    SIGNAL_HANDLER,
    Snippet,
    instantiate,
    normalize_syntax,
)
from .errors import InstantiationError, NormalizationError, ReportParseError
from .events import (
    EVENT_SPACE_SIZE,
    EventCatalog,
    EventSelector,
    PerfEvtSelValue,
    format_selector,
    parse_selector,
    scan_control,
    unpack_selector,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScanConfig:
    repetitions: int = 5
    quiet_threshold: int = 1
    mode: str = SIGNAL_HANDLER
    any_thread: bool = False

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.quiet_threshold < 1:
            raise ValueError("quiet threshold must be at least 1")


@dataclass(frozen=True)
class ScanRecord:
    selector: EventSelector
    instruction_id: int
    delta: int
    outcome: ExecStatus
    repetitions: int


@dataclass
class ScanReport:
    """Scan result: which undocumented selectors react to which instructions."""

    microarchitecture_label: str
    total_instructions: int
    executed_success: int
    hidden_events: dict[EventSelector, set[int]] = field(default_factory=dict)
    catalog_source: str = ""

    def hidden_count(self) -> int:
        return len(self.hidden_events)


def control_values(any_thread: bool = False) -> list[PerfEvtSelValue]:
    """Scan control values for the whole space, indexed by packed selector."""
    return [scan_control(unpack_selector(p), any_thread) for p in range(EVENT_SPACE_SIZE)]


def _lower_medians(deltas: np.ndarray) -> np.ndarray:
    # lower middle element per row; keeps medians integral for even repetition counts
    return np.sort(deltas, axis=1)[:, (deltas.shape[1] - 1) // 2]


def _measure_snippet(executor, snippet: Snippet, codes: Sequence[int],
                     config: ScanConfig) -> Iterator[tuple[int, np.ndarray, object]]:
    """measure() with one run of the snippet per repetition; each batch's
    outcome is the workload's ExecStatus or the BackendError that lost it."""
    execute = executor.execute
    mode = config.mode

    def run(_rep: int) -> ExecStatus:
        return execute(snippet, mode).status

    return measure(executor.backend, codes, run, config.repetitions, config.any_thread)


def scan_instruction(
    entry: InstructionEntry,
    selectors: Iterable[EventSelector],
    executor,
    config: ScanConfig = ScanConfig(),
    pool: RegisterPool = DEFAULT_POOL,
) -> list[ScanRecord]:
    """Measure one instruction against the given selectors.

    Selectors are visited in the given order; the recorded delta is the
    lower median across repetitions and the outcome that of the batch's
    workload run.  A batch lost to the backend raises its BackendError.
    """
    snippet = instantiate(normalize_syntax(entry, executor.dialect), pool)
    selectors = list(selectors)
    codes = [s.packed for s in selectors]
    records: list[ScanRecord] = []
    for base, deltas, outcome in _measure_snippet(executor, snippet, codes, config):
        if isinstance(outcome, BackendError):
            raise outcome
        medians = _lower_medians(deltas).tolist()
        for selector, median in zip(selectors[base : base + len(medians)], medians):
            records.append(ScanRecord(selector, entry.id, median, outcome, config.repetitions))
    return records


def full_scan(
    entries: Iterable[InstructionEntry],
    catalog: EventCatalog,
    executor,
    config: ScanConfig = ScanConfig(),
    pool: RegisterPool = DEFAULT_POOL,
    record_sink: Callable[[ScanRecord], None] | None = None,
) -> ScanReport:
    """Scan every corpus instruction against the full selector space.

    Selectors are measured in packed order.  A batch lost to a backend
    failure is logged and skipped, and the scan goes on; its records carry
    the backend-error outcome.  Instructions whose templates cannot be
    instantiated are skipped (and logged); they still count toward
    total_instructions.
    """
    codes = range(EVENT_SPACE_SIZE)
    documented = np.zeros(EVENT_SPACE_SIZE, bool)
    documented[[s.packed for s in catalog.entries]] = True
    selectors = [unpack_selector(p) for p in codes] if record_sink is not None else None
    hidden: dict[int, set[int]] = {}
    total = 0
    executed_success = 0
    threshold = config.quiet_threshold
    for entry in entries:
        total += 1
        try:
            snippet = instantiate(normalize_syntax(entry, executor.dialect), pool)
        except (NormalizationError, InstantiationError) as exc:
            log.warning("skipping id %d (%s): %s", entry.id, entry.mnemonic, exc)
            continue
        medians = np.zeros(EVENT_SPACE_SIZE, np.int64)
        lost: list[int] = []
        status: ExecStatus | None = None
        for base, deltas, outcome in _measure_snippet(executor, snippet, codes, config):
            if isinstance(outcome, BackendError):
                log.warning(
                    "backend failure scanning selectors 0x%04X..0x%04X for id %d: %s",
                    base, base + PROGRAMMABLE_SLOTS - 1, entry.id, outcome,
                )
                lost.append(base)
                continue
            status = outcome
            medians[base : base + len(deltas)] = _lower_medians(deltas)
        if status is ExecStatus.SUCCESS:
            executed_success += 1
        for packed in np.flatnonzero((medians >= threshold) & ~documented).tolist():
            hidden.setdefault(packed, set()).add(entry.id)
        if record_sink is not None:
            outcomes = [status or ExecStatus.SUCCESS] * EVENT_SPACE_SIZE
            lost_batch = [ExecStatus.BACKEND_ERROR] * PROGRAMMABLE_SLOTS
            for base in lost:  # the space is a whole number of batches
                outcomes[base : base + PROGRAMMABLE_SLOTS] = lost_batch
            for selector, median, outcome in zip(selectors, medians.tolist(), outcomes):
                record_sink(ScanRecord(selector, entry.id, median, outcome, config.repetitions))
    return ScanReport(
        microarchitecture_label=_backend_label(executor),
        total_instructions=total,
        executed_success=executed_success,
        hidden_events={
            unpack_selector(packed): ids for packed, ids in sorted(hidden.items())
        },
        catalog_source="",
    )


def _backend_label(executor) -> str:
    backend = getattr(executor, "backend", None)
    return getattr(backend, "label", "native")


_REPORT_FORMAT = "pmu-prospector-scan-v1"


def ndjson_record_sink(fh) -> Callable[[ScanRecord], None]:
    """Record sink streaming one JSON object per measured selector."""

    def sink(record: ScanRecord) -> None:
        fh.write(
            json.dumps(
                {
                    "selector": format_selector(record.selector),
                    "instruction": record.instruction_id,
                    "delta": record.delta,
                    "outcome": record.outcome.value,
                },
                sort_keys=True,
            )
        )
        fh.write("\n")

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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> ScanReport:
    """Load a persisted scan report, round-tripping persist_report exactly."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ReportParseError(f"cannot read report {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReportParseError(
            f"report {path} is not well-formed JSON at byte offset {exc.pos}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict) or doc.get("format") != _REPORT_FORMAT:
        raise ReportParseError(f"report {path} lacks the {_REPORT_FORMAT} format marker")
    try:
        raw_hidden = doc["hidden_events"]
        hidden: dict[EventSelector, set[int]] = {}
        for key, ids in raw_hidden.items():
            if not isinstance(ids, list) or not all(
                isinstance(i, int) and not isinstance(i, bool) for i in ids
            ):
                raise ReportParseError(
                    f"report {path}: hidden_events[{key!r}] must be a list of integers"
                )
            hidden[parse_selector(key)] = set(ids)
        return ScanReport(
            microarchitecture_label=str(doc["microarchitecture"]),
            total_instructions=int(doc["total_instructions"]),
            executed_success=int(doc["executed_success"]),
            hidden_events=hidden,
            catalog_source=str(doc.get("catalog_source", "")),
        )
    except ReportParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ReportParseError(f"report {path} has an invalid field: {exc}") from exc
