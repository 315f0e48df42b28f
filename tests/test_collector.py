"""Scan orchestration and scan-report persistence tests.

Oracle for the shared fixtures (tests/data/sim_model.json scanned with
tests/data/corpus.tsv): family 0x6C gates on umask bit 0 and reacts to
instruction 1; 0xD3 gates on bits 0-1 and reacts to 1 and 2, with two of its
umasks documented in the catalog; 0x08 gates on bit 4 and reacts to 5; 0x5E
gates for every umask, reacts to 3 and 6, and over-counts with stddev 0.5.
"""

import hashlib
import io
import json
import logging
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmu_prospector.backend import BackendError, SimEventFamily, SimulatedPmu
from pmu_prospector.collector import (
    RECORD_BLOCK,
    ScanConfig,
    _lower_medians,
    ScanReport,
    control_values,
    full_scan,
    load_report,
    ndjson_record_sink,
    persist_report,
    render_records,
    scan_instruction,
    selector_texts,
)
from pmu_prospector.corpus import (
    ExecOutcome,
    ExecStatus,
    SimulatedExecutor,
    parse_corpus,
)
from pmu_prospector.errors import ReportParseError
from pmu_prospector.events import (
    EVENT_SPACE_SIZE,
    EventCatalog,
    EventSelector,
    format_selector,
    unpack_selector,
)

HIDDEN_6C = frozenset(EventSelector(0x6C, u) for u in range(256) if u & 0x01)
HIDDEN_D3 = frozenset(
    EventSelector(0xD3, u) for u in range(256) if u & 0x03
) - {EventSelector(0xD3, 0x01), EventSelector(0xD3, 0x02)}
HIDDEN_08 = frozenset(EventSelector(0x08, u) for u in range(256) if u & 0x10)
HIDDEN_5E = frozenset(EventSelector(0x5E, u) for u in range(256))


def mini_entries(text: str):
    entries, issues = parse_corpus(text.splitlines())
    assert not issues
    return entries


ALU_ONLY = mini_entries("1\tADD\tr64,r64\tbase\talu\n")
LOAD_ONLY = mini_entries("1\tMOV\tr64,m64\tbase\tmemory-load\n")


def mini_executor(families, entries, seed=0):
    backend = SimulatedPmu(families, seed=seed, label="mini")
    return SimulatedExecutor(backend)


class _FailingBackend:
    """Simulated backend that refuses to program one packed selector."""

    def __init__(self, inner, fail_packed):
        self._inner = inner
        self._fail = fail_packed
        self.label = inner.label

    def program(self, slot, value):
        if value.selector.packed == self._fail:
            raise BackendError("injected programming failure")
        self._inner.program(slot, value)

    def read(self, slot):
        return self._inner.read(slot)

    def record_execution(self, class_tag):
        self._inner.record_execution(class_tag)


class _FaultingBatchExecutor:
    """Delegates to a simulated executor, except that the workload run with
    the given 1-based call number faults."""

    def __init__(self, inner, fault_call):
        self._inner = inner
        self._fault_call = fault_call
        self._calls = 0
        self.backend = inner.backend

    def execute(self, snippet):
        outcome = self._inner.execute(snippet)
        self._calls += 1
        if self._calls == self._fault_call:
            return ExecOutcome(ExecStatus.FAULT, "sigsegv")
        return outcome


def failing_executor(fail_packed):
    family = SimEventFamily(0x6C, 0x01, frozenset({"memory-load"}))
    backend = _FailingBackend(SimulatedPmu([family], label="mini"), fail_packed)
    return SimulatedExecutor(backend)


class TestScanConfig:
    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            ScanConfig(repetitions=0)

    def test_rejects_zero_threshold(self):
        with pytest.raises(ValueError):
            ScanConfig(quiet_threshold=0)

    def test_defaults(self):
        config = ScanConfig()
        assert config.repetitions == 5
        assert config.quiet_threshold == 1
        assert not config.any_thread


class TestControlValues:
    def test_covers_space_in_packed_order(self):
        values = control_values()
        assert len(values) == EVENT_SPACE_SIZE
        for packed in (0, 1, 0x016C, 0xFFFF):
            value = values[packed]
            assert value.selector.packed == packed
            assert value.usr and value.os and value.enable
            assert not value.any_thread

    def test_any_thread_flag(self):
        assert control_values(any_thread=True)[0].any_thread


class _ScriptedBackend:
    """Replays canned per-slot read values so medians check against hand sums."""

    def __init__(self, reads_by_slot: dict[int, list[int]]):
        self._reads = {slot: list(values) for slot, values in reads_by_slot.items()}
        self.programmed: list[tuple[int, int]] = []

    def program(self, slot, value) -> None:
        self.programmed.append((slot.index, value.selector.packed))

    def read(self, slot) -> int:
        return self._reads[slot.index].pop(0)


class _StubExecutor:
    def __init__(self, backend, status: ExecStatus = ExecStatus.SUCCESS):
        self.backend = backend
        self._status = status

    def execute(self, snippet) -> ExecOutcome:
        return ExecOutcome(self._status)


class TestScanInstruction:
    def test_batches_of_four_and_low_medians(self):
        # two batches (4 + 2 selectors), five repetitions each
        backend = _ScriptedBackend(
            {
                0: [3, 1, 2, 9, 4] + [0, 0, 1, 0, 0],
                1: [5, 5, 5, 5, 5] + [7, 8, 7, 8, 9],
                2: [2, 4, 6, 8, 10],
                3: [1, 1, 1, 1, 2],
            }
        )
        selectors = [EventSelector(0x10, u) for u in range(6)]
        records = scan_instruction(
            ALU_ONLY[0], selectors, _StubExecutor(backend), ScanConfig(repetitions=5)
        )
        assert [r.selector for r in records] == selectors
        assert [r.delta for r in records] == [3, 5, 6, 1, 0, 8]
        assert all(r.instruction_id == 1 and r.repetitions == 5 for r in records)
        assert all(r.outcome is ExecStatus.SUCCESS for r in records)
        # every repetition reprograms the whole batch before the workload runs
        assert backend.programmed[:4] == [(u, u * 256 + 0x10) for u in range(4)]
        assert backend.programmed[4:8] == [(u, u * 256 + 0x10) for u in range(4)]
        assert backend.programmed[20:22] == [(0, 4 * 256 + 0x10), (1, 5 * 256 + 0x10)]

    def test_even_repetitions_take_lower_middle(self):
        backend = _ScriptedBackend({0: [4, 1, 3, 2]})
        records = scan_instruction(
            ALU_ONLY[0], [EventSelector(0x10, 0)], _StubExecutor(backend),
            ScanConfig(repetitions=4),
        )
        assert records[0].delta == 2

    def test_fixture_deltas(self, make_executor, corpus_entries):
        executor = make_executor()
        by_id = {e.id: e for e in corpus_entries}
        selectors = [
            EventSelector(0x6C, 0x01),
            EventSelector(0x6C, 0x00),
            EventSelector(0xD3, 0x01),
            EventSelector(0xD3, 0x00),
            EventSelector(0x3C, 0x00),
        ]
        records = scan_instruction(by_id[1], selectors, executor)
        assert [r.delta for r in records] == [1, 0, 2, 0, 0]
        assert all(type(r.delta) is int for r in records)
        assert all(r.outcome is ExecStatus.SUCCESS for r in records)

    def test_faulting_instruction_reports_fault_and_zero_deltas(
        self, make_executor, corpus_entries
    ):
        executor = make_executor()
        by_id = {e.id: e for e in corpus_entries}
        records = scan_instruction(by_id[8], [EventSelector(0x6C, 0x01)], executor)
        assert records[0].outcome is ExecStatus.FAULT
        assert records[0].delta == 0

    def test_records_do_not_depend_on_partitioning(self, make_executor, corpus_entries):
        # 0x5E over-counts with position-seeded noise; 4-aligned parts keep
        # every selector on its slot, so fresh backends replay the same draws
        alu = next(e for e in corpus_entries if e.id == 3)
        selectors = [EventSelector(0x5E, u) for u in range(256)]
        config = ScanConfig(repetitions=2)
        whole = scan_instruction(alu, selectors, make_executor(seed=11), config)
        assert len({r.delta for r in whole}) > 1  # the noise is in play
        for bounds in ((0, 128, 256), (0, 64, 200, 256)):
            parts = [
                scan_instruction(alu, selectors[start:stop], make_executor(seed=11), config)
                for start, stop in zip(bounds, bounds[1:])
            ]
            assert sum(parts, []) == whole, bounds

    def test_lost_batch_raises(self):
        selectors = [EventSelector(0x6C, u) for u in range(8)]
        with pytest.raises(BackendError, match="injected"):
            scan_instruction(LOAD_ONLY[0], selectors, failing_executor(0x016C))


class TestFullScan:
    @pytest.fixture()
    def fixture_report(self, make_executor, corpus_entries, catalog):
        return full_scan(
            corpus_entries, catalog, make_executor(seed=3), ScanConfig(repetitions=1)
        )

    def test_hidden_selector_sets_match_oracle(self, fixture_report):
        hidden = set(fixture_report.hidden_events)
        assert hidden == HIDDEN_6C | HIDDEN_D3 | HIDDEN_08 | HIDDEN_5E
        assert len(fixture_report.hidden_events) == 128 + 190 + 128 + 256

    def test_reacting_instruction_ids(self, fixture_report):
        for selector, ids in fixture_report.hidden_events.items():
            if selector.event_code == 0x6C:
                assert ids == {1}
            elif selector.event_code == 0xD3:
                assert ids == {1, 2}
            elif selector.event_code == 0x08:
                assert ids == {5}
            else:
                # over-counting family: the true triggers plus occasional noise
                assert selector.event_code == 0x5E
                assert ids >= {3, 6}

    def test_report_header_fields(self, fixture_report):
        assert fixture_report.microarchitecture_label == "sim-skylake-desk"
        assert fixture_report.total_instructions == 10
        assert fixture_report.executed_success == 8

    def test_report_names_the_catalog_file(self, fixture_report):
        assert fixture_report.catalog_source == "catalog.csv"

    def test_documented_selectors_never_reported(self, fixture_report, catalog):
        assert all(s not in catalog for s in fixture_report.hidden_events)

    def test_unsupported_instruction_logged_but_counted(
        self, make_executor, corpus_entries, catalog, caplog
    ):
        with caplog.at_level(logging.WARNING):
            report = full_scan(
                corpus_entries[:1] + [e for e in corpus_entries if e.id == 9],
                catalog,
                make_executor(),
                ScanConfig(repetitions=1),
            )
        assert report.total_instructions == 2
        assert report.executed_success == 1
        assert "skipping id 9" in caplog.text

    def test_quiet_threshold_keeps_only_loud_families(self):
        families = [
            SimEventFamily(0x10, 0x00, frozenset({"alu"}), increment=1),
            SimEventFamily(0x20, 0x00, frozenset({"alu"}), increment=2),
            SimEventFamily(0x30, 0x00, frozenset({"alu"}), increment=3),
        ]

        def hidden_at(threshold):
            report = full_scan(
                ALU_ONLY,
                EventCatalog(),
                mini_executor(families, ALU_ONLY),
                ScanConfig(repetitions=1, quiet_threshold=threshold),
            )
            return set(report.hidden_events)

        by_threshold = {t: hidden_at(t) for t in (1, 2, 3, 4)}
        assert {s.event_code for s in by_threshold[1]} == {0x10, 0x20, 0x30}
        assert {s.event_code for s in by_threshold[2]} == {0x20, 0x30}
        assert {s.event_code for s in by_threshold[3]} == {0x30}
        assert by_threshold[4] == set()
        # raising the threshold never adds selectors
        assert by_threshold[4] <= by_threshold[3] <= by_threshold[2] <= by_threshold[1]

    def test_backend_failure_skips_batch_and_continues(self, caplog):
        with caplog.at_level(logging.WARNING):
            report = full_scan(
                LOAD_ONLY, EventCatalog(), failing_executor(0x016C), ScanConfig(repetitions=1)
            )
        assert EventSelector(0x6C, 0x01) not in report.hidden_events
        assert len(report.hidden_events) == 127
        # the warning names the lost batch's span, the four selectors of its slots
        assert "selectors 0x016C..0x016F for id 1" in caplog.text

    @pytest.mark.parametrize("repetitions", [1, 2, 5])
    def test_same_report_with_and_without_records(
        self, make_executor, corpus_entries, catalog, repetitions
    ):
        # the fixture's 0x5E family is noisy, so its medians vary with the
        # repetitions; the records hold the dense medians of every selector
        config = ScanConfig(repetitions=repetitions)
        blocks: list[str] = []
        recorded = full_scan(corpus_entries, catalog, make_executor(seed=4), config,
                             record_sink=blocks.append)
        assert full_scan(corpus_entries, catalog, make_executor(seed=4), config) == recorded
        loud: dict[EventSelector, set[int]] = {}
        nonzero = r'"delta": ([1-9]\d*), "instruction": (\d+), [^\n]*"selector": "0x(..)(..)"'
        for delta, entry_id, umask, code in re.findall(nonzero, "".join(blocks)):
            selector = EventSelector(int(code, 16), int(umask, 16))
            if int(delta) >= config.quiet_threshold and selector not in catalog:
                loud.setdefault(selector, set()).add(int(entry_id))
        assert loud == recorded.hidden_events
        assert {s.event_code for s in loud} == {0x08, 0x5E, 0x6C, 0xD3}


class TestRecordSink:
    def test_streams_every_selector_in_packed_order(self):
        family = SimEventFamily(0x6C, 0x01, frozenset({"memory-load"}))

        def run():
            sink_file = io.StringIO()
            full_scan(
                LOAD_ONLY,
                EventCatalog(),
                mini_executor([family], LOAD_ONLY),
                ScanConfig(repetitions=1),
                record_sink=ndjson_record_sink(sink_file),
            )
            return sink_file.getvalue()

        text = run()
        lines = text.splitlines()
        assert len(lines) == EVENT_SPACE_SIZE
        first = json.loads(lines[0])
        assert first == {
            "delta": 0, "instruction": 1, "outcome": "success", "selector": "0x0000"
        }
        assert list(first) == sorted(first)
        assert json.loads(lines[0x016C]) == {
            "delta": 1, "instruction": 1, "outcome": "success", "selector": "0x016C"
        }
        # repeat runs produce byte-identical streams
        assert hashlib.sha256(run().encode()).digest() == hashlib.sha256(text.encode()).digest()

    def test_lost_batch_records_read_backend_error(self):
        sink_file = io.StringIO()
        full_scan(
            LOAD_ONLY, EventCatalog(), failing_executor(0x016C), ScanConfig(repetitions=1),
            record_sink=ndjson_record_sink(sink_file),
        )
        lines = sink_file.getvalue().splitlines()
        assert len(lines) == EVENT_SPACE_SIZE
        outcomes = {packed: json.loads(lines[packed])["outcome"] for packed in range(0x0168, 0x0174)}
        assert outcomes == {
            packed: "backend-error" if 0x016C <= packed <= 0x016F else "success"
            for packed in range(0x0168, 0x0174)
        }
        # the scan went on after the lost batch
        assert json.loads(lines[0x036C]) == {
            "delta": 1, "instruction": 1, "outcome": "success", "selector": "0x036C"
        }

    def test_each_record_carries_its_own_batch_outcome(self):
        # the scalar path runs the workload once per batch of four at one
        # repetition, so run 0x016C // 4 + 1 measures selectors 0x016C..0x016F
        inner = failing_executor(fail_packed=-1)  # a scalar-path backend that never fails
        executor = _FaultingBatchExecutor(inner, fault_call=0x016C // 4 + 1)
        sink_file = io.StringIO()
        report = full_scan(
            LOAD_ONLY, EventCatalog(), executor, ScanConfig(repetitions=1),
            record_sink=ndjson_record_sink(sink_file),
        )
        lines = sink_file.getvalue().splitlines()
        outcomes = Counter(json.loads(line)["outcome"] for line in lines)
        assert outcomes == {"fault": 4, "success": EVENT_SPACE_SIZE - 4}
        assert [json.loads(lines[p])["outcome"] for p in range(0x016B, 0x0171)] == [
            "success", "fault", "fault", "fault", "fault", "success"
        ]
        # one faulting batch keeps the instruction from counting as executed
        assert report.executed_success == 0
        assert report.total_instructions == 1

    def test_blocks_per_instruction_in_packed_order(self, make_executor, corpus_entries, catalog):
        blocks: list[str] = []
        full_scan(
            corpus_entries, catalog, make_executor(seed=3), ScanConfig(repetitions=1),
            record_sink=blocks.append,
        )
        calls: Counter[int] = Counter()
        for block in blocks:
            entry_id = json.loads(block[: block.index("\n")])["instruction"]
            # every line of a block belongs to one instruction
            assert block.count(f'"instruction": {entry_id}, ') == block.count("\n")
            calls[entry_id] += 1
        scanned = [e.id for e in corpus_entries if e.id != 9]  # 9 needs avx512
        assert sorted(calls) == scanned
        assert max(calls.values()) <= 16
        stream = "".join(blocks)
        assert stream.count("\n") == len(scanned) * EVENT_SPACE_SIZE
        selectors = re.findall(r'"selector": "(0x[0-9A-F]{4})"', stream)
        assert selectors == list(selector_texts()) * len(scanned)


@st.composite
def delta_arrays(draw):
    """int64 (rows, repetitions) arrays for 1 to 6 repetitions: rows of
    arbitrary values, and rows that repeat one value except in one column."""
    repetitions = draw(st.integers(min_value=1, max_value=6))
    values = st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1))
    one_differs = st.tuples(values, values, st.integers(0, repetitions - 1)).map(
        lambda t: [t[1] if column == t[2] else t[0] for column in range(repetitions)]
    )
    any_row = st.lists(values, min_size=repetitions, max_size=repetitions)
    rows = draw(st.lists(st.one_of(one_differs, any_row), max_size=12))
    return np.array(rows, np.int64).reshape(len(rows), repetitions)


class TestLowerMedians:
    @settings(max_examples=300, deadline=None)
    @given(deltas=delta_arrays())
    def test_equals_the_middle_of_the_sorted_row(self, deltas):
        given_deltas = deltas.copy()
        medians = _lower_medians(deltas)
        lower = (deltas.shape[1] - 1) // 2
        assert medians.dtype == np.int64
        assert medians.tolist() == np.sort(deltas, axis=1)[:, lower].tolist()
        assert np.array_equal(deltas, given_deltas)  # the input is left as it was


def per_line_render(instruction_id, texts, deltas, outcomes, start, stop):
    """Reference oracle: one f-string per line, as render_records built
    each line before it joined runs of quiet lines."""
    return "".join([
        f'{{"delta": {delta}, "instruction": {instruction_id}, '
        f'"outcome": "{outcome}", "selector": "{text}"}}\n'
        for text, delta, outcome in zip(
            texts[start:stop], deltas[start:stop], outcomes[start:stop]
        )
    ])


@st.composite
def sparse_blocks(draw):
    """Aligned texts, deltas and outcomes as a scan renders them: deltas
    mostly 0 and outcomes mostly one ExecStatus, plus a start and stop that
    may give an empty range, run past the end or cover a full block."""
    n = draw(st.one_of(st.just(RECORD_BLOCK), st.integers(min_value=0, max_value=64)))
    index = st.integers(min_value=0, max_value=max(n - 1, 0))
    nonzero = draw(st.dictionaries(index, st.integers(min_value=1, max_value=2**63 - 1),
                                   max_size=12))
    others = draw(st.dictionaries(index, st.sampled_from(ExecStatus), max_size=12))
    common = draw(st.sampled_from(ExecStatus))
    base = draw(st.integers(min_value=0, max_value=EVENT_SPACE_SIZE - n))
    texts = selector_texts()[base : base + n]
    deltas = [nonzero.get(i, 0) for i in range(n)]
    outcomes = [others.get(i, common).value for i in range(n)]
    if draw(st.booleans()):
        start, stop = 0, RECORD_BLOCK
    else:
        start = draw(st.integers(min_value=0, max_value=n + 2))
        stop = draw(st.integers(min_value=0, max_value=n + 8))
    return texts, deltas, outcomes, start, stop


class TestRenderRecords:
    def test_selector_texts_follow_packed_order(self):
        assert list(selector_texts()) == [
            format_selector(unpack_selector(p)) for p in range(EVENT_SPACE_SIZE)
        ]
        assert selector_texts() is selector_texts()

    @settings(max_examples=200, deadline=None)
    @given(
        instruction_id=st.integers(min_value=-(2**70), max_value=2**70),
        block=sparse_blocks(),
        as_array=st.booleans(),
    )
    def test_equals_per_line_render(self, instruction_id, block, as_array):
        texts, deltas, outcomes, start, stop = block
        given_deltas = np.array(deltas, np.int64) if as_array else deltas
        text = render_records(instruction_id, texts, given_deltas, outcomes, start, stop)
        expected = per_line_render(instruction_id, texts, deltas, outcomes, start, stop)
        # lists, so a failure names the first differing line instead of diffing the block
        assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)

    @settings(max_examples=200, deadline=None)
    @given(
        instruction_id=st.integers(min_value=-(2**70), max_value=2**70),
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=EVENT_SPACE_SIZE - 1),
                st.integers(min_value=0, max_value=2**63 - 1),
                st.sampled_from(ExecStatus),
            ),
            max_size=40,
        ),
        start=st.integers(min_value=0, max_value=40),
        length=st.integers(min_value=0, max_value=RECORD_BLOCK),
    )
    def test_lines_equal_json_dumps(self, instruction_id, rows, start, length):
        texts = [format_selector(unpack_selector(packed)) for packed, _, _ in rows]
        deltas = [delta for _, delta, _ in rows]
        outcomes = [status.value for _, _, status in rows]
        text = render_records(instruction_id, texts, deltas, outcomes, start, start + length)
        expected = [
            json.dumps(
                {"selector": t, "instruction": instruction_id, "delta": d, "outcome": o},
                sort_keys=True,
            ) + "\n"
            for t, d, o in list(zip(texts, deltas, outcomes))[start : start + length]
        ]
        assert text.splitlines(keepends=True) == expected


def report_cli(file: str) -> list[str]:
    return ["report", "--in", file]


def sample_report() -> ScanReport:
    return ScanReport(
        microarchitecture_label="sim-skylake-desk",
        total_instructions=10,
        executed_success=8,
        hidden_events={
            EventSelector(0x6C, 0x01): {1, 3},
            EventSelector(0xD3, 0x03): {2},
        },
        catalog_source="catalog.csv",
    )


class TestReportPersistence:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "report.json")
        report = sample_report()
        persist_report(report, path)
        assert load_report(path) == report

    def test_writes_are_byte_identical(self, tmp_path):
        report = sample_report()
        shuffled = ScanReport(
            microarchitecture_label=report.microarchitecture_label,
            total_instructions=report.total_instructions,
            executed_success=report.executed_success,
            hidden_events=dict(reversed(list(report.hidden_events.items()))),
            catalog_source=report.catalog_source,
        )
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        persist_report(report, a)
        persist_report(shuffled, b)
        first = Path(a).read_bytes()
        assert first == Path(b).read_bytes()
        assert first.endswith(b"\n")

    def test_selector_keys_use_packed_text_form(self, tmp_path):
        path = str(tmp_path / "report.json")
        persist_report(sample_report(), path)
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        assert sorted(doc["hidden_events"]) == ["0x016C", "0x03D3"]
        assert doc["hidden_events"]["0x016C"] == [1, 3]

    def test_malformed_json_reports_byte_offset(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format": "pmu-prospector-scan-v1", ')
        with pytest.raises(ReportParseError, match="byte offset"):
            load_report(str(path))

    def test_missing_format_marker_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}\n')
        with pytest.raises(ReportParseError, match="format marker"):
            load_report(str(path))

    def test_non_integer_ids_rejected(self, rejects):
        doc = {
            "format": "pmu-prospector-scan-v1", "microarchitecture": "x", "catalog_source": "",
            "total_instructions": 1, "executed_success": 1, "hidden_events": {},
        }
        for bad_ids in (["1"], [True], 3):
            rejects(load_report, report_cli, doc, ("hidden_events", "0x016C"), bad_ids,
                    "hidden_events['0x016C']")

    @pytest.mark.parametrize("field, value", [
        ("total_instructions", True),
        ("total_instructions", 9.7),
        ("total_instructions", "8"),
        ("executed_success", -1),
        ("executed_success", 99),
    ], ids=["boolean-total", "fractional-total", "string-total", "negative-executed",
            "executed-past-total"])
    def test_impossible_counts_rejected(self, rejects, field, value):
        doc = {
            "format": "pmu-prospector-scan-v1", "microarchitecture": "x",
            "total_instructions": 10, "executed_success": 8, "hidden_events": {},
        }
        rejects(load_report, report_cli, doc, (field,), value, field)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"format": "pmu-prospector-scan-v1", "hidden_events": {}}\n')
        with pytest.raises(ReportParseError, match="invalid field"):
            load_report(str(path))

    def test_unreadable_path_rejected(self, tmp_path):
        with pytest.raises(ReportParseError, match="cannot read"):
            load_report(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize("field, value", [
        ("microarchitecture", None),
        ("microarchitecture", 7),
        ("catalog_source", 5),
        ("catalog_source", None),
    ], ids=["null-label", "numeric-label", "numeric-source", "null-source"])
    def test_non_string_labels_rejected(self, rejects, field, value):
        doc = {
            "format": "pmu-prospector-scan-v1", "microarchitecture": "x",
            "total_instructions": 1, "executed_success": 1, "hidden_events": {},
        }
        rejects(load_report, report_cli, doc, (field,), value, f"{field} must be a string")

    # (path, value, the field the error names) over the report persist_report
    # writes for sample_report(): a wrong type in each field, and the first
    # value past each bound
    @pytest.mark.parametrize("path, value, field", [
        ((), b'{"format": "pmu-prospector-scan-v1", "microarchitecture": "\xff"}', "invalid JSON"),
        ((), '{"format": ' + "9" * 5000 + "}", "invalid JSON"),
        ((), [], "format marker"),
        (("format",), "pmu-prospector-scan-v2", "format marker"),
        (("coverage",), {}, "coverage: unknown"),
        (("microarchitecture",), ..., "microarchitecture: missing"),
        (("microarchitecture",), ["sim-skylake-desk"], "microarchitecture must be a string"),
        (("catalog_source",), {}, "catalog_source must be a string"),
        (("total_instructions",), 10.0, "total_instructions"),
        (("total_instructions",), -1, "total_instructions"),
        (("executed_success",), "8", "executed_success"),
        (("executed_success",), -1, "executed_success"),
        (("executed_success",), 11, "executed_success must be in [0, 10]"),
        (("hidden_events",), [], "hidden_events must be an object"),
        (("hidden_events", "0xZZ6C"), [1], "hidden_events key '0xZZ6C'"),
        (("hidden_events", "-0x1"), [1], "hidden_events key '-0x1'"),
        (("hidden_events", "0x10000"), [1], "hidden_events key '0x10000'"),
        (("hidden_events", "0x016C"), [1, 3.0], "hidden_events['0x016C'] must be a list"),
        (("hidden_events", "0x16c"), [2],
         "hidden_events keys '0x016C' and '0x16c' name the same entry"),
    ], ids=["not-utf-8", "number-too-long", "top-level-list", "other-format", "unknown-key",
            "no-label", "label-list", "source-object", "total-float", "total-below-0",
            "executed-string", "executed-below-0", "executed-past-total", "hidden-list",
            "selector-not-hex", "selector-below-0", "selector-past-0xFFFF", "id-float",
            "selector-twice"])
    def test_wrongly_typed_field_names_it(self, tmp_path, rejects, path, value, field):
        written = str(tmp_path / "report.json")
        persist_report(sample_report(), written)
        doc = json.loads(Path(written).read_text(encoding="utf-8"))
        rejects(load_report, report_cli, doc, path, value, field)

    def test_catalog_source_is_optional(self, tmp_path):
        path = tmp_path / "nosource.json"
        path.write_text(json.dumps({
            "format": "pmu-prospector-scan-v1", "microarchitecture": "x",
            "total_instructions": 1, "executed_success": 1, "hidden_events": {},
        }))
        assert load_report(str(path)).catalog_source == ""

    def test_non_object_hidden_events_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps({
            "format": "pmu-prospector-scan-v1", "microarchitecture": "x",
            "total_instructions": 1, "executed_success": 1, "hidden_events": [["0x016C", [1]]],
        }))
        with pytest.raises(ReportParseError, match="hidden_events must be an object"):
            load_report(str(path))
