"""Scan orchestration and scan-report persistence tests.

Oracle for the shared fixtures (tests/data/sim_model.json scanned with
tests/data/corpus.tsv): family 0x6C gates on umask bit 0 and reacts to
instruction 1; 0xD3 gates on bits 0-1 and reacts to 1 and 2, with two of its
umasks documented in the catalog; 0x08 gates on bit 4 and reacts to 5; 0x5E
gates for every umask, reacts to 3 and 6, and over-counts with stddev 0.5.
"""

import dataclasses
import gc
import hashlib
import io
import json
import logging
import os
import re
import stat
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pmu_prospector import backend as backend_module
from pmu_prospector.backend import BackendError, SimEventFamily, SimulatedPmu
from pmu_prospector.collector import (
    RECORD_BLOCK,
    RecordRenderer,
    ScanConfig,
    _lower_medians,
    _scan_snippets,
    ScanReport,
    control_values,
    full_scan,
    load_report,
    ndjson_record_sink,
    persist_report,
    scan_instruction,
)
from pmu_prospector.corpus import (
    ExecOutcome,
    ExecStatus,
    SimulatedExecutor,
    instantiate,
    parse_corpus,
)
from pmu_prospector.errors import InstantiationError, ReportParseError
from pmu_prospector.events import (
    EVENT_SPACE_SIZE,
    EventCatalog,
    format_selector,
    selector_ascii,
)
from pmu_prospector.outputs import completed_stream

HIDDEN_6C = frozenset(u << 8 | 0x6C for u in range(256) if u & 0x01)
HIDDEN_D3 = frozenset(u << 8 | 0xD3 for u in range(256) if u & 0x03) - {0x01D3, 0x02D3}
HIDDEN_08 = frozenset(u << 8 | 0x08 for u in range(256) if u & 0x10)
HIDDEN_5E = frozenset(u << 8 | 0x5E for u in range(256))


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
    """Simulated backend that refuses to program the given packed selectors;
    raised lists the BackendErrors it raised, in order."""

    def __init__(self, inner, fail_packed):
        self._inner = inner
        self._fail = fail_packed
        self.label = inner.label
        self.raised: list[BackendError] = []

    def program(self, slot, value):
        if value.selector in self._fail:
            self.raised.append(BackendError("injected programming failure"))
            raise self.raised[-1]
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


def failing_executor(*fail_packed):
    family = SimEventFamily(0x6C, 0x01, frozenset({"memory-load"}))
    backend = _FailingBackend(SimulatedPmu([family], label="mini"), set(fail_packed))
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
            assert value.selector == packed
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
        self.programmed.append((slot.index, value.selector))

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
        selectors = [u << 8 | 0x10 for u in range(6)]
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
            ALU_ONLY[0], [0x0010], _StubExecutor(backend),
            ScanConfig(repetitions=4),
        )
        assert records[0].delta == 2

    def test_fixture_deltas(self, make_executor, corpus_entries):
        executor = make_executor()
        by_id = {e.id: e for e in corpus_entries}
        selectors = [
            0x016C,
            0x006C,
            0x01D3,
            0x00D3,
            0x003C,
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
        records = scan_instruction(by_id[8], [0x016C], executor)
        assert records[0].outcome is ExecStatus.FAULT
        assert records[0].delta == 0

    def test_records_do_not_depend_on_partitioning(self, make_executor, corpus_entries):
        # 0x5E over-counts with position-seeded noise; 4-aligned parts keep
        # every selector on its slot, so fresh backends replay the same draws
        alu = next(e for e in corpus_entries if e.id == 3)
        selectors = [u << 8 | 0x5E for u in range(256)]
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
        selectors = [u << 8 | 0x6C for u in range(8)]
        with pytest.raises(BackendError, match="injected"):
            scan_instruction(LOAD_ONLY[0], selectors, failing_executor(0x016C))

    @pytest.mark.parametrize("entry_id", range(1, 11))
    def test_records_equal_full_scan_records(self, make_executor, corpus_entries, catalog,
                                             entry_id):
        # the two callers share one measuring pass: over a 4-aligned slice of
        # the packed order, fresh executors with one seed give equal records,
        # the noisy 0x5E (id 3) and the faulting UD2 (id 8) included
        entry = next(e for e in corpus_entries if e.id == entry_id)
        selectors = range(0x4000, 0x8000)
        config = ScanConfig(repetitions=2)
        sink_file = io.BytesIO()
        full_scan([entry], catalog, make_executor(seed=5), config,
                  record_sink=ndjson_record_sink(sink_file))
        lines = sink_file.getvalue().splitlines()
        if entry_id == 9:  # needs avx512: full_scan skips it, scan_instruction raises
            assert lines == []
            with pytest.raises(InstantiationError):
                scan_instruction(entry, selectors, make_executor(seed=5), config)
            return
        want = [(p, record["delta"], record["outcome"])
                for p, record in zip(selectors, map(json.loads, lines[selectors.start:]))]
        got = [(r.selector, r.delta, r.outcome.value)
               for r in scan_instruction(entry, selectors, make_executor(seed=5), config)]
        assert got == want
        if entry_id == 3:  # the noise is in play
            assert len({delta for p, delta, _ in got if p & 0xFF == 0x5E}) > 1
        if entry_id == 8:
            assert {outcome for _, _, outcome in got} == {"fault"}


class TestPartitionRule:
    def test_partitioned_passes_equal_one_pass(self, make_executor, corpus_entries):
        # noise epochs are per selector, so passes over a partition of the
        # codes, each with a fresh executor of one seed, measure what one pass
        # over the whole space does, the noisy 0x5E family included
        rng = np.random.default_rng(36)
        order = rng.permutation(EVENT_SPACE_SIZE)
        parts = np.split(order, np.sort(rng.choice(EVENT_SPACE_SIZE - 1, 4, replace=False)) + 1)
        config = ScanConfig(repetitions=3)
        spread = {}
        for entry in corpus_entries:
            if entry.id == 9:  # needs avx512, which the fixture's pool lacks
                continue
            snippet = instantiate(entry)
            ((_, index, medians),) = _scan_snippets(
                make_executor(seed=5), [snippet], range(EVENT_SPACE_SIZE), config)
            whole = np.zeros(EVENT_SPACE_SIZE, np.int64)
            whole[index] = medians
            pieced = np.full(EVENT_SPACE_SIZE, -1, np.int64)
            for part in parts:  # each in its shuffled order
                ((_, index, medians),) = _scan_snippets(make_executor(seed=5), [snippet],
                                                        part.tolist(), config)
                pieced[part] = 0
                pieced[part[index]] = medians
            assert pieced.tolist() == whole.tolist(), entry.id
            spread[entry.id] = len(set(whole[0x5E::256].tolist()))
        assert spread[3] > 1  # the noise is in play on the alu instruction


class TestBatchRule:
    @pytest.mark.parametrize("wide", [False, True], ids=["fixture", "wide"])
    @pytest.mark.parametrize("repetitions", [1, 2, 3, 9])
    def test_one_scan_equals_a_pass_per_instruction(self, sim_model, corpus_entries, catalog,
                                                    caplog, repetitions, wide):
        # a simulated scan measures several instructions in one pass, whose
        # noise epochs each selector claims instruction by instruction, so
        # it gives what scanning each in its own pass, in corpus order, does:
        # the noisy 0x5E family, the faulting id 8 and the skipped id 9
        # included.  The wide model's 8,192 more armed selectors take more
        # than VECTOR_CELLS cells at any repetitions: one instruction a pass,
        # and several chunks each
        families = sim_model.families
        if wide:
            families += tuple(SimEventFamily(code, 0x00, frozenset({"alu"}), increment=code)
                              for code in range(0x10, 0x30))
        model = dataclasses.replace(sim_model, families=families)

        def scan(groups):
            executor = SimulatedExecutor(model.make_backend(8), model.fault_table,
                                         model.supported_extensions)
            blocks: list[bytes] = []
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="pmu_prospector.collector"):
                reports = [full_scan(entries, catalog, executor, ScanConfig(repetitions),
                                     record_sink=lambda block: blocks.append(b"".join(block)))
                           for entries in groups]
            logs = [(r.levelname, r.getMessage()) for r in caplog.records]
            return reports, b"".join(blocks), logs

        (whole,), records, logs = scan([corpus_entries])
        parts, part_records, part_logs = scan([[entry] for entry in corpus_entries])
        hidden: dict[int, set[int]] = {}
        for part in parts:
            for packed, ids in part.hidden_events.items():
                hidden.setdefault(packed, set()).update(ids)
        assert whole.hidden_events == dict(sorted(hidden.items()))
        assert whole.total_instructions == sum(part.total_instructions for part in parts) == 10
        assert whole.executed_success == sum(part.executed_success for part in parts) == 8
        assert records == part_records and logs == part_logs
        assert ("WARNING", "skipping id 9 (VFMADD132PS): extension 'avx512' not supported by the "
                "register pool") in logs
        assert b'"instruction": 8, "outcome": "fault"' in records
        assert len({tuple(whole.hidden_events[p]) for p in HIDDEN_5E}) > 1  # the noise is in play
        armed = len(model.make_backend()._armed)
        assert armed * repetitions > backend_module.VECTOR_CELLS if wide else armed == 704

    @pytest.mark.parametrize("repetitions, passes, draws",
                             [(1, 1, 1), (2, 2, 2), (3, 3, 3), (5, 5, 5), (12, 9, 18)])
    def test_instructions_per_pass(self, make_executor, corpus_entries, catalog, monkeypatch,
                                   repetitions, passes, draws):
        # VECTOR_CELLS // (repetitions * 704 armed selectors) instructions a
        # pass, at least one: 11, 5, 3 and 2 of the 9 scanned, then 1 from 12
        # repetitions on, where an instruction's 704 x 12 cells take two
        # chunks.  Each pass makes one _deltas round, and each chunk one
        # _overcounts call for its noisy 0x5E selectors
        calls: Counter = Counter()
        for name in ("_deltas", "_overcounts"):
            def counted(*args, _method=getattr(SimulatedPmu, name), _name=name):
                calls[_name] += 1
                return _method(*args)

            monkeypatch.setattr(SimulatedPmu, name, counted)
        full_scan(corpus_entries, catalog, make_executor(seed=3), ScanConfig(repetitions))
        assert calls == {"_deltas": passes, "_overcounts": draws}


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
        for packed, ids in fixture_report.hidden_events.items():
            if packed & 0xFF == 0x6C:
                assert ids == {1}
            elif packed & 0xFF == 0xD3:
                assert ids == {1, 2}
            elif packed & 0xFF == 0x08:
                assert ids == {5}
            else:
                # over-counting family: the true triggers plus occasional noise
                assert packed & 0xFF == 0x5E
                assert ids >= {3, 6}

    def test_report_header_fields(self, fixture_report):
        assert fixture_report.microarchitecture_label == "sim-skylake-desk"
        assert fixture_report.total_instructions == 10
        assert fixture_report.executed_success == 8

    def test_report_names_the_catalog_file(self, fixture_report):
        assert fixture_report.catalog_source == "catalog.csv"

    def test_documented_selectors_never_reported(self, fixture_report, catalog):
        assert all(p not in catalog.entries for p in fixture_report.hidden_events)

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

    def test_a_scan_leaves_no_cyclic_garbage(self, make_executor, corpus_entries, catalog,
                                            caplog):
        # the skipped id 9's error, kept with its traceback, would hold the
        # scan's frame, and all it refers to, until the next gc collection;
        # no log record is made, as a captured one would keep it reachable
        caplog.set_level(logging.CRITICAL, logger="pmu_prospector.collector")
        executor = make_executor()
        gc.collect()
        gc.disable()
        try:
            full_scan(corpus_entries, catalog, executor, ScanConfig(repetitions=1))
            assert gc.collect() == 0
        finally:
            gc.enable()

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
        assert {p & 0xFF for p in by_threshold[1]} == {0x10, 0x20, 0x30}
        assert {p & 0xFF for p in by_threshold[2]} == {0x20, 0x30}
        assert {p & 0xFF for p in by_threshold[3]} == {0x30}
        assert by_threshold[4] == set()
        # raising the threshold never adds selectors
        assert by_threshold[4] <= by_threshold[3] <= by_threshold[2] <= by_threshold[1]

    def test_backend_failure_skips_batch_and_continues(self, caplog):
        with caplog.at_level(logging.WARNING):
            report = full_scan(
                LOAD_ONLY, EventCatalog(), failing_executor(0x016C), ScanConfig(repetitions=1)
            )
        assert 0x016C not in report.hidden_events
        assert len(report.hidden_events) == 127
        # the warning names the lost batch's span, the four selectors of its slots
        assert "selectors 0x016C..0x016F for id 1" in caplog.text

    @pytest.mark.parametrize("failing", [(0x016C,), (0x016C, 0x0170)])
    def test_one_warning_per_lost_batch(self, caplog, failing):
        # benchmarks/ counts lost batches from these warnings; two
        # neighbouring lost batches are two warnings, not one merged span
        sink_file = io.BytesIO()
        with caplog.at_level(logging.WARNING, logger="pmu_prospector.collector"):
            full_scan(LOAD_ONLY, EventCatalog(), failing_executor(*failing),
                      ScanConfig(repetitions=1), record_sink=ndjson_record_sink(sink_file))
        lost = [r for r in caplog.records if r.msg.startswith("backend failure")]
        assert [r.name for r in lost] == ["pmu_prospector.collector"] * len(failing)
        outcomes = [json.loads(line)["outcome"] for line in sink_file.getvalue().splitlines()]
        assert {p for p, outcome in enumerate(outcomes) if outcome == "backend-error"} == {
            packed + k for packed in failing for k in range(4)}

        caplog.clear()
        executor = failing_executor(*failing)
        with caplog.at_level(logging.DEBUG), pytest.raises(BackendError, match="injected") as exc:
            scan_instruction(LOAD_ONLY[0], range(0x0160, 0x0180), executor)
        assert exc.value is executor.backend.raised[0]
        assert caplog.records == []

    @pytest.mark.parametrize("repetitions", [1, 2, 5])
    def test_same_report_with_and_without_records(
        self, make_executor, corpus_entries, catalog, repetitions
    ):
        # the fixture's 0x5E family is noisy, so its medians vary with the
        # repetitions; the records hold the dense medians of every selector
        config = ScanConfig(repetitions=repetitions)
        blocks: list[bytes] = []  # each block copied during its sink call
        recorded = full_scan(corpus_entries, catalog, make_executor(seed=4), config,
                             record_sink=lambda block: blocks.append(b"".join(block)))
        assert full_scan(corpus_entries, catalog, make_executor(seed=4), config) == recorded
        loud: dict[int, set[int]] = {}
        nonzero = r'"delta": ([1-9]\d*), "instruction": (\d+), [^\n]*"selector": "(0x....)"'
        for delta, entry_id, text in re.findall(nonzero, b"".join(blocks).decode()):
            packed = int(text, 16)
            if int(delta) >= config.quiet_threshold and packed not in catalog.entries:
                loud.setdefault(packed, set()).add(int(entry_id))
        assert loud == recorded.hidden_events
        assert {p & 0xFF for p in loud} == {0x08, 0x5E, 0x6C, 0xD3}


class TestRecordSink:
    def test_streams_every_selector_in_packed_order(self):
        family = SimEventFamily(0x6C, 0x01, frozenset({"memory-load"}))

        def run():
            sink_file = io.BytesIO()
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
        assert hashlib.sha256(run()).digest() == hashlib.sha256(text).digest()

    def test_lost_batch_records_read_backend_error(self):
        sink_file = io.BytesIO()
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
        inner = failing_executor()  # a scalar-path backend that never fails
        executor = _FaultingBatchExecutor(inner, fault_call=0x016C // 4 + 1)
        sink_file = io.BytesIO()
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
            record_sink=lambda block: blocks.append(b"".join(block).decode()),
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
        assert selectors == [format_selector(p) for p in range(EVENT_SPACE_SIZE)] * len(scanned)

    def test_scan_holds_no_list_of_the_whole_space(self, make_executor, corpus_entries, catalog):
        # a 65,536-entry list takes 0.5 MiB: a scan that builds two per
        # instruction, an outcome list and a dense median array, peaks at
        # about 2.2 MiB on this instruction, and this one at about 1.1 MiB
        entry = [e for e in corpus_entries if e.id == 1]
        config = ScanConfig(repetitions=1)
        full_scan(entry, catalog, make_executor(seed=3), config, record_sink=lambda b: None)
        executor = make_executor(seed=3)  # the warm-up above built the per-process tables
        tracemalloc.start()
        try:
            full_scan(entry, catalog, executor, config, record_sink=lambda b: None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


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


def json_lines(instruction_id, spans, loud):
    """Reference oracle: json.dumps of each record, one selector at a time."""
    return [
        json.dumps({"selector": format_selector(p), "instruction": instruction_id,
                    "delta": loud.get(p, 0), "outcome": outcome}, sort_keys=True) + "\n"
        for start, stop, outcome in spans for p in range(start, stop)
    ]


def per_line_render(instruction_id, base, deltas, outcomes):
    """Reference oracle: one f-string per line, the selector of line i being
    base + i, as records were built before quiet lines were cut from a block."""
    return [
        f'{{"delta": {delta}, "instruction": {instruction_id}, '
        f'"outcome": "{outcome}", "selector": "{format_selector(base + i)}"}}\n'
        for i, (delta, outcome) in enumerate(zip(deltas, outcomes))
    ]


@st.composite
def sparse_blocks(draw):
    """Aligned deltas and outcomes from a drawn first selector, as a scan
    renders them: deltas mostly 0 and outcomes mostly one ExecStatus, over
    a range that may be empty, cross a block boundary or fill a block."""
    n = draw(st.one_of(st.just(RECORD_BLOCK), st.integers(min_value=0, max_value=64)))
    index = st.integers(min_value=0, max_value=max(n - 1, 0))
    nonzero = draw(st.dictionaries(
        index, st.integers(min_value=-(2**63), max_value=2**63 - 1).filter(bool),
        max_size=12,
    ))
    others = draw(st.dictionaries(index, st.sampled_from(ExecStatus), max_size=12))
    common = draw(st.sampled_from(ExecStatus))
    base = draw(st.integers(min_value=0, max_value=EVENT_SPACE_SIZE - n))
    deltas = [nonzero.get(i, 0) for i in range(n)]
    outcomes = [others.get(i, common).value for i in range(n)]
    return base, deltas, outcomes


@st.composite
def record_calls(draw):
    """Arguments of consecutive RecordRenderer.render calls: ids in +-2**70,
    spans of any outcome that tile a range of up to a few blocks from a drawn
    first selector, and sparse nonzero int64 deltas, negative ones included."""
    calls = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        instruction_id = draw(st.integers(min_value=-(2**70), max_value=2**70))
        size = draw(st.integers(min_value=0, max_value=2 * RECORD_BLOCK + 64))
        first = draw(st.integers(min_value=0, max_value=EVENT_SPACE_SIZE - size))
        cuts = draw(st.sets(st.integers(min_value=first + 1, max_value=first + size - 1),
                            max_size=6)) if size > 1 else set()
        bounds = [first, *sorted(cuts), first + size] if size else []
        spans = [(start, stop, draw(st.sampled_from(ExecStatus)).value)
                 for start, stop in zip(bounds, bounds[1:])]
        loud = draw(st.dictionaries(
            st.integers(min_value=first, max_value=max(first, first + size - 1)),
            st.integers(min_value=-(2**63), max_value=2**63 - 1).filter(bool),
            max_size=12,
        )) if size else {}
        calls.append((instruction_id, spans, loud))
    return calls


class TestRenderRecords:
    @settings(max_examples=150, deadline=None)
    @given(calls=record_calls())
    @example(calls=[
        # a success span across the boundary at RECORD_BLOCK, then a
        # backend-error span that starts and ends inside the next block
        (7, [(RECORD_BLOCK - 5, RECORD_BLOCK + 9, "success"),
             (RECORD_BLOCK + 9, RECORD_BLOCK + 20, "backend-error"),
             (RECORD_BLOCK + 20, RECORD_BLOCK + 30, "success")],
         {RECORD_BLOCK - 1: -3, RECORD_BLOCK: 2**63 - 1, RECORD_BLOCK + 9: 1}),
        # a wider head rebuilds the buffer, and a narrower one again
        (-(2**70), [(0, 3, "unsupported")], {2: -(2**63)}),
        (8, [(EVENT_SPACE_SIZE - 2, EVENT_SPACE_SIZE, "fault")], {}),
    ])
    def test_lines_equal_json_dumps(self, calls):
        renderer = RecordRenderer()
        for instruction_id, spans, loud in calls:
            index = np.array(sorted(loud), np.int64)
            deltas = np.array([loud[p] for p in sorted(loud)], np.int64)
            blocks = []
            for block in renderer.render(instruction_id, spans, index, deltas):
                # a list of byte buffers, valid until the next block: copied at once
                assert type(block) is list
                assert all(memoryview(b).ndim == 1 and memoryview(b).itemsize == 1 for b in block)
                blocks.append(b"".join(block))
            text = b"".join(blocks).decode()
            # lists, so a failure names the first differing line instead of diffing the block
            assert text.splitlines(keepends=True) == json_lines(instruction_id, spans, loud)
            # one block per RECORD_BLOCK-aligned block of packed order the range touches
            touched = {p // RECORD_BLOCK for start, stop, _ in spans for p in (start, stop - 1)}
            assert len(blocks) == (max(touched) - min(touched) + 1 if spans else 0)
            for block in blocks:
                numbers = {int(p, 16) // RECORD_BLOCK
                           for p in re.findall(rb'"selector": "(0x[0-9A-F]{4})"', block)}
                assert len(numbers) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        instruction_id=st.integers(min_value=-(2**70), max_value=2**70),
        block=sparse_blocks(),
    )
    def test_equals_per_line_render(self, instruction_id, block):
        base, deltas, outcomes = block
        # one span per run of equal outcomes, as the scan hands them over
        spans = []
        for i, outcome in enumerate(outcomes, base):
            if spans and spans[-1][2] == outcome:
                spans[-1] = (spans[-1][0], i + 1, outcome)
            else:
                spans.append((i, i + 1, outcome))
        loud = [i for i, delta in enumerate(deltas) if delta]
        index = np.array([base + i for i in loud], np.int64)
        text = b"".join(b"".join(block) for block in RecordRenderer().render(
            instruction_id, spans, index, np.array([deltas[i] for i in loud], np.int64),
        )).decode()
        # lists, so a failure names the first differing line instead of diffing the block
        assert text.splitlines(keepends=True) == per_line_render(
            instruction_id, base, deltas, outcomes)


    def test_an_outcome_of_equal_width_changes_inside_a_block(self):
        # the ExecStatus values differ in width, so this takes two other
        # outcomes: the second rewrites the heads of the rows the first's
        # buffers slice, so those are copied before it is set
        spans = [(10, 20, "alpha"), (20, 30, "gamma"), (30, RECORD_BLOCK + 5, "alpha")]
        loud = {12: 4, 25: -1}
        stream = []
        render_into(lambda block: stream.append(b"".join(block)), [(2, spans, loud)])
        assert b"".join(stream).decode().splitlines(keepends=True) == json_lines(2, spans, loud)

    def test_aligned_blocks_differ_from_the_first_only_in_the_top_digit(self):
        # the quiet-line buffer holds rows 0..RECORD_BLOCK-1 and rewrites only
        # this column per block
        table = selector_ascii()
        first = table[:RECORD_BLOCK]
        for start in range(0, EVENT_SPACE_SIZE, RECORD_BLOCK):
            rows = table[start : start + RECORD_BLOCK]
            assert (rows != first).any(axis=0).tolist() == [False, False, start > 0] + [False] * 3
            fixed = first.copy()
            fixed[:, 2] = rows[0, 2]
            assert np.array_equal(rows, fixed)
            assert rows[0].tobytes() == format_selector(start).encode()


# consecutive render calls as (instruction_id, spans, loud): spans across
# block boundaries with a mid-block change of outcome, and the space's last block
SINK_CALLS = [
    (7, [(0, RECORD_BLOCK + 9, "success"), (RECORD_BLOCK + 9, RECORD_BLOCK + 20, "backend-error"),
         (RECORD_BLOCK + 20, 3 * RECORD_BLOCK, "success")],
     {5: 3, RECORD_BLOCK: 2**63 - 1, RECORD_BLOCK + 9: -1, 3 * RECORD_BLOCK - 1: 12}),
    (12345, [(EVENT_SPACE_SIZE - RECORD_BLOCK, EVENT_SPACE_SIZE, "fault")],
     {EVENT_SPACE_SIZE - RECORD_BLOCK: 2, EVENT_SPACE_SIZE - 1: 1}),
]
# one block whose every selector is nonzero: 8,193 buffers, more than SC_IOV_MAX
ALL_LOUD = [(3, [(RECORD_BLOCK, 2 * RECORD_BLOCK, "success")],
             {p: p - 2**40 for p in range(RECORD_BLOCK, 2 * RECORD_BLOCK)})]


def render_into(sink, calls) -> None:
    renderer = RecordRenderer()
    for instruction_id, spans, loud in calls:
        index = np.array(sorted(loud), np.int64)
        deltas = np.array([loud[p] for p in sorted(loud)], np.int64)
        for block in renderer.render(instruction_id, spans, index, deltas):
            sink(block)


def json_stream(calls) -> bytes:
    return "".join(line for call in calls for line in json_lines(*call)).encode()


class TestNdjsonRecordSink:
    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        iov_max = os.sysconf("SC_IOV_MAX")
        want = json_stream(SINK_CALLS + ALL_LOUD)
        sizes = []

        def short_writev(fd, buffers):  # at most 1,000 bytes a call
            assert len(buffers) <= iov_max
            assert sum(sizes) < len(want)  # a sink that rewrote bytes would never end
            data = bytearray()
            for buffer in buffers:
                data += buffer
                if len(data) >= 1000:
                    break
            sizes.append(os.write(fd, data[:1000]))
            return sizes[-1]

        monkeypatch.setattr(os, "writev", short_writev)
        path = tmp_path / "records.ndjson"
        with open(path, "wb") as fh:
            render_into(ndjson_record_sink(fh), SINK_CALLS + ALL_LOUD)
        assert path.read_bytes() == want
        assert max(sizes) == 1000 and len(sizes) > len(want) // 1000

    def test_what_fh_buffered_comes_first(self, tmp_path):
        path = tmp_path / "records.ndjson"
        with open(path, "wb") as fh:
            fh.write(b"buffered\n")
            render_into(ndjson_record_sink(fh), SINK_CALLS)
        assert path.read_bytes() == b"buffered\n" + json_stream(SINK_CALLS)

    def test_a_block_past_iov_max_is_written_in_chunks(self, tmp_path, monkeypatch):
        iov_max = os.sysconf("SC_IOV_MAX")
        writev, chunks = os.writev, []

        def counting_writev(fd, buffers):
            chunks.append(len(buffers))
            return writev(fd, buffers)

        monkeypatch.setattr(os, "writev", counting_writev)
        path = tmp_path / "records.ndjson"
        with open(path, "wb") as fh:
            render_into(ndjson_record_sink(fh), ALL_LOUD)
        assert path.read_bytes() == json_stream(ALL_LOUD)
        assert sum(chunks) == 2 * RECORD_BLOCK + 1 > iov_max
        assert chunks == [iov_max] * (len(chunks) - 1) + [sum(chunks) % iov_max or iov_max]

    @pytest.mark.parametrize("target", ["bytesio", "no-writev"])
    def test_writelines_fallback(self, tmp_path, monkeypatch, target):
        if target == "no-writev":
            monkeypatch.delattr(os, "writev")
        # an io.BytesIO has no descriptor
        with io.BytesIO() if target == "bytesio" else open(tmp_path / "records", "w+b") as fh:
            render_into(ndjson_record_sink(fh), SINK_CALLS)
            fh.seek(0)
            assert fh.read() == json_stream(SINK_CALLS)

    def test_a_longer_file_is_cut_to_the_stream(self, tmp_path):
        path = tmp_path / "records.ndjson"
        want = json_stream(SINK_CALLS)
        path.write_bytes(b"x" * (2 * len(want) + 1))
        with completed_stream(str(path)) as fh:
            render_into(ndjson_record_sink(fh), SINK_CALLS)
        assert path.read_bytes() == want
        assert not list(tmp_path.glob("*.partial"))

    def test_a_fifo_is_written_directly(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        with completed_stream(str(fifo)) as fh:
            render_into(ndjson_record_sink(fh), SINK_CALLS)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [json_stream(SINK_CALLS)]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def report_cli(file: str) -> list[str]:
    return ["report", "--in", file]


def sample_report() -> ScanReport:
    return ScanReport(
        microarchitecture_label="sim-skylake-desk",
        total_instructions=10,
        executed_success=8,
        hidden_events={0x016C: {1, 3}, 0x03D3: {2}},
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

    @pytest.mark.parametrize("key, ids", [("0x16c", [1]), (" 0x016C ", [1]), ("0x016C", [])],
                             ids=["lower-case-short", "spaced", "no-ids"])
    def test_any_hexadecimal_key_and_an_empty_id_list_load(self, tmp_path, key, ids):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({
            "format": "pmu-prospector-scan-v1", "microarchitecture": "x",
            "total_instructions": 1, "executed_success": 1, "hidden_events": {key: ids},
        }))
        assert load_report(str(path)).hidden_events == {0x016C: set(ids)}

    def test_loaded_keys_read_packed_like_selectors(self, tmp_path):
        path = str(tmp_path / "report.json")
        persist_report(sample_report(), path)
        assert [(key, key.packed) for key in load_report(path).hidden_events] == [
            (0x016C, 0x016C), (0x03D3, 0x03D3)]

    def test_fixture_report_rewrites_byte_identical(self, tmp_path, make_executor,
                                                    corpus_entries, catalog):
        report = full_scan(corpus_entries, catalog, make_executor(seed=5),
                           ScanConfig(repetitions=3))
        first, second = str(tmp_path / "first.json"), str(tmp_path / "second.json")
        persist_report(report, first)
        persist_report(load_report(first), second)
        assert len(report.hidden_events) == 702
        assert Path(first).read_bytes() == Path(second).read_bytes()
        text = Path(first).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

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
        # two malformed members: the error names the one first in the file
        (("hidden_events",), {"0x016C": [1, 2.5], "0xZZ6C": [1]},
         "hidden_events['0x016C'] must be a list"),
        (("hidden_events",), {"0xZZ6C": [1], "0x016C": [1, 2.5]}, "hidden_events key '0xZZ6C'"),
        (("hidden_events",), {"0x016C": [1], "0x16c": [2], "0x03D3": [True]},
         "hidden_events keys '0x016C' and '0x16c' name the same entry"),
    ], ids=["not-utf-8", "number-too-long", "top-level-list", "other-format", "unknown-key",
            "no-label", "label-list", "source-object", "total-float", "total-below-0",
            "executed-string", "executed-below-0", "executed-past-total", "hidden-list",
            "selector-not-hex", "selector-below-0", "selector-past-0xFFFF", "id-float",
            "selector-twice", "id-float-then-bad-key", "bad-key-then-id-float",
            "selector-twice-then-id-bool"])
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
