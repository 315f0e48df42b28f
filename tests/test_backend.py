import contextlib
import errno
import hashlib
import itertools
import json
import logging
import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from pmu_prospector import backend as backend_module
from pmu_prospector.backend import (
    PERFEVTSEL_BASE_MSR,
    PMC_BASE_MSR,
    PROGRAMMABLE_SLOTS,
    CounterBackend,
    CounterSlot,
    MAX_FAMILY_SCALE,
    NativeMsrBackend,
    SLOTS,
    SimEventFamily,
    SimulatedPmu,
    load_sim_model,
    measure,
    probe_native_backend,
)
from pmu_prospector.collector import ScanConfig, _scan_snippets, full_scan
from pmu_prospector.corpus import SimulatedExecutor, instantiate
from pmu_prospector.errors import (
    BackendError,
    BackendStateError,
    InstantiationError,
    ReportParseError,
    SlotRangeError,
)
from pmu_prospector.events import (EVENT_SPACE_SIZE, EventCatalog, PerfEvtSelValue, decode_msr_value,
                                   pack_selector, render_msr_value, scan_control, umask_gates,
                                   unpack_selector)
from pmu_prospector.seeding import derive_seed, point_fractions, point_hashes
from scalar_hash import mix64, point_fraction

DATA = Path(__file__).resolve().parent / "data"
SIM_MODEL = json.loads((DATA / "sim_model.json").read_text(encoding="utf-8"))


def data(name: str) -> str:
    return str(DATA / name)


LOAD_FAMILY = SimEventFamily(
    event_code=0x6C, relevance_mask=0x01, trigger_classes=frozenset({"memory-load"})
)


def make_backend(*families, seed=0, **kwargs) -> SimulatedPmu:
    return SimulatedPmu(families or (LOAD_FAMILY,), seed=seed, **kwargs)


class TestSlots:
    def test_valid_range(self):
        assert [s.index for s in SLOTS] == [0, 1, 2, 3]

    def test_out_of_range_slot(self):
        with pytest.raises(SlotRangeError):
            CounterSlot(PROGRAMMABLE_SLOTS)
        with pytest.raises(SlotRangeError):
            CounterSlot(-1)

    def test_msr_addresses(self):
        # selection registers sit at 0x186+, counters at 0xC1+
        assert PERFEVTSEL_BASE_MSR == 0x186
        assert PMC_BASE_MSR == 0xC1


class TestSimulatedPmu:
    def test_program_resets_count(self):
        backend = make_backend()
        backend.program(SLOTS[0], scan_control(0x003C))
        assert backend.read(SLOTS[0]) == 0

    def test_read_before_program_fails(self):
        backend = make_backend()
        with pytest.raises(BackendStateError):
            backend.read(SLOTS[2])

    def test_gated_family_counts_trigger_class(self):
        backend = make_backend()
        backend.program(SLOTS[0], scan_control(0x016C))
        backend.record_execution("memory-load")
        backend.record_execution("memory-load")
        assert backend.read(SLOTS[0]) == 2

    def test_non_trigger_class_does_not_count(self):
        backend = make_backend()
        backend.program(SLOTS[0], scan_control(0x016C))
        backend.record_execution("alu")
        assert backend.read(SLOTS[0]) == 0

    def test_closed_umask_gate_stays_quiet(self):
        backend = make_backend()
        backend.program(SLOTS[0], scan_control(0x026C))
        backend.record_execution("memory-load")
        assert backend.read(SLOTS[0]) == 0

    def test_zero_relevance_mask_counts_for_any_umask(self):
        family = SimEventFamily(0x10, 0x00, frozenset({"alu"}), increment=5)
        backend = make_backend(family)
        for umask in (0x00, 0x40, 0xFF):
            backend.program(SLOTS[0], scan_control(umask << 8 | 0x10))
            backend.record_execution("alu")
            assert backend.read(SLOTS[0]) == 5

    def test_unknown_event_code_stays_quiet(self):
        backend = make_backend()
        backend.program(SLOTS[0], scan_control(0xFF99))
        backend.record_execution("memory-load")
        assert backend.read(SLOTS[0]) == 0

    def test_reprogramming_rearms_and_resets(self):
        backend = make_backend()
        value = scan_control(0x016C)
        backend.program(SLOTS[0], value)
        backend.record_execution("memory-load")
        assert backend.read(SLOTS[0]) == 1
        backend.program(SLOTS[0], value)
        assert backend.read(SLOTS[0]) == 0

    def test_slots_are_isolated(self):
        backend = make_backend()
        backend.program(SLOTS[0], scan_control(0x016C))
        backend.record_execution("memory-load")
        backend.program(SLOTS[1], scan_control(0x036C))
        backend.record_execution("memory-load")
        assert backend.read(SLOTS[0]) == 2
        assert backend.read(SLOTS[1]) == 1

    def test_duplicate_family_codes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SimulatedPmu([LOAD_FAMILY, LOAD_FAMILY])

    def test_capabilities(self):
        assert make_backend().supports_tsx
        assert not make_backend(supports_tsx=False).supports_tsx

    def test_noise_is_truncated_overcount(self):
        family = SimEventFamily(
            0x20, 0x00, frozenset({"alu"}), increment=2, noise_stddev=3.0, seed=5
        )
        backend = make_backend(family)
        twin = make_backend(family)  # read only at the end
        for pmu in (backend, twin):
            pmu.program(SLOTS[0], scan_control(0x0020))
        previous = 0
        for _ in range(200):
            backend.record_execution("alu")
            twin.record_execution("alu")
            current = backend.read(SLOTS[0])
            # never decrements, and each execution adds at least the increment
            assert current >= previous + 2
            previous = current
        # with stddev 3 some over-count must have appeared in 200 draws
        assert previous > 400
        # draws taken at read time do not depend on when the reads happen
        assert twin.read(SLOTS[0]) == previous

    def test_noise_applies_even_without_trigger(self):
        # an armed noisy counter over-counts on unrelated executions too
        family = SimEventFamily(
            0x20, 0x00, frozenset({"alu"}), noise_stddev=5.0, seed=5
        )
        backend = make_backend(family)
        backend.program(SLOTS[0], scan_control(0x0020))
        for _ in range(100):
            backend.record_execution("branch")
        assert backend.read(SLOTS[0]) > 0

    def test_replay_same_seed_same_counts(self):
        family = SimEventFamily(
            0x20, 0x01, frozenset({"alu"}), noise_stddev=2.0, seed=3
        )

        def run(seed):
            backend = SimulatedPmu([family], seed=seed)
            reads = []
            for umask in (0x01, 0x03, 0x07):
                backend.program(SLOTS[0], scan_control(umask << 8 | 0x20))
                for _ in range(10):
                    backend.record_execution("alu")
                reads.append(backend.read(SLOTS[0]))
            return reads

        assert run(42) == run(42)
        assert run(42) != run(43)  # stddev 2 makes collisions over 30 draws implausible

    def test_noise_stream_independent_of_programming_order(self):
        # the draw stream depends on the selector and its epoch, not on what ran before
        family = SimEventFamily(0x20, 0x00, frozenset({"alu"}), noise_stddev=2.0, seed=3)

        def measure(backend, umask):
            backend.program(SLOTS[0], scan_control(umask << 8 | 0x20))
            for _ in range(20):
                backend.record_execution("alu")
            return backend.read(SLOTS[0])

        forward = SimulatedPmu([family], seed=1)
        backward = SimulatedPmu([family], seed=1)
        a = {u: measure(forward, u) for u in (0x00, 0x01, 0x02)}
        b = {u: measure(backward, u) for u in (0x02, 0x01, 0x00)}
        assert a == b

    def test_reprogramming_draws_fresh_noise(self):
        # repeated windows of the same selector must not replay one noise stream,
        # or a median over repetitions would collapse to a single sample
        family = SimEventFamily(0x20, 0x00, frozenset({"alu"}), noise_stddev=2.0, seed=3)

        def windows(backend):
            reads = []
            for _ in range(8):
                backend.program(SLOTS[0], scan_control(0x0020))
                for _ in range(20):
                    backend.record_execution("alu")
                reads.append(backend.read(SLOTS[0]))
            return reads

        reads = windows(SimulatedPmu([family], seed=1))
        assert len(set(reads)) > 1
        # the repetition sequence itself replays exactly under the same run seed
        assert windows(SimulatedPmu([family], seed=1)) == reads

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from(["program", "load", "store"]),
                st.integers(0, 255),
            ),
            max_size=40,
        )
    )
    def test_slot_isolation_against_reference_model(self, ops):
        """Random interleavings match an independent per-slot bookkeeping model."""
        families = [
            SimEventFamily(0x6C, 0x01, frozenset({"memory-load"})),
            SimEventFamily(0xD3, 0x03, frozenset({"memory-load", "memory-store"}), increment=2),
        ]
        by_code = {f.event_code: f for f in families}
        backend = SimulatedPmu(families)
        model: dict[int, tuple[int, int] | None] = {i: None for i in range(4)}  # slot -> (code, umask)
        counts = {i: 0 for i in range(4)}
        tags = {"load": "memory-load", "store": "memory-store"}
        for slot_index, action, umask in ops:
            if action == "program":
                code = 0x6C if umask % 2 else 0xD3
                backend.program(SLOTS[slot_index], scan_control(umask << 8 | code))
                model[slot_index] = (code, umask)
                counts[slot_index] = 0
            else:
                backend.record_execution(tags[action])
                for i, bound in model.items():
                    if bound is None:
                        continue
                    family = by_code[bound[0]]
                    if (bound[1] & family.relevance_mask) and tags[action] in family.trigger_classes:
                        counts[i] += family.increment
        for i in range(4):
            if model[i] is not None:
                assert backend.read(SLOTS[i]) == counts[i]


class SelectorEchoBackend(CounterBackend):
    """Reads back the packed selector a slot holds; refuses one selector."""

    def __init__(self, refuse: int | None = None):
        self.refuse = refuse
        self.held: dict[int, int] = {}

    def program(self, slot, value):
        if value.selector == self.refuse:
            raise BackendError(f"cannot program 0x{self.refuse:04X}")
        self.held[slot.index] = value.selector

    def read(self, slot):
        return self.held[slot.index]


def control(base: int, n: int) -> list[int]:
    """Packed codes of event 0x6C with umasks base .. base + n - 1."""
    return [((base + j) << 8) | 0x6C for j in range(n)]


def densified(batches):
    """(start, deltas, outcome) per measure() batch, its rows scattered back
    to one per position of its span; a lost batch keeps its empty deltas."""
    for _, start, stop, index, deltas, outcome in batches:
        if not isinstance(outcome, BackendError):
            full = np.zeros((stop - start, deltas.shape[1]), np.int64)
            full[index - start] = deltas
            deltas = full
        yield start, deltas, outcome


class TestMeasure:
    def test_one_delta_per_repetition(self):
        backend = make_backend()
        seen = []

        def run(rep):
            seen.append(rep)
            for _ in range(rep + 1):
                backend.record_execution("memory-load")
            return "ran"

        ((base, deltas, outcome),) = densified(measure(backend, control(0x01, 1), [run], 3))
        assert deltas.dtype == np.int64 and deltas.shape == (1, 3)
        assert (base, deltas.tolist(), outcome) == (0, [[1, 2, 3]], "ran")
        assert seen == [0, 1, 2]

    def test_four_values_per_batch_one_per_slot(self):
        codes = control(0x10, 9)
        batches = list(densified(measure(SelectorEchoBackend(), codes, [lambda rep: None], 2)))
        assert [base for base, _, _ in batches] == [0, 4, 8]
        for base, deltas, _ in batches:
            assert deltas.dtype == np.int64
            assert deltas.tolist() == [[codes[base + j]] * 2 for j in range(len(deltas))]
        assert [len(deltas) for _, deltas, _ in batches] == [4, 4, 1]

    def test_backend_error_loses_only_its_batch(self):
        codes = control(0x10, 9)
        backend = SelectorEchoBackend(refuse=codes[5])
        batches = list(densified(measure(backend, codes, [lambda rep: "ran"], 1)))
        assert [base for base, _, _ in batches] == [0, 4, 8]
        (_, first, ok_first), (_, lost, error), (_, last, ok_last) = batches
        assert isinstance(error, BackendError) and lost.tolist() == []
        assert (ok_first, ok_last) == ("ran", "ran")
        assert first.tolist() == [[code] for code in codes[:4]]
        assert last.tolist() == [[codes[8]]]

    def test_slot_programmed_before_measure_counts_its_executions(self):
        backend = make_backend()
        backend.program(SLOTS[0], scan_control(0x016C))

        def run(rep):
            backend.record_execution("memory-load")

        ((_, deltas, _),) = densified(measure(backend, [0x016C], [run], 3))
        assert deltas.tolist() == [[1, 1, 1]]
        assert backend.read(SLOTS[0]) == 3

    def test_any_thread_reaches_the_programmed_values(self):
        programmed = []

        class Recorder(SelectorEchoBackend):
            def program(self, slot, value):
                programmed.append(value)
                super().program(slot, value)

        list(measure(Recorder(), control(0x10, 2), [lambda rep: None], 1, any_thread=True))
        assert programmed == [scan_control(unpack_selector(c), True) for c in control(0x10, 2)]


class _HiddenModel:
    """Delegates the backend contract to a SimulatedPmu but not its model,
    so measure() programs and reads it slot by slot."""

    def __init__(self, inner: SimulatedPmu):
        self._inner = inner

    def program(self, slot, value):
        self._inner.program(slot, value)

    def read(self, slot):
        return self._inner.read(slot)

    def record_execution(self, class_tag):
        self._inner.record_execution(class_tag)


class _Forwarding:
    """Proxy that forwards every attribute, as benchmark tracers do."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


EQUIVALENCE_CODES = [0x10, 0x20, 0x30, 0x40, 0x99]  # 0x99 has no family
EQUIVALENCE_UMASKS = [0x00, 0x01, 0x02, 0x03, 0x10, 0x80, 0xFF]
EQUIVALENCE_TAGS = ["alu", "memory-load", "memory-store", "branch"]

families_strategy = st.lists(
    st.builds(
        SimEventFamily,
        event_code=st.sampled_from(EQUIVALENCE_CODES[:4]),
        relevance_mask=st.sampled_from([0x00, 0x01, 0x03, 0x12, 0x80]),
        trigger_classes=st.frozensets(st.sampled_from(EQUIVALENCE_TAGS[:3]), max_size=2),
        increment=st.integers(0, 3),
        noise_stddev=st.sampled_from([0.0, 0.0, 0.6, 2.5]),
        seed=st.integers(0, 2**32),
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda f: f.event_code,
)
code_strategy = st.builds(
    lambda event, umask: (umask << 8) | event,
    st.sampled_from(EQUIVALENCE_CODES),
    st.sampled_from(EQUIVALENCE_UMASKS),
)
codes_strategy = st.lists(code_strategy, min_size=1, max_size=11, unique=True).filter(
    lambda codes: len(codes) % PROGRAMMABLE_SLOTS
)


def measured(backend, codes, plan, repetitions):
    """Per-code deltas and outcomes of one measure() call whose run records
    plan[rep]'s classes through the backend."""

    def run(rep):
        for tag in plan[rep]:
            backend.record_execution(tag)
        return f"outcome-{rep}-{len(plan[rep])}"

    deltas, outcomes = [], []
    for _, batch, outcome in densified(measure(backend, codes, [run], repetitions)):
        assert batch.dtype == np.int64 and batch.shape[1] == repetitions
        deltas += batch.tolist()
        outcomes += [outcome] * len(batch)
    return deltas, outcomes


class TestMeasurePathsAgree:
    @settings(max_examples=150, deadline=None)
    @given(
        families=families_strategy,
        codes=codes_strategy,
        repetitions=st.integers(1, 4),
        plan=st.lists(
            st.lists(st.sampled_from(EQUIVALENCE_TAGS), max_size=3), min_size=4, max_size=4
        ),
        seed=st.integers(0, 1000),
    )
    def test_simulated_path_equals_scalar_loop(self, families, codes, repetitions, plan, seed):
        simulated = SimulatedPmu(families, seed=seed)
        scalar = _HiddenModel(SimulatedPmu(families, seed=seed))
        for _ in range(2):  # the second round shows that epochs advanced alike
            fast = measured(simulated, codes, plan, repetitions)
            slow = measured(scalar, codes, plan, repetitions)
            assert fast == slow
        # the simulated path computed its deltas without programming a slot
        with pytest.raises(BackendStateError):
            simulated.read(SLOTS[0])

    @settings(max_examples=100, deadline=None)
    @given(
        families=families_strategy,
        codes=codes_strategy,
        repetitions=st.integers(1, 3),
        plans=st.lists(st.lists(st.lists(st.sampled_from(EQUIVALENCE_TAGS), max_size=3),
                                min_size=3, max_size=3), min_size=1, max_size=4),
        cells=st.sampled_from([1, 7, 30, 1 << 13]),
        seed=st.integers(0, 1000),
    )
    def test_workloads_in_one_call_equal_a_call_each(self, families, codes, repetitions, plans,
                                                     cells, seed):
        # however VECTOR_CELLS groups the workloads, each one's batches hold
        # what a call of its own measures, on both paths, noise epochs included
        def runner(pmu, plan):
            def run(rep):
                for tag in plan[rep]:
                    pmu.record_execution(tag)
                return f"outcome-{rep}-{len(plan[rep])}"
            return run

        def per_workload(batches):
            """Per workload, in order: its densified rows and their outcomes."""
            result: list[tuple[list, list]] = []
            for (workload, *_), (start, deltas, outcome) in zip(batches, densified(batches)):
                if start == 0:  # the workload's first batch
                    assert workload == len(result)
                    result.append(([], []))
                result[-1][0].extend(deltas.tolist())
                result[-1][1].extend([outcome] * len(deltas))
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backend_module, "VECTOR_CELLS", cells)
            for wrap in (lambda pmu: pmu, _HiddenModel):
                together, apart = SimulatedPmu(families, seed=seed), SimulatedPmu(families, seed=seed)
                one_call = per_workload(list(measure(
                    wrap(together), codes, [runner(together, plan) for plan in plans], repetitions)))
                calls = [per_workload(list(measure(wrap(apart), codes, [runner(apart, plan)],
                                                   repetitions)))[0] for plan in plans]
                assert one_call == calls

    def test_forwarding_proxy_takes_the_simulated_path(self):
        family = SimEventFamily(
            0x6C, 0x01, frozenset({"memory-load"}), noise_stddev=1.5, seed=2
        )
        direct = SimulatedPmu([family], seed=4)
        proxied = SimulatedPmu([family], seed=4)
        codes = control(0x00, 7)
        plan = [["memory-load"] * 3] * 4
        via_proxy = measured(_Forwarding(proxied), codes, plan, 3)
        assert via_proxy == measured(direct, codes, plan, 3)
        with pytest.raises(BackendStateError):
            proxied.read(SLOTS[0])


@pytest.mark.parametrize("path", ["simulated", "scalar"])
@pytest.mark.parametrize(
    "families, codes, cells, simulated_batches",
    [
        ([], range(0x0100, 0x0140), 1 << 13, 1),  # no armed selector
        ([LOAD_FAMILY], range(0x0100, 0x0300), 1 << 13, 1),  # quiet after 0x016C
        ([LOAD_FAMILY], control(0x00, 12)[::-1], 1, 6),  # a chunk per armed code
    ],
    ids=["none-armed", "quiet-tail", "batch-of-one"],
)
def test_spans_tile_the_codes(monkeypatch, path, families, codes, cells, simulated_batches):
    monkeypatch.setattr(backend_module, "VECTOR_CELLS", cells)
    pmu = SimulatedPmu(families)
    backend = pmu if path == "simulated" else _HiddenModel(pmu)

    def run(rep):
        backend.record_execution("memory-load")
        return "ran"

    batches = list(measure(backend, codes, [run], 2))
    offset = 0
    for workload, start, stop, index, deltas, outcome in batches:
        assert workload == 0 and start == offset < stop and outcome == "ran"
        assert index.dtype == np.int64 and deltas.shape == (len(index), 2)
        assert np.all(np.diff(index) > 0) and np.all((start <= index) & (index < stop))
        offset = stop
    assert offset == len(codes)
    if path == "simulated":
        assert len(batches) == simulated_batches
    hits = [codes[i] for _, _, _, index, deltas, _ in batches for i in index[deltas.any(axis=1)]]
    assert hits == [code for code in codes if families and (code >> 8) & 1 and code & 0xFF == 0x6C]


def count_matrix(pmu, plan):
    """measure_counts class counts of a plan: per repetition, (class, executions)."""
    classes = np.zeros((len(plan), pmu.column_count), np.int64)
    for rep, runs in enumerate(plan):
        for tag, times in runs:
            classes[rep, pmu.column(tag)] += times
    return classes


def counted(pmu, codes, classes):
    """measure_counts' batches densified into one (len(codes), repetitions) matrix."""
    batches = ((0, *batch, None) for batch in pmu.measure_counts(codes, classes))
    return np.concatenate([deltas for _, deltas, _ in densified(batches)])


class TestMeasureCounts:
    @settings(max_examples=100, deadline=None)
    @given(
        families=families_strategy,
        codes=st.lists(code_strategy, min_size=1, max_size=11, unique=True),
        plan=st.lists(
            st.lists(st.tuples(st.sampled_from(EQUIVALENCE_TAGS), st.integers(0, 5)), max_size=3),
            max_size=4,
        ),
        seed=st.integers(0, 1000),
    )
    def test_count_matrix_equals_recording_run(self, families, codes, plan, seed):
        by_matrix = SimulatedPmu(families, seed=seed)
        by_run = SimulatedPmu(families, seed=seed)

        def run(rep):
            for tag, times in plan[rep]:
                for _ in range(times):
                    by_run.record_execution(tag)

        for _ in range(2):  # the second round shows that epochs advanced alike
            fast = counted(by_matrix, codes, count_matrix(by_matrix, plan))
            slow = [row for _, batch, _ in densified(measure(by_run, codes, [run], len(plan)))
                    for row in batch]
            assert fast.dtype == np.int64 and fast.shape == (len(codes), len(plan))
            assert fast.tolist() == [row.tolist() for row in slow]
        # both joined the running tally and hold the same next epochs
        for pmu in (by_matrix, by_run):
            pmu.program(SLOTS[0], scan_control(unpack_selector(codes[0])))
            pmu.record_execution("alu")
        assert by_matrix.read(SLOTS[0]) == by_run.read(SLOTS[0])

    def test_slot_programmed_before_counts_the_matrix(self):
        backend = make_backend()
        backend.program(SLOTS[0], scan_control(0x016C))
        classes = count_matrix(backend, [[("memory-load", 2)], [("alu", 1)], [("memory-load", 1)]])
        assert counted(backend, [0x016C, 0x026C], classes).tolist() == [[2, 0, 1], [0, 0, 0]]
        assert backend.read(SLOTS[0]) == 3

    def test_untriggered_classes_share_the_last_column(self):
        backend = make_backend()
        assert backend.column_count == 2
        assert backend.column("memory-load") == 0
        assert backend.column("alu") == backend.column("branch") == 1

    def test_matrix_shape_checked(self):
        backend = make_backend()
        with pytest.raises(ValueError, match="shape"):
            backend.measure_counts([0x016C], np.zeros((3, 5), np.int64))
        with pytest.raises(ValueError, match="shape"):
            backend.measure_counts([0x016C], np.zeros(2, np.int64))


@pytest.mark.parametrize("path", ["scalar", "simulated", "counts"])
def test_repeated_selector_rejected(path):
    pmu = make_backend()
    codes = [0x016C, 0x026C, 0x016C]
    with pytest.raises(ValueError, match="twice"):
        if path == "counts":
            pmu.measure_counts(codes, count_matrix(pmu, [[("memory-load", 1)]]))
        else:
            backend = _HiddenModel(pmu) if path == "scalar" else pmu
            list(measure(backend, codes, [lambda rep: None], 1))


@pytest.mark.parametrize("codes", [
    [0x016C, -1], [0x016C, EVENT_SPACE_SIZE],
    range(-1, 2), range(EVENT_SPACE_SIZE - 1, EVENT_SPACE_SIZE + 1),
], ids=["-1", "65536", "range-low", "range-high"])
@pytest.mark.parametrize("path", ["scalar", "simulated", "counts"])
def test_out_of_range_selector_rejected(path, codes):
    # unchecked, numpy would wrap -1 to 0xFFFF and index past the row table at 65536
    pmu = make_backend()
    with pytest.raises(ValueError, match="packed selector out of range"):
        if path == "counts":
            pmu.measure_counts(codes, count_matrix(pmu, [[("alu", 2)]]))
        else:
            backend = _HiddenModel(pmu) if path == "scalar" else pmu
            list(measure(backend, codes, [lambda rep: None], 1))


NOISY = SimEventFamily(0x5E, 0x00, frozenset({"alu"}), increment=0, noise_stddev=1.5, seed=13)


def one_execution_per_epoch(pmu, codes, epochs):
    return counted(pmu, codes, count_matrix(pmu, [[("alu", 1)]] * epochs))


class TestCounterBasedNoise:
    def test_overcount_follows_the_documented_formula(self):
        pmu = SimulatedPmu([NOISY], seed=21)
        key = derive_seed(21, NOISY.seed)
        packed = 0x335E

        def expected(epoch, k):
            u1 = point_fraction(key, packed, epoch, k)
            u2 = point_fraction(key, packed, epoch, k, 1)
            normal = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            return max(0, round(NOISY.noise_stddev * normal))

        # repetitions measured are epochs 0..39, execution 0 each
        (deltas,) = one_execution_per_epoch(pmu, [packed], 40)
        assert deltas.tolist() == [expected(e, 0) for e in range(40)]
        # programming claims epoch 40; reads sum its executions in order
        pmu.program(SLOTS[2], scan_control(unpack_selector(packed)))
        reads = []
        for _ in range(40):
            pmu.record_execution("branch")
            reads.append(pmu.read(SLOTS[2]))
        assert reads == list(itertools.accumulate(expected(40, k) for k in range(40)))
        assert max(deltas) > 0 and max(reads) > 0

    def test_noise_batches_do_not_change_the_counts(self, monkeypatch):
        sizes = [0, 5, 1, 13, 0, 40, 2, 9]

        def measured():
            pmu = SimulatedPmu([NOISY], seed=4)
            plan = [[("alu", n)] for n in sizes]
            return counted(pmu, [0x015E, 0x0A5E, 0x016C], count_matrix(pmu, plan)).tolist()

        whole = measured()
        for batch in (1, 3, 7, 16):  # batches that split epochs anywhere
            monkeypatch.setattr(backend_module, "NOISE_BATCH", batch)
            assert measured() == whole
        assert whole[2] == [0] * len(sizes) and whole[0] != whole[1]

    def test_armed_chunks_do_not_change_the_counts(self, monkeypatch):
        # 17 noiseless families open for every umask, plus the noisy 0x5E and
        # a noisy 0x6C gated on bit 0: 4,736 armed selectors, more than one
        # chunk at the default VECTOR_CELLS
        default = backend_module.VECTOR_CELLS
        families = [NOISY, SimEventFamily(0x6C, 0x01, frozenset({"memory-load"}),
                                          noise_stddev=0.7, seed=2)]
        families += [SimEventFamily(code, 0x00, frozenset({"alu"}), increment=code)
                     for code in range(0x10, 0x21)]
        plan = [[("alu", 2), ("memory-load", rep)] for rep in range(3)]
        space = range(1 << 16)

        def claimed(pmu):
            """{packed selector: its next noise epoch} of every armed selector that claimed one."""
            return {int(p): int(e) for p, e in zip(pmu._armed, pmu._epochs) if e}

        def measured(cells):
            """Deltas and claimed epochs of measure_counts, then of measure."""
            monkeypatch.setattr(backend_module, "VECTOR_CELLS", cells)
            rows = max(1, cells // len(plan))
            pmu = SimulatedPmu(families, seed=5)
            counts = counted(pmu, space, count_matrix(pmu, plan))
            epochs = claimed(pmu)

            def run(rep):
                for tag, times in plan[rep]:
                    for _ in range(times):
                        pmu.record_execution(tag)

            batches, offset = list(measure(pmu, space, [run], len(plan))), 0
            for _, start, stop, index, _, _ in batches:
                assert start == offset and 0 < len(index) <= rows
                offset = stop
            streamed = np.concatenate([deltas for _, deltas, _ in densified(batches)])
            return counts, epochs, streamed, claimed(pmu)

        whole = measured(len(plan) << 16)
        assert np.count_nonzero(whole[0].any(axis=1)) > 4096  # a few noisy ones draw only 0
        for cells in (1, 3, 7, 705 * len(plan), default):  # 1, 1, 2, 705 and 2,730 rows
            counts, epochs, streamed, then = measured(cells)
            assert np.array_equal(counts, whole[0]) and epochs == whole[1]
            assert np.array_equal(streamed, whole[2]) and then == whole[3]
        assert len(whole[1]) == 256 + 128 and set(whole[1].values()) == {len(plan)}
        assert len(np.unique(whole[2][0x5E::256], axis=0)) > 1  # the noise is there

    @pytest.mark.parametrize("stddev", [0.5, 1.5, 3.0])
    def test_overcount_is_a_truncated_rounded_gaussian(self, stddev):
        family = SimEventFamily(0x5E, 0x00, frozenset(), increment=0, noise_stddev=stddev)
        pmu = SimulatedPmu([family], seed=3)
        # across epochs (execution 0 of 256 selectors x 64 repetitions) and
        # across the 2048 executions of one epoch
        across_epochs = one_execution_per_epoch(pmu, range(0x5E, 1 << 16, 256), 64)
        pmu.program(SLOTS[0], scan_control(0x025E))
        reads = [0]
        for _ in range(2048):
            pmu.record_execution("alu")
            reads.append(pmu.read(SLOTS[0]))
        within = np.diff(reads)

        values = np.arange(int(12 * stddev) + 2)
        pmf = norm.cdf((values + 0.5) / stddev) - norm.cdf((values - 0.5) / stddev)
        pmf[0] = norm.cdf(0.5 / stddev)
        mean = pmf @ values
        var = pmf @ (values - mean) ** 2
        fourth = pmf @ (values - mean) ** 4
        for sample in (across_epochs.ravel(), within):
            n = len(sample)
            # each statistic within five standard errors of its expectation
            assert abs(sample.mean() - mean) < 5 * math.sqrt(var / n)
            assert abs(sample.var() - var) < 5 * math.sqrt((fourth - var**2) / n)
            assert abs((sample == 0).mean() - pmf[0]) < 5 * math.sqrt(pmf[0] * (1 - pmf[0]) / n)

    @settings(max_examples=20, deadline=None)
    @given(
        cuts=st.lists(st.integers(1, (1 << 16) - 1), max_size=6),
        order=st.integers(0, 2**32),
        repetitions=st.integers(1, 3),
    )
    def test_deltas_do_not_depend_on_position_or_cut(self, cuts, order, repetitions):
        families = [NOISY, SimEventFamily(0x6C, 0x01, frozenset({"memory-load"}),
                                          noise_stddev=0.7, seed=2)]
        plan = [[("alu", 3), ("memory-load", rep)] for rep in range(repetitions)]

        def deltas(pieces):
            """Every selector's deltas, indexed by packed code."""
            pmu = SimulatedPmu(families, seed=9)
            out = np.zeros((1 << 16, repetitions), np.int64)
            for piece in pieces:
                out[piece] = counted(pmu, piece, count_matrix(pmu, plan))
            return out

        space = np.arange(1 << 16)
        whole = deltas([space])
        shuffled = np.random.default_rng(order).permutation(space)
        assert np.array_equal(deltas(np.split(shuffled, sorted(set(cuts)))), whole)
        assert np.array_equal(deltas(np.split(space, sorted(set(cuts)))), whole)
        assert len(np.unique(whole[0x5E::256], axis=0)) > 1  # the noise is there


def documented_overcounts(stddev, first_hashes):
    """The class docstring's over-count of each execution, from its first hash."""
    u1 = np.maximum(point_fractions(prefix=first_hashes), 2.0**-64)
    u2 = point_fractions(1, prefix=first_hashes)
    normal = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return np.maximum(np.rint(stddev * normal), 0.0)


def uncut_overcounts(pmu, rows, packed, epochs, sizes):
    """The oracle: SimulatedPmu._overcounts before its cuts, every execution
    through the floating-point formula."""
    ends = np.cumsum(sizes)
    shift = ends - sizes
    total = int(ends[-1]) if len(ends) else 0
    prefix = point_hashes(pmu._keys[rows], packed, epochs)
    stddevs = pmu._stddevs[rows]
    sums = np.zeros(len(sizes))
    for low in range(0, total, backend_module.NOISE_BATCH):
        high = min(low + backend_module.NOISE_BATCH, total)
        first, last = np.searchsorted(ends, [low, high - 1], side="right").tolist()
        span = slice(first, last + 1)
        taken = np.minimum(ends[span], high) - np.maximum(ends[span] - sizes[span], low)
        k = np.arange(low, high) - np.repeat(shift[span], taken)
        h = point_hashes(k, prefix=np.repeat(prefix[span], taken))
        over = documented_overcounts(np.repeat(stddevs[span], taken), h)
        counted = np.flatnonzero(taken)
        sums[first + counted] += np.add.reduceat(over, (np.cumsum(taken) - taken)[counted])
    return sums.astype(np.int64)


def unmix64(value: int) -> int:
    """The inverse of scalar_hash.mix64."""
    def unshift(x, k):  # inverts x ^ (x >> k)
        y = x
        for s in range(k, 64, k):
            y ^= x >> s
        return y

    value = unshift(value, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) % (1 << 64)
    value = unshift(value, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) % (1 << 64)
    return (unshift(value, 30) - 0x9E3779B97F4A7C15) % (1 << 64)


def one_family(stddev):
    return SimulatedPmu([SimEventFamily(0x5E, 0x00, frozenset({"alu"}), noise_stddev=stddev)])


def execution_overcounts(pmu, hashes):
    """pmu._execution_overcounts of family row 0, as one over-count per hash."""
    n = len(hashes)
    epoch, over = pmu._execution_overcounts(  # one execution per epoch
        hashes, np.ones(n, np.int64), np.repeat(pmu._first_hash_limits[:1], n),
        np.repeat(pmu._stddevs[:1], n))
    assert np.all(np.diff(epoch) > 0) and over.dtype == np.int64
    dense = np.zeros(n, np.int64)
    dense[epoch] = over
    return dense


class TestNoiseCuts:
    """_overcounts skips the formula where it gives 0; the counts must not move."""

    STDDEVS = (0.05, 0.3, 0.5, 1, 3, 50, 2**20, 2**32)

    @pytest.mark.parametrize("batch", [7, backend_module.NOISE_BATCH])
    def test_equals_the_uncut_loop(self, monkeypatch, batch):
        monkeypatch.setattr(backend_module, "NOISE_BATCH", batch)
        families = [SimEventFamily(0x50 + i, 0x00, frozenset({"alu"}), noise_stddev=stddev,
                                   seed=i) for i, stddev in enumerate(self.STDDEVS)]
        pmu = SimulatedPmu(families, seed=32)
        draws = np.random.default_rng(batch)
        for size in (1, 2, 30, 400):
            rows = draws.integers(0, len(families), size).astype(np.int16)  # as _deltas passes them
            packed = (rows.astype(np.int64) + 0x50) | draws.integers(0, 256, size) << 8
            epochs = draws.integers(0, 1000, size)
            sizes = draws.integers(0, 300 if batch > 7 else 40, size)
            cut = pmu._overcounts(rows, packed, epochs, sizes)
            assert np.array_equal(cut, uncut_overcounts(pmu, rows, packed, epochs, sizes))
        for row, stddev in enumerate(self.STDDEVS[1:], 1):  # at 0.05, z would need to pass 10
            sizes = np.full(50, 20)
            assert pmu._overcounts(np.full(50, row), np.arange(50), np.arange(50), sizes).any()

    def test_empty_epochs_and_an_epoch_across_batches(self, monkeypatch):
        # batches [0, 7), [7, 14) and [14, 15): the first holds empty epochs
        # between epochs that draw, and the epoch of 9 spans the first two
        monkeypatch.setattr(backend_module, "NOISE_BATCH", 7)
        pmu = SimulatedPmu([SimEventFamily(0x5E, 0x00, frozenset({"alu"}), noise_stddev=50),
                            SimEventFamily(0x6C, 0x00, frozenset({"alu"}), noise_stddev=3)])
        sizes = np.array([0, 3, 0, 0, 2, 0, 9, 0, 1, 0])
        rows = np.arange(len(sizes)) % 2
        packed, epochs = np.where(rows, 0x6C, 0x5E), np.arange(len(sizes))
        cut = pmu._overcounts(rows, packed, epochs, sizes)
        assert np.array_equal(cut, uncut_overcounts(pmu, rows, packed, epochs, sizes))
        assert cut.dtype == np.int64 and not cut[sizes == 0].any() and cut[6] > 0

    def test_a_sum_past_2_to_the_53_is_exact(self):
        # about 1.7e9 per execution at the largest stddev, so 5.5M executions
        # sum to an odd number near 9.4e15, which float64 cannot hold
        pmu, size = one_family(MAX_FAMILY_SCALE), 5_500_000
        rows, packed, epochs = np.zeros(1, np.intp), np.array([0x5E]), np.array([3])
        (cut,) = pmu._overcounts(rows, packed, epochs, np.array([size]))
        prefix = point_hashes(pmu._keys[rows], packed, epochs)
        step = 1 << 20
        exact = sum(
            int(documented_overcounts(MAX_FAMILY_SCALE, point_hashes(
                np.arange(low, min(low + step, size)), prefix=prefix)).astype(np.int64).sum())
            for low in range(0, size, step))
        assert cut == exact > 2**53 and exact % 2

    @pytest.mark.parametrize("stddev", [0.0531, 0.5, 1.5, 3])
    def test_first_hash_limit(self, stddev):
        pmu = one_family(stddev)
        limit = int(pmu._first_hash_limits[0])
        assert limit == int(math.exp(-1 / (8 * stddev**2)) * (1 + 1e-6) * 2**64)
        hashes = np.array([limit, limit + 1], np.uint64)
        kept, dropped = execution_overcounts(pmu, hashes).tolist()
        assert kept == documented_overcounts(stddev, hashes[:1])[0] and dropped == 0
        # above the limit the formula gives 0 even where cos(2 pi u2) is 1
        u1 = point_fractions(prefix=hashes[1:])
        assert np.rint(stddev * np.sqrt(-2.0 * np.log(u1)))[0] == 0
        if stddev == 0.0531:  # the limit is 1, and at hash 1 that bound is 1: the cut is tight
            assert limit == 1 and np.rint(stddev * math.sqrt(-2.0 * math.log(2.0**-64))) == 1
        above = np.random.default_rng(1).integers(limit + 1, 1 << 64, 50_000, np.uint64,
                                                  endpoint=False)
        assert not documented_overcounts(stddev, above).any()
        assert not execution_overcounts(pmu, above).any()

    def test_largest_stddev_keeps_the_top_hashes(self):
        # a limit clipped to 2**64 - 2048, the largest double below 2**64,
        # would drop hashes whose u1 is 1 - 2**-53, and they over-count
        pmu = one_family(MAX_FAMILY_SCALE)
        assert int(pmu._first_hash_limits[0]) == 2**64 - 1
        top = np.arange(0xFFFFFFFFFFFFF801, 1 << 64, dtype=np.uint64)
        over = execution_overcounts(pmu, top)
        assert np.array_equal(over, documented_overcounts(MAX_FAMILY_SCALE, top))
        assert 0 < over.max() <= 64

    @pytest.mark.parametrize("quarter, inward", [(1 << 62, 1), (3 << 62, -1)])
    @pytest.mark.parametrize("stddev", [0.5, MAX_FAMILY_SCALE])
    def test_second_hash_cut(self, quarter, inward, stddev):
        # second hashes at the quarter, at the cut's bound 2**40 inside it,
        # each +-1, and one 2**44 outside, where cos(2 pi u2) is positive
        bound = quarter + inward * (1 << 40)
        seconds = [at + d for at in (quarter, bound) for d in (-1, 0, 1)]
        seconds.append(quarter - inward * (1 << 44))
        firsts = [unmix64(second) ^ 1 for second in seconds]  # second hash = mix64(first ^ 1)
        assert [mix64(first ^ 1) for first in firsts] == seconds
        hashes = np.array(firsts, np.uint64)
        over = execution_overcounts(one_family(stddev), hashes)
        assert np.array_equal(over, documented_overcounts(stddev, hashes))
        if stddev == MAX_FAMILY_SCALE:
            assert over[-1] > 0  # so the cut may not reach past the quarter
        for second in seconds:  # inside the cut the normal is not positive
            if (1 << 62) + (1 << 40) <= second <= (3 << 62) - (1 << 40):
                assert math.cos(2.0 * math.pi * (second / 2**64)) < -3.7e-7


class TestSimModelLoading:
    def test_load_fixture(self, sim_model):
        assert sim_model.label == "sim-skylake-desk"
        assert {f.event_code for f in sim_model.families} == {0x6C, 0xD3, 0x5E, 0x08}
        assert sim_model.fault_table == {8: "illegal-instruction"}
        assert sim_model.supported_extensions == {"base", "sse2"}
        assert sim_model.supports_tsx
        by_code = {f.event_code: f for f in sim_model.families}
        assert by_code[0xD3].increment == 2
        assert by_code[0x5E].noise_stddev == 0.5

    def test_armed_selectors_follow_the_scalar_gate(self, sim_model):
        armed = sorted(pack_selector(family.event_code, umask)
                       for family in sim_model.families for umask in range(256)
                       if umask_gates(umask, family.relevance_mask))
        assert sim_model.make_backend()._armed.tolist() == armed

    def test_hex_strings_and_ints_both_accepted(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps(
                {
                    "microarchitecture": "m",
                    "families": [
                        {"event_code": 16, "relevance_mask": "0x0F", "trigger_classes": ["x"]}
                    ],
                }
            )
        )
        model = load_sim_model(str(path))
        assert model.families[0].event_code == 16
        assert model.families[0].relevance_mask == 0x0F

    def test_invalid_json_reports_offset(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"families": [')
        with pytest.raises(ReportParseError, match="byte"):
            load_sim_model(str(path))

    def test_missing_event_code_fails(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"families": [{"relevance_mask": 1}]}))
        with pytest.raises(ReportParseError, match="event_code"):
            load_sim_model(str(path))

    def test_out_of_range_field_fails(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"families": [{"event_code": 300}]}))
        with pytest.raises(ReportParseError):
            load_sim_model(str(path))

    def test_missing_file_fails(self, tmp_path):
        with pytest.raises(ReportParseError, match="^cannot read sim model .*nope.json"):
            load_sim_model(str(tmp_path / "nope.json"))

    # (path, value, the field the error names): the first rows are whole
    # documents, the rest put a wrong type, or the first value past a bound,
    # into each field of tests/data/sim_model.json
    @pytest.mark.parametrize("path, value, field", [
        ((), {"families": [{"event_code": 16, "trigger_classes": "memory-load"}]},
         "families[0].trigger_classes"),
        ((), {"supported_extensions": "base"}, "supported_extensions"),
        ((), {"fault_instructions": [8]}, "fault_instructions"),
        ((), {"families": [{"event_code": 16, "noise_stddev": None}]}, "families[0]"),
        ((), {"supports_tsx": "false"}, "supports_tsx"),
        ((), {"fault_instructions": {"8": None}}, "fault_instructions['8']"),
        ((), {"families": [{"event_code": 16, "noise_stddev": math.nan}]},
         "families[0].noise_stddev"),
        ((), {"families": [{"event_code": 16, "noise_stddev": math.inf}]},
         "families[0].noise_stddev"),
        ((), {"families": [{"event_code": 16, "noise_stddev": True}]},
         "families[0].noise_stddev"),
        ((), {"families": [{"event_code": 16, "increment": 1 << 63}]}, "families[0].increment"),
        ((), {"families": [{"event_code": 16, "increment": 1 << 62}]}, "families[0].increment"),
        ((), {"families": [{"event_code": 16, "noise_stddev": 1e300}]},
         "families[0].noise_stddev"),
        ((), {"microarchitecture": None}, "microarchitecture"),
        ((), {"microarchitecture": 5}, "microarchitecture"),
        ((), {"families": [{"event_code": 16, "seed": 1 << 127}]}, "families[0].seed"),
        ((), {"families": [{"event_code": 16, "seed": -(1 << 127) - 1}]}, "families[0].seed"),
        ((), [], "top level"),
        (("microarchitectur",), "sim", "microarchitectur: unknown"),
        (("microarchitecture",), ["sim"], "microarchitecture"),
        (("supports_tsx",), 1, "supports_tsx"),
        (("supported_extensions",), ["base", 2], "supported_extensions"),
        (("fault_instructions",), {"eight": "illegal-instruction"},
         "fault_instructions key 'eight'"),
        (("fault_instructions",), {"8_0": "illegal-instruction"}, "fault_instructions key '8_0'"),
        (("fault_instructions", "8"), 1, "fault_instructions['8']"),
        (("fault_instructions", "0x8"), "segmentation-fault",
         "fault_instructions keys '8' and '0x8' name the same entry"),
        (("families",), {}, "families must be a list"),
        (("families", 1), "0xD3", "families[1] must be an object"),
        (("families", 1, "incremnet"), 2, "families[1].incremnet: unknown"),
        (("families", 1, "event_code"), ..., "families[1].event_code: missing"),
        (("families", 1, "event_code"), 211.0, "families[1].event_code"),
        (("families", 1, "event_code"), "0xD3G", "families[1].event_code"),
        (("families", 1, "event_code"), -1, "families[1].event_code"),
        (("families", 1, "event_code"), "0x100", "families[1].event_code"),
        (("families", 1, "event_code"), "0x6C",
         "families[1].event_code 0x6C repeats families[0].event_code"),
        (("families", 1, "relevance_mask"), [3], "families[1].relevance_mask"),
        (("families", 1, "relevance_mask"), "-0x01", "families[1].relevance_mask"),
        (("families", 1, "relevance_mask"), 256, "families[1].relevance_mask"),
        (("families", 1, "trigger_classes"), ["memory-load", None], "families[1].trigger_classes"),
        (("families", 1, "increment"), "2.0", "families[1].increment"),
        (("families", 1, "increment"), -1, "families[1].increment"),
        (("families", 1, "increment"), (1 << 32) + 1, "families[1].increment"),
        (("families", 1, "noise_stddev"), "0.5", "families[1].noise_stddev"),
        (("families", 1, "noise_stddev"), -5e-324, "families[1].noise_stddev"),
        (("families", 1, "noise_stddev"), math.nextafter(2.0**32, math.inf),
         "families[1].noise_stddev"),
        (("families", 1, "seed"), 11.0, "families[1].seed"),
        (("families", 1, "seed"), 1 << 127, "families[1].seed"),
        (("families", 1, "seed"), -(1 << 127) - 1, "families[1].seed"),
    ], ids=["trigger-classes-string", "extensions-string", "faults-list", "null-noise",
            "tsx-string", "null-fault-kind", "nan-noise", "infinite-noise", "boolean-noise",
            "increment-past-int64", "increment-past-2**32", "huge-noise", "null-microarchitecture",
            "numeric-microarchitecture", "seed-at-2**127", "seed-below-minus-2**127",
            "top-level-list", "misspelt-key", "microarchitecture-list", "tsx-number",
            "extension-number", "fault-id-word", "fault-id-underscore", "fault-kind-number",
            "fault-id-twice", "families-object", "family-string", "misspelt-family-key",
            "no-event-code", "event-code-float", "event-code-bad-hex", "event-code-below-0",
            "event-code-past-0xFF", "event-code-twice", "mask-list", "mask-below-0", "mask-past-0xFF", "trigger-class-null",
            "increment-text-float", "increment-below-0", "increment-past-2**32-at-1",
            "noise-string", "noise-below-0", "noise-past-2**32", "seed-float",
            "seed-at-2**127-at-1", "seed-below-minus-2**127-at-1"])
    def test_wrongly_typed_field_names_it(self, rejects, path, value, field):
        scan = ["scan", "--corpus", data("corpus.tsv"), "--catalog", data("catalog.csv"),
                "--repetitions", "1"]
        rejects(load_sim_model, lambda file: [*scan, "--sim-model", file, "--out", file + ".out"],
                SIM_MODEL, path, value, field)

    def test_scale_bound_is_inclusive(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"families": [
            {"event_code": 16, "increment": 1 << 32, "noise_stddev": 2.0**32}
        ]}))
        (family,) = load_sim_model(str(path)).families
        assert (family.increment, family.noise_stddev) == (1 << 32, 2.0**32)

    def test_seed_bounds_are_derive_seeds(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"families": [
            {"event_code": 16, "seed": -(1 << 127)}, {"event_code": 17, "seed": (1 << 127) - 1}
        ]}))
        model = load_sim_model(str(path))
        assert [f.seed for f in model.families] == [-(1 << 127), (1 << 127) - 1]
        model.make_backend(0)  # both seeds derive

    @pytest.mark.parametrize("families", [5, "memory-load"], ids=["number", "string"])
    def test_families_must_be_a_list(self, tmp_path, families):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"families": families}))
        with pytest.raises(ReportParseError, match="families must be a list"):
            load_sim_model(str(path))


class TestNativeBackendUnavailable:
    # a CPU index no machine has, so the device is reliably absent
    MISSING_CPU = 99999

    def test_constructor_fails_fast(self):
        with pytest.raises(BackendError, match="msr"):
            NativeMsrBackend(cpu=self.MISSING_CPU)

    def test_probe_returns_capability_report(self):
        backend, report = probe_native_backend(cpu=self.MISSING_CPU)
        assert backend is None
        assert "native backend unavailable" in report
        assert "rtm=" in report


class SimulatedMsrDevice:
    """/dev/cpu/0/msr over a SimulatedPmu, as NativeMsrBackend uses it.

    PMCx holds a 48-bit count, which reads give as 8 little-endian bytes and
    which wraps at 2**48.  A write to PMCx sets the count to the written
    bits 31:0, sign-extended to 48 bits.  A write to PERFEVTSELx decodes its
    image and keeps the count.  With EN (bit 22) set it programs slot x of
    the PMU, and slot x counts on from the kept count; without EN slot x
    stops counting.  The count is carried as an offset over slot x's
    pmu.read, so a PMC write never programs the PMU and claims no noise
    epoch.  IA32_PERF_GLOBAL_CTRL holds a plain 64-bit value and gates
    nothing, as NativeMsrBackend never writes it.  Any other
    address fails with EIO, and so does the first PERFEVTSEL write of the
    selector `refuse`.  install() puts it behind backend's os, whose every
    other attribute is the real one; sched_setaffinity only notes its call,
    and sched_getaffinity gives `affinity`.  Every pwrite and pread, failed
    ones too, is counted in `calls` and added to the digest `log`.
    """

    PATH = "/dev/cpu/0/msr"
    FD = 1 << 20  # no real descriptor: the device is never opened
    GLOBAL_CTRL = 0x38F
    WIDTH = 1 << 48

    def __init__(self, pmu: SimulatedPmu, refuse: int | None = None):
        self.pmu = pmu
        self.refuse = refuse
        self.global_ctrl = 0
        self.offsets = [0] * PROGRAMMABLE_SLOTS  # PMCx = offset + the PMU slot's count
        self.programmed: set[int] = set()
        self.affinity = {0, 1, 2, 3}
        self.closed: list[int] = []
        self.pinned: list[tuple[int, set[int]]] = []
        self.calls, self.log = 0, hashlib.sha256()

    def note(self, *call) -> None:
        self.calls += 1
        self.log.update(repr(call).encode())

    def install(self, monkeypatch) -> None:
        fake = _Forwarding(os)
        fake.path = _Forwarding(os.path)
        fake.path.exists = lambda path: path == self.PATH
        fake.open = self.open
        fake.pread, fake.pwrite, fake.close = self.pread, self.pwrite, self.closed.append
        fake.sched_setaffinity = lambda pid, cpus: self.pinned.append((pid, cpus))
        fake.sched_getaffinity = lambda pid: set(self.affinity)
        monkeypatch.setattr(backend_module, "os", fake)

    def open(self, path: str, flags: int) -> int:
        assert (path, flags) == (self.PATH, os.O_RDWR)
        return self.FD

    def count(self, slot: int) -> int:
        counted = self.pmu.read(SLOTS[slot]) if slot in self.programmed else 0
        return (self.offsets[slot] + counted) % self.WIDTH

    def pwrite(self, fd: int, data: bytes, address: int) -> int:
        assert fd == self.FD and len(data) == 8
        value = int.from_bytes(data, "little")
        self.note("pwrite", address, value)
        slot = address - PERFEVTSEL_BASE_MSR
        if 0 <= slot < PROGRAMMABLE_SLOTS:
            image = decode_msr_value(value)
            if image.selector == self.refuse:
                self.refuse = None
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            self.offsets[slot] = self.count(slot)
            self.programmed.discard(slot)
            if image.enable:
                self.pmu.program(SLOTS[slot], image)
                self.programmed.add(slot)
        elif 0 <= address - PMC_BASE_MSR < PROGRAMMABLE_SLOTS:
            slot = address - PMC_BASE_MSR
            low = value & 0xFFFF_FFFF
            written = low - (1 << 32) if low >> 31 else low
            self.offsets[slot] += written - self.count(slot)
        elif address == self.GLOBAL_CTRL:
            self.global_ctrl = value
        else:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return len(data)

    def pread(self, fd: int, size: int, address: int) -> bytes:
        assert fd == self.FD and size == 8
        self.note("pread", address)
        if 0 <= address - PMC_BASE_MSR < PROGRAMMABLE_SLOTS:
            return self.count(address - PMC_BASE_MSR).to_bytes(8, "little")
        if address == self.GLOBAL_CTRL:
            return self.global_ctrl.to_bytes(8, "little")
        raise OSError(errno.EIO, os.strerror(errno.EIO))


# 576 selectors: every umask of the noisy 0x5E and the gated 0x6C families,
# and event codes 0x00-0x3F at umask 1
DEVICE_CODES = sorted({*(pack_selector(code, umask) for code in (0x5E, 0x6C)
                         for umask in range(256)), *range(0x0100, 0x0140)})


class TestNativeBackendOnSimulatedDevice:
    def native_executor(self, monkeypatch, sim_model, seed, refuse=None):
        """An executor whose backend is NativeMsrBackend on a fresh device
        over the fixture model's PMU, and the device."""
        pmu = sim_model.make_backend(seed)
        device = SimulatedMsrDevice(pmu, refuse)
        device.install(monkeypatch)
        workload = SimulatedExecutor(pmu, sim_model.fault_table, sim_model.supported_extensions)
        return SimpleNamespace(backend=NativeMsrBackend(cpu=0), execute=workload.execute), device

    def test_slice_pass_equals_the_vector_path(self, monkeypatch, sim_model, corpus_entries,
                                               make_executor):
        native, device = self.native_executor(monkeypatch, sim_model, seed=5)
        vector = make_executor(5)
        config = ScanConfig(repetitions=3)
        snippets = []
        for entry in corpus_entries:
            with contextlib.suppress(InstantiationError):  # the avx512 entry, as full_scan skips it
                snippets.append(instantiate(entry))
        assert len(snippets) == 9
        loud_codes = set()
        for snippet in snippets:
            (slow,) = _scan_snippets(native, [snippet], DEVICE_CODES, config)
            (fast,) = _scan_snippets(vector, [snippet], DEVICE_CODES, config)
            assert slow[0] == fast[0]
            assert slow[1].tolist() == fast[1].tolist()
            assert slow[2].tolist() == fast[2].tolist()
            loud_codes |= {DEVICE_CODES[i] & 0xFF for i in slow[1].tolist()}
        assert loud_codes == {0x5E, 0x6C}
        assert device.pinned == [(0, {0})]
        native.backend.close()

    def test_refused_write_loses_one_batch(self, monkeypatch, sim_model, corpus_entries, caplog):
        native, _ = self.native_executor(monkeypatch, sim_model, seed=0, refuse=0x016C)
        lines: list[bytes] = []
        with caplog.at_level(logging.WARNING):
            report = full_scan(corpus_entries[:1], EventCatalog(), native,
                               ScanConfig(repetitions=1),
                               record_sink=lambda block: lines.append(b"".join(block)))
        records = b"".join(lines).splitlines()
        lost = [json.loads(line)["selector"] for line in records if b"backend-error" in line]
        assert lost == ["0x016C", "0x016D", "0x016E", "0x016F"]
        assert len(records) == EVENT_SPACE_SIZE
        assert ["backend failure" in r.message for r in caplog.records].count(True) == 1
        assert 0x016C not in report.hidden_events and 0x036C in report.hidden_events
        assert report.executed_success == 1
        native.backend.close()

    def test_an_instruction_streams_before_the_next_programs(self, monkeypatch, sim_model,
                                                              corpus_entries, caplog):
        # the scalar path keeps instructions the outer loop: a pass over two
        # makes the device calls of two passes over one each, and streams the
        # first one's records before it programs the second one
        def scan(groups):
            native, device = self.native_executor(monkeypatch, sim_model, seed=2, refuse=0x016C)
            sunk: list[tuple[int, bytes]] = []  # the device calls made before each sink call

            def sink(block):
                sunk.append((device.calls, b"".join(block)))
                device.refuse = 0x016C  # so the next instruction loses a batch too

            caplog.clear()
            with caplog.at_level(logging.WARNING):
                for entries in groups:
                    full_scan(entries, EventCatalog(), native, ScanConfig(repetitions=1),
                              record_sink=sink)
            native.backend.close()
            return device, sunk, [r.getMessage() for r in caplog.records]

        entries = corpus_entries[:2]
        together, sunk, warnings = scan([entries])
        apart, sunk_apart, warnings_apart = scan([entries[:1], entries[1:]])
        assert (together.calls, together.log.digest()) == (apart.calls, apart.log.digest())
        assert b"".join(text for _, text in sunk) == b"".join(text for _, text in sunk_apart)
        first = [calls for calls, text in sunk if b'"instruction": 1,' in text]
        second = [calls for calls, text in sunk if b'"instruction": 2,' in text]
        assert len(first) == len(second) == EVENT_SPACE_SIZE // 4096
        # the two make the same number of device calls, and every block of
        # the first one goes out after its last call, before the second
        # one's first
        assert set(first) == {together.calls // 2} and set(second) == {together.calls}
        assert warnings == warnings_apart
        assert [w.startswith("backend failure scanning selectors 0x016C..0x016F for id ")
                for w in warnings] == [True, True]

    def test_close_closes_the_descriptor_once(self, monkeypatch, sim_model):
        native, device = self.native_executor(monkeypatch, sim_model, seed=0)
        native.backend.close()
        native.backend.close()
        assert device.closed == [SimulatedMsrDevice.FD]

    def test_close_restores_the_saved_affinity_once(self, monkeypatch, sim_model):
        native, device = self.native_executor(monkeypatch, sim_model, seed=0)
        assert device.pinned == [(0, {0})]
        device.affinity = {5}  # what close() restores was saved before pinning
        native.backend.close()
        native.backend.close()
        assert device.pinned == [(0, {0}), (0, {0, 1, 2, 3})]

    def test_wide_counts_read_back_whole(self, monkeypatch):
        # one execution counts 2**32: a read cut to 32 bits gives 0, and a
        # count that programming did not zero doubles in the second repetition
        wide = SimEventFamily(0x6C, 0, frozenset({"alu"}), increment=MAX_FAMILY_SCALE)
        pmu = SimulatedPmu([wide])
        SimulatedMsrDevice(pmu).install(monkeypatch)
        backend = NativeMsrBackend(cpu=0)

        def run(rep):
            for _ in range(3):
                pmu.record_execution("alu")

        batches = list(measure(backend, [0x006C, 0x016C], [run], repetitions=2))
        backend.close()
        assert [deltas.tolist() for *_, deltas, _ in batches] == [[[3 << 32] * 2] * 2]

    def test_device_counts_like_a_48_bit_counter(self, monkeypatch):
        pmu = SimulatedPmu([SimEventFamily(0x6C, 0, frozenset({"alu"}), increment=3)])
        device = SimulatedMsrDevice(pmu)
        device.install(monkeypatch)
        backend = NativeMsrBackend(cpu=0)
        backend._write_msr(PMC_BASE_MSR, 0xABCD_0000_7FFF_FFFE)  # bits 63:32 are dropped
        assert backend._read_msr(PMC_BASE_MSR) == 0x7FFF_FFFE
        backend._write_msr(PMC_BASE_MSR, 0xFFFF_FFFE)  # bit 31 extends to bit 47
        assert backend._read_msr(PMC_BASE_MSR) == 0xFFFF_FFFF_FFFE
        backend._write_msr(PERFEVTSEL_BASE_MSR, render_msr_value(scan_control(0x006C)))
        assert backend._read_msr(PMC_BASE_MSR) == 0xFFFF_FFFF_FFFE  # programming keeps it
        pmu.record_execution("alu")
        assert backend._read_msr(PMC_BASE_MSR) == 1  # wraps at 2**48
        backend.close()

    def test_a_slot_counts_only_while_enabled(self, monkeypatch):
        pmu = SimulatedPmu([SimEventFamily(0x6C, 0, frozenset({"alu"}), increment=3)])
        SimulatedMsrDevice(pmu).install(monkeypatch)
        backend = NativeMsrBackend(cpu=0)
        backend.program(SLOTS[0], PerfEvtSelValue(selector=0x006C, usr=True, os=True))  # no EN
        pmu.record_execution("alu")
        assert backend.read(SLOTS[0]) == 0
        backend.program(SLOTS[0], scan_control(0x006C))
        pmu.record_execution("alu")
        assert backend.read(SLOTS[0]) == 3
        backend._write_msr(PERFEVTSEL_BASE_MSR, render_msr_value(PerfEvtSelValue(0x006C)))
        pmu.record_execution("alu")
        assert backend.read(SLOTS[0]) == 3  # clearing EN stops the count and keeps it
        backend.close()


@pytest.mark.skipif(
    not os.path.exists("/dev/cpu/0/msr") or os.geteuid() != 0,
    reason="needs a readable MSR device",
)
class TestNativeBackendDevice:
    def test_program_read_cycle(self):
        backend = NativeMsrBackend(cpu=0)
        try:
            with pytest.raises(BackendStateError):
                backend.read(SLOTS[1])
            backend.program(SLOTS[0], scan_control(0x003C))
            count = backend.read(SLOTS[0])
            assert isinstance(count, int) and count >= 0
            # leave the slot disabled: all-zero control value
            backend.program(SLOTS[0], PerfEvtSelValue(selector=0x0000))
        finally:
            backend.close()
