"""Counter backends: where event programming and count reads actually go.

Two realizations share one contract.  The simulated PMU counts class-tagged
pseudo-executions deterministically, so every pipeline stage can be verified
without hardware access.  The native backend programs real selection MSRs
through /dev/cpu/<n>/msr and needs root plus a pinned core.
"""

from __future__ import annotations

import json
import os
import random
import struct
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BackendError,
    BackendStateError,
    ReportParseError,
    SlotRangeError,
)
from .events import PerfEvtSelValue, render_msr_value, scan_control, unpack_selector
from .seeding import derive_seed

PROGRAMMABLE_SLOTS = 4
PERFEVTSEL_BASE_MSR = 0x186
PMC_BASE_MSR = 0xC1
VECTOR_BATCH = 4096  # selectors per batch on the simulated path; bounds peak memory


@dataclass(frozen=True)
class CounterSlot:
    """One of the programmable counters, addressed by index."""

    index: int

    def __post_init__(self) -> None:
        if not isinstance(self.index, int) or isinstance(self.index, bool):
            raise SlotRangeError(f"slot index must be an integer, got {self.index!r}")
        if not 0 <= self.index < PROGRAMMABLE_SLOTS:
            raise SlotRangeError(
                f"slot index {self.index} outside programmable range "
                f"[0, {PROGRAMMABLE_SLOTS - 1}]"
            )


SLOTS = tuple(CounterSlot(i) for i in range(PROGRAMMABLE_SLOTS))


@dataclass(frozen=True)
class BackendCapabilities:
    programmable_count: int
    supports_transactional_suppression: bool
    is_simulated: bool


class CounterBackend(ABC):
    """Programming and reading contract shared by all backends."""

    @abstractmethod
    def program(self, slot: CounterSlot, value: PerfEvtSelValue) -> None:
        """Bind a selection value to a slot and reset its count to zero."""

    @abstractmethod
    def read(self, slot: CounterSlot) -> int:
        """Current count of a previously programmed slot."""

    @abstractmethod
    def capabilities(self) -> BackendCapabilities:
        ...


def measure(
    backend: CounterBackend,
    codes: Sequence[int],
    run: Callable[[int], object],
    repetitions: int,
    any_thread: bool = False,
) -> Iterator[tuple[int, np.ndarray, object]]:
    """The one measurement loop: per-repetition deltas of packed selectors.

    run(rep) executes the workload of repetition rep.  It must produce the
    same class trace and outcome every time it is called for a given rep,
    because the two paths below call it a different number of times.

    Yields (offset, deltas, outcome) per batch.  deltas is an int64 array of
    shape (selectors in the batch, repetitions) whose row j belongs to
    codes[offset + j]; outcome is what run(repetitions - 1) returned.

    - On a simulated backend (one that exposes its SimulatedPmu as
      `simulation`, directly or through a delegating proxy) run(rep) executes
      once per repetition, and the PMU's running class tally taken around it
      gives that repetition's class counts.  Every selector's deltas are then
      computed in numpy from its family's umask gate and increment, in
      batches of VECTOR_BATCH selectors.  Noise is drawn exactly as
      programming the selector on slot (index mod 4) would draw it.  Slots
      programmed before the call count its executions too.
    - Any other backend gets the scalar loop: codes are rendered with
      scan_control four at a time, one per slot; each repetition programs
      every slot of the batch (which resets its count), runs the workload
      and reads every slot, so each read is already a delta.  A batch lost
      to a BackendError yields the exception as its outcome and an empty
      deltas array; the next batch is still measured.
    """
    pmu = getattr(backend, "simulation", None)
    if isinstance(pmu, SimulatedPmu):
        return pmu.measure(codes, run, repetitions)
    return _measure_scalar(backend, codes, run, repetitions, any_thread)


def _measure_scalar(backend, codes, run, repetitions, any_thread):
    program = backend.program
    read = backend.read
    for base in range(0, len(codes), PROGRAMMABLE_SLOTS):
        programs = tuple(
            (slot, scan_control(unpack_selector(code), any_thread))
            for slot, code in zip(SLOTS, codes[base : base + PROGRAMMABLE_SLOTS])
        )
        reads: list[int] = []
        outcome = None
        try:
            for rep in range(repetitions):
                for slot, value in programs:
                    program(slot, value)
                outcome = run(rep)
                reads.extend(read(slot) for slot, _ in programs)
        except BackendError as exc:
            yield base, np.empty((0, repetitions), np.int64), exc
        else:
            yield base, np.array(reads, np.int64).reshape(repetitions, len(programs)).T, outcome


def measure_one(
    backend: CounterBackend,
    code: int,
    run: Callable[[int], object],
    repetitions: int,
) -> list[int]:
    """Per-repetition deltas of a single packed selector; a BackendError
    propagates."""
    ((_, deltas, outcome),) = measure(backend, (code,), run, repetitions)
    if isinstance(outcome, BackendError):
        raise outcome
    return deltas[0].tolist()


@dataclass(frozen=True)
class SimEventFamily:
    """Behaviour of one simulated event code.

    The family counts only when the programmed umask shares a bit with
    relevance_mask (a zero mask counts for any umask).  Each execution of a
    class in trigger_classes adds `increment`; with noise_stddev > 0 every
    execution also adds a truncated-at-zero rounded Gaussian over-count.
    """

    event_code: int
    relevance_mask: int
    trigger_classes: frozenset[str]
    increment: int = 1
    noise_stddev: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.event_code <= 0xFF:
            raise ValueError(f"event_code out of range: {self.event_code!r}")
        if not 0 <= self.relevance_mask <= 0xFF:
            raise ValueError(f"relevance_mask out of range: {self.relevance_mask!r}")
        if self.increment < 0:
            raise ValueError("increment must be non-negative")
        if self.noise_stddev < 0:
            raise ValueError("noise_stddev must be non-negative")
        object.__setattr__(self, "trigger_classes", frozenset(self.trigger_classes))


class _SimSlot:
    # noise is drawn from lazily: `drawn` executions so far gave `overcount`
    __slots__ = ("row", "start", "noise", "drawn", "overcount")

    def __init__(self) -> None:
        self.row: int | None = None  # None until programmed
        self.start: list[int] = []  # the class tally when programmed
        self.noise: tuple | None = None  # (gauss, stddev) of a noisy family
        self.drawn = 0
        self.overcount = 0


def _overcount(gauss: Callable[[float, float], float], stddev: float, executions: int) -> int:
    """Truncated-at-zero rounded Gaussian over-count of `executions` draws."""
    total = 0
    for _ in range(executions):
        noise = round(gauss(0.0, stddev))
        if noise > 0:
            total += noise
    return total


class SimulatedPmu(CounterBackend):
    """Deterministic in-process PMU model.

    record_execution adds to a running tally of executions per class.  Each
    family is one row of a table (umask gate, increment per trigger class);
    a slot counts its row's increments over the tally's growth since it was
    programmed, and measure() applies the table to every selector at once.

    Noise sources are seeded from the run seed, the family seed, the slot
    index, the packed selector, and a per-(slot, selector) reprogramming
    epoch.  Seeding by position instead of by global call order makes a scan
    split across backends replay identically however the selector space was
    partitioned, while repeated measurements of one selector still see fresh
    draws.
    """

    def __init__(
        self,
        families: Iterable[SimEventFamily],
        seed: int = 0,
        label: str = "sim",
        supports_tsx: bool = True,
    ):
        self._families: dict[int, SimEventFamily] = {}
        for family in families:
            if family.event_code in self._families:
                raise ValueError(f"duplicate family for event code 0x{family.event_code:02X}")
            self._families[family.event_code] = family
        self._seed = seed
        self._label = label
        self._supports_tsx = supports_tsx
        self._slots = [_SimSlot() for _ in range(PROGRAMMABLE_SLOTS)]
        self._epochs: dict[tuple[int, int], int] = {}
        # row k of the tables is family k, the last row no family; column c of
        # the tally and of _increments is trigger class c, the last column
        # every other class
        families = list(self._families.values())
        classes = sorted({tag for family in families for tag in family.trigger_classes})
        self._class_index = {tag: i for i, tag in enumerate(classes)}
        self._tally = [0] * (len(classes) + 1)
        self._quiet_row = len(families)
        self._family_index = np.full(256, self._quiet_row, np.intp)
        self._gates = np.zeros((len(families) + 1, 256), bool)
        self._noisy = np.zeros(len(families) + 1, bool)
        self._increments = np.zeros((len(families) + 1, len(classes) + 1), np.int64)
        umasks = np.arange(256)
        for k, family in enumerate(families):
            self._family_index[family.event_code] = k
            self._gates[k] = (family.relevance_mask == 0) | ((umasks & family.relevance_mask) != 0)
            self._noisy[k] = family.noise_stddev > 0
            for tag in family.trigger_classes:
                self._increments[k, self._class_index[tag]] = family.increment
        self._capabilities = BackendCapabilities(
            programmable_count=PROGRAMMABLE_SLOTS,
            supports_transactional_suppression=supports_tsx,
            is_simulated=True,
        )

    @property
    def label(self) -> str:
        return self._label

    @property
    def simulation(self) -> SimulatedPmu:
        """The PMU model itself.  Delegating proxies forward this attribute,
        which lets measure() compute their deltas instead of programming."""
        return self

    def capabilities(self) -> BackendCapabilities:
        return self._capabilities

    def program(self, slot: CounterSlot, value: PerfEvtSelValue) -> None:
        selector = value.selector
        row = int(self._family_index[selector.event_code])
        if not self._gates[row, selector.umask]:
            row = self._quiet_row
        state = self._slots[slot.index]
        state.row = row
        state.start = self._tally.copy()
        state.noise = None
        state.drawn = state.overcount = 0
        if self._noisy[row]:
            family = self._families[selector.event_code]
            (gauss,) = self._noise_sources(slot.index, family, selector.packed, (1,))
            state.noise = (gauss, family.noise_stddev)

    def read(self, slot: CounterSlot) -> int:
        state = self._slots[slot.index]
        if state.row is None:
            raise BackendStateError(f"slot {slot.index} read before being programmed")
        executed = np.subtract(self._tally, state.start)
        count = int(self._increments[state.row] @ executed)
        if state.noise is not None:
            executions = int(executed.sum())
            state.overcount += _overcount(*state.noise, executions - state.drawn)
            state.drawn = executions
            count += state.overcount
        return count

    def record_execution(self, class_tag: str) -> None:
        """Account one executed instruction of the given class."""
        self._tally[self._class_index.get(class_tag, -1)] += 1

    def measure(self, codes: Sequence[int], run: Callable[[int], object], repetitions: int):
        """The simulated path of backend.measure, which documents it."""
        if not len(codes):
            return
        tally = self._tally
        snapshots = tally.copy()  # flat: the tally before, then after each repetition
        outcome = None
        for rep in range(repetitions):
            outcome = run(rep)
            snapshots += tally
        classes = np.diff(np.array(snapshots, np.int64).reshape(repetitions + 1, -1), axis=0)
        executions = classes.sum(axis=1).tolist()
        counts = self._increments @ classes.T  # per family row and repetition
        if isinstance(codes, range):  # np.asarray would convert a range element by element
            codes = np.arange(codes.start, codes.stop, codes.step)
        codes = np.asarray(codes, np.int64)
        for base in range(0, len(codes), VECTOR_BATCH):
            batch = codes[base : base + VECTOR_BATCH]
            rows = self._family_index[batch & 0xFF]
            armed = self._gates[rows, batch >> 8]
            deltas = np.where(armed[:, None], counts[rows], 0)
            for j in np.flatnonzero(armed & self._noisy[rows]).tolist():
                slot, packed = (base + j) % PROGRAMMABLE_SLOTS, int(batch[j])
                family = self._families[packed & 0xFF]
                sources = self._noise_sources(slot, family, packed, executions)
                stddev = family.noise_stddev
                deltas[j] += [_overcount(gauss, stddev, n) if n else 0
                              for gauss, n in zip(sources, executions)]
            yield base, deltas, outcome

    def _noise_sources(self, slot: int, family: SimEventFamily, packed: int, due: Sequence[int]):
        """Claim the next len(due) noise epochs of packed on slot and return
        each epoch's seeded gauss, or None where due is 0: an epoch without
        executions seeds no generator."""
        key = (slot, packed)
        first = self._epochs.get(key, 0)
        self._epochs[key] = first + len(due)
        return [
            random.Random(derive_seed(self._seed, family.seed, slot, packed, epoch)).gauss
            if n else None
            for epoch, n in enumerate(due, first)
        ]


@dataclass(frozen=True)
class SimModel:
    """Everything a simulated run needs: families plus executor behaviour."""

    label: str
    families: tuple[SimEventFamily, ...]
    fault_table: Mapping[int, str] = field(default_factory=dict)
    supported_extensions: frozenset[str] = frozenset({"base"})
    supports_tsx: bool = True

    def make_backend(self, seed: int = 0) -> SimulatedPmu:
        return SimulatedPmu(
            self.families, seed=seed, label=self.label, supports_tsx=self.supports_tsx
        )


def _model_int(value: object, what: str) -> int:
    if isinstance(value, bool):
        raise ReportParseError(f"sim model: {what} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 0)
        except ValueError:
            pass
    raise ReportParseError(f"sim model: {what} must be an integer, got {value!r}")


def load_sim_model(path: str) -> SimModel:
    """Load a simulated-PMU description from JSON.

    Integer fields accept plain numbers or "0x.." strings.  Fault table keys
    are instruction ids mapped to fault kinds.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise BackendError(f"cannot read sim model {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReportParseError(f"sim model {path}: invalid JSON at byte {exc.pos}") from exc
    if not isinstance(doc, dict):
        raise ReportParseError(f"sim model {path}: top level must be an object")
    families = []
    for i, raw in enumerate(doc.get("families", [])):
        if not isinstance(raw, dict):
            raise ReportParseError(f"sim model {path}: families[{i}] must be an object")
        try:
            families.append(
                SimEventFamily(
                    event_code=_model_int(raw["event_code"], f"families[{i}].event_code"),
                    relevance_mask=_model_int(
                        raw.get("relevance_mask", 0), f"families[{i}].relevance_mask"
                    ),
                    trigger_classes=frozenset(raw.get("trigger_classes", [])),
                    increment=_model_int(raw.get("increment", 1), f"families[{i}].increment"),
                    noise_stddev=float(raw.get("noise_stddev", 0.0)),
                    seed=_model_int(raw.get("seed", 0), f"families[{i}].seed"),
                )
            )
        except KeyError as exc:
            raise ReportParseError(f"sim model {path}: families[{i}] missing {exc}") from None
        except ValueError as exc:
            raise ReportParseError(f"sim model {path}: families[{i}]: {exc}") from None
    fault_table = {
        _model_int(key, f"fault_instructions key {key!r}"): str(kind)
        for key, kind in doc.get("fault_instructions", {}).items()
    }
    return SimModel(
        label=str(doc.get("microarchitecture", "sim")),
        families=tuple(families),
        fault_table=fault_table,
        supported_extensions=frozenset(doc.get("supported_extensions", ["base"])),
        supports_tsx=bool(doc.get("supports_tsx", True)),
    )


def _host_supports_rtm() -> bool:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return " rtm " in f" {line.split(':', 1)[1]} "
    except OSError:
        pass
    return False


class NativeMsrBackend(CounterBackend):
    """Programs real selection registers through the MSR device.

    Needs the msr kernel module and read/write access to /dev/cpu/<n>/msr;
    the calling thread is pinned to the chosen CPU so reads observe the
    counters that were programmed.
    """

    def __init__(self, cpu: int = 0):
        self._cpu = cpu
        path = f"/dev/cpu/{cpu}/msr"
        if not os.path.exists(path):
            raise BackendError(
                f"MSR device {path} not present (msr kernel module not loaded?)"
            )
        try:
            self._fd = os.open(path, os.O_RDWR)
        except OSError as exc:
            raise BackendError(f"cannot open {path}: {exc}") from exc
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError as exc:
            os.close(self._fd)
            raise BackendError(f"cannot pin to CPU {cpu}: {exc}") from exc
        self._programmed = [False] * PROGRAMMABLE_SLOTS

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def _write_msr(self, address: int, value: int) -> None:
        try:
            os.pwrite(self._fd, struct.pack("<Q", value), address)
        except OSError as exc:
            raise BackendError(f"MSR write 0x{address:X} failed: {exc}") from exc

    def _read_msr(self, address: int) -> int:
        try:
            raw = os.pread(self._fd, 8, address)
        except OSError as exc:
            raise BackendError(f"MSR read 0x{address:X} failed: {exc}") from exc
        return struct.unpack("<Q", raw)[0]

    def program(self, slot: CounterSlot, value: PerfEvtSelValue) -> None:
        self._write_msr(PMC_BASE_MSR + slot.index, 0)
        self._write_msr(PERFEVTSEL_BASE_MSR + slot.index, render_msr_value(value))
        self._programmed[slot.index] = True

    def read(self, slot: CounterSlot) -> int:
        if not self._programmed[slot.index]:
            raise BackendStateError(f"slot {slot.index} read before being programmed")
        return self._read_msr(PMC_BASE_MSR + slot.index)

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            programmable_count=PROGRAMMABLE_SLOTS,
            supports_transactional_suppression=_host_supports_rtm(),
            is_simulated=False,
        )


def probe_native_backend(cpu: int = 0) -> tuple[NativeMsrBackend | None, str]:
    """Try to open the native backend; on failure return a capability report
    instead of raising."""
    try:
        backend = NativeMsrBackend(cpu=cpu)
    except BackendError as exc:
        return None, (
            f"native backend unavailable: {exc}; "
            f"host rtm={'yes' if _host_supports_rtm() else 'no'}, "
            f"euid={os.geteuid()}"
        )
    return backend, f"native backend ready on cpu{cpu}"
