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
from .events import PerfEvtSelValue, render_msr_value, scan_control, umask_gates, unpack_selector
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
      once per repetition while the PMU tallies class tags instead of
      counting.  Every selector's deltas are then computed in numpy from its
      family's umask gate and increment applied to each repetition's class
      counts, in batches of VECTOR_BATCH selectors.  Noise is drawn exactly as
      programming the selector on slot (index mod 4) would draw it.
    - Any other backend gets the scalar loop: codes are rendered with
      scan_control four at a time, one per slot; each repetition programs
      every slot of the batch (which resets its count), runs the workload
      and reads every slot, so each read is already a delta.  A batch lost
      to a BackendError yields the exception as its outcome and an empty
      deltas array; the next batch is still measured.
    """
    pmu = getattr(backend, "simulation", None)
    if isinstance(pmu, SimulatedPmu):
        return _measure_simulated(pmu, codes, run, repetitions)
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


def _measure_simulated(pmu, codes, run, repetitions):
    if not len(codes):
        return
    width = pmu._increments.shape[1]
    tallies: list[int] = []  # flat: one row of class counts per repetition
    outcome = None
    try:
        for rep in range(repetitions):
            pmu._tally = tally = [0] * width
            outcome = run(rep)
            tallies += tally
    finally:
        pmu._tally = None
    tally = np.array(tallies, np.int64).reshape(repetitions, width)
    executions = tally.sum(axis=1)
    counts = pmu._increments @ tally.T  # per family row and repetition
    if isinstance(codes, range):  # np.asarray would convert a range element by element
        codes = np.arange(codes.start, codes.stop, codes.step)
    codes = np.asarray(codes, np.int64)
    for base in range(0, len(codes), VECTOR_BATCH):
        batch = codes[base : base + VECTOR_BATCH]
        family = pmu._family_index[batch & 0xFF]
        armed = pmu._gates[family, batch >> 8]
        deltas = np.where(armed[:, None], counts[family], 0)
        for j in np.flatnonzero(armed & pmu._noisy[family]).tolist():
            pmu._add_noise(deltas[j], (base + j) % PROGRAMMABLE_SLOTS, int(batch[j]), executions)
        yield base, deltas, outcome


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
    __slots__ = ("value", "count", "triggers", "increment", "stddev", "rng")

    def __init__(self) -> None:
        self.value: PerfEvtSelValue | None = None
        self.count = 0
        self.triggers: frozenset[str] | None = None  # None = not counting
        self.increment = 0
        self.stddev = 0.0
        self.rng: random.Random | None = None


class SimulatedPmu(CounterBackend):
    """Deterministic in-process PMU model.

    Counting state lives per slot; programming one slot never touches the
    others.  Noise generators are reseeded at program time from the run
    seed, the family seed, the slot index, the packed selector, and a
    per-(slot, selector) reprogramming epoch.  Seeding by position instead
    of by global call order makes a scan split across backends replay
    identically however the selector space was partitioned, while repeated
    measurements of one selector still see fresh draws.
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
        self._tally: list[int] | None = None  # set while measure() tallies class tags
        # tables for measure(): row k is family k, the last row is no family;
        # column c is trigger class c, the last column every other class
        families = list(self._families.values())
        classes = sorted({tag for family in families for tag in family.trigger_classes})
        self._class_index = {tag: i for i, tag in enumerate(classes)}
        self._family_index = np.full(256, len(families), np.intp)
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
    def families(self) -> Mapping[int, SimEventFamily]:
        return dict(self._families)

    @property
    def simulation(self) -> SimulatedPmu:
        """The PMU model itself.  Delegating proxies forward this attribute,
        which lets measure() compute their deltas instead of programming."""
        return self

    def capabilities(self) -> BackendCapabilities:
        return self._capabilities

    def program(self, slot: CounterSlot, value: PerfEvtSelValue) -> None:
        state = self._slots[slot.index]
        state.value = value
        state.count = 0
        selector = value.selector
        family = self._families.get(selector.event_code)
        if family is not None and umask_gates(selector.umask, family.relevance_mask):
            state.triggers = family.trigger_classes
            state.increment = family.increment
            state.stddev = family.noise_stddev
            if family.noise_stddev > 0:
                key = (slot.index, selector.packed)
                epoch = self._epochs.get(key, 0)
                self._epochs[key] = epoch + 1
                state.rng = random.Random(
                    derive_seed(self._seed, family.seed, slot.index, selector.packed, epoch)
                )
            else:
                state.rng = None
        else:
            state.triggers = None
            state.rng = None

    def read(self, slot: CounterSlot) -> int:
        state = self._slots[slot.index]
        if state.value is None:
            raise BackendStateError(f"slot {slot.index} read before being programmed")
        return state.count

    def record_execution(self, class_tag: str) -> None:
        """Account one executed instruction of the given class to every
        armed slot, or only tally its class while measure() runs."""
        tally = self._tally
        if tally is not None:
            tally[self._class_index.get(class_tag, -1)] += 1
            return
        for state in self._slots:
            triggers = state.triggers
            if triggers is None:
                continue
            delta = state.increment if class_tag in triggers else 0
            rng = state.rng
            if rng is not None:
                noise = round(rng.gauss(0.0, state.stddev))
                if noise > 0:
                    delta += noise
            if delta:
                state.count += delta

    def _add_noise(self, row: np.ndarray, slot: int, packed: int, executions: np.ndarray) -> None:
        """Add the over-count that programming packed on slot once per
        repetition draws, and advance the (slot, selector) epoch alike."""
        family = self._families[packed & 0xFF]
        key = (slot, packed)
        epoch = self._epochs.get(key, 0)
        self._epochs[key] = epoch + len(executions)
        stddev = family.noise_stddev
        for rep, n in enumerate(executions.tolist()):
            if n:
                gauss = random.Random(
                    derive_seed(self._seed, family.seed, slot, packed, epoch + rep)
                ).gauss
                row[rep] += sum(max(0, round(gauss(0.0, stddev))) for _ in range(n))


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
