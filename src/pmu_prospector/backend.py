"""Counter backends: where event programming and count reads actually go.

Two realizations share one contract.  The simulated PMU counts class-tagged
pseudo-executions deterministically, so every pipeline stage can be verified
without hardware access.  The native backend programs real selection MSRs
through /dev/cpu/<n>/msr and needs root plus a pinned core.
"""

from __future__ import annotations

import math
import os
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
from .events import (EVENT_SPACE_SIZE, PerfEvtSelValue, pack_selector, render_msr_value,
                     scan_control, umask_gates, unpack_selector)
from .inputs import read_json
from .seeding import _INT_PART_BOUND, derive_seed, point_fractions, point_hashes

PROGRAMMABLE_SLOTS = 4
PERFEVTSEL_BASE_MSR = 0x186
PMC_BASE_MSR = 0xC1
# on the simulated path: the most (armed selector, repetition) cells computed,
# and their noise drawn, at once, but at least one selector; bounds peak memory
VECTOR_CELLS = 1 << 13
NOISE_BATCH = 1 << 14  # noisy executions drawn at once; bounds peak memory
# bound on a family's increment and noise stddev: an int64 count then holds
# about 2**27 executions of one repetition, and a detection window a few hundred
MAX_FAMILY_SCALE = 1 << 32


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


class CounterBackend(ABC):
    """Programming and reading contract shared by all backends."""

    @abstractmethod
    def program(self, slot: CounterSlot, value: PerfEvtSelValue) -> None:
        """Bind a selection value to a slot and reset its count to zero."""

    @abstractmethod
    def read(self, slot: CounterSlot) -> int:
        """Current count of a previously programmed slot."""


def measure(
    backend: CounterBackend,
    codes: Sequence[int],
    run: Callable[[int], object],
    repetitions: int,
    any_thread: bool = False,
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, object]]:
    """The one measurement loop: per-repetition deltas of packed selectors.

    run(rep) executes the workload of repetition rep.  It must produce the
    same class trace and outcome every time it is called for a given rep,
    because the two paths below call it a different number of times.

    Yields (start, stop, index, deltas, outcome) per batch.  The batch
    covers the positions codes[start:stop], and the spans of the batches
    tile codes in order.  index is an ascending int64 array of positions in
    [start, stop), and deltas an int64 array of shape (len(index),
    repetitions) whose row j belongs to codes[index[j]]; every other
    position of the span measured 0 in every repetition.  outcome is what
    run(repetitions - 1) returned.  A code outside the event space or listed
    twice raises ValueError.

    - On a simulated backend (one that exposes its SimulatedPmu as
      `simulation`, directly or through a delegating proxy) run(rep) executes
      once per repetition, and the PMU's running class tally taken around it
      gives that repetition's class counts.  Only the armed selectors, whose
      family's umask gate is open, are then computed in numpy from their
      family's increment, a VECTOR_CELLS chunk at a time, and so is their
      noise, one draw per chunk: each repetition is the next noise epoch of
      the selector, the one that programming it would claim (see
      SimulatedPmu).  Each chunk is one batch, whose index lists its armed
      positions; the last batch's span runs to the end of codes.  Slots
      programmed before the call count its executions too.
    - Any other backend gets the scalar loop: codes are rendered with
      scan_control four at a time, one per slot; each repetition programs
      every slot of the batch (which resets its count), runs the workload
      and reads every slot, so each read is already a delta.  index is the
      whole span.  A batch lost to a BackendError yields the exception as
      its outcome and an empty index and deltas, its span naming the lost
      positions; the next batch is still measured.
    """
    _check_codes(codes)
    pmu = simulation_of(backend)
    if pmu is not None:
        return pmu.measure(codes, run, repetitions)
    return _measure_scalar(backend, codes, run, repetitions, any_thread)


def _check_codes(codes: Sequence[int]) -> None:
    """ValueError for a code outside the event space or listed twice; a range
    (a full scan) cannot repeat, so only its ends are checked, without
    walking it as min and max would."""
    if not len(codes):
        return
    ranged = isinstance(codes, range)
    for end in (codes[0], codes[-1]) if ranged else (min(codes), max(codes)):
        unpack_selector(end)  # raises outside the event space
    if not ranged and len(set(codes)) < len(codes):
        raise ValueError("a measurement lists a selector twice")


def simulation_of(backend: CounterBackend) -> SimulatedPmu | None:
    """The SimulatedPmu a backend exposes as `simulation`, directly or
    through a delegating proxy; None for any other backend."""
    pmu = getattr(backend, "simulation", None)
    return pmu if isinstance(pmu, SimulatedPmu) else None


def _measure_scalar(backend, codes, run, repetitions, any_thread):
    program = backend.program
    read = backend.read
    for base in range(0, len(codes), PROGRAMMABLE_SLOTS):
        programs = tuple(
            (slot, scan_control(unpack_selector(code), any_thread))
            for slot, code in zip(SLOTS, codes[base : base + PROGRAMMABLE_SLOTS])
        )
        stop = base + len(programs)
        reads: list[int] = []
        outcome = None
        try:
            for rep in range(repetitions):
                for slot, value in programs:
                    program(slot, value)
                outcome = run(rep)
                reads.extend(read(slot) for slot, _ in programs)
        except BackendError as exc:
            yield base, stop, np.empty(0, np.int64), np.empty((0, repetitions), np.int64), exc
        else:
            deltas = np.array(reads, np.int64).reshape(repetitions, len(programs)).T
            yield base, stop, np.arange(base, stop), deltas, outcome


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
        # each message opens with its field's name, which load_sim_model reports
        if not 0 <= self.event_code <= 0xFF:
            raise ValueError(f"event_code must be in [0, 0xFF], got {self.event_code!r}")
        if not 0 <= self.relevance_mask <= 0xFF:
            raise ValueError(f"relevance_mask must be in [0, 0xFF], got {self.relevance_mask!r}")
        if not 0 <= self.increment <= MAX_FAMILY_SCALE:
            raise ValueError(f"increment must be in [0, 2**32], got {self.increment!r}")
        if not 0 <= self.noise_stddev <= MAX_FAMILY_SCALE:
            raise ValueError(f"noise_stddev must be in [0, 2**32], got {self.noise_stddev!r}")
        object.__setattr__(self, "trigger_classes", frozenset(self.trigger_classes))


class _SimSlot:
    __slots__ = ("row", "start", "selector", "epoch")

    def __init__(self) -> None:
        self.row: int | None = None  # None until programmed
        self.start: list[int] = []  # the class tally when programmed
        self.selector = self.epoch = 0


class SimulatedPmu(CounterBackend):
    """Deterministic in-process PMU model.

    record_execution adds to a running tally of executions per class.  Each
    family is one row of a table (increment per trigger class), and a
    65,536-entry row table maps each packed selector to its family's row, or
    to the quiet row (no increment, no noise) where no family owns the event
    code or its umask gate is shut.  A slot counts its row's increments over
    the tally's growth since it was programmed.  measure() and
    measure_counts() compute only the armed selectors, those off the quiet
    row, a VECTOR_CELLS chunk at a time with one noise draw per chunk, and
    give every other selector 0.  The armed packed selectors are kept
    sorted, so a step-1 range of codes finds its armed ones with one binary
    search.

    A noisy family over-counts every execution a selector of it counts
    through.  Execution k of noise epoch e of packed selector p over-counts
    max(0, rint(stddev * z)), where z is the Box-Muller normal of the
    uniforms point_fractions(key, p, e, k) and point_fractions(key, p, e,
    k, 1), and key = derive_seed(run seed, family seed).  Each
    programming of p, and each repetition p is measured for, claims the
    next epoch of p.  So the counts depend on what was measured, not on the
    slot or on how the selector space was split, and repeated measurements
    of one selector still see fresh draws.
    """

    def __init__(
        self,
        families: Iterable[SimEventFamily],
        seed: int = 0,
        label: str = "sim",
        supports_tsx: bool = True,
    ):
        by_code: dict[int, SimEventFamily] = {}
        for family in families:
            if family.event_code in by_code:
                raise ValueError(f"duplicate family for event code 0x{family.event_code:02X}")
            by_code[family.event_code] = family
        self._label = label
        self._slots = [_SimSlot() for _ in range(PROGRAMMABLE_SLOTS)]
        self._epochs: dict[int, int] = {}  # packed selector -> its next noise epoch
        # row k of the tables is family k, the last row no family; column c of
        # the tally and of _increments is trigger class c, the last column
        # every other class
        families = list(by_code.values())
        classes = sorted({tag for family in families for tag in family.trigger_classes})
        self._class_index = {tag: i for i, tag in enumerate(classes)}
        self._tally = [0] * (len(classes) + 1)
        self._quiet_row = len(families)
        # the row of every packed selector: its family's where the umask gate
        # is open, else the quiet row
        self._rows = np.full(EVENT_SPACE_SIZE, self._quiet_row, np.int16)
        self._stddevs = np.zeros(len(families) + 1)
        self._first_hash_limits = np.zeros(len(families) + 1, np.uint64)  # see _overcounts
        self._keys = np.zeros(len(families) + 1, np.uint64)
        self._increments = np.zeros((len(families) + 1, len(classes) + 1), np.int64)
        umasks = np.arange(256)
        for k, family in enumerate(families):
            gated = umasks[umask_gates(umasks, family.relevance_mask)]
            self._rows[pack_selector(family.event_code, gated)] = k
            self._stddevs[k] = family.noise_stddev
            if family.noise_stddev:
                reach = math.exp(-1 / (8 * family.noise_stddev**2)) * (1 + 1e-6) * 2**64
                self._first_hash_limits[k] = min(int(reach), 2**64 - 1)
            self._keys[k] = derive_seed(seed, family.seed)
            for tag in family.trigger_classes:
                self._increments[k, self._class_index[tag]] = family.increment
        self._armed = np.flatnonzero(self._rows != self._quiet_row)  # ascending packed
        self._noisy = self._stddevs > 0
        self.supports_tsx = supports_tsx  # whether the channel may use transactional suppression

    @property
    def label(self) -> str:
        return self._label

    @property
    def simulation(self) -> SimulatedPmu:
        """The PMU model itself.  Delegating proxies forward this attribute,
        which lets measure() compute their deltas instead of programming."""
        return self

    @property
    def column_count(self) -> int:
        """Class columns of the class counts measure_counts takes."""
        return len(self._tally)

    def column(self, class_tag: str) -> int:
        """Column of class_tag in measure_counts' class counts.  Classes no
        family triggers on share the last column."""
        return self._class_index.get(class_tag, len(self._tally) - 1)

    def program(self, slot: CounterSlot, value: PerfEvtSelValue) -> None:
        row = int(self._rows[value.selector])
        state = self._slots[slot.index]
        state.row = row
        state.start = self._tally.copy()
        state.selector = value.selector
        if self._noisy[row]:
            state.epoch = self._epochs.get(state.selector, 0)
            self._epochs[state.selector] = state.epoch + 1

    def read(self, slot: CounterSlot) -> int:
        state = self._slots[slot.index]
        row = state.row
        if row is None:
            raise BackendStateError(f"slot {slot.index} read before being programmed")
        executed = np.subtract(self._tally, state.start)
        count = int(self._increments[row] @ executed)
        if self._noisy[row]:
            (overcount,) = self._overcounts(
                np.array([row]), np.array([state.selector]), np.array([state.epoch]),
                np.array([executed.sum()]),
            )
            count += int(overcount)
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
        for start, stop, index, deltas in self._deltas(codes, classes):
            yield start, stop, index, deltas, outcome

    def measure_counts(
        self, codes: Sequence[int], classes: np.ndarray
    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """measure() over a workload given as class counts instead of a run
        callback: its batches without the outcome, and the same noise epochs.

        classes[rep, column(tag)] is how often the workload executes class
        tag in repetition rep.  The call checks them and adds them to the
        running tally at once, so a slot programmed before it counts them.
        """
        _check_codes(codes)
        classes = np.asarray(classes, np.int64)
        if classes.ndim != 2 or classes.shape[1] != len(self._tally):
            raise ValueError(
                f"class counts must have shape (repetitions, {len(self._tally)}), "
                f"got {classes.shape}"
            )
        self._tally[:] = (classes.sum(axis=0) + self._tally).tolist()
        return self._deltas(codes, classes)

    def _deltas(self, codes: Sequence[int], classes: np.ndarray):
        """(start, stop, index, deltas) per VECTOR_CELLS chunk of armed
        codes, for repetitions with the given class counts.

        Only the armed codes (a family owns the event code and its umask gate
        is open) can count.  index holds their positions in codes, and row j
        of deltas belongs to codes[index[j]], with one noise draw for the
        chunk's noisy codes.  The spans [start, stop) tile codes: each ends
        after its chunk's last armed code, and the last one at the end of
        codes; with no armed code there is one span of no rows.
        """
        repetitions = len(classes)
        executions = classes.sum(axis=1)
        counts = self._increments @ classes.T  # per family row and repetition
        if isinstance(codes, range) and codes.step == 1:
            first, last = np.searchsorted(self._armed, [codes.start, codes.stop]).tolist()
            packed = self._armed[first:last]
            positions = packed - codes.start
        else:
            if isinstance(codes, range):  # np.asarray would convert a range element by element
                codes = np.arange(codes.start, codes.stop, codes.step)
            codes = np.asarray(codes, np.int64)
            positions = np.flatnonzero(self._rows[codes] != self._quiet_row)
            packed = codes[positions]
        rows = self._rows[packed]
        chunk = max(1, VECTOR_CELLS // max(repetitions, 1))
        start = 0
        for low in range(0, max(len(packed), 1), chunk):  # one chunk if none is armed
            index = positions[low : low + chunk]
            part = packed[low : low + chunk]
            part_rows = rows[low : low + chunk]
            values = counts[part_rows]
            noisy = self._noisy[part_rows]
            if noisy.any():
                epochs = self._claim_epochs(part[noisy], repetitions)
                values[noisy] += self._overcounts(
                    np.repeat(part_rows[noisy], repetitions),
                    np.repeat(part[noisy], repetitions),
                    epochs.ravel(),
                    np.tile(executions, len(epochs)),
                ).reshape(epochs.shape)
            stop = len(codes) if low + chunk >= len(packed) else int(index[-1]) + 1
            yield start, stop, index, values
            start = stop

    def _claim_epochs(self, codes: np.ndarray, repetitions: int) -> np.ndarray:
        """Claim each code's next `repetitions` noise epochs, one row per code."""
        codes = codes.tolist()
        first = [self._epochs.get(packed, 0) for packed in codes]
        self._epochs.update((packed, epoch + repetitions) for packed, epoch in zip(codes, first))
        return np.array(first)[:, None] + np.arange(repetitions)

    def _overcounts(self, rows, packed, epochs, sizes) -> np.ndarray:
        """Summed over-count of executions [0, sizes) of each noise epoch,
        given per epoch with its family row and packed selector.

        The executions of all epochs are laid end to end and drawn
        NOISE_BATCH at a time, which bounds peak memory; each epoch's hash
        prefix and first-hash limit are repeated over its executions.
        Two exact cuts keep about 70% of them (at stddev 0.5) out of the
        floating-point formula, as they over-count 0:
        - an over-count of 1 or more needs stddev * sqrt(-2 ln u1) > 1/2, so
          a first hash above exp(-1 / (8 stddev**2)) * 2**64, widened by a
          relative 1e-6 for rounding (_first_hash_limits), cannot reach 1;
        - a second hash in [2**62 + 2**40, 3 * 2**62 - 2**40] gives a u2 with
          cos(2 pi u2) < -3.7e-7, so a normal and a rint that are not positive.
        The rest are summed per epoch in int64, exact where a float64 sum
        past 2**53 would round.
        """
        ends = np.cumsum(sizes)
        shift = ends - sizes  # where each epoch's execution 0 lies in the layout
        total = int(ends[-1]) if len(ends) else 0
        prefix = point_hashes(self._keys[rows], packed, epochs)
        limits, stddevs = self._first_hash_limits[rows], self._stddevs[rows]
        sums = np.zeros(len(sizes), np.int64)
        for low in range(0, total, NOISE_BATCH):
            high = min(low + NOISE_BATCH, total)
            first, last = np.searchsorted(ends, [low, high - 1], side="right").tolist()
            span = slice(first, last + 1)  # the epochs this batch overlaps
            taken = np.minimum(ends[span], high) - np.maximum(shift[span], low)
            k = np.arange(low, high) - np.repeat(shift[span], taken)
            h = point_hashes(k, prefix=np.repeat(prefix[span], taken))
            epoch, over = self._execution_overcounts(h, taken, limits[span], stddevs[span])
            np.add.at(sums, first + epoch, over)
        return sums

    def _execution_overcounts(self, hashes, taken, limits, stddevs) -> tuple[np.ndarray, np.ndarray]:
        """(epoch, over): the epoch and int64 over-count of each execution past
        both cuts of _overcounts.  hashes holds the taken[j] first hashes of
        epoch j, epoch after epoch; limits[j] and stddevs[j] belong to epoch j."""
        live = np.flatnonzero(hashes <= np.repeat(limits, taken))
        second = point_hashes(1, prefix=hashes[live])
        # second outside [2**62 + 2**40, 3 * 2**62 - 2**40], by a wrapping subtraction
        kept = np.flatnonzero(
            second - np.uint64((1 << 62) + (1 << 40)) > np.uint64((1 << 63) - (1 << 41)))
        live, second = live[kept], second[kept]
        epoch = np.searchsorted(np.cumsum(taken), live, side="right")
        u1 = np.maximum(point_fractions(prefix=hashes[live]), 2.0**-64)  # 0 only for hash 0
        normal = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * point_fractions(prefix=second))
        return epoch, np.maximum(np.rint(stddevs[epoch] * normal), 0.0).astype(np.int64)


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


def load_sim_model(path: str) -> SimModel:
    """Load a simulated-PMU description (README, "Input files") from JSON."""
    doc = read_json(path, "sim model", unreadable=BackendError).object(optional={
        "microarchitecture": "sim", "families": [], "fault_instructions": {},
        "supported_extensions": ["base"], "supports_tsx": True})
    families, first_of = [], {}  # event code -> the family that gives it
    for raw in doc["families"].items():
        family = raw.object(("event_code",), {"relevance_mask": 0, "trigger_classes": [],
                                              "increment": 1, "noise_stddev": 0, "seed": 0})
        try:
            families.append(SimEventFamily(
                event_code=family["event_code"].integer(text=True),
                relevance_mask=family["relevance_mask"].integer(text=True),
                trigger_classes=frozenset(family["trigger_classes"].list_of(str)),
                increment=family["increment"].integer(text=True),
                noise_stddev=family["noise_stddev"].number(),
                seed=family["seed"].integer(-_INT_PART_BOUND, _INT_PART_BOUND - 1, text=True),
            ))
        except ValueError as exc:  # a range SimEventFamily checks; the message opens with the field
            raise ReportParseError(f"{raw.source}: {raw.path}.{exc}") from None
        first = first_of.setdefault(families[-1].event_code, raw.path)
        if first != raw.path:
            raise ReportParseError(f"{raw.source}: {raw.path}.event_code "
                                   f"0x{families[-1].event_code:02X} repeats {first}.event_code")
    return SimModel(
        label=doc["microarchitecture"].string(),
        families=tuple(families),
        fault_table=doc["fault_instructions"].mapping(
            lambda key: key.integer(text=True), lambda kind: kind.string()),
        supported_extensions=frozenset(doc["supported_extensions"].list_of(str)),
        supports_tsx=doc["supports_tsx"].boolean(),
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
