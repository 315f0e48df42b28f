"""Event-selection register model and 16-bit event-space enumeration.

A performance event is addressed by the pair (event_code, umask), each one
byte wide.  The full space therefore has 65536 points.  Every stage holds a
point as its packed int umask * 256 + event_code, written "0xUUEE" (umask
high byte, event code low byte); this module is the one that knows that
layout.  Selection registers are programmed with a 64-bit image whose low
32 bits carry the packed selector in bits 15:0 plus control flags; bits
63:32 are reserved and must be zero.
"""

from __future__ import annotations

import csv
import functools
import operator
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import CatalogError

EVENT_SPACE_SIZE = 1 << 16

# Control-flag bit positions in the 64-bit selection register image.
_BIT_USR = 16
_BIT_OS = 17
_BIT_EDGE = 18
_BIT_PIN_CONTROL = 19
_BIT_INTERRUPT_ENABLE = 20
_BIT_ANY_THREAD = 21
_BIT_ENABLE = 22
_BIT_INVERT = 23
_SHIFT_COUNTER_MASK = 24


def _check_int(name: str, value: int, size: int = 0x100) -> None:
    if type(value) is int and 0 <= value < size:  # the common case, decided at once
        return
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < size:
        raise ValueError(f"{name} must be an integer in [0, {size - 1}], got {value!r}")


# No src/ caller reads .packed: benchmarks/ and criterion 01 read it until
# ROADMAP item 7 makes them read the ints.
class PackedSelector(int):
    """A packed selector, as unpack_selector and parse_selector give it: an
    int whose packed property is the int itself."""

    __slots__ = ()

    @property
    def packed(self) -> int:
        return int(self)


def unpack_selector(packed: int) -> PackedSelector:
    """packed as a PackedSelector; ValueError outside the event space, and
    TypeError for a value that is not an integer, such as 1.5."""
    if not 0 <= packed < EVENT_SPACE_SIZE:
        raise ValueError(f"packed selector out of range: {packed!r}")
    return PackedSelector(operator.index(packed))


def pack_selector(event_code, umask):
    """The packed selector of (event_code, umask), the inverse of
    split_selector; on numpy integer arrays it packs element by element."""
    return umask << 8 | event_code


def split_selector(selector: int) -> tuple[int, int]:
    """(event_code, umask) of a packed selector."""
    return selector & 0xFF, selector >> 8


def format_selector(selector: int) -> str:
    return f"0x{selector:04X}"


@functools.cache
def selector_ascii() -> np.ndarray:
    """format_selector(p) of every packed selector p as ASCII: row p of a
    read-only (EVENT_SPACE_SIZE, 6) uint8 array, built once per process
    from the four hexadecimal digits of each p."""
    packed = np.arange(EVENT_SPACE_SIZE)
    digits = np.frombuffer(b"0123456789ABCDEF", np.uint8)
    table = np.empty((EVENT_SPACE_SIZE, 6), np.uint8)
    table[:, :2] = np.frombuffer(b"0x", np.uint8)
    for column, shift in enumerate((12, 8, 4, 0), start=2):
        table[:, column] = digits[(packed >> shift) & 0xF]
    table.flags.writeable = False
    return table


def parse_selector(text: str) -> PackedSelector:
    """The packed selector of the "0xUUEE" form produced by format_selector;
    any hexadecimal spelling of it is accepted, such as " 0x16c "."""
    try:
        packed = int(text.strip(), 16)
    except ValueError:
        raise ValueError(f"not a hexadecimal selector: {text!r}") from None
    return unpack_selector(packed)


@dataclass(frozen=True)
class PerfEvtSelValue:
    """Decoded image of one event-selection register.

    selector is the packed selector, bits 15:0, and counter_mask occupies
    bits 31:24; all flags are single bits.  The image never uses bits 63:32.
    """

    selector: int
    usr: bool = False
    os: bool = False
    edge: bool = False
    pin_control: bool = False
    interrupt_enable: bool = False
    any_thread: bool = False
    enable: bool = False
    invert: bool = False
    counter_mask: int = 0

    def __post_init__(self) -> None:
        _check_int("selector", self.selector, EVENT_SPACE_SIZE)
        _check_int("counter_mask", self.counter_mask)


def render_msr_value(value: PerfEvtSelValue) -> int:
    """Encode a selection value into its 64-bit register image."""
    raw = value.selector
    raw |= value.usr << _BIT_USR
    raw |= value.os << _BIT_OS
    raw |= value.edge << _BIT_EDGE
    raw |= value.pin_control << _BIT_PIN_CONTROL
    raw |= value.interrupt_enable << _BIT_INTERRUPT_ENABLE
    raw |= value.any_thread << _BIT_ANY_THREAD
    raw |= value.enable << _BIT_ENABLE
    raw |= value.invert << _BIT_INVERT
    raw |= value.counter_mask << _SHIFT_COUNTER_MASK
    return raw


# No src/ caller: the inverse of render_msr_value, kept for acceptance criterion 02.
def decode_msr_value(raw: int) -> PerfEvtSelValue:
    """Decode a 64-bit register image; reserved high bits must be clear."""
    if not 0 <= raw < (1 << 64):
        raise ValueError(f"register image out of 64-bit range: {raw!r}")
    if raw >> 32:
        raise ValueError(f"reserved bits 63:32 set in register image 0x{raw:016X}")
    return PerfEvtSelValue(
        selector=PackedSelector(raw & 0xFFFF),
        usr=bool(raw & (1 << _BIT_USR)),
        os=bool(raw & (1 << _BIT_OS)),
        edge=bool(raw & (1 << _BIT_EDGE)),
        pin_control=bool(raw & (1 << _BIT_PIN_CONTROL)),
        interrupt_enable=bool(raw & (1 << _BIT_INTERRUPT_ENABLE)),
        any_thread=bool(raw & (1 << _BIT_ANY_THREAD)),
        enable=bool(raw & (1 << _BIT_ENABLE)),
        invert=bool(raw & (1 << _BIT_INVERT)),
        counter_mask=(raw >> _SHIFT_COUNTER_MASK) & 0xFF,
    )


def scan_control(selector: int, any_thread: bool = False) -> PerfEvtSelValue:
    """Default control value used while probing: count in user and kernel
    mode with the counter enabled, everything else off."""
    return PerfEvtSelValue(
        selector=selector, usr=True, os=True, enable=True, any_thread=any_thread
    )


def umask_gates(umask, relevance_mask):
    """Whether a umask activates an event family with the given relevant bits;
    on numpy integer arrays it gates element by element, as pack_selector packs.

    A family with relevance_mask 0 ignores the umask and counts regardless;
    otherwise at least one relevant bit must be set in the umask.
    """
    return (relevance_mask == 0) | ((umask & relevance_mask) != 0)


@dataclass(frozen=True)
class EventCatalog:
    """Documented events of one microarchitecture, keyed by packed selector."""

    entries: dict[int, str] = field(default_factory=dict)
    source: str = ""

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, selector: int) -> bool:
        return selector in self.entries


def _parse_hex_byte(field_name: str, text: str, where: str) -> int:
    t = text.strip()
    if not t.lower().startswith("0x"):
        raise CatalogError(f"{where}: {field_name} {text!r} lacks the 0x prefix")
    try:
        value = int(t, 16)
    except ValueError:
        raise CatalogError(f"{where}: {field_name} {text!r} is not hexadecimal") from None
    if not 0 <= value <= 0xFF:
        raise CatalogError(f"{where}: {field_name} {text!r} out of byte range")
    return value


def load_catalog(lines: Iterable[str], source: str = "") -> EventCatalog:
    """Load a documented-event catalog from CSV text.

    Expected columns: event_code,umask,name with 0x-prefixed hex codes.
    A header row is recognised and skipped.  Duplicate (event_code, umask)
    keys make the catalog ambiguous and fail the load.
    """
    entries: dict[int, str] = {}
    reader = csv.reader(lines)
    for row_no, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if row[0].strip().startswith("#"):
            continue
        where = f"{source or 'catalog'}:{row_no}"
        if row_no == 1 and row[0].strip().lower() == "event_code":
            continue
        if len(row) != 3:
            raise CatalogError(f"{where}: expected 3 columns, got {len(row)}")
        selector = pack_selector(_parse_hex_byte("event_code", row[0], where),
                                 _parse_hex_byte("umask", row[1], where))
        if selector in entries:
            raise CatalogError(f"{where}: duplicate catalog key {format_selector(selector)}")
        entries[selector] = row[2].strip()
    return EventCatalog(entries=entries, source=source)


def load_catalog_file(path: str) -> EventCatalog:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return load_catalog(fh, source=path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
