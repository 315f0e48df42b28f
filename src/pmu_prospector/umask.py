"""Umask relevance analysis for discovered events.

Hidden events of one event code usually react to many umasks at once; the
pattern (e.g. every odd umask) reveals which umask bits the hardware
actually decodes.  The analysis finds the maximal bit mask consistent with
the observed counted/quiet pattern in closed form.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .collector import ScanReport
from .events import split_selector, umask_gates
from .outputs import write_csv

_SINGLE_BITS = tuple(1 << bit for bit in range(8))
# per single bit, the set of umasks its gate opens for: bit u is umask u
_SINGLE_BIT_GATES = tuple(sum(1 << umask for umask in range(256) if umask_gates(umask, mask))
                          for mask in _SINGLE_BITS)


@dataclass(frozen=True)
class RelevanceMask:
    """Inferred umask bits an event code decodes.

    consistent=False marks a fallback: no single mask explained every
    counted and quiet umask, so `mask` is the best single-bit approximation.
    """

    event_code: int
    mask: int
    consistent: bool


def infer_relevance_mask(event_code: int, counted: Collection[int]) -> RelevanceMask:
    """Infer the relevance mask of `event_code` from the umasks that counted;
    every other umask of the 256 was quiet.

    Candidate masks m are scored against the gate "counts iff
    umask AND m != 0" (m = 0 counts always); the consistent one with the
    most set bits wins.  Each quiet umask rules out m = 0 and its own bits,
    so the widest candidate is ~OR(quiet umasks); a narrower one could only
    lose counted points.  With no quiet umask, m = 0 explains everything.
    """
    quiet = [umask for umask in range(256) if umask not in counted]
    if not quiet:
        return RelevanceMask(event_code, 0, consistent=True)
    mask = ~reduce(or_, quiet) & 0xFF
    if mask and all(umask & mask for umask in counted):
        return RelevanceMask(event_code, mask, consistent=True)
    # nothing explains everything; fall back to the single bit that agrees
    # with the most umasks, the lowest on a tie.  A bit agrees with a umask
    # where its gate opens and the umask counted, or stays shut and it was
    # quiet: where the bit's gate set and the quiet set differ.
    quiet_set = sum(1 << umask for umask in quiet)
    scores = [(quiet_set ^ opens).bit_count() for opens in _SINGLE_BIT_GATES]
    return RelevanceMask(event_code, _SINGLE_BITS[scores.index(max(scores))], consistent=False)


def group_hidden_by_event_code(report: ScanReport) -> dict[int, list[int]]:
    """Hidden umasks per event code, both dimensions sorted ascending."""
    grouped: dict[int, set[int]] = {}
    for selector in report.hidden_events:
        event_code, umask = split_selector(selector)
        grouped.setdefault(event_code, set()).add(umask)
    return {code: sorted(grouped[code]) for code in sorted(grouped)}


def infer_report_masks(report: ScanReport) -> dict[int, RelevanceMask]:
    """Relevance mask per hidden event code, umasks outside its hidden set
    taken as quiet.  Valid only when no documented selector shares the event
    code, since documented reactions are excluded from hidden_events."""
    return {
        code: infer_relevance_mask(code, set(umasks))
        for code, umasks in group_hidden_by_event_code(report).items()
    }


def write_distribution_csv(report: ScanReport, path: str) -> None:
    """Scatter dataset of the hidden-event distribution, for external plotting."""
    write_csv(path, ["event_code", "umask"], (
        [f"0x{event_code:02X}", f"0x{umask:02X}"]
        for event_code, umasks in group_hidden_by_event_code(report).items() for umask in umasks
    ))


def write_masks_csv(masks: dict[int, RelevanceMask], path: str) -> None:
    write_csv(path, ["event_code", "relevance_mask", "consistent"], (
        [f"0x{code:02X}", f"0x{mask.mask:02X}", str(mask.consistent).lower()]
        for code, mask in sorted(masks.items())
    ))
