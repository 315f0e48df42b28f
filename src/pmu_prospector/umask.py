"""Umask relevance analysis for discovered events.

Hidden events of one event code usually react to many umasks at once; the
pattern (e.g. every odd umask) reveals which umask bits the hardware
actually decodes.  The analysis finds the maximal bit mask consistent with
the observed counted/quiet pattern in closed form.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable
from dataclasses import dataclass

from .collector import ScanReport
from .events import umask_gates

_SINGLE_BITS = tuple(1 << bit for bit in range(8))


@dataclass(frozen=True)
class RelevanceObservation:
    """Whether one (event_code, umask) point counted during a scan."""

    event_code: int
    umask: int
    counted: bool


@dataclass(frozen=True)
class RelevanceMask:
    """Inferred umask bits an event code decodes.

    consistent=False marks a fallback: no single mask explained every
    observation, so `mask` is the best single-bit approximation.
    """

    event_code: int
    mask: int
    consistent: bool


def infer_relevance_mask(observations: Iterable[RelevanceObservation]) -> RelevanceMask:
    """Infer the relevance mask explaining a counted/quiet umask pattern.

    Candidate masks m are scored against the gate "counts iff
    umask AND m != 0" (m = 0 counts always); the consistent one with the
    most set bits wins.  Duplicate observations of one umask are merged by
    OR: a point that ever counted is treated as counting.  Each quiet umask
    rules out m = 0 and its own bits, so the widest candidate is
    ~OR(quiet umasks); a narrower one could only lose counted points.  With
    no quiet umask, a counted umask 0 needs m = 0, and otherwise 0xFF wins.
    """
    observed: dict[int, bool] = {}
    event_code: int | None = None
    for obs in observations:
        if event_code is None:
            event_code = obs.event_code
        elif obs.event_code != event_code:
            raise ValueError(
                f"mixed event codes in observations: 0x{event_code:02X} and 0x{obs.event_code:02X}"
            )
        observed[obs.umask] = observed.get(obs.umask, False) or obs.counted
    if event_code is None:
        raise ValueError("at least one observation is required")
    points = list(observed.items())
    if all(counted for _, counted in points):
        return RelevanceMask(event_code, 0 if 0 in observed else 0xFF, consistent=True)
    quiet = 0
    for umask, counted in points:
        if not counted:
            quiet |= umask
    mask = ~quiet & 0xFF
    if mask and all(umask & mask for umask, counted in points if counted):
        return RelevanceMask(event_code, mask, consistent=True)
    # nothing explains everything; fall back to the single bit that agrees most
    best_mask = _SINGLE_BITS[0]
    best_score = -1
    for mask in _SINGLE_BITS:
        score = sum(1 for umask, counted in points if umask_gates(umask, mask) == counted)
        if score > best_score:
            best_mask, best_score = mask, score
    return RelevanceMask(event_code, best_mask, consistent=False)


def relevance_observations(report: ScanReport, event_code: int) -> list[RelevanceObservation]:
    """Reconstruct the full 256-umask pattern of one event code from a scan.

    The scan covered every umask, so umasks absent from the hidden set were
    quiet.  Valid only when no documented selector shares the event code,
    since documented reactions are excluded from hidden_events.
    """
    counted = {s.umask for s in report.hidden_events if s.event_code == event_code}
    return [
        RelevanceObservation(event_code, umask, umask in counted) for umask in range(256)
    ]


def group_hidden_by_event_code(report: ScanReport) -> dict[int, list[int]]:
    """Hidden umasks per event code, both dimensions sorted ascending."""
    grouped: dict[int, set[int]] = {}
    for selector in report.hidden_events:
        grouped.setdefault(selector.event_code, set()).add(selector.umask)
    return {code: sorted(grouped[code]) for code in sorted(grouped)}


def infer_report_masks(report: ScanReport) -> dict[int, RelevanceMask]:
    """Relevance mask per hidden event code in a scan report."""
    return {
        code: infer_relevance_mask(relevance_observations(report, code))
        for code in group_hidden_by_event_code(report)
    }


def emit_distribution(report: ScanReport) -> list[tuple[int, int]]:
    """(event_code, umask) scatter points sorted by code, then umask."""
    return sorted((s.event_code, s.umask) for s in report.hidden_events)


def write_distribution_csv(report: ScanReport, path: str) -> None:
    """Scatter dataset of the hidden-event distribution, for external plotting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event_code", "umask"])
        for event_code, umask in emit_distribution(report):
            writer.writerow([f"0x{event_code:02X}", f"0x{umask:02X}"])


def write_masks_csv(masks: dict[int, RelevanceMask], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event_code", "relevance_mask", "consistent"])
        for code in sorted(masks):
            mask = masks[code]
            writer.writerow([f"0x{code:02X}", f"0x{mask.mask:02X}", str(mask.consistent).lower()])
