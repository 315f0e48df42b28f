"""Human-readable summaries and plot-ready dataset emission.

Plot emission never draws figures; it writes small CSV datasets an external
plotting tool can consume.  When a dataset is larger than the requested
sample size, a seeded sample is taken first and the survivors are ordered
by packed selector, so the emitted file is reproducible.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping, Sequence
from typing import TypeVar

from .collector import ScanReport
from .detection import MetricsReport
from .events import format_selector
from .outputs import write_csv
from .seeding import derive_seed

T = TypeVar("T")


def render_summary(report: ScanReport) -> str:
    """One-microarchitecture summary table of a scan report."""
    headers = ("microarchitecture", "instructions", "executed", "hidden_events")
    row = (
        report.microarchitecture_label,
        str(report.total_instructions),
        str(report.executed_success),
        str(len(report.hidden_events)),
    )
    widths = [max(len(h), len(v)) for h, v in zip(headers, row)]
    head = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    body = "  ".join(v.ljust(w) for v, w in zip(row, widths))
    return f"{head}\n{body}"


def sample_rows(rows: Sequence[T], sample_size: int, seed: int, stream: str) -> list[T]:
    """Seeded subsample; datasets at or under the size pass through whole."""
    items = list(rows)
    if sample_size < 0:
        raise ValueError("sample_size must be non-negative")
    if len(items) <= sample_size:
        return items
    rng = random.Random(derive_seed(seed, "plot-sample", stream, sample_size))
    return rng.sample(items, sample_size)


def write_selector_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV of (selector, *values) rows: the selector as "0xUUEE", then each
    value at six decimals."""
    write_csv(path, header, ([format_selector(selector), *(f"{value:.6f}" for value in values)]
                             for selector, *values in rows))


def write_metrics_plot_csv(
    reports: Mapping[int, MetricsReport], path: str, sample_size: int, seed: int
) -> None:
    """Scatter dataset of per-event detection metrics."""
    rows = sample_rows(sorted(reports.items()), sample_size, seed, "metrics")
    rows.sort()
    write_selector_csv(path, ["selector", "accuracy", "f1", "auc"],
                       ((selector, rep.accuracy, rep.f1, rep.auc) for selector, rep in rows))


def write_accuracy_plot_csv(
    rows: Sequence[tuple[int, float]], path: str, sample_size: int, seed: int
) -> None:
    """Scatter dataset of per-event channel accuracies."""
    sampled = sample_rows(rows, sample_size, seed, "channel-accuracy")
    sampled.sort()
    write_selector_csv(path, ["selector", "accuracy"], sampled)
