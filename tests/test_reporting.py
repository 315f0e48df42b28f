"""Summary rendering and plot-dataset emission tests."""

from pathlib import Path

import pytest

from pmu_prospector.collector import ScanReport
from pmu_prospector.detection import MetricsReport
from pmu_prospector.reporting import (
    render_summary,
    sample_rows,
    write_accuracy_plot_csv,
    write_metrics_plot_csv,
)


def metrics(accuracy: float = 0.9) -> MetricsReport:
    return MetricsReport(tp=9, fp=1, fn=1, tn=9, accuracy=accuracy, precision=0.9,
                         recall=0.9, f1=0.9, auc=0.95)


class TestSummary:
    def test_columns_align(self):
        report = ScanReport(
            microarchitecture_label="sim-skylake-desk",
            total_instructions=10,
            executed_success=8,
            hidden_events={0x016C: {1}},
        )
        text = render_summary(report)
        head, body = text.splitlines()
        assert len(head) == len(body)
        assert head.split() == ["microarchitecture", "instructions", "executed", "hidden_events"]
        assert body.split() == ["sim-skylake-desk", "10", "8", "1"]
        # values start at the same columns as their headers
        for name, value in (("instructions", "10"), ("executed", "8")):
            assert head.index(name) == body.index(value)


class TestSampleRows:
    def test_small_datasets_pass_through_in_order(self):
        rows = [3, 1, 2]
        assert sample_rows(rows, 3, seed=0, stream="x") == [3, 1, 2]
        assert sample_rows(rows, 10, seed=0, stream="x") == [3, 1, 2]

    def test_sampling_is_deterministic_and_sized(self):
        rows = list(range(1000))
        a = sample_rows(rows, 50, seed=4, stream="metrics")
        b = sample_rows(rows, 50, seed=4, stream="metrics")
        assert a == b
        assert len(a) == 50
        assert len(set(a)) == 50
        assert set(a) <= set(rows)

    def test_seed_and_stream_select_different_samples(self):
        rows = list(range(1000))
        base = sample_rows(rows, 50, seed=4, stream="metrics")
        assert sample_rows(rows, 50, seed=5, stream="metrics") != base
        assert sample_rows(rows, 50, seed=4, stream="accuracy") != base

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            sample_rows([1], -1, seed=0, stream="x")


class TestMetricsPlot:
    def test_all_rows_kept_and_sorted_when_small(self, tmp_path):
        reports = {
            0x0210: metrics(0.5),
            0x0110: metrics(0.9),
        }
        path = str(tmp_path / "metrics.csv")
        write_metrics_plot_csv(reports, path, sample_size=400, seed=0)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        assert lines == [
            "selector,accuracy,f1,auc",
            "0x0110,0.900000,0.900000,0.950000",
            "0x0210,0.500000,0.900000,0.950000",
        ]

    def test_oversized_input_is_sampled_then_sorted(self, tmp_path):
        reports = {u << 8 | 0x10: metrics() for u in range(256)}
        path = str(tmp_path / "metrics.csv")
        write_metrics_plot_csv(reports, path, sample_size=40, seed=1)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 40
        selectors = [line.split(",")[0] for line in lines[1:]]
        assert selectors == sorted(selectors)
        # same seed, same file
        again = str(tmp_path / "again.csv")
        write_metrics_plot_csv(reports, again, sample_size=40, seed=1)
        assert Path(path).read_bytes() == Path(again).read_bytes()


class TestAccuracyPlot:
    def test_rows_sorted_by_selector(self, tmp_path):
        rows = [
            (0x0120, 1.0),
            (0x0110, 0.8125),
        ]
        path = str(tmp_path / "accuracy.csv")
        write_accuracy_plot_csv(rows, path, sample_size=100, seed=0)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        assert lines == [
            "selector,accuracy",
            "0x0110,0.812500",
            "0x0120,1.000000",
        ]

    def test_sampling_cap(self, tmp_path):
        rows = [(u << 8 | 0x10, 0.5) for u in range(200)]
        path = str(tmp_path / "accuracy.csv")
        write_accuracy_plot_csv(rows, path, sample_size=25, seed=9)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 25
