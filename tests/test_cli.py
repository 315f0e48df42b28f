"""Command-line behavior: config handling, exit codes, full pipeline runs.

Every happy-path test drives the real dispatch() against the shared data
fixtures inside a temporary directory, then inspects the artifacts the
subcommand leaves behind.
"""

import json
import os
import shlex

import pytest

from pmu_prospector import cli
from pmu_prospector.cli import CONFIG_ENV_VAR, dispatch, parse_config_text
from pmu_prospector.collector import load_report
from pmu_prospector.detection import load_dataset_csv, load_model_json
from pmu_prospector.errors import BackendError, ConfigError
from pmu_prospector.events import EventSelector, parse_selector


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class TestConfigParsing:
    def test_key_value_lines(self):
        text = "# defaults\n\nseed = 7\ncorpus=\"a.tsv\"\n"
        assert parse_config_text(text, "test.cfg") == {"seed": "7", "corpus": "a.tsv"}

    def test_unknown_key_reports_location(self):
        with pytest.raises(ConfigError, match=r"test\.cfg:2: unknown key 'sead'"):
            parse_config_text("seed=1\nsead=2\n", "test.cfg")

    def test_missing_separator_rejected(self):
        with pytest.raises(ConfigError, match=r"test\.cfg:1: expected key=value"):
            parse_config_text("just-words\n", "test.cfg")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("=value\n", "test.cfg")


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        assert "scan" in capsys.readouterr().out

    def test_unknown_flag_exits_two(self, capsys):
        assert dispatch(["scan", "--frobnicate"]) == 2

    def test_missing_subcommand_exits_two(self, capsys):
        assert dispatch([]) == 2

    def test_missing_required_setting_exits_two(self, tmp_path, capsys):
        code = dispatch(["scan", "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "--corpus is required" in capsys.readouterr().err

    def test_runtime_error_exits_one(self, tmp_path, capsys):
        code = dispatch(["report", "--in", str(tmp_path / "missing.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_value_exits_two(self, tmp_path, capsys, corpus_path, catalog_path, model_path):
        config = tmp_path / "bad.cfg"
        config.write_text("seed=not-a-number\n")
        code = dispatch([
            "--config", str(config), "scan", "--corpus", corpus_path,
            "--catalog", catalog_path, "--sim-model", model_path,
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "not a valid int" in capsys.readouterr().err

    def test_unreadable_config_exits_two(self, tmp_path, capsys):
        code = dispatch(["--config", str(tmp_path / "absent.cfg"), "scan",
                         "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_unknown_backend_exits_two(self, tmp_path, capsys, corpus_path, catalog_path):
        config = tmp_path / "cfg"
        config.write_text("backend=quantum\n")
        code = dispatch([
            "--config", str(config), "scan", "--corpus", corpus_path,
            "--catalog", catalog_path, "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_native_probe_failure_exits_one(self, tmp_path, capsys, corpus_path, catalog_path):
        # a CPU index that cannot exist makes the native probe fail fast
        code = dispatch([
            "scan", "--backend", "native", "--cpu", "99999",
            "--corpus", corpus_path, "--catalog", catalog_path,
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert "native backend unavailable" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sidechannel", "run", "--attack", "meltdown", "--selector", "0x016C",
         "--secret-file", "{secret}", "--length", "20"],
        ["sidechannel", "screen", "--report", "{report}", "--secret-file", "{secret}",
         "--iterations", "0"],
        ["scan", "--corpus", "{corpus}", "--catalog", "{catalog}", "--repetitions", "0"],
        ["detect", "collect", "--selector", "0x016C", "--attack", "meltdown", "--samples", "-3"],
        ["detect", "collect", "--selector", "0x016C", "--attack", "meltdown", "--samples", "0"],
        ["sidechannel", "run", "--attack", "meltdown", "--selector", "0x16C00",
         "--secret-file", "{secret}"],
    ], ids=["length-past-secret", "zero-iterations", "zero-repetitions",
            "negative-samples", "zero-samples", "selector-past-space"])
    def test_out_of_range_value_exits_two(
        self, argv, tmp_path, capsys, corpus_path, catalog_path, model_path, secret_path,
        scan_report_path,
    ):
        paths = {"corpus": corpus_path, "catalog": catalog_path, "secret": secret_path,
                 "report": scan_report_path}
        out = tmp_path / "out"
        code = dispatch([arg.format(**paths) for arg in argv]
                        + ["--sim-model", model_path, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("scan_fails", [False, True])
    def test_native_backend_closed_after_scan(
        self, tmp_path, capsys, monkeypatch, catalog_path, scan_fails
    ):
        class FakeMsrBackend:
            closed = 0

            def close(self):
                self.closed += 1

        backend = FakeMsrBackend()
        monkeypatch.setattr(cli, "probe_native_backend", lambda cpu: (backend, "ready"))
        monkeypatch.setattr(cli, "NativeExecutor", lambda native: object())
        if scan_fails:
            def failing_scan(*args, **kwargs):
                raise BackendError("MSR write failed")

            monkeypatch.setattr(cli.collector, "full_scan", failing_scan)
        corpus = tmp_path / "empty.tsv"
        corpus.write_text("")
        code = dispatch([
            "scan", "--backend", "native", "--corpus", str(corpus),
            "--catalog", catalog_path, "--out", str(tmp_path / "r.json"),
        ])
        assert code == (1 if scan_fails else 0)
        assert backend.closed == 1


@pytest.fixture()
def scan_args(corpus_path, catalog_path, model_path):
    def build(out, extra=()):
        return [
            "scan", "--corpus", corpus_path, "--catalog", catalog_path,
            "--sim-model", model_path, "--repetitions", "1", "--seed", "7",
            "--out", str(out), *extra,
        ]

    return build


class TestScanCommand:
    def test_scan_writes_report(self, tmp_path, capsys, scan_args):
        out = tmp_path / "report.json"
        assert dispatch(scan_args(out)) == 0
        stdout = capsys.readouterr().out
        assert "scanned 10 instructions (8 executed): 702 hidden events" in stdout
        report = load_report(str(out))
        assert len(report.hidden_events) == 702
        assert report.microarchitecture_label == "sim-skylake-desk"
        assert report.catalog_source == "catalog.csv"  # the file name, not the path

    def test_seeded_runs_are_byte_identical(self, tmp_path, scan_args):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert dispatch(scan_args(first)) == 0
        assert dispatch(scan_args(second)) == 0
        assert read_bytes(first) == read_bytes(second)

    def test_records_stream_written_and_deterministic(self, tmp_path, catalog_path, model_path):
        corpus = tmp_path / "mini.tsv"
        corpus.write_text("1\tMOV\tr64,m64\tbase\tmemory-load\n")

        def run(tag):
            out = tmp_path / f"report-{tag}.json"
            records = tmp_path / f"records-{tag}.ndjson"
            code = dispatch([
                "scan", "--corpus", str(corpus), "--catalog", catalog_path,
                "--sim-model", model_path, "--repetitions", "1", "--seed", "7",
                "--records", str(records), "--out", str(out),
            ])
            assert code == 0
            return records

        first = run("a")
        lines = open(first, encoding="utf-8").read().splitlines()
        assert len(lines) == 65536
        assert json.loads(lines[0x016C]) == {
            "delta": 1, "instruction": 1, "outcome": "success", "selector": "0x016C"
        }
        assert read_bytes(first) == read_bytes(run("b"))

    def test_config_file_supplies_defaults_and_flags_win(
        self, tmp_path, corpus_path, catalog_path, model_path, scan_args, monkeypatch
    ):
        config = tmp_path / "prospector.cfg"
        config.write_text(
            f"corpus={corpus_path}\ncatalog={catalog_path}\n"
            f"sim_model={model_path}\nrepetitions=1\nseed=1\n"
        )
        via_env = tmp_path / "env.json"
        monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
        # --seed 7 must override the config's seed=1
        assert dispatch(["scan", "--seed", "7", "--out", str(via_env)]) == 0
        monkeypatch.delenv(CONFIG_ENV_VAR)
        via_flags = tmp_path / "flags.json"
        assert dispatch(scan_args(via_flags)) == 0
        assert read_bytes(via_env) == read_bytes(via_flags)


@pytest.fixture(scope="module")
def scan_report_path(tmp_path_factory, corpus_path, catalog_path, model_path):
    out = tmp_path_factory.mktemp("scan") / "report.json"
    code = dispatch([
        "scan", "--corpus", corpus_path, "--catalog", catalog_path,
        "--sim-model", model_path, "--repetitions", "1", "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    return str(out)


class TestReportCommand:
    def test_summary_table(self, scan_report_path, capsys):
        assert dispatch(["report", "--in", scan_report_path]) == 0
        out = capsys.readouterr().out
        assert "microarchitecture" in out
        assert "sim-skylake-desk" in out
        assert "702" in out


class TestAnalyzeUmaskCommand:
    def test_emits_distribution_and_masks(self, scan_report_path, tmp_path, capsys):
        out_dir = tmp_path / "analysis"
        assert dispatch(["analyze-umask", "--report", scan_report_path,
                         "--out", str(out_dir)]) == 0
        stdout = capsys.readouterr().out
        assert "702 hidden selectors over 4 event codes" in stdout
        distribution = (out_dir / "umask_distribution.csv").read_text().splitlines()
        assert distribution[0] == "event_code,umask"
        assert len(distribution) == 1 + 702
        masks = (out_dir / "relevance_masks.csv").read_text().splitlines()
        # 0xD3 has two documented umasks missing from the hidden set, so its
        # reconstructed pattern fits no single mask exactly
        assert masks == [
            "event_code,relevance_mask,consistent",
            "0x08,0x10,true",
            "0x5E,0x00,true",
            "0x6C,0x01,true",
            "0xD3,0x01,false",
        ]


class TestDetectCommands:
    def test_collect_train_screen_pipeline(self, tmp_path, model_path, capsys):
        dataset_path = tmp_path / "dataset.csv"
        code = dispatch([
            "detect", "collect", "--selector", "0x016C", "--attack", "meltdown",
            "--sim-model", model_path, "--samples", "200", "--seed", "7",
            "--out", str(dataset_path),
        ])
        assert code == 0
        assert "collected 400 windows" in capsys.readouterr().out
        dataset = load_dataset_csv(str(dataset_path), parse_selector("0x016C"))
        labels = [label for _, label in dataset.samples]
        assert labels.count(0) == labels.count(1) == 200

        model_out = tmp_path / "model.json"
        code = dispatch([
            "detect", "train", "--dataset", str(dataset_path),
            "--selector", "0x016C", "--seed", "7", "--out", str(model_out),
        ])
        assert code == 0
        assert "test accuracy" in capsys.readouterr().out
        selector, model, metrics = load_model_json(str(model_out))
        assert selector == EventSelector(0x6C, 0x01)
        assert 0.5 < metrics.accuracy < 1.0

        screen_out = tmp_path / "screen.csv"
        code = dispatch([
            "detect", "screen", "--models", str(model_out), "--out", str(screen_out),
        ])
        assert code == 0
        lines = screen_out.read_text().splitlines()
        assert lines[0] == "selector,accuracy,precision,recall,f1,auc,passed"
        assert lines[1].startswith("0x016C,")

    def test_train_matches_library_evaluation(self, tmp_path, model_path):
        from pmu_prospector.backend import load_sim_model
        from pmu_prospector.detection import build_dataset, compute_metrics, train

        dataset_path = tmp_path / "dataset.csv"
        assert dispatch([
            "detect", "collect", "--selector", "0x016C", "--attack", "meltdown",
            "--sim-model", model_path, "--samples", "150", "--seed", "3",
            "--out", str(dataset_path),
        ]) == 0
        model_out = tmp_path / "model.json"
        assert dispatch([
            "detect", "train", "--dataset", str(dataset_path),
            "--selector", "0x016C", "--seed", "3", "--out", str(model_out),
        ]) == 0
        _, cli_model, cli_metrics = load_model_json(str(model_out))

        selector = parse_selector("0x016C")
        dataset = load_dataset_csv(str(dataset_path), selector, seed=3)
        backend = load_sim_model(model_path).make_backend(3)
        assert dataset == build_dataset(selector, "meltdown", backend, 150, seed=3)
        result = train(dataset)
        assert result.model == cli_model
        assert compute_metrics(result.model, result.test_samples) == cli_metrics

    def test_screen_flags_and_plot(self, tmp_path, capsys):
        from pmu_prospector.detection import MetricsReport, save_model_json
        from pmu_prospector.detection import LogisticModel

        model = LogisticModel(1.0, 0.0, 0.0, 1.0)
        perfect = MetricsReport(10, 0, 0, 10, 1.0, 1.0, 1.0, 1.0, 1.0)
        good = MetricsReport(9, 1, 1, 9, 0.9, 0.9, 0.9, 0.85, 0.95)
        paths = []
        for name, metrics in (("perfect", perfect), ("good", good)):
            path = tmp_path / f"{name}.json"
            selector = EventSelector(0x6C, 0x01 if name == "perfect" else 0x03)
            save_model_json(selector, model, metrics, str(path))
            paths.append(str(path))

        out = tmp_path / "screen.csv"
        plot = tmp_path / "plot.csv"
        code = dispatch([
            "detect", "screen", "--models", *paths, "--exclude-perfect",
            "--plot-out", str(plot), "--out", str(out),
        ])
        assert code == 0
        assert "1 of 2 detectors pass" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[1].endswith("false")  # the saturated detector is excluded
        assert lines[2].endswith("true")
        assert plot.read_text().splitlines()[0] == "selector,accuracy,f1,auc"


class TestSidechannelCommands:
    def test_run_recovers_fixture_secret(self, tmp_path, model_path, secret_path, capsys):
        out = tmp_path / "result.json"
        code = dispatch([
            "sidechannel", "run", "--attack", "meltdown", "--selector", "0x016C",
            "--sim-model", model_path, "--secret-file", secret_path,
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        assert "error 0.0000" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["recovered_hex"] == open(secret_path, "rb").read().hex()
        assert doc["error_rate"] == 0.0

        again = tmp_path / "again.json"
        assert dispatch([
            "sidechannel", "run", "--attack", "meltdown", "--selector", "0x016C",
            "--sim-model", model_path, "--secret-file", secret_path,
            "--seed", "7", "--out", str(again),
        ]) == 0
        assert read_bytes(out) == read_bytes(again)

    def test_run_rejects_empty_secret(self, tmp_path, model_path, capsys):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        code = dispatch([
            "sidechannel", "run", "--attack", "meltdown", "--selector", "0x016C",
            "--sim-model", model_path, "--secret-file", str(empty),
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "is empty" in capsys.readouterr().err

    def test_screen_filters_hidden_events(self, tmp_path, model_path, secret_path, capsys):
        from pmu_prospector.collector import ScanReport, persist_report

        report = ScanReport(
            microarchitecture_label="sim-skylake-desk",
            total_instructions=10,
            executed_success=8,
            hidden_events={
                EventSelector(0x08, 0x01): {5},   # gated off: never counts
                EventSelector(0x5E, 0x01): {3},   # counts the scaffold class
                EventSelector(0x6C, 0x01): {1},   # counts the transmit class
            },
        )
        report_path = tmp_path / "small-report.json"
        persist_report(report, str(report_path))
        out = tmp_path / "channel.csv"
        plot = tmp_path / "channel-plot.csv"
        code = dispatch([
            "sidechannel", "screen", "--report", str(report_path),
            "--sim-model", model_path, "--secret-file", secret_path,
            "--length", "4", "--seed", "7",
            "--plot-out", str(plot), "--out", str(out),
        ])
        assert code == 0
        assert "1 of 3 hidden events" in capsys.readouterr().out
        assert out.read_text().splitlines() == [
            "selector,accuracy",
            "0x016C,1.000000",
        ]
        assert plot.read_text().splitlines() == [
            "selector,accuracy",
            "0x016C,1.000000",
        ]


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def readme_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, stdout lines) of every `$ pmu-prospector` example in README.md,
    in order.  A command's output is the lines after it, up to the next
    command or the end of its code block."""
    examples: list[tuple[list[str], list[str]]] = []
    expected = None
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        lines = iter(fh.read().splitlines())
    for line in lines:
        if line.startswith("```"):
            expected = None
        elif line.startswith("$ "):
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + next(lines)
            program, *argv = shlex.split(command)
            expected = None
            if program == "pmu-prospector":
                expected = []
                examples.append((argv, expected))
        elif expected is not None:
            expected.append(line.rstrip())
    return examples


def test_readme_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    examples = readme_examples()
    assert {argv[0] for argv, _ in examples} == {
        "scan", "report", "analyze-umask", "detect", "sidechannel"
    }
    monkeypatch.chdir(tmp_path)  # later examples read what earlier ones wrote
    for argv, expected in examples:
        argv = [os.path.join(ROOT, arg) if arg.startswith("tests/data/") else arg
                for arg in argv]
        assert dispatch(argv) == 0, argv
        got = [line.rstrip() for line in capsys.readouterr().out.splitlines()]
        assert got == expected, argv
