"""Command-line behavior: flag parsing, exit codes, full pipeline runs.

Every happy-path test drives the real dispatch() against the shared data
fixtures inside a temporary directory, then inspects the artifacts the
subcommand leaves behind.
"""

import contextlib
import json
import logging
import os
import re
import shlex
import shutil
import stat
import threading
from types import SimpleNamespace

import pytest

from pmu_prospector import cli
from pmu_prospector.cli import dispatch
from pmu_prospector.collector import load_report
from pmu_prospector.corpus import InstructionEntry, NativeExecutor, instantiate
from pmu_prospector.detection import load_dataset_csv, load_model_json
from pmu_prospector.errors import BackendError, CapabilityError
from pmu_prospector.events import parse_selector


# each of these flags, after the other arguments its command requires
SCAN = ["scan", "--corpus", "corpus.tsv", "--catalog", "catalog.csv"]
CHANNEL = ["sidechannel", "run", "--attack", "meltdown", "--selector", "0x016C",
           "--sim-model", "model.json", "--secret-file", "secret.bin"]
FLAG_COMMANDS = {
    "--repetitions": SCAN, "--quiet-threshold": SCAN, "--seed": SCAN, "--cpu": SCAN,
    "--samples": ["detect", "collect", "--selector", "0x016C", "--attack", "meltdown",
                  "--sim-model", "model.json"],
    "--plot-sample": ["detect", "screen", "--models", "model.json"],
    "--iterations": CHANNEL, "--length": CHANNEL, "--false-fire": CHANNEL,
}


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        assert "scan" in capsys.readouterr().out

    def test_unknown_flag_exits_two(self, capsys):
        assert dispatch(["scan", "--frobnicate"]) == 2

    def test_missing_subcommand_exits_two(self, capsys):
        assert dispatch([]) == 2

    def test_missing_required_setting_exits_two(self, tmp_path, capsys, corpus_path,
                                                 catalog_path, secret_path):
        # scan needs --sim-model only on the sim backend, since the native one reads no model
        required = "the following arguments are required:"
        cases = [
            (["scan"], f"{required} --corpus, --catalog"),
            (["scan", "--corpus", corpus_path, "--catalog", catalog_path],
             "error: --sim-model is required for the sim backend"),
            (["detect", "collect", "--selector", "0x016C", "--attack", "meltdown"],
             f"{required} --sim-model"),
            (["sidechannel", "run", "--attack", "meltdown", "--selector", "0x016C",
              "--secret-file", secret_path], f"{required} --sim-model"),
        ]
        out = tmp_path / "out"
        for argv, message in cases:
            assert dispatch([*argv, "--out", str(out)]) == 2, argv
            assert message in capsys.readouterr().err, argv
            assert not out.exists()

    def test_runtime_error_exits_one(self, tmp_path, capsys):
        code = dispatch(["report", "--in", str(tmp_path / "missing.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    # a file holding byte 0xFF is named in the error
    @pytest.mark.parametrize("which, code", [("corpus", 1), ("catalog", 1)])
    def test_non_utf8_file_is_named(self, which, code, tmp_path, capsys,
                                    corpus_path, catalog_path, model_path):
        bad = tmp_path / f"bad-{which}"
        bad.write_bytes(b"# \xff\n")
        files = {"corpus": corpus_path, "catalog": catalog_path, which: str(bad)}
        out = tmp_path / "r.json"
        assert dispatch(["scan", "--corpus", files["corpus"],
                         "--catalog", files["catalog"], "--sim-model", model_path,
                         "--repetitions", "1", "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {which} {bad}: 'utf-8' codec")
        assert not out.exists()

    def test_unknown_backend_exits_two(self, tmp_path, capsys, corpus_path, catalog_path):
        code = dispatch([
            "scan", "--backend", "quantum", "--corpus", corpus_path,
            "--catalog", catalog_path, "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "invalid choice" in capsys.readouterr().err

    # int() alone takes "1_0" as 10, and float() takes "0_0"; argparse names the flag
    @pytest.mark.parametrize("flag, value", [
        *(pytest.param(flag, value, id=f"{flag[2:]}-{name}")
          for flag in FLAG_COMMANDS if flag != "--false-fire"
          for value, name in [("1_0", "underscore"), (" 3", "leading-space"),
                              ("3 ", "trailing-space"), ("+2", "plus-sign"),
                              ("\u0663", "arabic-indic-digit")]),
        *(pytest.param("--false-fire", value, id=f"false-fire-{name}")
          for value, name in [("0_0", "underscore"), ("0.0_1", "fraction-underscore"),
                              (" 0.5", "leading-space"), ("0.5\n", "trailing-newline")]),
    ])
    def test_flag_value_is_read_strictly(self, flag, value, tmp_path, capsys):
        out = tmp_path / "out"
        assert dispatch([*FLAG_COMMANDS[flag], flag, value, "--out", str(out)]) == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["detect", "sidechannel"])
    def test_negative_plot_sample_exits_before_any_output(self, command, tmp_path, capsys,
                                                           model_path, secret_path):
        from pmu_prospector.collector import ScanReport, persist_report
        from pmu_prospector.detection import LogisticModel, MetricsReport, save_model_json

        inputs = tmp_path / "inputs.json"
        if command == "detect":
            save_model_json(0x016C, LogisticModel(1.0, 0.0, 0.0, 1.0),
                            MetricsReport(9, 1, 1, 9, 0.9, 0.9, 0.9, 0.85, 0.95), str(inputs))
            argv = ["detect", "screen", "--models", str(inputs)]
        else:
            persist_report(ScanReport(microarchitecture_label="sim-skylake-desk",
                                      total_instructions=1, executed_success=1,
                                      hidden_events={0x016C: {1}}), str(inputs))
            argv = ["sidechannel", "screen", "--report", str(inputs), "--sim-model", model_path,
                    "--secret-file", secret_path, "--length", "1", "--iterations", "1"]
        out, plot = tmp_path / "out.csv", tmp_path / "plot.csv"
        assert dispatch([*argv, "--plot-out", str(plot), "--plot-sample", "-5",
                         "--out", str(out)]) == 2
        assert "argument --plot-sample: invalid non-negative int value: '-5'" in (
            capsys.readouterr().err)
        assert not out.exists() and not plot.exists()
        assert dispatch([*argv, "--plot-out", str(plot), "--plot-sample", "0",
                         "--out", str(out)]) == 0
        assert out.exists() and plot.read_text().splitlines() == [
            "selector,accuracy,f1,auc" if command == "detect" else "selector,accuracy"]

    @pytest.mark.parametrize("sub, defaults", [
        (["scan"], {"--backend": "sim", "--repetitions": "5", "--quiet-threshold": "1",
                    "--seed": "0", "--cpu": "0"}),
        (["detect", "collect"], {"--samples": "2000", "--seed": "0"}),
        (["detect", "train"], {"--seed": "0"}),
        (["detect", "screen"], {"--plot-sample": "400", "--seed": "0"}),
        (["sidechannel", "run"], {"--iterations": "10", "--suppression": "signal-handler",
                                  "--transmit-class": "memory-load", "--false-fire": "0.0",
                                  "--seed": "0"}),
        (["sidechannel", "screen"], {"--iterations": "10", "--suppression": "signal-handler",
                                     "--attack": "meltdown", "--plot-sample": "100",
                                     "--seed": "0"}),
    ], ids=["scan", "detect-collect", "detect-train", "detect-screen", "sidechannel-run",
            "sidechannel-screen"])
    def test_help_shows_every_default(self, sub, defaults, capsys):
        assert dispatch([*sub, "--help"]) == 0
        options = capsys.readouterr().out.split("\noptions:\n", 1)[1]
        # one entry per option, each starting at a two-space indent
        entries = {entry.split()[0]: " ".join(entry.split())
                   for entry in re.split(r"\n  (?=--)", options)}
        for flag, default in defaults.items():
            assert entries[flag].endswith(f"(default: {default})"), entries[flag]

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
        ["detect", "collect", "--selector", "0x016C", "--attack", "meltdown", "--samples", "1"],
        ["sidechannel", "run", "--attack", "meltdown", "--selector", "0x16C00",
         "--secret-file", "{secret}"],
        ["scan", "--corpus", "{corpus}", "--catalog", "{catalog}", "--seed", str(1 << 128)],
        ["detect", "collect", "--selector", "0x016C", "--attack", "meltdown",
         "--seed", str(1 << 128)],
        ["sidechannel", "run", "--attack", "meltdown", "--selector", "0x016C",
         "--secret-file", "{secret}", "--seed", str(1 << 128)],
    ], ids=["length-past-secret", "zero-iterations", "zero-repetitions",
            "negative-samples", "zero-samples", "one-sample", "selector-past-space",
            "scan-seed-past-128-bits", "collect-seed-past-128-bits",
            "channel-seed-past-128-bits"])
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

    @pytest.mark.parametrize("command, text", [
        ("sidechannel", '{"families": [{"event_code": 108, "trigger_classes": "memory-load"}]}'),
        ("sidechannel", '{"supported_extensions": "base"}'),
        ("sidechannel", '{"fault_instructions": [8]}'),
        ("sidechannel", '{"families": 5}'),
        ("sidechannel", '{"families": "memory-load"}'),
        ("sidechannel", '{"supports_tsx": "false"}'),
        ("sidechannel", '{"families": [{"event_code": 108, "noise_stddev": NaN}]}'),
        ("sidechannel", '{"families": [{"event_code": 108, "noise_stddev": Infinity}]}'),
        ("sidechannel", '{"families": [{"event_code": 108, "noise_stddev": true}]}'),
        ("sidechannel", '{"families": [{"event_code": 108, "increment": %d}]}' % 2**70),
        ("sidechannel", '{"families": [{"event_code": 108, "increment": %d}]}' % 2**62),
        ("sidechannel", '{"families": [{"event_code": 108, "noise_stddev": 1e300}]}'),
        ("report", '{"format": "pmu-prospector-scan-v1", "microarchitecture": "x", '
                   '"total_instructions": 1, "executed_success": 1, "hidden_events": []}'),
        ("report", '{"format": "pmu-prospector-scan-v1", "microarchitecture": "x", '
                   '"total_instructions": 10, "executed_success": 99, "hidden_events": {}}'),
        ("report", '{"format": "pmu-prospector-scan-v1", "microarchitecture": null, '
                   '"total_instructions": 1, "executed_success": 1, "hidden_events": {}}'),
        ("report", '{"format": "pmu-prospector-scan-v1", "microarchitecture": "x", '
                   '"catalog_source": 5, "total_instructions": 1, "executed_success": 1, '
                   '"hidden_events": {}}'),
    ], ids=["trigger-classes-string", "extensions-string", "faults-list", "families-number",
            "families-string", "tsx-string", "nan-noise", "infinite-noise", "boolean-noise",
            "huge-increment", "increment-past-2**32", "huge-noise", "hidden-events-list",
            "executed-past-total", "null-microarchitecture", "numeric-catalog-source"])
    def test_malformed_input_exits_one(self, command, text, tmp_path, capsys, secret_path):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        if command == "report":
            argv = ["report", "--in", str(bad)]
        else:
            argv = ["sidechannel", "run", "--attack", "meltdown", "--selector", "0x016C",
                    "--sim-model", str(bad), "--secret-file", secret_path,
                    "--out", str(tmp_path / "r.json")]
        code = dispatch(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    # failure: False for none, True for the scan itself, or what fails before the scan
    @pytest.mark.parametrize("failure", [False, True, "no-compiler", "records"])
    def test_native_backend_closed_after_scan(
        self, tmp_path, capsys, monkeypatch, catalog_path, failure
    ):
        class FakeMsrBackend:
            label = "native"
            closed = 0

            def close(self):
                self.closed += 1

        class FakeExecutor:
            """Stands in for NativeExecutor: a probe directory that close() removes."""

            made = []

            def __init__(self, native):
                self.backend = native
                self.probe_dir = tmp_path / "probes"
                self.probe_dir.mkdir()
                self.closed = 0
                self.made.append(self)

            def close(self):
                self.closed += 1
                shutil.rmtree(self.probe_dir)

        def failing(exc):
            def fail(*args, **kwargs):
                raise exc

            return fail

        backend = FakeMsrBackend()
        monkeypatch.setattr(cli, "probe_native_backend", lambda cpu: (backend, "ready"))
        monkeypatch.setattr(cli, "NativeExecutor", FakeExecutor)
        if failure is True:
            monkeypatch.setattr(cli.collector, "full_scan", failing(BackendError("MSR write")))
        if failure == "no-compiler":
            monkeypatch.setattr(cli, "NativeExecutor", failing(CapabilityError("no C compiler")))
        code = self.native_scan(tmp_path, catalog_path, records_ok=failure != "records")
        assert code == (1 if failure else 0)
        assert backend.closed == 1
        assert [e.closed for e in FakeExecutor.made] == ([] if failure == "no-compiler" else [1])
        assert not (tmp_path / "probes").exists()

    @pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
    @pytest.mark.parametrize("records_ok", [True, False], ids=["success", "records"])
    def test_native_scan_removes_real_probes(
        self, tmp_path, capsys, monkeypatch, catalog_path, records_ok
    ):
        class FakeMsrBackend:
            label = "native"

            def close(self):
                pass

        kept = []  # holding the executor keeps garbage collection from removing its probes

        def native_executor(native):
            executor = NativeExecutor(native)
            # compiles, so the probe directory exists
            executor.execute(instantiate(InstructionEntry(0, "NOP", (), "base", "alu")))
            kept.append((executor, executor.probe_dir.name))
            return executor

        monkeypatch.setattr(cli, "probe_native_backend", lambda cpu: (FakeMsrBackend(), "ready"))
        monkeypatch.setattr(cli, "NativeExecutor", native_executor)
        code = self.native_scan(tmp_path, catalog_path, records_ok=records_ok)
        assert code == (0 if records_ok else 1)
        assert len(kept) == 1
        assert not os.path.exists(kept[0][1])

    @staticmethod
    def native_scan(tmp_path, catalog_path, records_ok):
        """scan --backend native over an empty corpus; a missing records dir fails it."""
        records = tmp_path / ("" if records_ok else "missing-dir") / "records.ndjson"
        corpus = tmp_path / "empty.tsv"
        corpus.write_text("")
        return dispatch([
            "scan", "--backend", "native", "--corpus", str(corpus), "--records", str(records),
            "--catalog", catalog_path, "--out", str(tmp_path / "r.json"),
        ])


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
    @pytest.mark.parametrize("field, value", [
        ("microarchitecture", None),
        ("families[0].seed", 2**200),
        ("families[0].seed", -(2**127) - 1),
    ], ids=["null-microarchitecture", "seed-past-2**127", "seed-below-minus-2**127"])
    def test_malformed_sim_model_field_exits_one_naming_it(
        self, tmp_path, capsys, model_path, scan_args, field, value
    ):
        with open(model_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if field == "microarchitecture":
            doc[field] = value
        else:
            doc["families"][0]["seed"] = value
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        argv = [str(bad) if arg == model_path else arg for arg in scan_args(out)]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out.exists()

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

    @pytest.fixture
    def mini_scan(self, tmp_path, catalog_path, model_path):
        """mini_scan(records) scans a one-instruction corpus with --records
        records and returns the exit code."""
        corpus = tmp_path / "mini.tsv"
        corpus.write_text("1\tMOV\tr64,m64\tbase\tmemory-load\n")

        def run(records):
            return dispatch([
                "scan", "--corpus", str(corpus), "--catalog", catalog_path,
                "--sim-model", model_path, "--repetitions", "1", "--seed", "7",
                "--records", str(records), "--out", str(tmp_path / "report.json"),
            ])

        return run

    def test_records_stream_written_and_deterministic(self, tmp_path, mini_scan):
        first, second = tmp_path / "records-a.ndjson", tmp_path / "records-b.ndjson"
        assert mini_scan(first) == 0
        lines = read_bytes(first).decode("utf-8").splitlines()
        assert len(lines) == 65536
        assert json.loads(lines[0x016C]) == {
            "delta": 1, "instruction": 1, "outcome": "success", "selector": "0x016C"
        }
        assert mini_scan(second) == 0
        assert read_bytes(first) == read_bytes(second)

    @pytest.mark.parametrize("previous", ["longer-stream", "junk-bytes"])
    def test_rerun_replaces_an_existing_file_exactly(self, tmp_path, mini_scan, scan_args,
                                                     previous):
        fresh, records = tmp_path / "fresh.ndjson", tmp_path / "records.ndjson"
        assert mini_scan(fresh) == 0
        if previous == "longer-stream":  # the fixture corpus's nine scanned instructions
            assert dispatch(scan_args(tmp_path / "full.json", ["--records", str(records)])) == 0
            assert records.stat().st_size > fresh.stat().st_size
        else:
            records.write_bytes(b"0123456789")
        assert mini_scan(records) == 0
        assert read_bytes(records) == read_bytes(fresh)
        assert not list(tmp_path.glob("*.partial"))

    @pytest.mark.parametrize("through_symlink", [False, True], ids=["file", "symlink"])
    def test_failed_scan_leaves_only_the_partial_stream(self, tmp_path, capsys, monkeypatch,
                                                        scan_args, through_symlink):
        scanned = set()

        class FailingExecutor(cli.SimulatedExecutor):
            def execute(self, snippet):
                scanned.add(snippet.entry.id)
                if len(scanned) == 3:
                    raise OSError("probe lost")
                return super().execute(snippet)

        monkeypatch.setattr(cli, "SimulatedExecutor", FailingExecutor)
        records = path = tmp_path / "records.ndjson"
        if through_symlink:  # the file the link names is set aside, and the link stays
            records.write_bytes(b"0123456789")
            path = tmp_path / "link"
            path.symlink_to(records)
        assert dispatch(scan_args(tmp_path / "report.json", ["--records", str(path)])) == 1
        assert capsys.readouterr().err == "error: probe lost\n"
        assert not records.exists()
        assert path.is_symlink() == through_symlink
        # a simulated scan measures the fixture's instructions in one group at
        # one repetition, so the group whose run raised renders no record
        assert read_bytes(tmp_path / "records.ndjson.partial").count(b"\n") == 0

    def test_failed_scalar_scan_keeps_the_completed_instructions(self, tmp_path, capsys,
                                                                monkeypatch, scan_args):
        scanned = set()

        class ScalarFailingExecutor(cli.SimulatedExecutor):
            """Runs through the PMU's counter contract without its model, so
            the scan takes the scalar path, instruction by instruction."""

            def __init__(self, pmu, *args, **kwargs):
                super().__init__(pmu, *args, **kwargs)
                self.backend = SimpleNamespace(label=pmu.label, program=pmu.program,
                                               read=pmu.read,
                                               record_execution=pmu.record_execution)

            def execute(self, snippet):
                scanned.add(snippet.entry.id)
                if len(scanned) == 3:
                    raise OSError("probe lost")
                return super().execute(snippet)

        monkeypatch.setattr(cli, "SimulatedExecutor", ScalarFailingExecutor)
        records = tmp_path / "records.ndjson"
        assert dispatch(scan_args(tmp_path / "report.json", ["--records", str(records)])) == 1
        assert capsys.readouterr().err == "error: probe lost\n"
        assert not records.exists()
        # the records of the two instructions completed before the failure
        assert read_bytes(tmp_path / "records.ndjson.partial").count(b"\n") == 2 * 65536

    @pytest.mark.parametrize("flag", ["--out", "--records"])
    def test_a_missing_directory_is_named_as_given(self, tmp_path, capsys, scan_args, flag):
        # the stream goes to <path>.partial, but the error names <path>
        missing = tmp_path / "missing" / "file"
        extra = ["--records", str(missing)] if flag == "--records" else []
        out = missing if flag == "--out" else tmp_path / "report.json"
        assert dispatch(scan_args(out, extra)) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
        assert list(tmp_path.rglob("*")) == []

    def test_fifo_target_is_written_directly(self, tmp_path, mini_scan):
        fresh, fifo = tmp_path / "fresh.ndjson", tmp_path / "fifo"
        assert mini_scan(fresh) == 0
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(read_bytes(fifo)), daemon=True)
        reader.start()
        try:
            code = mini_scan(fifo)
        finally:
            # a scan that never opened the FIFO leaves the reader waiting for a writer
            with contextlib.suppress(OSError):
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert code == 0
        assert received == [read_bytes(fresh)]
        assert not list(tmp_path.glob("*.partial"))

    def test_verbose_logs_one_line_per_scanned_instruction(self, tmp_path, caplog, capsys,
                                                           scan_args):
        out = tmp_path / "report.json"
        root = logging.getLogger()
        saved = root.level
        messages = {}
        try:
            for flags in ([], ["--verbose"]):
                caplog.clear()
                assert dispatch([*flags, *scan_args(out)]) == 0
                messages[bool(flags)] = [
                    r.getMessage() for r in caplog.records
                    if r.name == "pmu_prospector.collector" and r.levelno == logging.INFO
                ]
        finally:
            root.setLevel(saved)
        assert messages[False] == []
        assert "scanned id" not in capsys.readouterr().err
        lines = [re.fullmatch(r"scanned id (\d+) \((\w+)\): (\d+) hidden events", m)
                 for m in messages[True]]
        assert len(lines) == 9 and all(lines)  # the avx512 instruction (id 9) is skipped
        assert 9 not in {int(m[1]) for m in lines}
        hidden = load_report(str(out)).hidden_events
        assert sum(int(m[3]) for m in lines) == sum(len(ids) for ids in hidden.values())

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

    def test_verbose_applies_to_every_dispatch_in_a_process(self, scan_report_path):
        root = logging.getLogger()
        saved = root.level
        try:
            levels = []
            for flags in ([], ["--verbose"], []):
                assert dispatch([*flags, "report", "--in", scan_report_path]) == 0
                levels.append(root.level)
        finally:
            root.setLevel(saved)
        assert levels == [logging.WARNING, logging.INFO, logging.WARNING]

    @pytest.mark.parametrize("members, repeated", [
        ('"executed_success": 1, "executed_success": 5, "hidden_events": {}',
         "executed_success"),
        ('"executed_success": 1, "hidden_events": {"0x016C": [1], "0x016C": [2]}', "0x016C"),
        ('"executed_success": 1, "hidden_events": {}, "hidden_events": {}, "executed_success": 1',
         "hidden_events"),  # the first name seen again, not the first name that repeats
    ], ids=["top-level", "nested", "two-repeated"])
    def test_repeated_member_exits_one_naming_it(self, members, repeated, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text('{"format": "pmu-prospector-scan-v1", "microarchitecture": "sim", '
                        f'"total_instructions": 10, {members}}}')
        assert dispatch(["report", "--in", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: report {path}: member {repeated!r} is repeated\n"


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
        assert selector == 0x016C
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

    def test_train_rejects_a_label_outside_0_1(self, tmp_path, capsys):
        dataset_path = tmp_path / "dataset.csv"
        dataset_path.write_text("delta,label\n1,0\n2,0\n3,0\n7,1\n8,1\n9,2\n")
        model_out = tmp_path / "model.json"
        code = dispatch([
            "detect", "train", "--dataset", str(dataset_path),
            "--selector", "0x016C", "--out", str(model_out),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "dataset.csv:7: label must be 0 or 1" in err
        assert "Traceback" not in err
        assert not model_out.exists()

    def test_train_rejects_a_dataset_without_windows(self, tmp_path, capsys):
        dataset_path = tmp_path / "dataset.csv"
        dataset_path.write_text("delta,label\n")
        model_out = tmp_path / "model.json"
        code = dispatch([
            "detect", "train", "--dataset", str(dataset_path),
            "--selector", "0x016C", "--out", str(model_out),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "dataset.csv: no windows" in err
        assert not model_out.exists()

    def test_screen_rejects_two_detectors_for_one_selector(self, tmp_path, capsys):
        from pmu_prospector.detection import LogisticModel, MetricsReport, save_model_json

        metrics = MetricsReport(9, 1, 1, 9, 0.9, 0.9, 0.9, 0.9, 0.95)
        first, second = str(tmp_path / "first.json"), str(tmp_path / "second.json")
        for path in (first, second):
            save_model_json(0x016C, LogisticModel(1.0, 0.0, 0.0, 1.0),
                            metrics, path)
        out = tmp_path / "screen.csv"
        code = dispatch(["detect", "screen", "--models", first, second, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: --models gives two detectors for 0x016C: {first} and {second}\n"
        assert not out.exists()

    def test_screen_flags_and_plot(self, tmp_path, capsys):
        from pmu_prospector.detection import MetricsReport, save_model_json
        from pmu_prospector.detection import LogisticModel

        model = LogisticModel(1.0, 0.0, 0.0, 1.0)
        perfect = MetricsReport(10, 0, 0, 10, 1.0, 1.0, 1.0, 1.0, 1.0)
        good = MetricsReport(9, 1, 1, 9, 0.9, 0.9, 0.9, 0.85, 0.95)
        paths = []
        for name, metrics in (("perfect", perfect), ("good", good)):
            path = tmp_path / f"{name}.json"
            selector = 0x016C if name == "perfect" else 0x036C
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


def test_one_parser_serves_every_dispatch(tmp_path, model_path, capsys):
    from pmu_prospector.detection import LogisticModel, MetricsReport, save_model_json

    cli.build_parser.cache_clear()
    assert dispatch(["report", "--in", "r.json", "--frobnicate"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --frobnicate" in err
    assert dispatch(["--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: pmu-prospector") and err == ""

    dataset, trained = tmp_path / "dataset.csv", tmp_path / "trained.json"
    assert dispatch([
        "detect", "collect", "--selector", "0x016C", "--attack", "meltdown",
        "--sim-model", model_path, "--samples", "100", "--seed", "7", "--out", str(dataset),
    ]) == 0
    assert capsys.readouterr().out.startswith("collected 200 windows for 0x016C")
    assert dispatch([
        "detect", "train", "--dataset", str(dataset), "--selector", "0x016C",
        "--seed", "7", "--out", str(trained),
    ]) == 0
    assert capsys.readouterr().out.startswith("0x016C: trained ")
    perfect = str(tmp_path / "perfect.json")
    save_model_json(0x036C, LogisticModel(1.0, 0.0, 0.0, 1.0),
                    MetricsReport(10, 0, 0, 10, 1.0, 1.0, 1.0, 1.0, 1.0), perfect)
    models = ["detect", "screen", "--models", str(trained), perfect]
    assert dispatch([*models, "--exclude-perfect", "--out", str(tmp_path / "a.csv")]) == 0
    assert capsys.readouterr().out.startswith("0 of 2 detectors pass")
    # a plain screen after --exclude-perfect keeps the perfect detector
    assert dispatch([*models, "--out", str(tmp_path / "b.csv")]) == 0
    assert capsys.readouterr().out.startswith("1 of 2 detectors pass")
    assert cli.build_parser.cache_info().misses == 1

    parser = cli.build_parser()
    parser.parse_args([*models, "--exclude-perfect", "--out", "a.csv"])
    second = parser.parse_args(["report", "--in", "r.json"])
    assert vars(second) == {"verbose": False, "command": "report",
                            "input": "r.json", "handler": cli.cmd_report}


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
        assert doc["recovered_hex"] == read_bytes(secret_path).hex()
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
                0x0108: {5},   # gated off: never counts
                0x015E: {3},   # counts the scaffold class
                0x016C: {1},   # counts the transmit class
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


def readme_library_example() -> str:
    """The python block of README.md's `## Library use` section."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_prints_its_comments(capsys):
    code = readme_library_example()
    expected = [line.split("  # ", 1)[1] for line in code.splitlines()
                if line.startswith("print(")]
    assert len(expected) == 2
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_readme_measure_example_prints_its_comments(capsys):
    # the second python block of `## Library use` runs after the first, on its backend
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    first, second = [block.split("```", 1)[0] for block in section.split("```python\n")[1:]]
    expected = [line[2:] for line in second.splitlines() if line.startswith("# ")]
    assert len(expected) == 2
    exec(compile(first + second, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[2:] == expected
