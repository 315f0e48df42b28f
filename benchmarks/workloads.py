"""The benchmark workloads: set-up, the timed body, and the oracle checks.

Constructing a workload is its set-up (fixtures loaded, backends and
executors built).  `body` is the timed part; `check` compares what the body
produced with the expectations in `oracles` and runs untimed.  `measurements`
is the nominal number of counter measurements one body makes, computed from
the inputs, never from a trace.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import logging
import os
import random

from pmu_prospector import backend, cli, collector, corpus, detection, events
from pmu_prospector.errors import InstantiationError, NormalizationError

from oracles import SPACE, MELTDOWN_SIGNAL_HANDLER_BPS, Checks, Fixtures, selector_text


class LostWork(logging.Handler):
    """Counts the work the collector reports dropping in its warnings: a
    batch lost to a BackendError, or an instruction it could not render."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.reset()

    def reset(self) -> None:
        self.batches = 0
        self.skipped: list[int] = []

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("backend failure"):
            self.batches += 1
        elif record.msg.startswith("skipping id"):
            self.skipped.append(record.args[0])


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.dispatch(argv)
    return rc, out.getvalue()


class Workload:
    def __init__(self, fx: Fixtures, work: str, seed: int, lost: LostWork):
        self.fx = fx
        self.work = work
        self.seed = seed
        self.lost = lost
        self.results: dict[str, tuple[int, str]] = {}

    def cli(self, name: str, argv: list[str]) -> None:
        self.results[name] = run_cli(argv)

    def check_exits(self, checks: Checks) -> None:
        for name, (rc, _) in self.results.items():
            checks.expect(f"{name}.exit", rc == 0, f"exit code {rc}")

    def check_lost_work(self, checks: Checks) -> None:
        checks.expect("collector.batches_lost", self.lost.batches == 0,
                      f"{self.lost.batches} batches lost to backend errors")
        checks.expect("collector.instructions_skipped", self.lost.skipped == self.fx.skipped,
                      f"skipped {self.lost.skipped}, expected {self.fx.skipped}")


class Scan(Workload):
    """Full selector-space scan, then the umask analysis and summary of it."""

    repetitions = 3

    def __init__(self, *args):
        super().__init__(*args)
        self.report = os.path.join(self.work, "report.json")
        self.analysis = os.path.join(self.work, "analysis")
        self.measurements = len(self.fx.scanned) * SPACE * self.repetitions

    def scan_argv(self) -> list[str]:
        fx = self.fx
        return [
            "scan", "--corpus", fx.path("corpus.tsv"), "--catalog", fx.path("catalog.csv"),
            "--sim-model", fx.path("sim_model.json"), "--repetitions", str(self.repetitions),
            "--seed", str(self.seed), "--out", self.report,
        ]

    def body(self) -> None:
        self.results.clear()
        self.cli("scan", self.scan_argv())
        self.cli("analyze-umask", ["analyze-umask", "--report", self.report, "--out", self.analysis])
        self.cli("report", ["report", "--in", self.report])

    def check(self, checks: Checks) -> None:
        self.check_exits(checks)
        self.check_lost_work(checks)
        hidden = self.check_report(checks)
        self.check_masks(checks, hidden)
        fx = self.fx
        summary = self.results["report"][1].splitlines()[-1:]
        expected = [fx.label, str(len(fx.ids)), str(len(fx.executed)), str(len(hidden))]
        checks.expect("report.summary", [line.split() for line in summary] == [expected],
                      f"got {summary}, expected {expected}")

    def check_report(self, checks: Checks) -> dict[int, set[int]]:
        fx = self.fx
        with open(self.report, encoding="utf-8") as fh:
            doc = json.load(fh)
        hidden = {int(key, 16): set(ids) for key, ids in doc["hidden_events"].items()}
        must, may = fx.hidden()
        missing = set(must) - set(hidden)
        extra = set(hidden) - set(must) - may
        checks.expect("scan.hidden_set", not missing and not extra,
                      f"{len(hidden)} hidden; missing {sorted(map(selector_text, missing))[:5]}, "
                      f"unexpected {sorted(map(selector_text, extra))[:5]}")
        wrong = [selector_text(p) for p, (required, allowed) in must.items()
                 if p in hidden and not required <= hidden[p] <= allowed]
        checks.expect("scan.hidden_ids", not wrong, f"wrong instruction ids for {wrong[:5]}")
        checks.expect(
            "scan.instruction_counts",
            (doc["total_instructions"], doc["executed_success"]) == (len(fx.ids), len(fx.executed)),
            f"got {doc['total_instructions']}/{doc['executed_success']}",
        )
        return hidden

    def check_masks(self, checks: Checks, hidden: dict[int, set[int]]) -> None:
        with open(os.path.join(self.analysis, "relevance_masks.csv"), encoding="utf-8") as fh:
            rows = {int(r["event_code"], 16): (int(r["relevance_mask"], 16), r["consistent"])
                    for r in csv.DictReader(fh)}
        codes = {p & 0xFF for p in hidden}
        checks.expect("umask.codes", set(rows) == codes, f"codes {sorted(rows)}")
        for code in sorted(codes):
            fam = self.fx.family(code)
            want = (fam.mask if fam else None, "true")
            got = rows.get(code)
            checks.expect(f"umask.mask.0x{code:02X}", got == want,
                          f"got (mask, consistent) {got}; the model's mask is {want}")


class ScanRecords(Scan):
    """One-repetition scan streaming every measurement as NDJSON."""

    repetitions = 1

    def __init__(self, *args):
        super().__init__(*args)
        self.records = os.path.join(self.work, "records.ndjson")
        self.expectations: dict[int, tuple[list[int], list[bool]]] = {}
        self.checked_digest = b""
        self.record_results: list[tuple[str, bool, str]] = []

    def body(self) -> None:
        self.results.clear()
        self.cli("scan", self.scan_argv() + ["--records", self.records])

    def check(self, checks: Checks) -> None:
        self.check_exits(checks)
        self.check_lost_work(checks)
        self.check_report(checks)
        # A stream byte-identical to one already checked gets its results, so
        # parsing 44 MB of records does not dominate every cycle.
        with open(self.records, "rb") as fh:
            digest = hashlib.file_digest(fh, "blake2b").digest()
        if digest != self.checked_digest:
            self.record_results = self.check_records()
            self.checked_digest = digest
        for name, ok, detail in self.record_results:
            checks.expect(name, ok, detail)

    def check_records(self) -> list[tuple[str, bool, str]]:
        fx = self.fx
        if not self.expectations:
            self.expectations = {i: fx.record_expectations(i) for i in fx.scanned}
        outcomes = {i: fx.outcome(i) for i in fx.scanned}
        seen = {i: bytearray(SPACE) for i in fx.scanned}
        lines = unparsed = wrong = 0
        with open(self.records, encoding="utf-8") as fh:
            for line in fh:
                lines += 1
                try:
                    rec = json.loads(line)
                    entry_id = rec["instruction"]
                    packed = int(rec["selector"], 16)
                    delta = rec["delta"]
                    exact, noisy = self.expectations[entry_id]
                    marks = seen[entry_id]
                    if not 0 <= packed < SPACE:
                        raise ValueError(rec["selector"])
                except (ValueError, KeyError, TypeError):
                    unparsed += 1
                    continue
                if (marks[packed] or rec["outcome"] != outcomes[entry_id]
                        or not (delta == exact[packed] or (noisy[packed] and delta > exact[packed]))):
                    wrong += 1
                marks[packed] = 1
        expected_lines = len(fx.scanned) * SPACE
        return [
            ("records.lines", lines == expected_lines, f"{lines} lines, expected {expected_lines}"),
            ("records.parse", unparsed == 0, f"{unparsed} unparseable lines"),
            ("records.values", wrong == 0, f"{wrong} records with a wrong delta or outcome"),
            ("records.coverage", all(sum(m) == SPACE for m in seen.values()),
             "some (instruction, selector) pairs have no record"),
        ]


class Exploit(Workload):
    """Channel screen over every hidden event, one channel recovery, and
    detector collect/train/screen over one hidden selector per family."""

    samples = 200
    transmit = "memory-load"
    scaffold = "alu"

    def __init__(self, fx, work, seed, lost, report: str):
        super().__init__(fx, work, seed, lost)
        self.report = report
        self.hidden = collector.load_report(report).hidden_events
        self.kept, self.dropped = fx.channel_screen(self.scaffold, self.transmit)
        self.bound = min(self.kept)
        first: dict[int, int] = {}  # lowest hidden selector of each family
        for packed in sorted(fx.hidden()[0]):
            first.setdefault(packed & 0xFF, packed)
        self.grid = sorted(first.values())
        self.attacks = sorted(detection.DEFAULT_ATTACKS)
        self.length = min(16, len(fx.secret))
        self.measurements = (
            len(self.hidden) * 256              # screen: 1 byte, 1 iteration
            + self.length * 256 * 10            # run: default 10 iterations
            + len(self.grid) * len(self.attacks) * 2 * self.samples
        )

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def body(self) -> None:
        self.results.clear()
        fx = self.fx
        model, secret, seed = fx.path("sim_model.json"), fx.path("secret.bin"), str(self.seed)
        self.cli("sidechannel-screen", [
            "sidechannel", "screen", "--report", self.report, "--sim-model", model,
            "--secret-file", secret, "--length", "1", "--iterations", "1",
            "--false-fire", "0", "--seed", seed, "--out", self.path("channel.csv"),
        ])
        self.cli("sidechannel-run", [
            "sidechannel", "run", "--attack", "meltdown", "--selector", selector_text(self.bound),
            "--sim-model", model, "--secret-file", secret, "--seed", seed,
            "--out", self.path("run.json"),
        ])
        for attack in self.attacks:
            models = []
            for packed in self.grid:
                sel = selector_text(packed)
                stem = self.path(f"{sel}-{attack}")
                self.cli(f"detect-collect {sel} {attack}", [
                    "detect", "collect", "--selector", sel, "--attack", attack,
                    "--sim-model", model, "--samples", str(self.samples), "--seed", seed,
                    "--out", f"{stem}.csv",
                ])
                self.cli(f"detect-train {sel} {attack}", [
                    "detect", "train", "--dataset", f"{stem}.csv", "--selector", sel,
                    "--seed", seed, "--out", f"{stem}.json",
                ])
                models.append(f"{stem}.json")
            self.cli(f"detect-screen {attack}", [
                "detect", "screen", "--models", *models, "--seed", seed,
                "--out", self.path(f"screen-{attack}.csv"),
            ])

    def check(self, checks: Checks) -> None:
        self.check_exits(checks)
        self.check_channel(checks)
        for attack in self.attacks:
            metrics = {}
            for packed in self.grid:
                metrics[packed] = self.check_detector(checks, packed, attack)
            self.check_detector_screen(checks, attack, metrics)

    def check_channel(self, checks: Checks) -> None:
        fx = self.fx
        with open(self.path("channel.csv"), encoding="utf-8") as fh:
            kept = {int(r["selector"], 16): float(r["accuracy"]) for r in csv.DictReader(fh)}
        hidden = {s.packed for s in self.hidden}
        checks.expect("channel.kept_exact", all(kept.get(p) == 1.0 for p in self.kept),
                      f"{sum(kept.get(p) == 1.0 for p in self.kept)} of {len(self.kept)} kept at 1.0")
        checks.expect("channel.never_kept", not (set(kept) & self.dropped),
                      f"kept {sorted(map(selector_text, set(kept) & self.dropped))[:5]}")
        checks.expect("channel.kept_valid",
                      set(kept) <= hidden and all(a >= 0.8 for a in kept.values()),
                      "kept selectors outside the report or under 80% accuracy")
        with open(self.path("run.json"), encoding="utf-8") as fh:
            run = json.load(fh)
        want = fx.secret[: self.length].hex()
        checks.expect("channel.recovered", run["recovered_hex"] == want and run["error_rate"] == 0,
                      f"recovered {run['recovered_hex']}, secret {want}")
        checks.expect("channel.modeled_bps",
                      abs(run["throughput_bps"] - MELTDOWN_SIGNAL_HANDLER_BPS) < 1e-6,
                      f"{run['throughput_bps']} B/s")

    def scenario_profiles(self, attack: str) -> list[dict[str, tuple[int, int]]]:
        """(clean, no-attack, attack) activity: tag -> (base, jitter)."""
        recipe = detection.DEFAULT_ATTACKS[attack]
        merged: dict[str, tuple[int, int]] = {}
        profiles = []
        for part in (detection.VICTIM_PROFILE, recipe.scaffold, recipe.primitives):
            for tag, act in part.items():
                base, jitter = merged.get(tag, (0, 0))
                merged[tag] = (base + act.base, jitter + act.jitter)
            profiles.append(dict(merged))
        return profiles

    def check_detector(self, checks: Checks, packed: int, attack: str) -> dict | None:
        sel = selector_text(packed)
        stem = self.path(f"{sel}-{attack}")
        clean_n = self.samples // 2
        layout = [0] * clean_n + [1] * (self.samples - clean_n) + [2] * self.samples
        ranges = [self.fx.window_range(packed & 0xFF, packed >> 8, p)
                  for p in self.scenario_profiles(attack)]
        with open(f"{stem}.csv", encoding="utf-8") as fh:
            rows = [(int(r["delta"]), int(r["label"])) for r in csv.DictReader(fh)]
        ok = len(rows) == len(layout) and all(
            label == (scenario == 2) and ranges[scenario][0] <= delta
            and (ranges[scenario][1] is None or delta <= ranges[scenario][1])
            for (delta, label), scenario in zip(rows, layout)
        )
        checks.expect(f"detect.windows {sel} {attack}", ok, "window counts outside the scenario bounds")
        with open(f"{stem}.json", encoding="utf-8") as fh:
            m = json.load(fh)["metrics"]
        test_n = sum(n - int(round(n * 0.7)) for n in (self.samples, self.samples))
        total = m["tp"] + m["fp"] + m["fn"] + m["tn"]
        out = self.results[f"detect-train {sel} {attack}"][1].split()
        epochs = int(out[out.index("trained") + 1]) if "trained" in out else 0
        checks.expect(
            f"detect.model {sel} {attack}",
            total == test_n and abs(m["accuracy"] - (m["tp"] + m["tn"]) / total) < 1e-9
            and all(0.0 <= m[k] <= 1.0 for k in ("accuracy", "f1", "auc")) and 1 <= epochs <= 2000,
            f"confusion total {total} (expected {test_n}), epochs {epochs}",
        )
        return m

    def check_detector_screen(self, checks: Checks, attack: str, metrics: dict) -> None:
        with open(self.path(f"screen-{attack}.csv"), encoding="utf-8") as fh:
            passed = {int(r["selector"], 16): r["passed"] for r in csv.DictReader(fh)}
        want = {p: str(m["accuracy"] > 0.8 and m["f1"] > 0.8 and m["auc"] > 0.7).lower()
                for p, m in metrics.items()}
        checks.expect(f"detect.screen {attack}", passed == want, f"got {passed}, expected {want}")


class NativeProbe(Workload):
    """Scan a small selector slice per instruction through compiled probes."""

    repetitions = 2
    slice_size = 8

    def __init__(self, *args):
        super().__init__(*args)
        fx = self.fx
        self.entries, _ = corpus.load_corpus_file(fx.path("corpus.tsv"))
        model = backend.load_sim_model(fx.path("sim_model.json"))
        self.executor = corpus.NativeExecutor(model.make_backend(self.seed))
        start = random.Random(self.seed).randrange(0, SPACE, 4)
        self.selectors = [events.unpack_selector((start + k) % SPACE) for k in range(self.slice_size)]
        self.config = collector.ScanConfig(repetitions=self.repetitions)
        self.measurements = len(fx.scanned) * self.slice_size * self.repetitions

    def body(self) -> None:
        self.records = {}
        for entry in self.entries:
            try:
                self.records[entry.id] = collector.scan_instruction(
                    entry, self.selectors, self.executor, self.config
                )
            except (InstantiationError, NormalizationError):
                self.lost.skipped.append(entry.id)

    def check(self, checks: Checks) -> None:
        fx = self.fx
        self.check_lost_work(checks)
        for entry_id in fx.scanned:
            records = self.records.get(entry_id, [])
            want = "fault" if entry_id in fx.faults else "success"
            got = sorted({r.outcome.value for r in records})
            checks.expect(
                f"probe.outcome {entry_id}",
                len(records) == self.slice_size and got == [want]
                and all(r.delta == 0 for r in records),
                f"{len(records)} records, outcomes {got}, expected {want}",
            )
        for entry in self.entries:
            if entry.id in fx.faults:
                snippet = corpus.instantiate(corpus.normalize_syntax(entry, self.executor.dialect))
                kind = self.executor.execute(snippet).fault_kind
                checks.expect(f"probe.fault_kind {entry.id}", kind == fx.faults[entry.id],
                              f"{entry.mnemonic} classified as {kind}")


WORKLOADS = {
    "scan": Scan,
    "scan-records": ScanRecords,
    "exploit": Exploit,
    "native-probe": NativeProbe,
}
