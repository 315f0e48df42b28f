"""Byte-identity manifest of the CLI outputs over a fixed grid of runs.

tests/data/outputs.sha256 holds, in sha256sum format, the digest of every
output file and every stdout that GRID writes on the tests/data fixtures.
A change that moves bytes on purpose re-pins the manifest in one step,

    PYTHONPATH=src python tests/test_output_manifest.py > tests/data/outputs.sha256

and names the changed entries in CHANGES.md.  The grid runs at seed 3, so
it repeats no digest that criterion 09 or the noisy-median test pins (seed
7).  Unlike criterion 09, the grid also pins the detector JSON, screen CSV
and metrics-plot CSV: their bytes come from numpy float training, so a
change to the fit, or a numpy build that rounds differently, shows up here
as named entries.  The other channel screens transmit through the default
memory-load class, which only noiseless families count, so their bytes
cannot show a change to the simulated over-counts; the channel-alu step
transmits through alu, which only the noisy 0x5E family counts, so which
selectors pass its screen depends on those over-counts.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from pmu_prospector.cli import dispatch

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
MANIFEST = os.path.join(DATA_DIR, "outputs.sha256")
SEED = "3"
DETECT_SELECTORS = ("0x016C", "0x015E", "0x01D3", "0x0108")
DETECT_ATTACKS = ("meltdown", "spectre_v2")


def _grid() -> list[tuple[str, list[str], tuple[str, ...]]]:
    """(step name, argv, pinned output files) of every run, in order."""
    corpus, catalog, model, secret = (
        os.path.join(DATA_DIR, name)
        for name in ("corpus.tsv", "catalog.csv", "sim_model.json", "secret.bin")
    )
    scan = ["scan", "--corpus", corpus, "--catalog", catalog, "--sim-model", model,
            "--seed", SEED]
    steps = [
        ("scan-r1", [*scan, "--repetitions", "1", "--records", "scan-r1.ndjson",
                     "--out", "scan-r1.json"], ("scan-r1.json", "scan-r1.ndjson")),
        ("scan-r3", [*scan, "--repetitions", "3", "--out", "scan-r3.json"], ("scan-r3.json",)),
        ("scan-r5", [*scan, "--repetitions", "5", "--any-thread", "--quiet-threshold", "2",
                     "--out", "scan-r5.json"], ("scan-r5.json",)),
    ]
    for run in ("r1", "r3", "r5"):
        steps.append((f"report-{run}", ["report", "--in", f"scan-{run}.json"], ()))
        steps.append((f"umask-{run}", ["analyze-umask", "--report", f"scan-{run}.json",
                                       "--out", f"umask-{run}"],
                      (f"umask-{run}/umask_distribution.csv", f"umask-{run}/relevance_masks.csv")))
    for attack in DETECT_ATTACKS:
        models = []
        for selector in DETECT_SELECTORS:
            name = f"{selector}-{attack}"
            steps.append((f"collect-{name}", [
                "detect", "collect", "--selector", selector, "--attack", attack,
                "--sim-model", model, "--samples", "100", "--seed", SEED,
                "--out", f"dataset-{name}.csv"], (f"dataset-{name}.csv",)))
            steps.append((f"train-{name}", [
                "detect", "train", "--dataset", f"dataset-{name}.csv", "--selector", selector,
                "--seed", SEED, "--out", f"detector-{name}.json"], (f"detector-{name}.json",)))
            models.append(f"detector-{name}.json")
        steps.append((f"screen-{attack}", [
            "detect", "screen", "--models", *models, "--seed", SEED,
            "--plot-out", f"metrics-plot-{attack}.csv", "--plot-sample", "3",
            "--out", f"screen-{attack}.csv"], (f"screen-{attack}.csv", f"metrics-plot-{attack}.csv")))
    channel = ["--sim-model", model, "--secret-file", secret, "--seed", SEED]
    steps += [
        ("run-meltdown", ["sidechannel", "run", "--attack", "meltdown", "--selector", "0x016C",
                          "--false-fire", "0.02", *channel, "--out", "run-meltdown.json"], ("run-meltdown.json",)),
        ("run-spectre_v2", ["sidechannel", "run", "--attack", "spectre_v2",
                            "--suppression", "transactional", "--selector", "0x016c",
                            *channel, "--out", "run-spectre_v2.json"], ("run-spectre_v2.json",)),
        ("channel", ["sidechannel", "screen", "--report", "scan-r3.json", "--length", "4",
                     "--iterations", "2", *channel, "--out", "channel.csv"], ("channel.csv",)),
        ("channel-noisy", ["sidechannel", "screen", "--report", "scan-r3.json", "--length", "4",
                           "--iterations", "2", "--false-fire", "0.05", *channel,
                           "--plot-out", "channel-noisy-plot.csv", "--out", "channel-noisy.csv"],
         ("channel-noisy.csv", "channel-noisy-plot.csv")),
        ("channel-alu", ["sidechannel", "screen", "--report", "scan-r3.json", "--length", "4",
                         "--iterations", "2", "--transmit-class", "alu", *channel,
                         "--out", "channel-alu.csv"], ("channel-alu.csv",)),
    ]
    return steps


def run_grid() -> dict[str, str]:
    """Run the grid in the current directory: {entry name: SHA-256 hex}, one
    entry per pinned output file and one `<step>.stdout` per run."""
    digests = {}
    for step, argv, files in _grid():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = dispatch(argv)
        if code != 0:
            raise AssertionError(f"{step} exited {code}")
        digests[f"{step}.stdout"] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        for name in files:
            with open(name, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def render_manifest(digests: dict[str, str]) -> str:
    return "".join(f"{digest}  {name}\n" for name, digest in sorted(digests.items()))


def read_manifest(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return {name: digest for digest, name in (line.rstrip("\n").split("  ", 1) for line in fh)}


def test_grid_outputs_match_the_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pinned = read_manifest(MANIFEST)
    actual = run_grid()
    changed = sorted(name for name in pinned.keys() | actual.keys()
                     if pinned.get(name) != actual.get(name))
    assert not changed, f"{len(changed)} manifest entries changed: {', '.join(changed)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        sys.stdout.write(render_manifest(run_grid()))
