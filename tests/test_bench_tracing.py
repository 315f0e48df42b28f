"""The benchmark's per-layer trace hooks against the package's public names.

benchmarks/tracing.py wraps package callables by name, so renaming or
deleting one of them breaks the traced benchmark.  Installing and undoing
the hooks here catches that without running a benchmark body; one traced
scan pins the call counts the benchmark's scan body reports.
"""

import importlib.util
from pathlib import Path

import pytest

from pmu_prospector import backend, cli, collector, corpus, detection, sidechannel, umask
from pmu_prospector.errors import InstantiationError

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_undo_restores_every_hooked_name():
    tracing = load_tracing()
    owners = (backend, backend.SimModel, cli, collector, corpus, detection, sidechannel, umask)
    before = [dict(vars(owner)) for owner in owners]
    undo = tracing.install(tracing.Tracer(), [])
    try:
        assert detection.train is not before[owners.index(detection)]["train"]
    finally:
        undo()
    for owner, names in zip(owners, before):
        assert dict(vars(owner)) == names, owner.__name__


@pytest.mark.parametrize("executor_class", [corpus.SimulatedExecutor, corpus.NativeExecutor])
def test_executors_render_through_the_benchmark_call(corpus_entries, executor_class):
    # benchmarks/tracing.py copies executor.dialect; benchmarks/workloads.py
    # renders with instantiate(normalize_syntax(entry, executor.dialect))
    assert executor_class.dialect == corpus.ATT_ORDER
    for entry in corpus_entries:
        normalized = corpus.normalize_syntax(entry, executor_class.dialect)
        try:
            expected = corpus.instantiate(entry)
        except InstantiationError:
            with pytest.raises(InstantiationError):
                corpus.instantiate(normalized)
            continue
        assert corpus.instantiate(normalized) == expected, entry.id


def test_traced_scan_counts_match_closed_forms(
    tmp_path, corpus_path, catalog_path, model_path, corpus_entries, sim_model
):
    repetitions = 3
    scanned = []
    for entry in corpus_entries:
        try:
            corpus.instantiate(entry)
        except InstantiationError:
            continue
        scanned.append(entry)
    executed = [
        entry for entry in scanned
        if entry.extension in sim_model.supported_extensions
        and entry.id not in sim_model.fault_table
    ]
    tracing = load_tracing()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, [False] * (1 << 16))
    try:
        code = cli.dispatch([
            "scan", "--corpus", corpus_path, "--catalog", catalog_path,
            "--sim-model", model_path, "--repetitions", str(repetitions),
            "--seed", "7", "--out", str(tmp_path / "report.json"),
        ])
    finally:
        undo()
    assert code == 0
    metrics = tracer.metrics()
    assert metrics["corpus.execute.calls"] == len(scanned) * repetitions == 27
    assert metrics["backend.record_execution.calls"] == len(executed) * repetitions == 24
    assert metrics["seeding.derive_seed.calls"] == len(sim_model.families) == 4
    assert metrics["backend.program.calls"] == 0
    assert metrics["backend.read.calls"] == 0
    assert metrics["collector.full_scan.calls"] == 1
