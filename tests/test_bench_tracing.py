"""The benchmark's per-layer trace hooks against the package's public names.

benchmarks/tracing.py wraps package callables by name, so renaming or
deleting one of them breaks the traced benchmark.  Installing and undoing
the hooks here catches that without running a benchmark body.
"""

import importlib.util
from pathlib import Path

from pmu_prospector import backend, cli, collector, corpus, detection, sidechannel, umask

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
