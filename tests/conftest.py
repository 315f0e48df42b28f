import copy
import json
import os

import pytest

from pmu_prospector.backend import SimModel, load_sim_model
from pmu_prospector.cli import dispatch
from pmu_prospector.corpus import InstructionEntry, SimulatedExecutor, load_corpus_file
from pmu_prospector.errors import ReportParseError
from pmu_prospector.events import EventCatalog, load_catalog_file

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


@pytest.fixture(scope="session")
def corpus_path() -> str:
    return data_path("corpus.tsv")


@pytest.fixture(scope="session")
def catalog_path() -> str:
    return data_path("catalog.csv")


@pytest.fixture(scope="session")
def model_path() -> str:
    return data_path("sim_model.json")


@pytest.fixture(scope="session")
def secret_path() -> str:
    return data_path("secret.bin")


@pytest.fixture(scope="session")
def corpus_entries(corpus_path) -> list[InstructionEntry]:
    entries, issues = load_corpus_file(corpus_path)
    assert not issues
    return entries


@pytest.fixture(scope="session")
def catalog(catalog_path) -> EventCatalog:
    return load_catalog_file(catalog_path)


@pytest.fixture(scope="session")
def sim_model(model_path) -> SimModel:
    return load_sim_model(model_path)


@pytest.fixture()
def make_executor(sim_model, corpus_entries):
    """Factory for fresh simulated executors over the shared fixtures."""

    def factory(seed: int = 0) -> SimulatedExecutor:
        return SimulatedExecutor(
            sim_model.make_backend(seed),
            fault_table=sim_model.fault_table,
            supported_extensions=sim_model.supported_extensions,
        )

    return factory


@pytest.fixture()
def rejects(tmp_path, capsys):
    """check(load, argv, doc, path, value, match) writes the JSON document doc
    with value put at path, a tuple of keys and indexes, to a file: value ...
    deletes the field there, and the empty path writes value itself (text and
    bytes as they are).  It asserts that load(file) raises ReportParseError
    with `match` in its message, and that the CLI run argv(file) exits 1 with
    an `error:` line holding `match` and no traceback."""

    def check(load, argv, doc, path: tuple, value, match: str) -> None:
        if path:
            doc = copy.deepcopy(doc)
            parent = doc
            for step in path[:-1]:
                parent = parent[step]
            if value is ...:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        else:
            doc = value
        file = tmp_path / "input"
        if isinstance(doc, bytes):
            file.write_bytes(doc)
        else:
            file.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        with pytest.raises(ReportParseError) as caught:
            load(str(file))
        assert match in str(caught.value)
        assert dispatch(argv(str(file))) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert any(line.startswith("error: ") and match in line for line in err.splitlines())

    return check
