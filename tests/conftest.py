import os

import pytest

from pmu_prospector.backend import SimModel, load_sim_model
from pmu_prospector.corpus import InstructionEntry, SimulatedExecutor, load_corpus_file
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
