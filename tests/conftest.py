import os
import pathlib
import warnings

import pytest

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# the scripts the tests start as child processes (the naive solver, the
# demo) import hflz from this checkout, installed or not
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(autouse=True)
def _quiet_heuristic_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture
def corpus():
    return CORPUS


@pytest.fixture
def scripts():
    return SCRIPTS
