import inspect
import os
import threading
from pathlib import Path

import pytest
from hypothesis import settings

import acosgen
from acosgen import scl
from acosgen.configs import default_category_map
from acosgen.core import parse_dataset_text
from acosgen.synth import make_synthetic_corpus

# Property tests draw the same cases on every run and have no time limit, so a
# random draw or a slow machine cannot flake the suite.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

MINI_DATASET = (
    "the pizza was great\t1,2 FOOD#QUALITY 2 3,4\n"
    "it took an hour to be seated\t-1,-1 SERVICE#GENERAL 0 -1,-1\n"
    "the pizza was great but the wine list was poor\t"
    "1,2 FOOD#QUALITY 2 3,4\t6,8 DRINKS#STYLE_OPTIONS 0 9,10\n"
)


def fresh_env(**changes: str | None) -> dict[str, str]:
    """This process's environment with this ``acosgen`` first on the path; a ``None`` change unsets."""
    src = str(Path(acosgen.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def example_from_line(line: str, id_prefix: str = "t"):
    """Build a single Example from one dataset TSV line."""
    examples, _ = parse_dataset_text(line, id_prefix=id_prefix)
    return examples[0]


def mutant_loss(fragment, replacement):
    """scl_loss with one source fragment replaced, run in a copy of the module namespace."""
    source = inspect.getsource(scl.scl_loss)
    assert not fragment or source.count(fragment) == 1
    namespace = dict(vars(scl))
    exec(source.replace(fragment, replacement), namespace)
    return namespace["scl_loss"]


def _live_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if not t.daemon}


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that leaves a non-daemon thread running."""
    before = _live_threads()
    yield
    left = sorted(t.name for t in _live_threads() - before)
    if left:
        pytest.fail(f"threads left running: {left}")


@pytest.fixture(scope="session")
def rest_map():
    return default_category_map("rest")


@pytest.fixture(scope="session")
def laptop_map():
    return default_category_map("laptop")


@pytest.fixture(scope="session")
def mini_examples():
    examples, _ = parse_dataset_text(MINI_DATASET, id_prefix="mini")
    return examples


@pytest.fixture(scope="session")
def synth_corpus():
    return make_synthetic_corpus(300, seed=11)


@pytest.fixture()
def mini_dataset_file(tmp_path):
    path = tmp_path / "mini.tsv"
    path.write_text(MINI_DATASET, encoding="utf-8")
    return path
