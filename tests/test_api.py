import importlib
import inspect
import pkgutil
from dataclasses import fields

import pytest

import acosgen
from acosgen import cli
from acosgen.scl import ReprBatch

MODULES = ["acosgen", *(f"acosgen.{m.name}" for m in pkgutil.iter_modules(acosgen.__path__))]

# The benchmark tracer (perfbench/worker.py) wraps these attributes by name, and
# its flop count reads ``args[0].reps`` of every scl_loss call.
TRACED = {
    "acosgen.cli": [
        "load_dataset",
        "resolve_category_map",
        "linearize_example",
        "read_predictions",
        "parse_output",
        "score",
        "make_synthetic_corpus",
        "toy_demo",
        "oracle_suite",
        "gradient_suite",
    ],
    "acosgen.demo": ["scl_loss", "_extend_with_mask"],
    "acosgen.verify": ["extend_batch", "reference_scl_loss"],
    "acosgen.scl": ["scl_loss"],
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", TRACED)
def test_traced_names_are_callable(name):
    module = importlib.import_module(name)
    assert [a for a in TRACED[name] if not callable(getattr(module, a, None))] == []


def test_tracer_hooks_of_the_loss():
    for suite in (cli.oracle_suite, cli.gradient_suite):
        assert "loss_fn" in inspect.signature(suite).parameters
    assert [f.name for f in fields(ReprBatch)] == ["reps", "labels"]
