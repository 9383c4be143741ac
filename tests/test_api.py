import importlib
import inspect
import json
import pkgutil
import re
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path

import pytest

import acosgen
from acosgen import cli
from acosgen.linearize import FormatStyle
from acosgen.scl import ReprBatch

from conftest import MINI_DATASET, fresh_env

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


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Library use\n\n```python\n(.*?)^```", readme, re.M | re.S)
    (tmp_path / "rest_test.tsv").write_text(MINI_DATASET, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("name", TRACED)
def test_traced_names_are_callable(name):
    module = importlib.import_module(name)
    assert [a for a in TRACED[name] if not callable(getattr(module, a, None))] == []


def test_tracer_hooks_of_the_loss():
    for suite in (cli.oracle_suite, cli.gradient_suite):
        assert "loss_fn" in inspect.signature(suite).parameters
    assert [f.name for f in fields(ReprBatch)] == ["reps", "labels"]


def test_tracer_reads_of_the_text_results(mini_examples, rest_map):
    """The tracer's work counts read ``parse_output(...).quads`` and
    ``score(...).counts.num_predicted``/``.num_gold``."""
    x = mini_examples[2]
    target = cli.linearize_example(x, FormatStyle.GEN_NAT, rest_map)
    outcome = cli.parse_output(target, FormatStyle.GEN_NAT, rest_map)
    assert len(outcome.quads) == 2
    report = cli.score([outcome.quads], [x])
    assert (report.counts.num_predicted, report.counts.num_gold) == (2, 2)


def run_fresh(script: str, *args: str, flags: tuple[str, ...] = (), **env_changes: str | None) -> list:
    """Run ``script`` in a new interpreter, started with ``flags``, importing this ``acosgen``;
    return its JSON stdout."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(script), *args],
        capture_output=True, text=True, env=fresh_env(**env_changes), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_fills_in_one_blas_thread_before_it_imports_numpy():
    """Unset, OPENBLAS_NUM_THREADS becomes 1 when the CLI first imports numpy. A value the user
    set stays, and a caller that imported numpy first keeps its environment as it was."""
    script = """
        import contextlib, io, json, os, sys
        import acosgen.cli

        if sys.argv[1] == "numpy-first":
            import numpy
        before = dict(os.environ)
        with contextlib.redirect_stdout(io.StringIO()):
            code = acosgen.cli.main(["scl-demo", "--synthetic", "8", "--steps", "1"])
        changed = {k: v for k, v in os.environ.items() if before.get(k) != v}
        print(json.dumps([code, changed, len(os.environ) - len(before)]))
    """
    assert run_fresh(script, "cli-first", OPENBLAS_NUM_THREADS=None) == [0, {"OPENBLAS_NUM_THREADS": "1"}, 1]
    assert run_fresh(script, "numpy-first", OPENBLAS_NUM_THREADS=None) == [0, {}, 0]
    assert run_fresh(script, "cli-first", OPENBLAS_NUM_THREADS="3") == [0, {}, 0]


def test_scl_demo_output_does_not_depend_on_an_unset_blas_thread_count():
    # 200 rows: GEMMs large enough that a multi-threaded OpenBLAS changes the last digits.
    argv = [sys.executable, "-m", "acosgen.cli", "scl-demo", "--json", "--synthetic", "200", "--steps", "5"]
    unset, one = (
        subprocess.run(argv, capture_output=True, env=fresh_env(OPENBLAS_NUM_THREADS=value), timeout=300)
        for value in (None, "1")
    )
    assert (unset.returncode, unset.stderr) == (0, b"")
    assert unset.stdout == one.stdout


def test_package_serves_the_contrastive_half_on_first_use():
    script = """
        import json, sys
        import acosgen.cli

        acosgen.SclConfig(alpha=0.005)
        acosgen.cli._build_parser()
        numpy_on_import = "numpy" in sys.modules
        modules = [getattr(acosgen, name).__name__ for name in ("scl", "demo", "verify", "synth")]
        missing = [name for name in acosgen.__all__ if not hasattr(acosgen, name)]
        print(json.dumps([numpy_on_import, modules, missing, acosgen.SclConfig is acosgen.configs.SclConfig]))
    """
    modules = ["acosgen.scl", "acosgen.demo", "acosgen.verify", "acosgen.synth"]
    assert run_fresh(script) == [False, modules, [], True]


def test_contrastive_names_have_one_home():
    """The kernel's names live in ``acosgen.scl`` and its checks in ``acosgen.verify``,
    with no second path at the package root or in ``scl``; ``SclConfig`` is not in ``scl``."""
    kernel = ["ReprBatch", "extend_batch", "scl_loss"]
    checks = ["reference_scl_loss", "_check_oracle_tau", "grad_check", "GRADIENT_STEP", "GRADIENT_TOLERANCE"]
    scl, verify = acosgen.scl, acosgen.verify
    assert [n for n in kernel + checks if hasattr(acosgen, n)] == []
    assert [n for n in checks + ["SclConfig"] if hasattr(scl, n)] == []
    assert [n for n in kernel if not hasattr(scl, n)] == []
    assert [n for n in checks if not hasattr(verify, n)] == []


@pytest.mark.parametrize("numpy_state", ["absent", "installed"])
def test_star_import_needs_no_numpy(numpy_state, mini_dataset_file, tmp_path):
    """The package root, the text commands and every --help need no numpy, and leave it
    unloaded where it is installed. ``absent`` runs with no site-packages (``-I -S``), so no
    third-party package imports; there each scl command gives one error line and exits 2."""
    script = """
        import contextlib, importlib.util, io, json, sys

        src, dataset, work = sys.argv[1:]
        sys.path.insert(0, src)  # -I ignores PYTHONPATH
        numpy_found = importlib.util.find_spec("numpy") is not None
        import acosgen
        from acosgen import *
        from acosgen.cli import main

        acosgen.SclConfig()
        missing = [name for name in acosgen.__all__ if name not in globals()]
        targets = f"{work}/targets.txt"
        text_commands = [
            ["stats", "--dataset", dataset],
            ["stats", "--dataset", dataset, "--json"],
            ["linearize", "--dataset", dataset, "--out", targets],
            ["evaluate", "--dataset", dataset, "--predictions", targets],
            ["evaluate", "--dataset", dataset, "--predictions", targets, "--json"],
        ]
        help_codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in text_commands]
            for command in ([], ["stats"], ["linearize"], ["evaluate"], ["scl-check"], ["scl-demo"]):
                try:
                    main([*command, "--help"])
                except SystemExit as exc:
                    help_codes.append(exc.code)
        numpy_loaded = "numpy" in sys.modules
        scl = []
        for argv in (
            ["scl-demo", "--synthetic", "8", "--steps", "1"],
            ["scl-check", "--oracle-batches", "1", "--grad-batches", "0", "--failure-out", f"{work}/f.json"],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                scl.append([main(argv), err.getvalue()])
        print(json.dumps([numpy_found, missing, codes, help_codes, numpy_loaded, scl]))
    """
    src = str(Path(acosgen.__file__).resolve().parents[1])
    absent = numpy_state == "absent"
    got = run_fresh(script, src, str(mini_dataset_file), str(tmp_path), flags=("-I", "-S") if absent else ())
    scl = [2, "error: No module named 'numpy'\n"] if absent else [0, ""]
    assert got == [not absent, [], [0] * 5, [0] * 6, False, [scl, scl]]


def test_patched_cli_names_are_the_ones_scl_commands_call(tmp_path):
    """A tracer patches ``cli.<name>`` with getattr/setattr, before or after the
    name's first use; the scl commands must call the patch, and the original
    once the patch is undone."""
    script = """
        import contextlib, io, json, sys
        import acosgen, acosgen.cli as cli

        NAMES = ("toy_demo", "make_synthetic_corpus", "oracle_suite", "gradient_suite")
        COMMANDS = (
            ["scl-demo", "--synthetic", "8", "--steps", "1"],
            ["scl-check", "--oracle-batches", "2", "--grad-batches", "1", "--failure-out", sys.argv[1]],
        )

        def run_commands():
            with contextlib.redirect_stdout(io.StringIO()):
                return [cli.main(argv) for argv in COMMANDS]

        def run_patched():
            calls = []
            originals = {name: getattr(cli, name) for name in NAMES}
            for name, original in originals.items():
                def recording(*args, _name=name, _original=original, **kwargs):
                    calls.append(_name)
                    return _original(*args, **kwargs)
                setattr(cli, name, recording)
            try:
                return run_commands(), calls
            finally:
                for name, original in originals.items():
                    setattr(cli, name, original)

        unbound = [name for name in NAMES if name not in vars(cli)]
        before = run_patched()
        unpatched = run_commands()
        after = run_patched()
        restored = [getattr(cli, name).__name__ for name in NAMES]
        print(json.dumps([unbound, before, unpatched, after, restored]))
    """
    unbound, before, unpatched, after, restored = run_fresh(script, str(tmp_path / "f.json"))
    assert unbound == ["toy_demo", "make_synthetic_corpus", "oracle_suite", "gradient_suite"]
    calls = ["make_synthetic_corpus", "toy_demo", "oracle_suite", "gradient_suite"]
    assert before == after == [[0, 0], calls]
    assert unpatched == [0, 0]
    assert restored == unbound


def test_package_data_globs_match_the_shipped_data_files():
    """A stale glob, or a data file that no glob packages, fails here and not in a wheel."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(__file__).resolve().parents[1]
    pyproject = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    globs = pyproject["tool"]["setuptools"]["package-data"]["acosgen.configs"]
    configs = root / "src" / "acosgen" / "configs"
    matched = {glob: sorted(p.name for p in configs.glob(glob)) for glob in globs}
    assert all(matched.values()), matched
    data = {p.name for p in configs.iterdir() if p.is_file() and p.suffix != ".py"}
    assert set().union(*matched.values()) == data
