"""Smoke test of the benchmark: ``python -m pytest perfbench``.

Each workload runs once untraced and once traced on tiny inputs, well under a
second each, and must print the metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import textgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["text-eval", "scl-demo", "scl-check"])
def test_smoke_run_prints_declared_metrics(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run("perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= (2 if trace == "1" else 4)
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_generator_category_rule_matches_shipped_maps():
    configs = ROOT / "src" / "acosgen" / "configs"
    for domain, spec in textgen.DOMAINS.items():
        shipped = dict(line.split("\t") for line in
                       (configs / f"categories_{domain}.tsv").read_text().splitlines() if line.strip())
        assert shipped == {label: textgen.describe(label, domain) for label in spec["labels"]}


def test_generated_predictions_score_about_the_papers_f1(tmp_path):
    """gen-nat predictions score near the paper's F1 per map, and some of their
    segments make the parser scan category descriptions for a prefix."""
    totals: dict[str, dict[str, int]] = {}
    for chunk in textgen.generate(tmp_path, 11, 16, 400):
        if chunk["style"] == "gen-nat":
            total = totals.setdefault(chunk["map"], {})
            for key, value in chunk["counts"].items():
                total[key] = total.get(key, 0) + value
    for domain, c in totals.items():
        precision, recall = c["matched"] / c["predicted"], c["matched"] / c["gold"]
        f1 = 2 * precision * recall / (precision + recall)
        assert abs(f1 - textgen.PAPER_F1[domain]) < 0.03, (domain, f1)
        assert 0.04 < c["prefix_scans"] / c["segments_attempted"] < 0.10, (domain, c)


def test_same_seed_same_inputs(tmp_path):
    first = textgen.generate(tmp_path / "a", 5, 2, 30)
    second = textgen.generate(tmp_path / "b", 5, 2, 30)
    assert first == second
    for name in ("chunk-0.tsv", "chunk-1.pred", "chunk-1.expected"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("wrong", ["targets", "counts"])
def test_wrong_reference_fails_the_op(tmp_path, wrong):
    textgen.generate(tmp_path, 7, 4, 20)
    if wrong == "targets":
        expected = tmp_path / "chunk-1.expected"
        expected.write_bytes(b"x" + expected.read_bytes())
    else:
        chunks = json.loads((tmp_path / "expected.json").read_text())
        chunks[1]["counts"]["matched"] += 1
        (tmp_path / "expected.json").write_text(json.dumps(chunks))
    # The warm-up op runs chunk 0, the one timed op chunk 1.
    proc = _run("perfbench/worker.py", "--workload", "text-eval", "--seed", "7", "--seconds", "1",
                "--work", str(tmp_path), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] == 2 and result["failed"] == 1, result["errors"]


@pytest.mark.xfail(strict=True, reason="gradient_suite's fixed h=1e-5 gives truncation error above its tolerance")
def test_gradient_suite_passes_where_it_is_known_to_fail(tmp_path):
    """Seed 2014 fails the gradient check on its 16th batch, a 12 x 2 batch
    whose error falls with h squared, so ``scl_loss`` is right and the suite is
    not. This is why the ``scl-check`` workload runs no gradient batches. Once
    the suite is fixed this test passes, the strict xfail reports it, and the
    workload's ``SclCheck.GRAD_BATCHES`` goes back to the default 100."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "acosgen.cli", "scl-check", "--seed", "2014",
                           "--oracle-batches", "0", "--grad-batches", "16",
                           "--failure-out", str(tmp_path / "failure.json")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout
