import argparse
import json
import re
import subprocess
import sys
from dataclasses import fields, replace

import pytest

from acosgen import cli
from acosgen.cli import _build_parser, _demo_config, main
from acosgen.core import load_dataset
from acosgen.evaluate import dataset_stats, score
from acosgen.scl import SclConfig

from conftest import fresh_env

DUPLICATE_QUAD_LINE = "a b\t0,1 C 2 1,2\t0,1 C 2 1,2\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Each command's options as its --help lists them; the top level lists the commands.
HELP_OPTIONS = {
    (): ["--help"],
    ("stats",): ["--help", "--dataset", "--json", "--out"],
    ("linearize",): ["--help", "--dataset", "--category-map", "--style", "--out"],
    ("evaluate",): [
        "--help", "--dataset", "--predictions", "--category-map", "--style", "--json", "--out"
    ],
    ("scl-check",): [
        "--help", "--seed", "--tau", "--oracle-batches", "--grad-batches", "--failure-out"
    ],
    ("scl-demo",): [
        "--help", "--dataset", "--synthetic", "--steps", "--seed", "--tau", "--alpha",
        "--dropout", "--json", "--out", "--reps-out",
    ],
}


@pytest.mark.parametrize("command", HELP_OPTIONS, ids=lambda c: " ".join(c) or "acosgen")
def test_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert sorted(set(re.findall(r"--[a-z][a-z-]*", out))) == sorted(HELP_OPTIONS[command])
    if not command:
        assert out.split("\n\n")[1] == cli.__doc__.split("\n\n")[0]
        assert all(c in out for (c,) in filter(None, HELP_OPTIONS))


@pytest.mark.parametrize("command", ["scl-check", "scl-demo"])
def test_scl_flags_have_help_that_states_their_default(command):
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for action in sub.choices[command]._actions:
        assert action.help, action.option_strings
        if action.default not in (None, False, argparse.SUPPRESS):
            assert action.help.endswith("(default: %(default)s)"), action.option_strings


class TestStats:
    def test_text_output(self, capsys, mini_dataset_file):
        code, out, _ = run(capsys, "stats", "--dataset", str(mini_dataset_file))
        assert code == 0
        assert "sentences        3" in out

    def test_json_output(self, capsys, mini_dataset_file):
        code, out, _ = run(capsys, "stats", "--dataset", str(mini_dataset_file), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["num_sentences"] == 3
        assert payload["quads"]["EAEO"]["count"] == 3

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "stats", "--dataset", str(tmp_path / "nope.tsv"))
        assert code == 2
        assert "no such file" in err

    def test_environment_sets_nothing(self, capsys, mini_dataset_file, tmp_path, monkeypatch):
        # Variables named like flags set nothing: every input is on the command line.
        out_path = tmp_path / "out.txt"
        monkeypatch.setenv("ACOSGEN_DATASET", str(mini_dataset_file))
        monkeypatch.setenv("ACOSGEN_OUT", str(out_path))
        monkeypatch.setenv("ACOSGEN_TAU", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["stats"])
        assert exc.value.code == 2
        code, out, _ = run(capsys, "stats", "--dataset", str(mini_dataset_file))
        assert code == 0
        assert "sentences        3" in out
        assert not out_path.exists()
        code, _, _ = run(capsys, "scl-check", "--oracle-batches", "1", "--grad-batches", "0")
        assert code == 0

    def test_parser_built_once(self):
        assert _build_parser() is _build_parser()

    def test_warning_is_one_stderr_line_on_every_call(self, capsys, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text(DUPLICATE_QUAD_LINE, encoding="utf-8")
        for _ in range(2):  # one line per call, however often the same file is loaded
            code, _, err = run(capsys, "stats", "--dataset", str(path))
            assert (code, err) == (
                0, f"warning: dropped 1 duplicate quadruple(s) while loading {path}\n"
            )


class TestLinearize:
    def test_line_aligned_and_deterministic(self, capsys, mini_dataset_file, tmp_path):
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        for out in (out_a, out_b):
            code, _, _ = run(
                capsys, "linearize", "--dataset", str(mini_dataset_file), "--out", str(out)
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "the food quality | the pizza is great | positive"

    def test_paraphrase_style(self, capsys, mini_dataset_file):
        code, out, _ = run(
            capsys, "linearize", "--dataset", str(mini_dataset_file), "--style", "paraphrase"
        )
        assert code == 0
        assert out.splitlines()[0] == "FOOD#QUALITY is great because pizza is great"

    def test_unknown_category_names_label_and_line(self, capsys, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a b\t0,1 NOT#REAL 2 -1,-1\n", encoding="utf-8")
        code, _, err = run(capsys, "linearize", "--dataset", str(path))
        assert code == 2
        assert "NOT#REAL" in err
        assert "line 1" in err


class TestEvaluate:
    def _targets(self, capsys, dataset, tmp_path, style="gen-nat"):
        target_path = tmp_path / "targets.txt"
        code, _, _ = run(
            capsys,
            "linearize",
            "--dataset",
            str(dataset),
            "--style",
            style,
            "--out",
            str(target_path),
        )
        assert code == 0
        return target_path

    def test_identity_pipeline_perfect(self, capsys, mini_dataset_file, tmp_path):
        preds = self._targets(capsys, mini_dataset_file, tmp_path)
        code, out, _ = run(
            capsys,
            "evaluate",
            "--dataset",
            str(mini_dataset_file),
            "--predictions",
            str(preds),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["f1"] == 1.0
        assert payload["dropped_segments"] == 0

    def test_blank_predictions_zero(self, capsys, mini_dataset_file, tmp_path):
        preds = tmp_path / "blank.txt"
        preds.write_text("\n\n\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "evaluate",
            "--dataset",
            str(mini_dataset_file),
            "--predictions",
            str(preds),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["precision"] == payload["recall"] == payload["f1"] == 0.0

    def test_garbage_line_counted_not_fatal(self, capsys, mini_dataset_file, tmp_path):
        preds = self._targets(capsys, mini_dataset_file, tmp_path)
        lines = preds.read_text().splitlines()
        lines[1] = "complete nonsense"
        preds.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "evaluate",
            "--dataset",
            str(mini_dataset_file),
            "--predictions",
            str(preds),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dropped_segments"] >= 1
        assert payload["f1"] > 0

    def test_line_count_mismatch(self, capsys, mini_dataset_file, tmp_path):
        preds = tmp_path / "short.txt"
        preds.write_text("only one line\n", encoding="utf-8")
        code, _, err = run(
            capsys, "evaluate", "--dataset", str(mini_dataset_file), "--predictions", str(preds)
        )
        assert code == 2
        assert "1 lines for 3 gold" in err

    @pytest.mark.parametrize("flag", ["--predictions", "--category-map"])
    def test_file_failures_worded_as_for_the_dataset(self, capsys, mini_dataset_file, tmp_path, flag):
        gold = str(mini_dataset_file)
        for path, message in [
            (tmp_path / "nope", f"no such file: {tmp_path / 'nope'}"),
            (tmp_path, f"cannot read {tmp_path}: Is a directory"),
        ]:
            # A repeated flag's last value wins, so ``flag`` names the file under test.
            argv = ["evaluate", "--dataset", gold, "--predictions", gold, flag, str(path)]
            code, _, err = run(capsys, *argv)
            assert (code, err) == (2, f"error: {message}\n"), path

    @pytest.mark.parametrize("flag", ["--predictions", "--category-map"])
    def test_bad_predictions_or_map_fail_before_the_gold_file_is_read(self, capsys, tmp_path, flag):
        # The gold file would warn about its duplicate quad if it were parsed first.
        gold = tmp_path / "dup.tsv"
        gold.write_text(DUPLICATE_QUAD_LINE, encoding="utf-8")
        missing = tmp_path / "nope"
        argv = ["evaluate", "--dataset", str(gold), "--predictions", str(gold), flag, str(missing)]
        code, _, err = run(capsys, *argv)
        assert (code, err) == (2, f"error: no such file: {missing}\n")

    def test_empty_dataset_gives_zero_lines_and_counts(self, capsys, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        code, out, _ = run(capsys, "linearize", "--dataset", str(empty))
        assert (code, out) == (0, "")
        preds = self._targets(capsys, empty, tmp_path)
        assert preds.read_bytes() == b""
        code, out, _ = run(
            capsys, "evaluate", "--dataset", str(empty), "--predictions", str(preds), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"] == {"predicted": 0, "gold": 0, "matched": 0}
        assert payload["dropped_segments"] == 0

    def test_same_text_gold_quads_are_one_quad_in_every_command(self, capsys, tmp_path):
        # Two gold quads that differ only in their spans: the loader keeps the first.
        dataset = tmp_path / "pizza.tsv"
        dataset.write_text(
            "pizza good pizza\t0,1 FOOD#QUALITY 2 1,2\t2,3 FOOD#QUALITY 2 1,2\n", encoding="utf-8"
        )
        targets = tmp_path / "targets.txt"
        outputs = []
        for argv in (
            ["stats", "--dataset", str(dataset), "--json"],
            ["linearize", "--dataset", str(dataset), "--out", str(targets)],
            ["evaluate", "--dataset", str(dataset), "--predictions", str(targets)],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 0, argv
            assert err == f"warning: dropped 1 duplicate quadruple(s) while loading {dataset}\n"
            outputs.append(out)
        stats, _, evaluation = outputs
        assert json.loads(stats)["total_quads"] == 1
        assert targets.read_text(encoding="utf-8") == "the food quality | the pizza is good | positive\n"
        assert evaluation.splitlines()[-2:] == [
            "predicted=1 gold=1 matched=1", "dropped segments: 0"
        ]


class TestSclCheck:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(
            capsys, "scl-check", "--seed", "0", "--oracle-batches", "40", "--grad-batches", "4"
        )
        assert code == 0
        assert "40/40" in out
        assert "ok" in out

    def test_negative_count_rejected_before_any_suite_runs(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "oracle_suite", lambda **kw: calls.append(kw))
        code, _, err = run(capsys, "scl-check", "--grad-batches", "-1")
        assert (code, calls) == (2, [])
        assert "batches must be >= 0, got -1" in err

    @pytest.mark.parametrize("flag", ["--oracle-batches", "--grad-batches"])
    def test_negative_batch_count_exit_2(self, capsys, flag):
        code, out, err = run(
            capsys, "scl-check", "--oracle-batches", "0", "--grad-batches", "0", flag, "-5"
        )
        assert code == 2
        assert "batches must be >= 0, got -5" in err

    @pytest.mark.parametrize("tau", ["-1", "nan"])
    def test_bad_tau_exit_2_when_no_batch_runs(self, capsys, tau):
        code, out, err = run(
            capsys, "scl-check", "--tau", tau, "--oracle-batches", "0", "--grad-batches", "0"
        )
        assert (code, out) == (2, "")
        assert err == f"error: tau must be positive and finite, got {float(tau)!r}\n"

    @pytest.mark.parametrize("tau", ["0.001", "0.0025"])
    def test_tau_outside_oracle_domain_exit_2(self, capsys, tau):
        # The oracle's exponentials overflow at 0.001; at 0.0025 a ratio underflows to 0.
        code, _, err = run(capsys, "scl-check", "--tau", tau, "--grad-batches", "0")
        assert code == 2
        assert err.startswith(f"error: tau {tau} at ")
        assert "outside the oracle's domain" in err


class TestSclDemo:
    def test_json_report(self, capsys, tmp_path):
        reps = tmp_path / "reps.tsv"
        code, out, _ = run(
            capsys,
            "scl-demo",
            "--synthetic",
            "40",
            "--steps",
            "10",
            "--seed",
            "3",
            "--json",
            "--reps-out",
            str(reps),
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["characteristics"]) == {"sentiment", "aspect", "opinion"}
        assert reps.exists()

    def test_deterministic_given_seed(self, capsys):
        args = ("scl-demo", "--synthetic", "30", "--steps", "8", "--seed", "9", "--json")
        _, out_a, _ = run(capsys, *args)
        _, out_b, _ = run(capsys, *args)
        assert out_a == out_b

    def test_dataset_corpus(self, capsys, tmp_path):
        # enough structure for at least one trainable characteristic
        lines = []
        for i in range(8):
            sent = i % 3
            if i % 2:
                lines.append(f"w{i} x{i} y{i} z{i}\t0,1 C{i % 4} {sent} 1,2")
            else:
                lines.append(f"w{i} x{i} y{i} z{i}\t-1,-1 C{i % 4} {sent} -1,-1")
        path = tmp_path / "d.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "scl-demo", "--dataset", str(path), "--steps", "3", "--json"
        )
        assert code == 0
        assert json.loads(out)["steps"] == 3

    def test_example_without_tokens_exit_2(self, capsys, tmp_path):
        # An empty sentence with only implicit quads loads; the demo cannot encode it.
        path = tmp_path / "notok.tsv"
        path.write_text("\t-1,-1 FOOD#QUALITY 2 -1,-1\n", encoding="utf-8")
        (example,), duplicates = load_dataset(path)
        assert (example.tokens, duplicates) == ((), 0)
        assert run(capsys, "scl-demo", "--dataset", str(path)) == (
            2, "", "error: example 'notok-0001' has no tokens\n"
        )


@pytest.mark.parametrize("command", ["stats", "linearize", "evaluate", "scl-demo"])
def test_warnings_as_errors_change_nothing(tmp_path, command):
    """The loader's duplicate count is a value, not a Python warning: under PYTHONWARNINGS=error
    each command exits, prints and warns exactly as it does without it."""
    dup = tmp_path / "dup.tsv"
    dup.write_text(DUPLICATE_QUAD_LINE, encoding="utf-8")
    argv = [command, "--dataset", str(dup)]
    argv += {"evaluate": ["--predictions", str(dup)], "scl-demo": ["--steps", "2"]}.get(command, [])
    runs = [
        subprocess.run([sys.executable, "-m", "acosgen.cli", *argv], capture_output=True,
                       text=True, env=fresh_env(PYTHONWARNINGS=warnings), timeout=120)
        for warnings in (None, "error")
    ]
    plain, as_errors = [(done.returncode, done.stdout, done.stderr) for done in runs]
    # linearize then fails on the rest map, which has no category C.
    assert plain[0] == (2 if command == "linearize" else 0)
    assert plain[2].startswith(f"warning: dropped 1 duplicate quadruple(s) while loading {dup}\n")
    assert as_errors == plain


@pytest.mark.parametrize("command", ["stats", "evaluate"])
def test_json_ends_with_duplicates_dropped(capsys, mini_dataset_file, tmp_path, command):
    dup = tmp_path / "dup.tsv"
    dup.write_text(DUPLICATE_QUAD_LINE, encoding="utf-8")
    for path, duplicates in [(mini_dataset_file, 0), (dup, 1)]:
        examples, _ = load_dataset(path)
        if command == "stats":
            argv, earlier = [], dataset_stats(examples).to_dict()
        else:  # each dataset line, read as a prediction, is one garbage segment
            argv = ["--predictions", str(path)]
            earlier = {**score([[]] * len(examples), examples).to_dict(),
                       "dropped_segments": len(examples)}
        code, out, _ = run(capsys, command, "--dataset", str(path), *argv, "--json")
        assert code == 0
        assert list(json.loads(out).items()) == [*earlier.items(), ("duplicates_dropped", duplicates)]


def test_every_json_command_prints_strict_json(capsys, mini_dataset_file, tmp_path):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    # One example per sentiment label: the demo's intra-label means are undefined.
    two = tmp_path / "two.tsv"
    two.write_text("a b c d\t0,1 C0 2 1,2\ne f g h\t0,1 C0 0 1,2\n", encoding="utf-8")
    preds = tmp_path / "preds.txt"
    preds.write_text("garbage\n\n\n", encoding="utf-8")
    dataset = str(mini_dataset_file)
    commands = [
        ("stats", "--dataset", dataset),
        ("stats", "--dataset", str(two)),
        ("evaluate", "--dataset", dataset, "--predictions", str(preds)),
        ("scl-demo", "--synthetic", "20", "--steps", "2"),
        ("scl-demo", "--dataset", str(two), "--steps", "2"),
    ]
    for argv in commands:
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        json.loads(out, parse_constant=reject)


class TestSclDemoFlags:
    def test_help_names_the_sclconfig_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["scl-demo", "--help"])
        options = " ".join(capsys.readouterr().out.split()).split(" options: ")[1]
        cfg = SclConfig()
        flags = {"--seed": "rng_seed", "--tau": "tau", "--alpha": "alpha", "--dropout": "dropout_p"}
        assert sorted(flags.values()) == sorted(f.name for f in fields(SclConfig))
        for flag, field in flags.items():
            shown = re.search(rf"{flag} [A-Z]+ .*?\(default: (\S+)\)", options)[1]
            assert shown == str(getattr(cfg, field)), flag

    def test_flag_sets_only_its_field(self):
        def assemble(*argv):
            return _demo_config(_build_parser().parse_args(["scl-demo", *argv]))

        assert assemble() == SclConfig()
        for argv, field, value in [
            (("--seed", "4"), "rng_seed", 4),
            (("--tau", "0.5"), "tau", 0.5),
            (("--alpha", "0.3"), "alpha", 0.3),
            (("--dropout", "0.3"), "dropout_p", 0.3),
        ]:
            assert assemble(*argv) == replace(SclConfig(), **{field: value}), argv

    def test_unset_seed_is_seed_zero(self, capsys):
        demo = ("scl-demo", "--synthetic", "20", "--steps", "2", "--json")
        _, unset, _ = run(capsys, *demo)
        _, seed_zero, _ = run(capsys, *demo, "--seed", "0")
        _, seed_seven, _ = run(capsys, *demo, "--seed", "7")
        assert unset == seed_zero != seed_seven

    def test_bad_value_exit_2(self, capsys):
        demo = ("scl-demo", "--synthetic", "20", "--steps", "1")
        for flag, value, message in [
            ("--tau", "-1", "tau must be positive and finite, got -1.0"),
            ("--dropout", "1.5", "dropout_p must be in [0, 1), got 1.5"),
            ("--alpha", "-1", "alpha must be finite and >= 0, got -1.0"),
        ]:
            assert run(capsys, *demo, flag, value) == (2, "", f"error: {message}\n"), flag

    def test_scl_config_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scl-demo", "--scl-config", "laptop-l1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --scl-config laptop-l1" in capsys.readouterr().err
