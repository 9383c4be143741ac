import json

import pytest

from acosgen import cli
from acosgen.cli import _assemble_scl_config, _build_parser, main
from acosgen.configs import default_scl_config

from conftest import MINI_DATASET


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_env_var_flag(self, capsys, mini_dataset_file, monkeypatch):
        monkeypatch.setenv("ACOSGEN_DATASET", str(mini_dataset_file))
        code, out, _ = run(capsys, "stats")
        assert code == 0
        assert "sentences" in out

    def test_parser_built_once_per_environment(self, monkeypatch):
        first = _build_parser()
        assert _build_parser() is first
        monkeypatch.setenv("ACOSGEN_DATASET", "x.tsv")
        assert _build_parser() is not first
        assert _build_parser().parse_args(["stats"]).dataset == "x.tsv"
        monkeypatch.delenv("ACOSGEN_DATASET")
        assert _build_parser() is first

    def test_env_var_of_another_command_ignored(self, capsys, mini_dataset_file, monkeypatch):
        monkeypatch.setenv("ACOSGEN_TAU", "abc")
        code, out, _ = run(capsys, "stats", "--dataset", str(mini_dataset_file))
        assert code == 0
        assert "sentences" in out


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


class TestSclCheck:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(
            capsys, "scl-check", "--seed", "0", "--oracle-batches", "40", "--grad-batches", "4"
        )
        assert code == 0
        assert "40/40" in out
        assert "ok" in out

    def test_bad_env_value_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("ACOSGEN_TAU", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["scl-check", "--oracle-batches", "1", "--grad-batches", "0"])
        assert exc.value.code == 2

    def test_batch_counts_from_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ACOSGEN_ORACLE_BATCHES", "3")
        monkeypatch.setenv("ACOSGEN_GRAD_BATCHES", "1")
        code, out, _ = run(capsys, "scl-check")
        assert code == 0
        assert "loss oracle: 3/3" in out
        assert "gradient check: 1/1" in out

    def test_negative_count_rejected_before_any_suite_runs(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "oracle_suite", lambda **kw: calls.append(kw))
        code, _, err = run(capsys, "scl-check", "--grad-batches", "-1")
        assert (code, calls) == (2, [])
        assert "batches must be >= 0, got -1" in err
        monkeypatch.setenv("ACOSGEN_GRAD_BATCHES", "-1")
        code, _, err = run(capsys, "scl-check")
        assert (code, calls) == (2, [])
        assert "batches must be >= 0, got -1" in err

    @pytest.mark.parametrize("flag", ["--oracle-batches", "--grad-batches"])
    def test_negative_batch_count_exit_2(self, capsys, flag):
        code, out, err = run(
            capsys, "scl-check", "--oracle-batches", "0", "--grad-batches", "0", flag, "-5"
        )
        assert code == 2
        assert "batches must be >= 0, got -5" in err

    def test_negative_batch_count_from_env_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("ACOSGEN_ORACLE_BATCHES", "-1")
        code, _, err = run(capsys, "scl-check", "--grad-batches", "0")
        assert code == 2
        assert "batches must be >= 0, got -1" in err


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


@pytest.mark.filterwarnings("ignore:only one")
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


class TestSclConfigPlumbing:
    def test_scl_config_file_and_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tau=0.5\nalpha=0.2\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "scl-demo",
            "--synthetic",
            "20",
            "--steps",
            "2",
            "--scl-config",
            str(cfg),
            "--tau",
            "0.25",
            "--json",
        )
        assert code == 0

    def test_config_then_flag_overrides(self, tmp_path):
        def assemble(*argv):
            return _assemble_scl_config(_build_parser().parse_args(["scl-demo", *argv]))

        cfg = assemble("--scl-config", "laptop-l1", "--alpha", "0.3")
        shipped = default_scl_config("laptop-l1")
        assert cfg.alpha == (0.3, 0.3, 0.3)
        assert (cfg.tau, cfg.dropout_p) == (shipped.tau, shipped.dropout_p)
        path = tmp_path / "c.cfg"
        path.write_text("tau=0.5\ndropout=0.3\nalpha1=0.9\n", encoding="utf-8")
        cfg = assemble("--scl-config", str(path), "--alpha", "0.3", "--seed", "4")
        assert (cfg.tau, cfg.alpha, cfg.dropout_p, cfg.rng_seed) == (0.5, (0.3, 0.3, 0.3), 0.3, 4)

    def test_config_seed_kept_unless_flag_given(self, capsys, tmp_path):
        demo = ("scl-demo", "--synthetic", "20", "--steps", "2", "--json")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=7\n", encoding="utf-8")
        _, from_file, _ = run(capsys, *demo, "--scl-config", str(cfg))
        _, from_flag, _ = run(capsys, *demo, "--seed", "7")
        _, default, _ = run(capsys, *demo)
        _, seed_zero, _ = run(capsys, *demo, "--seed", "0")
        assert from_file == from_flag != default
        assert default == seed_zero
        _, overridden, _ = run(capsys, *demo, "--scl-config", str(cfg), "--seed", "0")
        assert overridden == seed_zero

    def test_bad_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bogus=1\n", encoding="utf-8")
        code, _, err = run(
            capsys, "scl-demo", "--synthetic", "20", "--steps", "1", "--scl-config", str(cfg)
        )
        assert code == 2
        assert "unknown key" in err
