"""Command-line surface.

Commands: ``stats`` (dataset statistics), ``linearize`` (write generation
targets), ``evaluate`` (score a predictions file against gold), ``scl-check``
(run the loss/gradient verification suites), ``scl-demo`` (toy contrastive
training demo).

Each input of a run is given on its command line.
Exit codes: 0 success, 1 verification failure, 2 I/O or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from importlib import import_module
from pathlib import Path

from .configs import DATASETS, SclConfig, resolve_category_map
from .core import DatasetError, Example, load_dataset
from .evaluate import dataset_stats, score
from .linearize import CategoryMapError, FormatStyle, linearize_example
from .parse import parse_output, read_predictions

__all__ = ["main"]

# The contrastive half (it imports numpy) by name and defining module. __getattr__ binds each
# name on first use, and the scl commands call ``_cli.<name>``, so the text commands never
# import numpy and a value set here first (a tracer's patch) is the one called.
_SCL_NAMES = {
    "toy_demo": ".demo",
    "export_representations": ".demo",
    "make_synthetic_corpus": ".synth",
    "oracle_suite": ".verify",
    "gradient_suite": ".verify",
    "save_failure": ".verify",
}


def __getattr__(name: str):
    """Import a contrastive-half name on first use and bind it on this module (PEP 562)."""
    if name not in _SCL_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if "numpy" not in sys.modules:
        # One BLAS thread unless the user chose a count: scl-demo trains its heads on two
        # threads, and an idle OpenBLAS worker spins against them. One count also fixes the
        # GEMMs' reduction order, so the output does not depend on the machine's cores.
        # OpenBLAS reads the variable once, when numpy loads it; after that it is not touched.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    globals()[name] = value = getattr(import_module(_SCL_NAMES[name], __package__), name)
    return value


_cli = sys.modules[__name__]


def _emit(lines: list[str], out: str | None) -> None:
    """Write each line and an LF to ``out``, or to stdout; no lines write nothing."""
    text = "".join(line + "\n" for line in lines)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="acosgen", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def dataset_arg(p, required=True):
        p.add_argument("--dataset", required=required, help="dataset TSV file")

    def map_arg(p):
        p.add_argument(
            "--category-map",
            default="rest",
            help=f"shipped map name ({', '.join(DATASETS)}) or a TSV path",
        )

    def style_arg(p):
        styles = [s.value for s in FormatStyle]
        p.add_argument("--style", choices=styles, default=FormatStyle.GEN_NAT.value)

    def out_arg(p):
        p.add_argument("--out", help="output file (default: stdout)")

    def json_arg(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of a text table")

    p = sub.add_parser("stats", help="dataset statistics")
    dataset_arg(p)
    json_arg(p)
    out_arg(p)

    p = sub.add_parser("linearize", help="write one generation target per example")
    dataset_arg(p)
    map_arg(p)
    style_arg(p)
    out_arg(p)

    p = sub.add_parser("evaluate", help="score a predictions file against gold")
    dataset_arg(p)
    p.add_argument(
        "--predictions",
        required=True,
        help="one generated output string per line, aligned with the dataset",
    )
    map_arg(p)
    style_arg(p)
    json_arg(p)
    out_arg(p)

    cfg = SclConfig()
    p = sub.add_parser("scl-check", help="run loss-oracle and gradient verification suites")
    for flag, kind, default, what in (
        ("--seed", int, 0, "seed of both suites' random batches"),
        ("--tau", float, cfg.tau, "SCL temperature"),
        ("--oracle-batches", int, 1000, "random batches checked against the reference loss"),
        ("--grad-batches", int, 100, "random batches checked by finite differences"),
        ("--failure-out", str, "scl-check-failure.json", "file for the first offending batch"),
    ):
        p.add_argument(flag, type=kind, default=default, help=f"{what} (default: %(default)s)")

    p = sub.add_parser("scl-demo", help="toy contrastive training demo")
    dataset_arg(p, required=False)
    p.add_argument(
        "--synthetic",
        type=int,
        default=200,
        help="synthetic examples to train on without --dataset (default: %(default)s)",
    )
    p.add_argument("--steps", type=int, default=150, help="training steps (default: %(default)s)")
    for flag, kind, default, what in (
        ("--seed", int, cfg.rng_seed, "seed of every random draw in the demo"),
        ("--tau", float, cfg.tau, "SCL temperature"),
        ("--alpha", float, cfg.alpha, "each head's SCL weight, >= 0; 0 turns SCL off"),
        ("--dropout", float, cfg.dropout_p, "dropout probability of the SCL views"),
    ):
        p.add_argument(flag, type=kind, default=default, help=f"{what} (default: %(default)s)")
    json_arg(p)
    out_arg(p)
    p.add_argument("--reps-out", help="export representations TSV")

    return parser


def _demo_config(args) -> SclConfig:
    return SclConfig(tau=args.tau, alpha=args.alpha, dropout_p=args.dropout, rng_seed=args.seed)


def _load(path: str) -> tuple[list[Example], int]:
    """``load_dataset(path)``, after a ``warning:`` line on stderr if it dropped duplicates."""
    examples, duplicates = load_dataset(path)
    if duplicates:
        print(f"warning: dropped {duplicates} duplicate quadruple(s) while loading {Path(path)}",
              file=sys.stderr)
    return examples, duplicates


def _cmd_stats(args) -> int:
    examples, duplicates = _load(args.dataset)
    stats = dataset_stats(examples)
    payload = {**stats.to_dict(), "duplicates_dropped": duplicates}
    _emit([json.dumps(payload, indent=2) if args.json else stats.to_text()], args.out)
    return 0


def _cmd_linearize(args) -> int:
    examples, _ = _load(args.dataset)
    category_map = resolve_category_map(args.category_map)
    style = FormatStyle(args.style)
    lines = []
    for line_no, example in enumerate(examples, start=1):
        try:
            lines.append(linearize_example(example, style, category_map))
        except CategoryMapError as exc:
            raise CategoryMapError(f"line {line_no}: {exc}") from None
    _emit(lines, args.out)
    return 0


def _cmd_evaluate(args) -> int:
    # Predictions and map first: a bad one fails before the gold file is parsed and checked.
    predictions = read_predictions(args.predictions)
    category_map = resolve_category_map(args.category_map)
    style = FormatStyle(args.style)
    golds, duplicates = _load(args.dataset)
    if len(predictions) != len(golds):
        raise DatasetError(
            f"predictions file has {len(predictions)} lines for {len(golds)} gold examples"
        )
    outcomes = [parse_output(line, style, category_map) for line in predictions]
    report = score([o.quads for o in outcomes], golds)
    dropped = sum(o.dropped for o in outcomes)
    if args.json:
        payload = {**report.to_dict(), "dropped_segments": dropped,
                   "duplicates_dropped": duplicates}
        _emit([json.dumps(payload, indent=2)], args.out)
    else:
        _emit([report.to_text(), f"dropped segments: {dropped}"], args.out)
    return 0


def _cmd_scl_check(args) -> int:
    # Both counts are checked before either suite spends its time.
    for batches in (args.oracle_batches, args.grad_batches):
        if batches < 0:
            raise ValueError(f"batches must be >= 0, got {batches}")
    oracle = _cli.oracle_suite(batches=args.oracle_batches, tau=args.tau, seed=args.seed)
    gradient = _cli.gradient_suite(batches=args.grad_batches, tau=args.tau, seed=args.seed)
    print(oracle.summary())
    print(gradient.summary())
    failed = [r for r in (oracle, gradient) if not r.passed]
    if failed:
        path = _cli.save_failure(failed[0], args.failure_out)
        print(f"first offending batch written to {path}", file=sys.stderr)
        return 1
    return 0


def _cmd_scl_demo(args) -> int:
    cfg = _demo_config(args)
    if args.dataset:
        corpus, _ = _load(args.dataset)
    else:
        corpus = _cli.make_synthetic_corpus(args.synthetic, seed=cfg.rng_seed)
    result = _cli.toy_demo(corpus, cfg, args.steps)
    _emit([json.dumps(result.to_dict(), indent=2) if args.json else result.to_text()], args.out)
    if args.reps_out:
        _cli.export_representations(result, args.reps_out)
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "linearize": _cmd_linearize,
    "evaluate": _cmd_evaluate,
    "scl-check": _cmd_scl_check,
    "scl-demo": _cmd_scl_demo,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:  # DatasetError and CategoryMapError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
