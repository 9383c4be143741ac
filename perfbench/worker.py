"""Run one segment of a benchmark workload in a fresh process and print its measurements.

``run.py`` splits a run into segments, one fresh process each, run back to
back; this file is one segment. It imports ``acosgen``, runs an untimed
warm-up op (the two together are one set-up sample), then runs timed ops
until its ``--seconds`` are up, and prints one JSON object on its last stdout
line. Every op is one or two in-process ``acosgen.cli.main([...])`` calls with
stdout captured, run in a closed loop: one client, one op at a time, the next
op starting when the previous one returns.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Share of traced op time that may fall outside every layer span below cli.main
# (cli's own code, net of tracing cost). A layer the spans miss shows here.
MAX_UNACCOUNTED = 0.15


def _call(main, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


class Workload:
    """One op kind: ``run`` it, ``check`` its outputs, count the ``items`` it completed.

    Op numbers continue across the segments of a run, so inputs keep rotating;
    op ``warmup_op`` is the segment's warm-up op.
    """

    group = 1  # traced and untraced ops alternate in groups of this many ops
    warmup_op = 0

    def save(self) -> None:
        """Keep what later segments of the run need to check their ops."""

    def check_trace(self, k: int, parse_work: list[tuple[int, int]]) -> str | None:
        """Check the work the traced op's spans recorded; None when it is as expected."""
        return None


class TextEval(Workload):
    """``acosgen linearize`` then ``acosgen evaluate`` on one generated chunk."""

    group = 4  # one op per (map, style) pair, so traced and untraced ops see the same mix

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work = work
        self.expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))
        self.targets = work / "targets.txt"

    def chunk(self, k: int) -> int:
        return k % len(self.expected)

    def run(self, k: int, main) -> list[tuple[int, str]]:
        c = self.chunk(k)
        spec = self.expected[c]
        common = ["--dataset", str(self.work / f"chunk-{c}.tsv"), "--category-map", spec["map"],
                  "--style", spec["style"]]
        return [
            _call(main, ["linearize", *common, "--out", str(self.targets)]),
            _call(main, ["evaluate", *common, "--predictions", str(self.work / f"chunk-{c}.pred"), "--json"]),
        ]

    def check(self, k: int, outputs: list[tuple[int, str]]) -> str | None:
        c = self.chunk(k)
        if [rc for rc, _ in outputs] != [0, 0]:
            return f"chunk {c}: exit codes {[rc for rc, _ in outputs]}"
        if self.targets.read_bytes() != (self.work / f"chunk-{c}.expected").read_bytes():
            return f"chunk {c}: linearize targets differ from the reference"
        report = json.loads(outputs[1][1])
        got = {key: report["counts"].get(key) for key in ("predicted", "gold", "matched")}
        got["dropped_segments"] = report.get("dropped_segments")
        want = {key: self.expected[c]["counts"][key] for key in got}
        if got != want:
            return f"chunk {c}: evaluate counts {got} != expected {want}"
        return None

    def items(self, k: int, outputs) -> int:
        return self.expected[self.chunk(k)]["examples"]

    def check_trace(self, k: int, parse_work: list[tuple[int, int]]) -> str | None:
        counts = self.expected[self.chunk(k)]["counts"]
        got = (sum(a for a, _ in parse_work), sum(r for _, r in parse_work))
        want = (counts["segments_attempted"], counts["quads_recovered"])
        if got != want:
            return f"chunk {self.chunk(k)}: parsed (segments, quads) {got} != expected {want}"
        return None


class SclDemo(Workload):
    """``acosgen scl-demo`` at its defaults, seeds rotating; the warm-up op is smoke-sized."""

    SMALL = ["--synthetic", "40", "--steps", "2"]

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.seeds = [seed * 4 + i for i in range(4)]
        self.smoke = smoke
        # Outputs of earlier ops of the run, by arguments: an op's output must equal them.
        self.outputs_file = work / "scl-demo-outputs.json"
        self.outputs: dict[str, str] = {}
        if self.outputs_file.exists():
            self.outputs = json.loads(self.outputs_file.read_text(encoding="utf-8"))

    def save(self) -> None:
        self.outputs_file.write_text(json.dumps(self.outputs), encoding="utf-8")

    def argv(self, k: int) -> list[str]:
        small = self.SMALL if self.smoke or k == self.warmup_op else []
        return ["scl-demo", "--seed", str(self.seeds[k % 4]), "--json", *small]

    def run(self, k: int, main) -> list[tuple[int, str]]:
        return [_call(main, self.argv(k))]

    def check(self, k: int, outputs) -> str | None:
        (rc, text), = outputs
        if rc != 0:
            return f"exit code {rc}"
        seed = self.seeds[k % 4]
        if self.outputs.setdefault(" ".join(self.argv(k)), text) != text:
            return f"seed {seed}: output differs from an earlier op with the same arguments"
        chars = json.loads(text)["characteristics"]
        if len(chars) != 3:
            return f"seed {seed}: trained {sorted(chars)}, expected 3 characteristics"
        for name, c in chars.items():
            if not (math.isfinite(c["gap_after"]) and c["gap_after"] > c["gap_before"]):
                return f"seed {seed}: {name} gap {c['gap_before']} -> {c['gap_after']} did not grow"
        return None

    def items(self, k: int, outputs) -> int:
        data = json.loads(outputs[0][1])
        return data["steps"] * len(data["characteristics"])


class SclCheck(Workload):
    """``acosgen scl-check`` with its default 1,000 oracle batches and no gradient
    batches, seeds rotating; the warm-up op is smoke-sized.

    The gradient suite is left out because it fails at some seeds although
    ``scl_loss`` is right: its fixed finite-difference step gives truncation
    error above its tolerance (``test_smoke.py`` pins one such seed). An op
    that fails by a defect of the program cannot be timed as a workload.
    """

    GRAD_BATCHES = 0

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.seeds = [seed * 4 + i for i in range(4)]
        self.smoke = smoke
        self.failure_out = work / "scl-check-failure.json"

    def batches(self, k: int) -> tuple[int, int]:
        """(oracle, gradient) batches of op ``k``."""
        return (5 if self.smoke or k == self.warmup_op else 1000), self.GRAD_BATCHES

    def run(self, k: int, main) -> list[tuple[int, str]]:
        oracle, grad = self.batches(k)
        return [_call(main, ["scl-check", "--seed", str(self.seeds[k % 4]), "--oracle-batches", str(oracle),
                             "--grad-batches", str(grad), "--failure-out", str(self.failure_out)])]

    def check(self, k: int, outputs) -> str | None:
        rc = outputs[0][0]
        return None if rc == 0 else f"seed {self.seeds[k % 4]}: exit code {rc}"

    def items(self, k: int, outputs) -> int:
        return sum(self.batches(k))


WORKLOADS = {"text-eval": TextEval, "scl-demo": SclDemo, "scl-check": SclCheck}


def _scl_flop(args, kwargs, result) -> int:
    rows, dim = args[0].reps.shape
    return 4 * rows * rows * dim


def _parse_work(args, kwargs, result) -> tuple[int, int]:
    text = args[0]
    attempted = text.count("[SSEP]") + 1 if text.strip() else 0
    return attempted, len(result.quads)


def instrument(tracer, acosgen) -> None:
    """Wrap the layer functions at the names their callers look up when they run.

    ``oracle_suite``/``gradient_suite`` bind ``loss_fn=scl_loss`` when
    ``acosgen.verify`` is imported, so their kernel calls are timed by passing
    the wrapped loss as ``loss_fn``, as ``acosgen scl-check`` would pass its own.
    """
    cli, demo, verify, scl = acosgen.cli, acosgen.demo, acosgen.verify, acosgen.scl
    tracer.patch(cli, "load_dataset", "core.load_dataset", lambda a, kw, r: os.path.getsize(a[0]))
    tracer.patch(cli, "resolve_category_map", "configs.resolve_category_map")
    tracer.patch(cli, "linearize_example", "linearize.linearize_example")
    tracer.patch(cli, "read_predictions", "parse.read_predictions")
    tracer.patch(cli, "parse_output", "parse.parse_output", _parse_work)
    tracer.patch(cli, "score", "evaluate.score",
                 lambda a, kw, r: r.counts.num_predicted + r.counts.num_gold)
    tracer.patch(cli, "make_synthetic_corpus", "synth.make_synthetic_corpus")
    tracer.patch(cli, "toy_demo", "demo.toy_demo")
    tracer.patch(demo, "scl_loss", "scl.scl_loss", _scl_flop)
    tracer.patch(demo, "_extend_with_mask", "scl.extend")
    tracer.patch(verify, "extend_batch", "scl.extend")
    tracer.patch(verify, "reference_scl_loss", "verify.reference_scl_loss")
    timed_loss = tracer.wrap("scl.scl_loss", scl.scl_loss, _scl_flop)
    for attr in ("oracle_suite", "gradient_suite"):
        suite = getattr(cli, attr)

        def with_timed_loss(*args, _suite=suite, **kwargs):
            kwargs.setdefault("loss_fn", timed_loss)
            return _suite(*args, **kwargs)

        tracer.patch(cli, attr, f"verify.{attr}", fn=with_timed_loss)


def layer_metrics(tracer, traced_s: list[float], untraced_s: list[float]) -> dict[str, float]:
    """Per-layer metrics, per traced op unless the name says otherwise.

    Self times are net of the tracer's bookkeeping for the child spans.
    """
    n = len(traced_s)
    totals = tracer.totals()
    work = tracer.work_by_name()

    def total(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    parse = work.get("parse.parse_output", [])
    attempted = sum(a for a, _ in parse)
    recovered = sum(r for _, r in parse)
    scl_calls = total("scl.scl_loss", "calls")
    scl_busy = total("scl.scl_loss", "busy_s")
    load_busy = total("core.load_dataset", "busy_s")
    return {
        "core.load_dataset.calls": total("core.load_dataset", "calls") / n,
        "core.load_dataset.busy_s": load_busy / n,
        "core.load_dataset.mb_per_s": ratio(sum(work.get("core.load_dataset", [])) / 1e6, load_busy),
        "configs.resolve_category_map.busy_s": total("configs.resolve_category_map", "busy_s") / n,
        "linearize.linearize_example.calls": total("linearize.linearize_example", "calls") / n,
        "linearize.linearize_example.busy_s": total("linearize.linearize_example", "busy_s") / n,
        "parse.read_predictions.busy_s": total("parse.read_predictions", "busy_s") / n,
        "parse.parse_output.calls": total("parse.parse_output", "calls") / n,
        "parse.parse_output.busy_s": total("parse.parse_output", "busy_s") / n,
        "parse.segments_attempted": attempted / n,
        "parse.quads_recovered": recovered / n,
        "parse.recovered_ratio": ratio(recovered, attempted),
        "evaluate.score.busy_s": total("evaluate.score", "busy_s") / n,
        "evaluate.score.quads_scored": sum(work.get("evaluate.score", [])) / n,
        "scl.scl_loss.calls": scl_calls / n,
        "scl.scl_loss.busy_s": scl_busy / n,
        "scl.scl_loss.us_per_call": ratio(scl_busy * 1e6, scl_calls),
        "scl.scl_loss.gflop_computed": sum(work.get("scl.scl_loss", [])) / 1e9 / n,
        "scl.extend.busy_s": total("scl.extend", "busy_s") / n,
        "synth.make_synthetic_corpus.busy_s": total("synth.make_synthetic_corpus", "busy_s") / n,
        "verify.reference_scl_loss.calls": total("verify.reference_scl_loss", "calls") / n,
        "verify.reference_scl_loss.busy_s": total("verify.reference_scl_loss", "busy_s") / n,
        "cli.self_s": total("cli.main", "self_s") / n,
        "demo.self_s": total("demo.toy_demo", "self_s") / n,
        "verify.self_s": (total("verify.oracle_suite", "self_s") + total("verify.gradient_suite", "self_s")) / n,
        "trace.overhead_ratio": statistics.median(traced_s) / statistics.median(untraced_s),
        # op time outside cli.main plus cli.main's own (net) time, over op time
        "trace.unaccounted_ratio": (sum(traced_s) - total("cli.main", "busy_s") + total("cli.main", "self_s"))
        / sum(traced_s),
    }


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.split()[-1].lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record() -> dict:
    import numpy

    def read(path: str) -> str | None:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(f"{index}/level"), read(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = read(f"{index}/size")
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}".strip(),
        "blas_threads": _blas_threads(),
        "git_commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True, help="directory holding the generated inputs")
    parser.add_argument("--first-op", type=int, default=0, help="number of this segment's warm-up op")
    parser.add_argument("--smoke", action="store_true", help="tiny ops, a fixed count of them")
    args = parser.parse_args(argv)

    started = perf_counter()
    sys.path.insert(0, str(SRC))
    import acosgen.cli

    if not Path(acosgen.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported acosgen from {acosgen.__file__}, not from {SRC}")
    workload = WORKLOADS[args.workload](args.work, args.seed, args.smoke)
    workload.warmup_op = args.first_op
    main_fn = acosgen.cli.main

    tracer = traced_main = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        traced_main = tracer.wrap("cli.main", main_fn)

    attempted = failed = 0
    errors: list[str] = []

    def run_op(k: int, traced: bool) -> tuple[float, int]:
        """Run op ``k`` and check its output; return its seconds and the items it completed."""
        nonlocal attempted, failed
        attempted += 1
        if traced:
            tracer.op = k
            first_span = len(tracer.spans)
            instrument(tracer, acosgen)
        op_start = perf_counter()
        try:
            try:
                outputs = workload.run(k, traced_main if traced else main_fn)
            finally:
                duration = perf_counter() - op_start
                if traced:
                    tracer.unpatch()
            error = workload.check(k, outputs)
            if error is None and traced:
                parse_work = [tracer.work[j] for j in range(first_span, len(tracer.spans))
                              if tracer.spans[j][0] == "parse.parse_output"]
                error = workload.check_trace(k, parse_work)
        except Exception:  # a raising op is a failed op; keep measuring the rest
            error = traceback.format_exc()
        if error is None:
            return duration, workload.items(k, outputs)
        failed += 1
        if len(errors) < 5:
            errors.append(error)
        print(f"op {k} failed: {error}", file=sys.stderr)
        return duration, 0

    run_op(args.first_op, False)  # warm-up op, not timed; smoke-sized on the scl workloads
    setup_s = perf_counter() - started
    if tracer is not None:
        tracer.calibrate()

    op_s: list[float] = []
    items: list[int] = []
    traced_s: list[float] = []
    # A segment that starts after its share of the run is used up only sets up.
    min_ops = 2 * workload.group if args.trace else 1 if args.smoke else 0
    deadline = perf_counter() + args.seconds
    i = 0
    while i < min_ops or (not args.smoke and perf_counter() < deadline):
        traced = tracer is not None and (i // workload.group) % 2 == 0
        duration, done = run_op(args.first_op + 1 + i, traced)
        if traced:
            traced_s.append(duration)
        else:
            op_s.append(duration)
            items.append(done)
        i += 1
    workload.save()

    result = {
        "setup_s": setup_s,
        "op_s": op_s,
        "items": items,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_record(),
    }
    if tracer is not None:
        layers = layer_metrics(tracer, traced_s, op_s)
        # Smoke ops are too small for this: cli's fixed costs (argument parsing) dominate them.
        if not args.smoke and layers["trace.unaccounted_ratio"] > MAX_UNACCOUNTED:
            failed += 1
            result["failed"] = failed
            errors.append(f"layer spans cover only {1 - layers['trace.unaccounted_ratio']:.3f} of traced op time")
        result["layers"] = layers
        result["trace_ops"] = {"traced": len(traced_s), "untraced": len(op_s),
                               "span_overhead_us": tracer.overhead_s * 1e6}
        spans_path = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
