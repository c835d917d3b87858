"""End-to-end benchmark of the fourcalc command line, in one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload regions|exprs|reproduce \
        --seed N --seconds S --trace 0|1

One client drives ``fourcalc.cli.main(argv)`` in a closed loop on a
single thread: the next command starts when the previous one returned.
Each command starts cold, as a real ``fourcalc`` process does: the
evaluation cache is cleared before it.  Interpreter start and import are
measured apart, in fresh interpreters, as ``setup_s``.  Outputs are
checked outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
about half the time untraced, then the same rounds again with spans
around every layer's public functions, and prints the per-layer metrics
and the tracing overhead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

# A run repeats whole rounds until it has measured --seconds and has at
# least MIN_SAMPLES working commands, so that the 90th percentile has ten
# samples beyond it; it stops early only at MAX_MEASURE_S.
MIN_SAMPLES = 100
MAX_MEASURE_S = 120.0
# setup_s is the median of at least SETUP_LAUNCHES fresh interpreters,
# launched between rounds so that they sample the whole run rather than
# one moment of a machine whose speed drifts by tens of percent.
SETUP_LAUNCHES = 9
IMPORTTIME_LAUNCHES = 3

IMPORT_PROBE = "import time, sys; import fourcalc.cli; sys.stdout.write(repr(time.perf_counter()))"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_launch(src: Path) -> float:
    """Time from launching a fresh interpreter until fourcalc.cli is
    imported.  perf_counter is the system-wide monotonic clock, so the
    child's reading is comparable with the parent's."""
    begin = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_child_env(src),
                          capture_output=True, text=True, timeout=60, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout) - begin


def measure_import_ms(src: Path, launches: int = IMPORTTIME_LAUNCHES) -> dict:
    """Median self import time of each layer module, from -X importtime."""
    per_layer = {layer: [] for layer in LAYERS}
    for _ in range(launches):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fourcalc.cli"],
                              env=_child_env(src), capture_output=True, text=True, timeout=60,
                              check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"importtime probe failed: {proc.stderr.strip()[-300:]}")
        seen = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if name.startswith("fourcalc.") and self_us.isdigit():
                seen[name[len("fourcalc."):]] = int(self_us) / 1000.0
        for layer in LAYERS:
            per_layer[layer].append(seen.get(layer, 0.0))
    return {layer: statistics.median(values) for layer, values in per_layer.items()}


def percentile(sorted_values: list, q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = q * (len(sorted_values) - 1)
    low = int(pos)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (pos - low)


class Runner:
    """Runs rounds of commands through cli.main and checks every output."""

    def __init__(self, cli_main, cache_clear, cache_info, golden_dir: Path):
        self.round_s: list[float] = []
        self.cli_main = cli_main
        self.cache_clear = cache_clear
        self.cache_info = cache_info
        self.golden_dir = golden_dir
        self.first_output: dict = {}  # op index -> (output key, status)
        self.mismatches: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.out_bytes = 0
        self.evaluate_calls = 0
        self.evaluate_distinct = 0

    def run_op(self, op: W.Op) -> tuple[W.Outcome, float]:
        self.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        exc = None
        begin = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli_main(list(op.argv))
        except Exception as error:  # a crash is an outcome the checks judge
            rc, exc = None, type(error).__name__
        elapsed = time.perf_counter() - begin
        return W.Outcome(rc, out.getvalue(), err.getvalue(), exc), elapsed

    def judge(self, index: int, op: W.Op, got: W.Outcome) -> str:
        """Check an output; a repeat of an already checked command only has
        to reproduce its first output exactly."""
        key = (got.rc, hashlib.sha1(got.out.encode()).digest(), got.err, got.exc)
        first = self.first_output.get(index)
        if first is not None and first[0] == key:
            return first[1]
        try:
            status = W.classify(op, got, self.golden_dir)
        except W.Mismatch as exc:
            status = "wrong"
            if len(self.mismatches) < 5:
                self.mismatches.append(f"{' '.join(op.argv)[:160]}: {exc}")
        if first is None:
            self.first_output[index] = (key, status)
        return status

    def run_rounds(self, ops, seconds, min_samples, rounds=None, tracer=None, between_rounds=None):
        """Whole rounds until the time and sample floors are met (or a fixed
        number of rounds), calling ``between_rounds`` after each.  Returns
        the latencies of the commands that did not fail with a known fault,
        and the summed time of every command."""
        latencies, total, done = [], 0.0, 0
        begin = time.perf_counter()
        while True:
            round_total = total
            for index, op in enumerate(ops):
                got, elapsed = self.run_op(op)
                if tracer is not None:
                    tracer.end_op()
                    info = self.cache_info()
                    self.evaluate_calls += info.hits + info.misses
                    self.evaluate_distinct += info.misses
                status = self.judge(index, op, got)
                self.attempted += 1
                self.out_bytes += len(got.out.encode())
                total += elapsed
                if status == "failed":
                    self.failed += 1
                else:  # a wrong output still took its time; correct says it was wrong
                    latencies.append(elapsed)
            done += 1
            self.round_s.append(total - round_total)
            if between_rounds is not None:
                between_rounds()
            spent = time.perf_counter() - begin
            if rounds is not None:
                if done >= rounds:
                    break
            elif (spent >= seconds and len(latencies) >= min_samples) or spent >= MAX_MEASURE_S:
                break
        return latencies, total, done


def end_to_end(latencies, total_s, setup_s) -> dict:
    ordered = sorted(latencies)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(latencies) / total_s, "unit": "1/s"},
        "latency_p50_ms": {"value": 1000 * percentile(ordered, 0.5), "unit": "ms"},
        "latency_p90_ms": {"value": 1000 * percentile(ordered, 0.9), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(summary: dict, runner: Runner, ops_traced: int, import_ms: dict,
              overhead: float) -> dict:
    ops = max(ops_traced, 1)
    counts = summary["counts"]
    self_s, calls, inclusive = summary["self_s"], summary["calls"], summary["inclusive_s"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        put(f"{layer}.self_ms", 1000 * self_s[layer] / ops, "ms")
        put(f"{layer}.calls", calls[layer] / ops, "count")
        put(f"{layer}.import_ms", import_ms[layer], "ms")
    chars = counts.get("parser.chars", 0)
    put("parser.chars", chars / ops, "count")
    put("parser.us_per_char", _ratio(1e6 * self_s["parser"], chars), "us")
    put("evaluate.distinct", runner.evaluate_distinct / ops, "count")
    put("evaluate.hit_ratio", 1 - _ratio(runner.evaluate_distinct, runner.evaluate_calls), "ratio")
    firings = counts.get("rewrite.rule_firings", 0)
    put("rewrite.rule_firings", firings / ops, "count")
    put("rewrite.us_per_firing", _ratio(1e6 * self_s["rewrite"], firings), "us")
    tried = summary["splits_tried"]
    put("obstruction.splits_tried", tried / ops, "count")
    put("obstruction.split_yield", _ratio(counts.get("obstruction.splits_used", 0), tried), "ratio")
    put("certificates.steps_checked", counts.get("certificates.steps_checked", 0) / ops, "count")
    put("certificates.verifies_per_cert",
        _ratio(counts.get("certificates.verifies", 0), counts.get("certificates.distinct", 0)), "ratio")
    bk_points = counts.get("geography.bk_region_points", 0)
    fa_points = counts.get("geography.free_action_region_points", 0)
    bk_s = inclusive.get("geography.bk_region", 0.0)
    fa_s = inclusive.get("geography.free_action_region", 0.0)
    put("geography.points", (bk_points + fa_points) / ops, "count")
    put("geography.us_per_point", _ratio(1e6 * (bk_s + fa_s), bk_points + fa_points), "us")
    put("geography.bk_us_per_point", _ratio(1e6 * bk_s, bk_points), "us")
    put("geography.free_action_us_per_point", _ratio(1e6 * fa_s, fa_points), "us")
    put("reproduce.golden_ms", 1000 * inclusive.get("reproduce.compare_with_golden", 0.0) / ops, "ms")
    put("cli.output_kb", runner.out_bytes / 1024 / max(runner.attempted, 1), "kB")
    put("trace.spans_per_op", summary["spans"] / ops, "count")
    put("trace.overhead_pct", 100 * overhead, "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "fourcalc" / "cli.py").is_file():
        return _fail(f"no fourcalc sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import importlib

    import fourcalc
    import fourcalc.cli

    if Path(fourcalc.__file__).resolve().parent != (src / "fourcalc").resolve():
        return _fail(f"imported fourcalc from {fourcalc.__file__}, not from {src}")
    # The package re-exports the function under the module's name, so go
    # through the module object itself.
    evaluate = importlib.import_module("fourcalc.evaluate").evaluate
    cache_clear = getattr(evaluate, "cache_clear", None)
    cache_info = getattr(evaluate, "cache_info", None)
    if cache_clear is None or cache_info is None:
        return _fail("fourcalc.evaluate.evaluate has no cache_clear/cache_info: "
                     "commands can no longer be started cold")

    ops = W.make_round(args.workload, args.seed)
    runner = Runner(fourcalc.cli.main, cache_clear, cache_info, src / "fourcalc" / "golden")
    results_dir = HERE / "results"
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "round": len(ops)}

    if not args.trace:
        setup_samples = [setup_launch(src)]
        last_probe = time.perf_counter()

        def probe_when_due():
            nonlocal last_probe
            if time.perf_counter() - last_probe >= args.seconds / SETUP_LAUNCHES:
                setup_samples.append(setup_launch(src))
                last_probe = time.perf_counter()

        latencies, total, rounds = runner.run_rounds(ops, args.seconds, MIN_SAMPLES,
                                                     between_rounds=probe_when_due)
        while len(setup_samples) < SETUP_LAUNCHES:
            setup_samples.append(setup_launch(src))
        metrics = end_to_end(latencies, total, statistics.median(setup_samples))
        record.update(rounds=rounds, latencies_s=latencies, setup_samples_s=setup_samples)
    else:
        import_ms = measure_import_ms(src)
        _, plain_s, rounds = runner.run_rounds(ops, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            attempted_before = runner.attempted
            _, traced_s, _ = runner.run_rounds(ops, 0, 0, rounds=rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        ops_traced = runner.attempted - attempted_before
        summary = tracer.summary()
        tracer.write(results_dir / f"trace-{args.workload}")
        metrics = per_layer(summary, runner, ops_traced, import_ms, traced_s / plain_s - 1)
        record.update(rounds=rounds, summary=summary)
    record["round_s"] = runner.round_s

    correct = not runner.mismatches
    for line in runner.mismatches:
        print(f"perfbench: wrong output: {line}", file=sys.stderr)
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    record["result"] = result
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
