"""Self-tests of the benchmark: seeded inputs, output checks, smoke runs.

Run from the root of a checkout (they are not collected by the package's
own pytest run):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import model as M  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import LAYERS, Tracer, read_trace  # noqa: E402

GOLDEN = ROOT / "src" / "fourcalc" / "golden"
SMALL = 0.05


def _cli():
    import fourcalc.cli

    evaluate = importlib.import_module("fourcalc.evaluate").evaluate
    return fourcalc.cli.main, evaluate.cache_clear, evaluate.cache_info


def _runner():
    return run.Runner(*_cli(), GOLDEN)


def _run(op):
    return _runner().run_op(op)[0]


def _first(ops, kind, **expect):
    for op in ops:
        if op.kind == kind and op.fault is None and all(op.expect.get(k) == v for k, v in expect.items()):
            return op
    raise LookupError(f"no {kind} op with {expect}")


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_commands(self):
        for workload in W.WORKLOADS:
            first = [op.argv for op in W.make_round(workload, 7)]
            again = [op.argv for op in W.make_round(workload, 7)]
            self.assertEqual(first, again, workload)

    def test_other_seed_same_make_up(self):
        for workload in W.WORKLOADS:
            a, b = W.make_round(workload, 1), W.make_round(workload, 2)
            self.assertEqual(len(a), len(b))
            kinds = lambda ops: sorted((op.kind, op.heavy, op.fault or "") for op in ops)  # noqa: E731
            self.assertEqual(kinds(a), kinds(b), workload)
            if workload != "reproduce":
                self.assertNotEqual([op.argv for op in a], [op.argv for op in b])

    def test_faulty_inputs_do_not_depend_on_seed(self):
        for workload in W.WORKLOADS:
            faults = lambda seed: sorted(op.argv for op in W.make_round(workload, seed) if op.fault)  # noqa: E731
            self.assertEqual(faults(1), faults(99))


class ModelAgainstKnownValues(unittest.TestCase):
    def test_invariants(self):
        octic = ("CV", "CP2", 2, (8,))
        self.assertEqual(M.invariants(octic), (46, -30, 0))  # c2 = 46, c1^2 = 2
        self.assertEqual(M.invariants(M.P("Xk", 2)), (152, -96, 0))
        quotient = ("Q", ("BC", 3, 2, 3, 3, 3, 3), 3, "standard")
        self.assertEqual(M.invariants(quotient)[:2], (296, -132))

    def test_arithmetic(self):
        self.assertTrue(M.check_arithmetic("10 + 4*0 >= 1/3 * (2*46 + 3*(-30))"))
        self.assertTrue(M.check_arithmetic("mod(27, 4) == 3"))
        self.assertFalse(M.check_arithmetic("floor(7/2) > 3"))
        with self.assertRaises(M.BadArithmetic):
            M.check_arithmetic("1 +")


class CheckersRejectCorruption(unittest.TestCase):
    """Each checker accepts the program's real output and rejects it
    after one deliberate corruption."""

    @classmethod
    def setUpClass(cls):
        cls.regions = W.make_round("regions", 3, scale=SMALL)
        cls.exprs = W.make_round("exprs", 3, scale=SMALL)

    def assertRejects(self, op, got):
        with self.assertRaises(W.Mismatch):
            W.classify(op, got, GOLDEN)

    def test_dropped_region_point(self):
        for as_json in (False, True):
            op = _first(self.regions, "free-actions", json=as_json)
            got = _run(op)
            self.assertEqual(W.classify(op, got, GOLDEN), "ok")
            if as_json:
                data = json.loads(got.out)
                del data["points"][len(data["points"]) // 2]
                out = json.dumps(data)
            else:
                lines = got.out.splitlines()
                del lines[len(lines) // 2]
                out = "\n".join(lines) + "\n"
            self.assertRejects(op, W.Outcome(got.rc, out, got.err))

    def test_dropped_bk_point(self):
        op = _first(self.regions, "bk")
        got = _run(op)
        self.assertEqual(W.classify(op, got, GOLDEN), "ok")
        lines = got.out.splitlines()
        self.assertRejects(op, W.Outcome(got.rc, "\n".join(lines[:-1]) + "\n", got.err))

    def test_flipped_verdicts(self):
        swaps = {
            "ht": ("hitchin_thorpe_ok", "hitchin_thorpe_violated"),
            "einstein": ("einstein_obstructed", "no_verdict"),
            "homeo": ("not_homeomorphic", "homeomorphic"),
        }
        for kind, (one, other) in swaps.items():
            for as_json in (False, True):
                op = _first(self.exprs, kind, json=as_json)
                got = _run(op)
                self.assertEqual(W.classify(op, got, GOLDEN), "ok", op.argv)
                if one in got.out:
                    out = got.out.replace(one, other)
                else:
                    out = got.out.replace(other, one)
                self.assertRejects(op, W.Outcome(got.rc, out, got.err))

    def test_wrong_normal_form_count(self):
        for as_json in (False, True):
            op = _first(self.exprs, "normalize", json=as_json)
            got = _run(op)
            self.assertEqual(W.classify(op, got, GOLDEN), "ok")
            form = W._parse_normal_form(
                json.loads(got.out)["normal_form"] if as_json
                else got.out.splitlines()[0][len("normal form: "):].removesuffix("  (partial)"))
            name, count = next(iter(form.items()))
            text = f"{count}*{name}" if count > 1 else name
            bumped = f"{count + 1}*{name}"
            self.assertIn(text, got.out)
            self.assertRejects(op, W.Outcome(got.rc, got.out.replace(text, bumped, 1), got.err))

    def test_wrong_invariants(self):
        op = _first(self.exprs, "eval", json=True)
        got = _run(op)
        self.assertEqual(W.classify(op, got, GOLDEN), "ok")
        data = json.loads(got.out)
        data["tau"] += 1
        self.assertRejects(op, W.Outcome(got.rc, json.dumps(data), got.err))

    def test_false_certificate_step(self):
        op = W.Op("reproduce", ("reproduce", "prop1.3", "--json"), {"target": "prop1.3", "json": True})
        got = _run(op)
        self.assertEqual(W.classify(op, got, GOLDEN), "ok")
        report = json.loads(got.out)
        step = next(s for c in report["certificates"] for s in c["steps"] if s["arithmetic"])
        step["arithmetic"] = step["arithmetic"].replace(">=", "<").replace("==", "!=")
        with self.assertRaises(W.Mismatch):
            W._check_steps([step])
        self.assertRejects(op, W.Outcome(got.rc, json.dumps(report), got.err))

    def test_deep_input_may_be_refused_cleanly(self):
        op = next(op for op in self.exprs if op.fault == W.FAULT_DEEP_PARENS)
        refusal = W.Outcome(2, "", "syntax error: nesting too deep (line 1, column 601)\n")
        self.assertEqual(W.classify(op, refusal, GOLDEN), "ok")
        self.assertRejects(op, W.Outcome(1, "", "Traceback (most recent call last):\n"))

    def test_known_faults_are_recognized(self):
        for op in self.exprs + W.make_round("reproduce", 3):
            if op.fault:
                self.assertEqual(W.classify(op, _run(op), GOLDEN), "failed", op.fault)


class SmokeRuns(unittest.TestCase):
    def test_each_workload_one_small_round(self):
        for workload in W.WORKLOADS:
            runner = _runner()
            ops = W.make_round(workload, 5, scale=SMALL)
            latencies, total, rounds = runner.run_rounds(ops, 0, 0, rounds=1)
            self.assertEqual(runner.mismatches, [], workload)
            self.assertEqual(runner.attempted, len(ops))
            self.assertEqual(runner.failed, sum(1 for op in ops if op.fault))
            metrics = run.end_to_end(latencies, total, 0.1)
            self.assertTrue(all(m["value"] > 0 for m in metrics.values()), metrics)

    def test_traced_round(self):
        runner = _runner()
        ops = W.make_round("exprs", 5, scale=SMALL)
        tracer = Tracer()
        tracer.install()
        try:
            runner.run_rounds(ops, 0, 0, rounds=1, tracer=tracer)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        with tempfile.TemporaryDirectory() as scratch:
            tracer.write(Path(scratch) / "trace")
            spans = read_trace(Path(scratch) / "trace")
        self.assertEqual(len(spans), summary["spans"])
        self.assertTrue(all(start <= end for _, start, end, _, _ in spans))
        self.assertGreater(summary["calls"]["parser"], 0)
        self.assertGreater(summary["splits_tried"], 0)
        metrics = run.per_layer(summary, runner, len(ops), {layer: 1.0 for layer in LAYERS}, 0.1)
        self.assertEqual(metrics["cli.calls"]["value"], 1.0)
        import fourcalc.cli

        self.assertFalse(hasattr(fourcalc.cli.main, "__wrapped__"), "tracer left a wrapper behind")

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as empty:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "exprs", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=empty, capture_output=True, text=True, timeout=120, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
