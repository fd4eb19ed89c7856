"""Tests of the benchmark itself: self-time arithmetic, seed-reproducible
inputs, and reference checks that reject planted wrong answers.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile
import types
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import calibrate  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
import run  # noqa: E402
from spans import Recorder, Span, covered, self_times  # noqa: E402
from workloads import (CLIQUE_GRAPHS, EXACT_BUDGET, NGON_COUNT, NGON_RANGE,  # noqa: E402
                       NGON_TARGET, NGON_TOLERANCE, Batch, CliqueSearch, FloatNgon,
                       NwiseHypergraph, Op, Program, Reply, Timer, call_cli, capture,
                       clique_graphs, decision_op, ngon_cost, pick_ngons)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_self_time_is_duration_minus_children(self):
        spans = [Span("batch", 0, 10), Span("cli.run", 1, 4, parent=0),
                 Span("simplex.solve", 2, 3, parent=1), Span("cli.run", 5, 9, parent=0)]
        self.assertEqual(self_times(spans), [3, 2, 1, 4])
        self.assertEqual(sum(self_times(spans)), spans[0].duration)

    def test_overlapping_children_count_once(self):
        self.assertEqual(covered([(0, 2), (1, 3), (5, 6)]), 4)
        spans = [Span("batch", 0, 10), Span("a", 1, 5, parent=0), Span("b", 3, 12, parent=0)]
        self.assertEqual(self_times(spans)[0], 1)

    def test_recorder_wraps_only_inside_a_root_and_restores(self):
        mod = types.SimpleNamespace()
        mod.inner = lambda x: x + 1
        mod.outer = lambda x: mod.inner(x) * 2
        original = (mod.inner, mod.outer)
        rec = Recorder(clock=FakeClock())
        rec.wrap(mod, "inner", "simplex.solve")
        rec.wrap(mod, "outer", "cli.run")
        self.assertEqual(mod.outer(1), 4)
        self.assertEqual(rec.spans, [])
        with Timer(rec) as timer:
            timer.request()
            self.assertEqual(mod.outer(1), 4)
        rec.restore()
        self.assertEqual((mod.inner, mod.outer), original)
        names = [s.name for s in rec.spans]
        self.assertEqual(names, ["batch", "cli.run", "simplex.solve"])
        self.assertEqual([s.parent for s in rec.spans], [None, 0, 1])
        self.assertEqual([s.request for s in rec.spans], [None, 0, 0])
        # clock ticks: batch 1..6, cli.run 2..5, simplex 3..4
        self.assertEqual(self_times(rec.spans), [2.0, 2.0, 1.0])

    def test_timer_scales_each_segment_by_the_slowdown_around_it(self):
        now = [0.0]
        readings = iter([2, 2, 2] * 2 + [4, 4, 4])  # slowdowns 2, 2 and 4
        probe = lambda: next(readings) * REFERENCE_S
        with mock.patch("time.perf_counter", lambda: now[0]):
            with Timer(probe=probe) as timer:
                timer.request()  # at once: no probe
                now[0] += 6.0
                timer.request()
                now[0] += 0.1
                timer.split()  # shorter than SEGMENT_S: no probe
                now[0] += 2.9
        self.assertEqual(timer.slowdowns, [2, 2, 4])
        self.assertEqual(timer.wall_s, 9.0)
        self.assertAlmostEqual(timer.reference_s, 6.0 / 2 + 3.0 / 3)

    def test_pair_probe_reaps_its_child(self):
        self.assertGreater(calibrate.sample_pair(), 0)
        with self.assertRaises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_layer_self_times_add_up_to_the_traced_run(self):
        spans = [Span("batch", 0, 10), Span("cli.run", 1, 9, parent=0),
                 Span("simplex.solve", 2, 5, parent=1, info={"cells": 12, "bits": 3}),
                 Span("theory.reduce", 6, 8, parent=1)]
        m = layers.layer_metrics(spans, batches=1)
        self.assertEqual((m["simplex.self_s"], m["theory.reduce_s"], m["cli.self_s"]), (3, 2, 3))
        self.assertEqual(m["trace.unattributed_s"], 2)
        self.assertEqual(m["trace.run_s"], 10)
        self.assertEqual(sum(m[k] for k in layers.SELF_TIME) + m["trace.unattributed_s"], 10)
        self.assertEqual(m["simplex.max_bits"], 3)

    def test_every_span_name_belongs_to_a_layer(self):
        P = Program()
        named = {name for _, _, name, _ in layers.targets(P)}
        known = {n for names in layers.SELF_TIME.values() for n in names}
        self.assertEqual(named, known)
        with self.assertRaises(ValueError):
            layers.layer_metrics([Span("batch", 0, 1), Span("mystery", 0, 1, parent=0)], 1)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_the_printed_metrics(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            doc = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]}, layers.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in doc["workloads"]), sorted(run.WORKLOADS))


class SeedTest(unittest.TestCase):
    def test_ngons_repeat_per_seed_and_keep_the_work_fixed(self):
        seen = set()
        for seed in range(20):
            ns = pick_ngons(seed)
            self.assertEqual(ns, pick_ngons(seed))
            self.assertEqual(len(ns), NGON_COUNT)
            self.assertEqual(sum(n % 2 for n in ns), NGON_COUNT // 2)
            self.assertTrue(all(NGON_RANGE[0] <= n <= NGON_RANGE[1] for n in ns))
            cost = sum(map(ngon_cost, ns))
            self.assertLessEqual(abs(cost - NGON_TARGET), NGON_TOLERANCE * NGON_TARGET)
            seen.add(tuple(ns))
        self.assertGreater(len(seen), 10)

    def test_clique_graphs_repeat_per_seed(self):
        a, b, c = clique_graphs(3), clique_graphs(3), clique_graphs(4)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        for label, nodes, n_arity, p in CLIQUE_GRAPHS:
            N, v, edges = a[label]
            self.assertEqual((N, v), (n_arity, nodes))
            if p is None:
                self.assertEqual(len(edges), len(list(itertools.combinations(range(v), N))))
        sizes = {label: nodes for label, nodes, _, _ in CLIQUE_GRAPHS}
        self.assertTrue(any(v <= EXACT_BUDGET for v in sizes.values()))
        self.assertTrue(any(EXACT_BUDGET < v <= 64 for v in sizes.values()))


class ReferenceCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.P = Program()

    def reply(self, doc, code=0):
        return Reply(code, json.dumps(doc), "", 0.0)

    def test_planted_wrong_witness_fails(self):
        P = self.P
        cube = P.families.hypercube_theory(2)
        states = [cube.generators[0], cube.generators[3]]
        answer = P.discrimination.is_perfectly_distinguishable(cube, states)
        op = decision_op(P, cube, states, answer, True, True)
        self.assertTrue(op.ok and op.verified)
        answer.witness = P.theory.Measurement(tuple(reversed(answer.witness.effects)))
        self.assertFalse(decision_op(P, cube, states, answer, True, True).ok)
        answer.witness = None
        op = decision_op(P, cube, states, answer, True, True)
        self.assertTrue(op.ok)
        self.assertFalse(op.verified)

    def test_planted_wrong_farkas_certificate_fails(self):
        P = self.P
        cube = P.families.hypercube_theory(3)
        states = [cube.generators[i] for i in (0, 3, 5)]
        answer = P.discrimination.is_perfectly_distinguishable(cube, states)
        self.assertFalse(answer.distinguishable)
        self.assertTrue(decision_op(P, cube, states, answer, False, True).verified)
        answer.certificate = tuple(-y for y in answer.certificate)
        self.assertFalse(decision_op(P, cube, states, answer, False, True).ok)

    def test_planted_wrong_nwise_answer_fails(self):
        P = self.P
        wl = NwiseHypergraph()
        req = next(r for r in wl.REQUESTS if r[0] == "hypercube:m=3")
        with tempfile.TemporaryDirectory() as cache:
            empty = P.hypergraph.DistinguishabilityHypergraph(3, 8, frozenset())
            P.hypergraph.save_hypergraph(empty, os.path.join(cache, "h.json"))
            good = self.reply({"N": 3, "num_nodes": 8, "size": 0, "members": []})
            self.assertEqual(wl.check_miss(P, req, good, cache), (True, ""))
            bad = self.reply({"N": 3, "num_nodes": 8, "size": 3, "members": [0, 1, 2]})
            ok, note = wl.check_miss(P, req, bad, cache)
            self.assertFalse(ok)
            self.assertIn("clique size", note)
            self.assertFalse(wl.check_miss(P, req, self.reply({}, code=1), cache)[0])

    def test_planted_wrong_clique_fails(self):
        P = self.P
        wl = CliqueSearch()
        with tempfile.TemporaryDirectory() as tmp:
            wl.setup(P, 5, tmp)
        good = self.reply({"N": 2, "num_nodes": 32, "size": 32, "members": list(range(32))})
        self.assertTrue(wl.check_clique(P, "K32", good)[0])
        short = self.reply({"N": 2, "num_nodes": 32, "size": 31, "members": list(range(31))})
        self.assertFalse(wl.check_clique(P, "K32", short)[0])
        _, nodes, edges = wl.graphs["exact-n2-a"]
        missing = next(p for p in itertools.combinations(range(nodes), 2) if list(p) not in edges)
        invalid = self.reply({"N": 2, "num_nodes": nodes, "size": 2, "members": list(missing)})
        self.assertFalse(wl.check_clique(P, "exact-n2-a", invalid)[0])

    def test_planted_wrong_monte_carlo_report_fails(self):
        wl = CliqueSearch()
        wl.seed = 7
        doc = {"N": 3, "q": 9, "l": 12, "dim": 97, "seed": 7, "trials": 1000,
               "bound": "3337860107421875000/79766443076872509863361",
               "failures": 2, "empirical_failure": 0.002}
        self.assertEqual(wl.check_mc(self.reply(doc)), (True, ""))
        self.assertFalse(wl.check_mc(self.reply({**doc, "bound": "1/2"}))[0])
        self.assertFalse(wl.check_mc(self.reply({**doc, "empirical_failure": 0.5}))[0])

    def test_planted_wrong_float_hypergraph_fails(self):
        P = self.P
        wl = FloatNgon()
        argv = ["hypergraph", "--family", "ngon:n=5", "--N", "2", "--workers", "1"]
        with capture(P.hypergraph, "is_perfectly_distinguishable") as seen:
            reply = call_cli(P, argv, Timer())
        ops = wl.check_request(P, reply, seen, 5, 5)
        self.assertEqual(len(ops), 10)
        self.assertTrue(all(op.ok and op.verified for op in ops))
        doc = json.loads(reply.out)
        doc["edges"] = doc["edges"][1:]
        ops = wl.check_request(P, self.reply(doc), seen, 5, 5)
        self.assertFalse(any(op.ok for op in ops))

    def test_outputs_that_differ_between_passes_fail(self):
        first = Batch(1.0, [Op("a", True, True)], {"a": "x"})
        same = Batch(1.0, [Op("a", True, True)], {"a": "x"})
        other = Batch(1.0, [Op("a", True, True)], {"a": "y"})
        run.compare_outputs(first, same, "first")
        run.compare_outputs(first, other, "first")
        self.assertTrue(same.ops[0].ok)
        self.assertFalse(other.ops[0].ok or other.ops[0].verified)


if __name__ == "__main__":
    unittest.main()
