"""The four benchmark workloads: inputs, one batch of requests, and the
reference checks applied to every answer.

Each batch has a timed region (``with timer:``) that holds only the calls
into the program; preparation and checks run outside it. The program is
reached through a ``Program`` object, so that the set-up timing can
re-import it and tests can plant wrong answers.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
import os
import random
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import calibrate
from calibrate import REFERENCE_S

CACHE_ENV = "POLYGPT_CACHE_DIR"
# Speed probes per cut; the median of them is kept.
PROBE_READINGS = 3
# A request boundary or a decision ends the timed segment, and the speed is
# probed there, once the segment has lasted this long.
SEGMENT_S = 0.2
MODULES = ("cli", "capacity", "discrimination", "families", "hypergraph", "lp",
           "simplex", "theory")


class Program:
    """The polygpt modules the benchmark drives, freshly imported."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "polygpt" or m.startswith("polygpt.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"polygpt.{name}"))


@dataclass
class Op:
    """One operation: ok when the answer matches the reference and any
    evidence it carries re-checks; verified when evidence or the whole
    output was accepted by the check pass."""
    key: object
    ok: bool
    verified: bool
    note: str = ""


@dataclass
class Batch:
    wall_s: float
    ops: list
    outputs: dict = field(default_factory=dict)  # op key -> output text
    pooled_s: float = 0.0  # wall time of the requests that use the worker pool
    gaps: list = field(default_factory=list)  # exact minus greedy clique sizes
    reference_s: float = 0.0  # wall_s at reference speed, when a speed probe ran
    slowdowns: list = field(default_factory=list)  # the speed probe's readings


class Timer:
    """Times one batch's calls into the program. Given a span recorder,
    the timed region is also the root span and each request gets an id.
    Given a speed probe (``calibrate.sample``), the timer pauses at request
    boundaries and decisions, no more often than every SEGMENT_S, to run it;
    ``wall_s`` then leaves the probe out, and ``reference_s`` is the batch's
    time at reference speed."""

    def __init__(self, recorder=None, probe=None):
        self.recorder = recorder
        self.probe = probe
        self.wall_s = 0.0
        self.reference_s = 0.0
        self.slowdowns = []  # one per cut
        self._root = None
        self._t0 = 0.0

    def _measure_speed(self) -> None:
        readings = sorted(self.probe() for _ in range(PROBE_READINGS))
        self.slowdowns.append(readings[len(readings) // 2] / REFERENCE_S)

    def _cut(self) -> None:
        """End the current segment, probe, and start the next."""
        seconds = time.perf_counter() - self._t0
        self._measure_speed()
        self.wall_s += seconds
        self.reference_s += seconds / ((self.slowdowns[-2] + self.slowdowns[-1]) / 2)
        self._t0 = time.perf_counter()

    def split(self) -> None:
        """Probe the speed here once the current segment is long enough."""
        if self.probe is not None and time.perf_counter() - self._t0 >= SEGMENT_S:
            self._cut()

    def request(self) -> None:
        if self.recorder is not None:
            self.recorder.new_request()
        self.split()

    def __enter__(self):
        if self.probe is not None:
            self._measure_speed()
        self._t0 = time.perf_counter()
        if self.recorder is not None:
            self._root = self.recorder.open("batch")
        return self

    def __exit__(self, *exc):
        if self.recorder is not None:
            self.recorder.close(self._root)
            self.recorder.request = None
        if self.probe is not None:
            self._cut()
        else:
            self.wall_s = time.perf_counter() - self._t0
        return False


@dataclass
class Reply:
    code: Optional[int]
    out: str
    err: str
    wall_s: float


def call_cli(P: Program, argv: list, timer: Timer) -> Reply:
    """One in-process CLI request; an exception escaping the CLI is
    recorded as a failed request, not raised."""
    os.environ.pop(CACHE_ENV, None)
    timer.request()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = P.cli.run(argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return Reply(code, out.getvalue(), err.getvalue(), time.perf_counter() - t0)


def parse_reply(reply: Reply) -> Optional[dict]:
    if reply.code != 0:
        return None
    try:
        return json.loads(reply.out)
    except json.JSONDecodeError:
        return None


@contextlib.contextmanager
def capture(module, attr: str, timer: Optional[Timer] = None):
    """Record (theory, states, answer) for every call of module.attr; with
    a timer, let it probe the speed after each call."""
    seen = []
    original = getattr(module, attr)

    def recording(theory, states, validate=True):
        answer = original(theory, states, validate=validate)
        seen.append((theory, states, answer))
        if timer is not None:
            timer.split()
        return answer

    setattr(module, attr, recording)
    try:
        yield seen
    finally:
        setattr(module, attr, original)


def evidence_ok(P: Program, theory, states, answer) -> Optional[bool]:
    """Re-check a decision's witness or Farkas certificate by substitution;
    None when the answer carries neither."""
    if answer.witness is not None:
        return P.discrimination.verify_witness(theory, states, answer.witness)
    if answer.certificate is not None and answer.problem is not None:
        arith = theory.arith()
        tol = 0 if arith.exact else arith.tol
        return P.lp.verify_farkas(answer.problem, answer.certificate, tol=tol)
    return None


def decision_op(P: Program, theory, states, answer, expected: bool, request_ok: bool) -> Op:
    evidence = evidence_ok(P, theory, states, answer)
    ok = request_ok and answer.distinguishable == expected and evidence is not False
    note = "" if ok else f"decision {answer.distinguishable}, evidence {evidence}"
    return Op(None, ok, ok and evidence is True, note)


# --- hypercube-sweep ----------------------------------------------------------

class HypercubeSweep:
    """Criterion 1 at m=4: every vertex pair gets a closed-form witness and
    one exact LP. Every pair is feasible, so exact pivoting dominates."""

    name = "hypercube-sweep"
    workers = 1
    probe = staticmethod(calibrate.sample)
    M = 4

    def setup(self, P: Program, seed: int, tmp: str) -> None:
        self.theory = P.families.hypercube_theory(self.M)
        self.pairs = math.comb(self.theory.num_generators, 2)

    def batch(self, P: Program, workers: int, timer: Timer) -> Batch:
        report, error = None, ""
        with capture(P.discrimination, "is_perfectly_distinguishable", timer) as seen:
            with timer:
                timer.request()
                try:
                    report = P.capacity.verify_hypercube_memory(self.M, workers=workers)
                except Exception:
                    error = traceback.format_exc()
        report_ok = (report is not None and report.verified is True
                     and report.dimension == self.M + 1)
        ops = [decision_op(P, theory, states, answer, True, report_ok)
               for theory, states, answer in seen]
        missing = max(0, self.pairs - len(ops))
        ops += [Op(None, False, False, error or "decision missing")] * missing
        return Batch(timer.wall_s, ops)


# --- nwise-hypergraph ---------------------------------------------------------

class NwiseHypergraph:
    """maxclique requests that build N-wise hypergraphs with the worker
    pool, each sent twice against a fresh cache: a miss, then a hit. Most
    N=3 subsets are refused, so the Farkas branch carries the load."""

    name = "nwise-hypergraph"
    workers = 2
    # Nearly all of a batch runs in the worker pool, on both cores.
    probe = staticmethod(calibrate.sample_pair)
    # (family, N, pure states, hyperedge count, maximum clique size)
    REQUESTS = (("simplex-power:q=3,l=2", 3, 9, 48, 4),
                ("hypercube:m=3", 3, 8, 0, 0),
                ("hypercube:m=4", 2, 16, 120, 16))

    def setup(self, P: Program, seed: int, tmp: str) -> None:
        self.tmp = tmp

    def batch(self, P: Program, workers: int, timer: Timer) -> Batch:
        root = tempfile.mkdtemp(prefix="cache-", dir=self.tmp)
        try:
            dirs = [os.path.join(root, str(i)) for i in range(len(self.REQUESTS))]
            replies = []
            with timer:
                for (spec, n_arity, *_), cache in zip(self.REQUESTS, dirs):
                    argv = ["maxclique", "--family", spec, "--N", str(n_arity),
                            "--workers", str(workers), "--cache-dir", cache]
                    replies.append((call_cli(P, argv, timer), call_cli(P, argv, timer)))
            batch = Batch(timer.wall_s, [])
            for req, cache, (miss, hit) in zip(self.REQUESTS, dirs, replies):
                spec = req[0]
                ok, note = self.check_miss(P, req, miss, cache)
                batch.ops.append(Op((spec, "miss"), ok, ok, note))
                hit_ok = ok and hit.code == 0 and hit.out == miss.out
                batch.ops.append(Op((spec, "hit"), hit_ok, hit_ok,
                                    "" if hit_ok else "cache hit differs from miss"))
                batch.outputs[(spec, "miss")] = miss.out
                batch.outputs[(spec, "hit")] = hit.out
                batch.pooled_s += miss.wall_s
            return batch
        finally:
            shutil.rmtree(root)

    def check_miss(self, P: Program, req, miss: Reply, cache: str):
        spec, n_arity, nodes, edges, size = req
        doc = parse_reply(miss)
        if doc is None:
            return False, f"exit {miss.code}: {miss.err.strip()[-300:]}"
        files = sorted(f for f in os.listdir(cache) if f.endswith(".json"))
        if len(files) != 1:
            return False, f"expected one cache file, found {files}"
        h = P.hypergraph.load_hypergraph(os.path.join(cache, files[0]))
        clique = P.hypergraph.Clique(tuple(doc.get("members", ())))
        checks = {
            "edge count": len(h.edges) == edges,
            "hypergraph shape": (h.n_arity, h.num_nodes) == (n_arity, nodes),
            "clique size": doc.get("size") == size == len(clique),
            "clique valid": P.hypergraph.clique_is_valid(h, clique),
        }
        failed = [k for k, v in checks.items() if not v]
        return not failed, ", ".join(failed)


# --- float-ngon ---------------------------------------------------------------

NGON_COUNT = 4
NGON_RANGE = (16, 40)
# Rejection-sample the n-gons so that every seed gives about the same work:
# the model cost C(n,2) * n^1.5 tracks the measured build time within
# about 10% over the range, and the target is about 3.7 s of n-gons on a
# 2-core x86 container (Python 3.11). At this target no n exceeds 30.
NGON_TARGET = 1.0e5
NGON_TOLERANCE = 0.02


def ngon_cost(n: int) -> float:
    return math.comb(n, 2) * n ** 1.5


def pick_ngons(seed: int) -> list:
    """Two odd and two even n in NGON_RANGE with total model cost
    within NGON_TOLERANCE of NGON_TARGET; the same seed gives the same n."""
    rng = random.Random(seed)
    lo, hi = NGON_RANGE
    while True:
        odd = [rng.randrange(lo + 1 - lo % 2, hi + 1, 2) for _ in range(NGON_COUNT // 2)]
        even = [rng.randrange(lo + lo % 2, hi + 1, 2) for _ in range(NGON_COUNT // 2)]
        ns = odd + even
        if abs(sum(map(ngon_cost, ns)) - NGON_TARGET) <= NGON_TOLERANCE * NGON_TARGET:
            return sorted(ns)


def ngon_edges(n: int) -> int:
    """Pairwise-distinguishable vertex pairs of the regular n-gon."""
    return n if n % 2 else 3 * n // 2


class FloatNgon:
    """N=2 hypergraphs of float theories: regular n-gons and the float
    5-cube. Two float verdicts per pair plus the gray-zone success
    probability, no Fraction arithmetic."""

    name = "float-ngon"
    workers = 1
    probe = staticmethod(calibrate.sample)

    def setup(self, P: Program, seed: int, tmp: str) -> None:
        self.ngons = pick_ngons(seed)
        # (family spec, extra flags, node count, edge count)
        self.requests = [(f"ngon:n={n}", [], n, ngon_edges(n)) for n in self.ngons]
        self.requests.append(("hypercube:m=5", ["--backend", "float"], 32, 496))

    def batch(self, P: Program, workers: int, timer: Timer) -> Batch:
        replies, bounds = [], []
        with capture(P.hypergraph, "is_perfectly_distinguishable", timer) as seen:
            with timer:
                for spec, flags, _, _ in self.requests:
                    start = len(seen)
                    argv = ["hypergraph", "--family", spec, "--N", "2",
                            "--workers", str(workers)] + flags
                    replies.append(call_cli(P, argv, timer))
                    bounds.append((start, len(seen)))
        batch = Batch(timer.wall_s, [])
        for (_, _, nodes, edges), reply, (start, end) in zip(self.requests, replies, bounds):
            batch.ops += self.check_request(P, reply, seen[start:end], nodes, edges)
        return batch

    def check_request(self, P: Program, reply: Reply, decisions, nodes: int, edges: int):
        doc = parse_reply(reply)
        out_edges = None
        if doc is not None and doc.get("N") == 2 and doc.get("num_nodes") == nodes:
            out_edges = {tuple(e) for e in doc.get("edges", ())}
        request_ok = out_edges is not None and len(out_edges) == edges
        ops = []
        index = {g: i for i, g in enumerate(decisions[0][0].generators)} if decisions else {}
        for theory, states, answer in decisions:
            pair = tuple(sorted(index[s] for s in states))
            expected = out_edges is not None and pair in out_edges
            ops.append(decision_op(P, theory, states, answer, expected, request_ok))
        pairs = math.comb(nodes, 2)
        if len(ops) != pairs:
            ops = [Op(None, False, False, f"{len(ops)} decisions for {pairs} pairs")] * max(
                len(ops), pairs)
        return ops


# --- clique-search ------------------------------------------------------------

# (label, nodes, N, edge probability); None marks a complete graph.
CLIQUE_GRAPHS = (("K32", 32, 2, None), ("K64", 64, 2, None),
                 ("exact-n2-a", 24, 2, 0.85), ("exact-n2-b", 24, 2, 0.85),
                 ("exact-n3-a", 22, 3, 0.85), ("exact-n3-b", 22, 3, 0.85),
                 ("greedy-n2", 64, 2, 0.5), ("greedy-n3", 36, 3, 0.6))
EXACT_BUDGET = 24  # the CLI's default --node-budget
MC_ARGS = ("--N", "3", "--q", "9", "--l", "12", "--M", "8", "--trials", "1000")


def random_hypergraph(rng: random.Random, nodes: int, n_arity: int, p) -> list:
    subsets = itertools.combinations(range(nodes), n_arity)
    if p is None:
        return [list(s) for s in subsets]
    return [list(s) for s in subsets if rng.random() < p]


def clique_graphs(seed: int) -> dict:
    """label -> (N, nodes, sorted edge list); the same seed gives the same graphs."""
    rng = random.Random(seed)
    return {label: (n_arity, nodes, random_hypergraph(rng, nodes, n_arity, p))
            for label, nodes, n_arity, p in CLIQUE_GRAPHS}


def mc_bound(q: int, l: int, m_codewords: int, n_arity: int) -> str:
    """Union bound C(M,N) (1 - prod_k (1 - k/q))^l, written as the CLI writes it."""
    product = Fraction(1)
    for k in range(1, n_arity):
        product *= 1 - Fraction(k, q)
    b = math.comb(m_codewords, n_arity) * (1 - product) ** l
    return b.numerator if b.denominator == 1 else f"{b.numerator}/{b.denominator}"


class CliqueSearch:
    """maxclique on supplied hypergraph files (exact search up to 24 nodes,
    greedy above) and the random-construction Monte Carlo. No LP runs."""

    name = "clique-search"
    workers = 2
    probe = staticmethod(calibrate.sample)

    def setup(self, P: Program, seed: int, tmp: str) -> None:
        self.seed = seed
        self.graphs = clique_graphs(seed)
        self.paths = {}
        for label, (n_arity, nodes, edges) in self.graphs.items():
            path = os.path.join(tmp, f"{label}.json")
            with open(path, "w") as fh:
                json.dump({"N": n_arity, "num_nodes": nodes, "edges": edges}, fh)
            self.paths[label] = path
        self.requests = [(label, ["maxclique", "--hypergraph", self.paths[label]])
                         for label in self.graphs]
        self.requests += [((label, "greedy"), ["maxclique", "--hypergraph", self.paths[label],
                                               "--method", "greedy"])
                          for label, (_, nodes, _) in self.graphs.items()
                          if nodes <= EXACT_BUDGET]

    def mc_argv(self, workers: int) -> list:
        return ["random-construction", *MC_ARGS, "--seed", str(self.seed),
                "--workers", str(workers)]

    def batch(self, P: Program, workers: int, timer: Timer) -> Batch:
        with timer:
            replies = [call_cli(P, argv, timer) for _, argv in self.requests]
            mc = call_cli(P, self.mc_argv(workers), timer)
        batch = Batch(timer.wall_s, [], pooled_s=mc.wall_s)
        sizes = {}
        for (key, _), reply in zip(self.requests, replies):
            label = key if isinstance(key, str) else key[0]
            ok, note, size = self.check_clique(P, label, reply)
            sizes[key] = size
            batch.ops.append(Op(key, ok, ok, note))
            batch.outputs[key] = reply.out
        for op in batch.ops:
            if isinstance(op.key, str) and (op.key, "greedy") in sizes:
                exact, greedy = sizes[op.key], sizes[(op.key, "greedy")]
                if exact is not None and greedy is not None:
                    batch.gaps.append(exact - greedy)
                    if exact < greedy:
                        op.ok = op.verified = False
                        op.note = f"exact size {exact} < greedy size {greedy}"
        ok, note = self.check_mc(mc)
        batch.ops.append(Op("random-construction", ok, ok, note))
        batch.outputs["random-construction"] = mc.out
        return batch

    def check_clique(self, P: Program, label: str, reply: Reply):
        n_arity, nodes, edges = self.graphs[label]
        doc = parse_reply(reply)
        if doc is None:
            return False, f"exit {reply.code}: {reply.err.strip()[-300:]}", None
        h = P.hypergraph.DistinguishabilityHypergraph(
            n_arity, nodes, frozenset(tuple(e) for e in edges))
        members = tuple(doc.get("members", ()))
        checks = {
            "shape": (doc.get("N"), doc.get("num_nodes")) == (n_arity, nodes),
            "size": doc.get("size") == len(members),
            "valid": P.hypergraph.clique_is_valid(h, P.hypergraph.Clique(members)),
            "nonempty": len(members) >= n_arity or not edges,
            "complete graph": len(edges) < math.comb(nodes, n_arity) or len(members) == nodes,
        }
        failed = [k for k, v in checks.items() if not v]
        return not failed, ", ".join(failed), len(members)

    def check_mc(self, reply: Reply):
        doc = parse_reply(reply)
        if doc is None:
            return False, f"exit {reply.code}: {reply.err.strip()[-300:]}"
        failures, trials = doc.get("failures"), doc.get("trials")
        checks = {
            "parameters": (doc.get("N"), doc.get("q"), doc.get("l"), doc.get("dim"),
                           doc.get("seed"), trials) == (3, 9, 12, 97, self.seed, 1000),
            "bound": doc.get("bound") == mc_bound(9, 12, 8, 3),
            "failures": isinstance(failures, int) and 0 <= failures <= 1000
            and doc.get("empirical_failure") == failures / 1000,
        }
        failed = [k for k, v in checks.items() if not v]
        return not failed, ", ".join(failed)


WORKLOADS = {w.name: w for w in (HypercubeSweep, NwiseHypergraph, FloatNgon, CliqueSearch)}
