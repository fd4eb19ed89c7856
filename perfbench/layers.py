"""Span targets per layer and the per-layer metrics computed from spans.

Each target is a module attribute that callers look up at call time,
including names that other modules import by value (``cli.build_family``,
``hypergraph.is_perfectly_distinguishable``, ...). ``linalg`` and
``exactlog`` get no spans: their functions run per vector entry or once
per request, so a span would cost more than the call it measures.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from fractions import Fraction

from spans import ancestors, self_times

# Every `_s` metric below is a self time; together with trace.unattributed_s
# (the self time of the batch root spans) they add up to trace.run_s.
SELF_TIME = {
    "simplex.self_s": ("simplex.solve",),
    "lp.exact.self_s": ("lp.exact",),
    "lp.float.self_s": ("lp.float",),
    "lp.check_s": ("lp.check",),
    "discrimination.self_s": ("discrimination.decide", "discrimination.psuccess",
                              "discrimination.pairwise"),
    "hypergraph.build_self_s": ("hypergraph.build",),
    "hypergraph.io_s": ("hypergraph.load", "hypergraph.save"),
    "clique.exact_s": ("clique.exact",),
    "clique.greedy_s": ("clique.greedy",),
    "capacity.sweep_self_s": ("capacity.sweep",),
    "capacity.witness_s": ("capacity.witness",),
    "capacity.mc_s": ("capacity.mc",),
    "theory.reduce_s": ("theory.reduce",),
    "families.build_s": ("families.build",),
    "cli.self_s": ("cli.run",),
}
ROOT = "batch"

# The metrics a traced run prints, with their units. Counts and self times
# are per traced batch; latencies (_ms) are per call.
PER_LAYER = {
    "simplex.calls": "count", "simplex.self_s": "s", "simplex.call_p50_ms": "ms",
    "simplex.call_p99_ms": "ms", "simplex.tableau_cells": "cells",
    "simplex.max_bits": "bits", "simplex.stalled": "count",
    "lp.exact.calls": "count", "lp.exact.self_s": "s", "lp.float.calls": "count",
    "lp.float.self_s": "s", "lp.check_s": "s", "lp.infeasible_share": "ratio",
    "discrimination.decisions": "count", "discrimination.self_s": "s",
    "discrimination.decide_p50_ms": "ms", "discrimination.decide_p99_ms": "ms",
    "discrimination.lp_per_decision": "ratio", "discrimination.psuccess_calls": "count",
    "discrimination.indeterminate": "count", "discrimination.no_evidence": "count",
    "hypergraph.build_calls": "count", "hypergraph.build_self_s": "s",
    "hypergraph.subsets_decided": "count", "hypergraph.prune_ratio": "ratio",
    "hypergraph.edge_yield": "ratio", "hypergraph.cache_hits": "count",
    "hypergraph.cache_misses": "count", "hypergraph.cache_hit_ms": "ms",
    "hypergraph.save_ms": "ms", "hypergraph.load_ms": "ms", "hypergraph.io_s": "s",
    "clique.exact_s": "s", "clique.exact_calls": "count", "clique.greedy_s": "s",
    "clique.greedy_calls": "count", "clique.greedy_gap": "count",
    "pool.workers": "count", "pool.efficiency": "ratio",
    "capacity.sweep_self_s": "s", "capacity.witness_s": "s", "capacity.mc_s": "s",
    "capacity.mc_trials_per_s": "1/s",
    "theory.reduce_s": "s", "theory.reduce_calls": "count", "theory.reduce_lps": "count",
    "families.build_s": "s", "cli.self_s": "s",
    "trace.run_s": "s", "trace.unattributed_s": "s", "trace.overhead_frac": "ratio",
}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _max_bits(values) -> int:
    bits = 0
    for v in values:
        if isinstance(v, Fraction):
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return bits


def _note_simplex(info, args, kwargs, result, exc):
    rows = _arg(args, kwargs, 1, "rows")
    costs = _arg(args, kwargs, 0, "costs")
    info["cells"] = len(rows) * (len(costs) + len(rows) + 1)
    if result is not None:
        info["status"] = result.status
        values = [result.value]
        for part in (result.x, result.duals, result.farkas, result.ray):
            values.extend(part or ())
        info["bits"] = _max_bits(values)


def _note_lp(info, args, kwargs, result, exc):
    if result is not None:
        info["status"] = result.status.value


def _note_decision(info, args, kwargs, result, exc):
    if exc is not None:
        info["indeterminate"] = type(exc).__name__ == "IndeterminateError"
    elif len(_arg(args, kwargs, 1, "states")) > 1:
        info["no_evidence"] = result.witness is None and result.certificate is None


def _note_build(info, args, kwargs, result, exc):
    info["nodes"] = _arg(args, kwargs, 0, "theory").num_generators
    info["N"] = _arg(args, kwargs, 1, "n_arity")
    if result is not None:
        info["edges"] = len(result.edges)


def _note_mc(info, args, kwargs, result, exc):
    if result is not None:
        info["trials"] = result.trials


def targets(P):
    """(module, attribute, span name, annotate) for every wrapped call."""
    return [
        (P.simplex, "solve_standard_min", "simplex.solve", _note_simplex),
        (P.lp, "solve_exact", "lp.exact", _note_lp),
        (P.lp, "solve_float", "lp.float", _note_lp),
        (P.lp, "check_solution", "lp.check", None),
        (P.lp, "verify_farkas", "lp.check", None),
        (P.discrimination, "is_perfectly_distinguishable", "discrimination.decide",
         _note_decision),
        (P.hypergraph, "is_perfectly_distinguishable", "discrimination.decide",
         _note_decision),
        (P.discrimination, "max_success_probability", "discrimination.psuccess", None),
        (P.capacity, "pairwise_distinguishable", "discrimination.pairwise", None),
        (P.hypergraph, "build_hypergraph", "hypergraph.build", _note_build),
        (P.hypergraph, "load_hypergraph", "hypergraph.load", None),
        (P.hypergraph, "save_hypergraph", "hypergraph.save", None),
        (P.hypergraph, "exact_max_clique", "clique.exact", None),
        (P.hypergraph, "greedy_max_clique", "clique.greedy", None),
        (P.capacity, "verify_hypercube_memory", "capacity.sweep", None),
        (P.capacity, "verify_witness", "capacity.witness", None),
        (P.capacity, "randomized_search", "capacity.mc", _note_mc),
        (P.cli, "reduce_to_pure_states", "theory.reduce", None),
        (P.cli, "build_family", "families.build", None),
        (P.cli, "run", "cli.run", None),
    ]


def install(recorder, P) -> None:
    for module, attr, name, annotate in targets(P):
        recorder.wrap(module, attr, name, annotate)


def _percentile(values, pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, batches: int) -> dict:
    """Per-layer metrics of `batches` traced batches; counts and times are
    per batch, latencies are per call."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)
    known = {n for names in SELF_TIME.values() for n in names} | {ROOT}
    unknown = set(by_name) - known
    if unknown:
        raise ValueError(f"spans without a layer: {sorted(unknown)}")

    def count(*names):
        return sum(len(by_name[n]) for n in names) / batches

    def self_s(*names):
        return sum(selfs[i] for n in names for i in by_name[n]) / batches

    def ms(name):
        return [spans[i].duration * 1e3 for i in by_name[name]]

    def under(name, ancestor):
        return [i for i in by_name[name]
                if any(spans[a].name == ancestor for a in ancestors(spans, i))]

    m = {metric: self_s(*names) for metric, names in SELF_TIME.items()}

    simplex = [spans[i].info for i in by_name["simplex.solve"]]
    m["simplex.calls"] = count("simplex.solve")
    m["simplex.call_p50_ms"] = _percentile(ms("simplex.solve"), 50)
    m["simplex.call_p99_ms"] = _percentile(ms("simplex.solve"), 99)
    m["simplex.tableau_cells"] = _mean([info["cells"] for info in simplex])
    m["simplex.max_bits"] = max([info.get("bits", 0) for info in simplex], default=0)
    m["simplex.stalled"] = sum(info.get("status") == "stalled" for info in simplex) / batches

    lps = [spans[i].info for n in ("lp.exact", "lp.float") for i in by_name[n]]
    m["lp.exact.calls"] = count("lp.exact")
    m["lp.float.calls"] = count("lp.float")
    m["lp.infeasible_share"] = (sum(info.get("status") == "infeasible" for info in lps)
                                / len(lps) if lps else 0.0)

    decide = [spans[i].info for i in by_name["discrimination.decide"]]
    decisions = len(decide)
    m["discrimination.decisions"] = decisions / batches
    m["discrimination.decide_p50_ms"] = _percentile(ms("discrimination.decide"), 50)
    m["discrimination.decide_p99_ms"] = _percentile(ms("discrimination.decide"), 99)
    lp_in_decisions = (len(under("lp.exact", "discrimination.decide"))
                       + len(under("lp.float", "discrimination.decide")))
    m["discrimination.lp_per_decision"] = lp_in_decisions / decisions if decisions else 0.0
    m["discrimination.psuccess_calls"] = count("discrimination.psuccess")
    m["discrimination.indeterminate"] = sum(bool(i.get("indeterminate")) for i in decide) / batches
    m["discrimination.no_evidence"] = sum(bool(i.get("no_evidence")) for i in decide) / batches

    m.update(_hypergraph_metrics(spans, by_name, batches))

    m["clique.exact_calls"] = count("clique.exact")
    m["clique.greedy_calls"] = count("clique.greedy")

    mc = by_name["capacity.mc"]
    mc_time = sum(spans[i].duration for i in mc)
    m["capacity.mc_trials_per_s"] = (sum(spans[i].info.get("trials", 0) for i in mc) / mc_time
                                     if mc_time else 0.0)

    m["theory.reduce_calls"] = count("theory.reduce")
    m["theory.reduce_lps"] = len(under("simplex.solve", "theory.reduce")) / batches

    m["trace.run_s"] = sum(spans[i].duration for i in by_name[ROOT]) / batches
    m["trace.unattributed_s"] = self_s(ROOT)
    return m


def _hypergraph_metrics(spans, by_name, batches: int) -> dict:
    builds = by_name["hypergraph.build"]
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(s.name)
    hits = [i for i in builds if "hypergraph.load" in children[i]]
    computed = [i for i in builds if i not in hits]
    misses = [i for i in computed if "hypergraph.save" in children[i]]
    decided = {i: children[i].count("discrimination.decide") for i in computed}
    edges = sum(spans[i].info.get("edges", 0) for i in computed)
    total_decided = sum(decided.values())
    pruned = n_subsets = 0
    for i in computed:
        info = spans[i].info
        if info["N"] >= 3:
            candidates = decided[i] - math.comb(info["nodes"], 2)
            n_subsets += math.comb(info["nodes"], info["N"])
            pruned += math.comb(info["nodes"], info["N"]) - candidates
    return {
        "hypergraph.build_calls": len(builds) / batches,
        "hypergraph.subsets_decided": total_decided / batches,
        "hypergraph.prune_ratio": pruned / n_subsets if n_subsets else 0.0,
        "hypergraph.edge_yield": edges / total_decided if total_decided else 0.0,
        "hypergraph.cache_hits": len(hits) / batches,
        "hypergraph.cache_misses": len(misses) / batches,
        "hypergraph.cache_hit_ms": _mean([spans[i].duration * 1e3 for i in hits]),
        "hypergraph.save_ms": _mean([spans[i].duration * 1e3
                                     for i in by_name["hypergraph.save"]]),
        "hypergraph.load_ms": _mean([spans[i].duration * 1e3
                                     for i in by_name["hypergraph.load"]]),
    }
