"""Distinguishability hypergraphs and N-complete clique search.

Nodes are pure-state indices of a reduced theory; hyperedges are the
perfectly distinguishable N-subsets. Construction goes level by level,
k = 2..N: a k-subset reaches the LP only when its (k-1)-subsets are all
edges of the level below, since subsets of a distinguishable set are.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence

from .discrimination import is_perfectly_distinguishable, moved_evidence, scale_evidence
from .parallel import parallel_map
from .theory import FLOAT, Theory, save_json, theory_to_json


@dataclass(frozen=True)
class DistinguishabilityHypergraph:
    n_arity: int
    num_nodes: int
    edges: frozenset  # of strictly increasing node tuples, each of length n_arity

    def __post_init__(self):
        if self.n_arity < 2 or self.num_nodes < 0:
            raise ValueError(f"need N >= 2 and num_nodes >= 0, got {self.n_arity} and "
                             f"{self.num_nodes}")
        for e in self.edges:
            if (len(e) != self.n_arity or not all(type(v) is int for v in e)
                    or e != tuple(sorted(set(e))) or not 0 <= e[0] <= e[-1] < self.num_nodes):
                raise ValueError(f"edge {e} is not an increasing {self.n_arity}-tuple "
                                 f"of nodes 0..{self.num_nodes - 1}")

    @functools.cached_property
    def links(self) -> dict:
        """Each (N-1)-subset, as an increasing tuple, mapped to the bitmask
        of the nodes that complete it to a hyperedge; not a field, so ==,
        the hash and the JSON skip it."""
        links: dict = {}
        for e in self.edges:
            for i, v in enumerate(e):
                key = e[:i] + e[i + 1:]
                links[key] = links.get(key, 0) | 1 << v
        return links


@dataclass(frozen=True)
class Clique:
    members: tuple

    def __len__(self):
        return len(self.members)


def _subset_distinguishable(theory: Theory, subset) -> tuple:
    """(distinguishable, its evidence: the witness or the Farkas vector for
    the states in the subset's order)."""
    states = [theory.generators[i] for i in subset]
    answer = is_perfectly_distinguishable(theory, states, validate=False)
    return answer.distinguishable, answer.witness if answer.distinguishable else answer.certificate


def _orbits(subsets: list, perms) -> list:
    """The orbits of the subsets under the permutations, found breadth
    first, each a list of (subset, perm) pairs: its representative (the
    first subset in input order) comes first with None, and perm maps the
    representative onto each other member element by element. Images
    outside the list are not followed."""
    unvisited = set(subsets)
    orbits = []
    for rep in subsets:
        if rep not in unvisited:
            continue
        unvisited.remove(rep)
        orbit = [(rep, None)]
        for subset, path in orbit:  # grows while it is read
            images = itemgetter(*subset)  # of at least 2 elements: returns a tuple
            for perm in perms:
                image = tuple(sorted(images(perm)))
                if image in unvisited:
                    unvisited.remove(image)
                    orbit.append((image, perm if path is None else itemgetter(*path)(perm)))
        orbits.append(orbit)
    return orbits


def _decide_orbit(theory: Theory, orbit) -> list:
    """The verdict on each member of the orbit, in order. The
    representative is decided by LP; every other member takes its evidence,
    moved along the member's permutation and re-checked by substitution,
    and is decided directly when the re-check fails. The evidence is
    scaled to integers once per orbit; no member builds a Fraction."""
    (rep, _), *members = orbit
    distinguishable, evidence = _subset_distinguishable(theory, rep)
    verdicts = [distinguishable]
    scaled = scale_evidence(evidence) if members else None
    for subset, perm in members:
        moved = moved_evidence(theory, [perm[x] for x in rep], scaled, perm)
        verdicts.append(distinguishable if moved is not None else
                        _subset_distinguishable(theory, subset)[0])
    return verdicts


def _filter_distinguishable(theory: Theory, subsets: list, workers: int) -> list:
    """The distinguishable subsets, in order. Each orbit under
    theory.symmetries is one work item of the pool (_decide_orbit)."""
    orbits = _orbits(subsets, theory.symmetries)
    decided = parallel_map(functools.partial(_decide_orbit, theory), orbits, workers)
    keep = {subset for orbit, verdicts in zip(orbits, decided)
            for (subset, _), verdict in zip(orbit, verdicts) if verdict}
    return [s for s in subsets if s in keep]


def theory_digest(theory: Theory) -> str:
    """Content hash of the theory; a float theory's tolerance is part of
    it, since the tolerance can change which subsets are distinguishable."""
    doc = theory_to_json(theory)
    if theory.numeric_mode == FLOAT:
        doc["tol"] = theory.tol
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def build_hypergraph(theory: Theory, n_arity: int, workers: int = 1,
                     cache_dir: Optional[str] = None) -> DistinguishabilityHypergraph:
    """Enumerate all perfectly distinguishable N-subsets of the pure states.

    The theory must already be reduced to its pure states. Level k = 2..N
    decides the k-subsets whose (k-1)-subsets are all edges of level k-1,
    level 1 being the single states. Results can be cached on disk keyed
    by (theory digest, N), where the digest covers a float theory's tolerance.

    One LP decides a whole orbit of subsets under theory.symmetries, the
    group computed from the theory itself on a cache miss, and each orbit is
    one work item of the pool. Each moved answer is re-checked, and a
    subset whose re-check fails gets its own LP, so the edges never depend
    on the group. A float theory, or one whose generators do not span, has
    no group: one LP per subset.
    """
    v = theory.num_generators
    if not 2 <= n_arity <= v:
        raise ValueError(f"N must lie in 2..{v}")

    cache_path = None
    if cache_dir:
        key = f"{theory_digest(theory)}-N{n_arity}"
        cache_path = os.path.join(cache_dir, f"{key}.json")
        if os.path.exists(cache_path):
            # An unreadable file is a miss: the rebuild below overwrites it.
            with contextlib.suppress(ValueError, OSError):
                h = load_hypergraph(cache_path)
                if h.num_nodes == v and h.n_arity == n_arity:
                    return h

    edges = [(x,) for x in range(v)]
    for k in range(2, n_arity + 1):
        level = set(edges)
        candidates = [e + (x,) for e in edges for x in range(e[-1] + 1, v)
                      if all(s in level for s in itertools.combinations(e + (x,), k - 1))]
        edges = _filter_distinguishable(theory, candidates, workers)

    h = DistinguishabilityHypergraph(n_arity, v, frozenset(edges))
    if cache_path:
        os.makedirs(cache_dir, exist_ok=True)
        save_hypergraph(h, cache_path)
    return h


def is_fully_connected(node: int, clique: Sequence[int],
                       h: DistinguishabilityHypergraph) -> bool:
    """Whether adding the node keeps the clique N-complete: every
    (N-1)-subset of the clique must extend to a hyperedge with it."""
    members = tuple(clique)
    if node in members:
        raise ValueError("node already belongs to the clique")
    if len(members) < h.n_arity - 1:
        raise ValueError(f"clique must have at least {h.n_arity - 1} members")
    # A node outside 0..num_nodes-1 lies on no hyperedge.
    return 0 <= node and all(h.links.get(sub, 0) >> node & 1
                             for sub in itertools.combinations(sorted(members), h.n_arity - 1))


def clique_is_valid(h: DistinguishabilityHypergraph, clique: Clique) -> bool:
    members = clique.members
    if len(members) < h.n_arity:
        return len(members) == 0
    return all(tuple(sorted(s)) in h.edges
               for s in itertools.combinations(sorted(members), h.n_arity))


def _better(candidate: tuple, best: tuple) -> bool:
    return len(candidate) > len(best) or (len(candidate) == len(best) and candidate < best)


def _completions(h: DistinguishabilityHypergraph, members: Sequence[int], node: int) -> int:
    """Bitmask of the nodes that extend members + (node,), given that they
    extend members: the AND over the (N-1)-subsets that contain node."""
    links = h.links
    mask = -1
    for sub in itertools.combinations(members, h.n_arity - 2):
        mask &= links.get(tuple(sorted(sub + (node,))), 0)
    return mask


def greedy_max_clique(h: DistinguishabilityHypergraph) -> Clique:
    """hClique-style expansion: grow each hyperedge once, scanning the
    remaining nodes in ascending index order. Maximal, not maximum.

    The candidates are a bitmask of the nodes that extend the grown set.
    A node that fails to extend it never extends a larger one, so taking
    the lowest candidate bit each time adds what the ascending scan adds."""
    best: tuple = ()
    links = h.links
    for edge in sorted(h.edges):
        candidates = -1
        for i in range(len(edge)):
            candidates &= links[edge[:i] + edge[i + 1:]]
        grown = list(edge)
        while candidates:
            low = candidates & -candidates
            node = low.bit_length() - 1
            candidates &= _completions(h, grown, node)
            grown.append(node)
        grown = tuple(sorted(grown))
        if _better(grown, best):
            best = grown
    return Clique(best)


def exact_max_clique(h: DistinguishabilityHypergraph, node_budget: int = 24) -> Clique:
    """True maximum N-complete set by depth-first branch and bound.

    Nodes are tried in ascending order, so the first maximum clique found,
    which is the one returned, is the lexicographically smallest. The
    candidates at each depth are a bitmask of the higher nodes that extend
    the current set."""
    if h.num_nodes > node_budget:
        raise ValueError(f"{h.num_nodes} nodes exceed the budget {node_budget}; use the greedy search")
    if not h.edges:
        return Clique(())
    n = h.n_arity
    best: tuple = ()

    def extend(q: tuple, candidates: int):
        nonlocal best
        if len(q) >= n and len(q) > len(best):
            best = q
        left = candidates.bit_count()
        if len(q) + left <= len(best):
            return
        while candidates:
            low = candidates & -candidates
            v = low.bit_length() - 1
            candidates ^= low
            extend(q + (v,), candidates & _completions(h, q, v))
            left -= 1
            if len(q) + left <= len(best):
                return

    extend((), (1 << h.num_nodes) - 1)
    return Clique(best)


# --- hypergraph JSON -------------------------------------------------------

def hypergraph_to_json(h: DistinguishabilityHypergraph) -> dict:
    return {"N": h.n_arity, "num_nodes": h.num_nodes,
            "edges": [list(e) for e in sorted(h.edges)]}


def hypergraph_from_json(doc: dict) -> DistinguishabilityHypergraph:
    try:
        n_arity, num_nodes = doc["N"], doc["num_nodes"]
        if type(n_arity) is not int or type(num_nodes) is not int:  # no float, str or bool
            raise ValueError(f"N and num_nodes must be integers, got {n_arity!r} and "
                             f"{num_nodes!r}")
        return DistinguishabilityHypergraph(n_arity, num_nodes,
                                            frozenset(tuple(e) for e in doc["edges"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed hypergraph JSON: {exc}") from exc


def save_hypergraph(h: DistinguishabilityHypergraph, path) -> None:
    save_json(hypergraph_to_json(h), path)


def load_hypergraph(path) -> DistinguishabilityHypergraph:
    with open(path) as fh:
        return hypergraph_from_json(json.load(fh))
