import contextlib
import functools
import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import (SYMMETRIC_FAMILIES, evidence_fractions, hypercube_symmetries, move,
                      moved_certificate, moved_evidence, orbit_words, plain_verify_witness,
                      planted, random_planar_theory, rechecks, reference_exact_max_clique,
                      reference_greedy_max_clique, reference_hints, scale_evidence,
                      subset_evidence)
from polygpt import discrimination, hypergraph, lp
from polygpt import theory as theory_module
from polygpt.discrimination import is_perfectly_distinguishable
from polygpt.families import (build_family, classical_simplex, codeword_state_index,
                              hypercube_theory, ngon_theory, prism_product, simplex_power)
from polygpt.hypergraph import (Clique, DistinguishabilityHypergraph, build_hypergraph,
                                clique_is_valid, exact_max_clique, greedy_max_clique,
                                hypergraph_from_json, hypergraph_to_json, is_fully_connected,
                                load_hypergraph, save_hypergraph)
from polygpt.fixtures import fixtures
from polygpt.linalg import integer_rows
from polygpt.parallel import MIN_POOLED_ITEMS, parallel_map
from polygpt.theory import FLOAT, Theory, load_theory, make_theory, save_theory, theory_from_json


def brute_hypergraph(theory, n):
    """Unpruned construction: every N-subset straight to the LP."""
    edges = set()
    for s in itertools.combinations(range(theory.num_generators), n):
        states = [theory.generators[i] for i in s]
        if is_perfectly_distinguishable(theory, states, validate=False).distinguishable:
            edges.add(s)
    return DistinguishabilityHypergraph(n, theory.num_generators, frozenset(edges))


def test_square_pairwise_graph_is_complete():
    h = build_hypergraph(hypercube_theory(2), 2)
    assert sorted(h.edges) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_square_triples_are_empty():
    h = build_hypergraph(hypercube_theory(2), 3)
    assert not h.edges


def test_simplex4_triples_all_present():
    h = build_hypergraph(classical_simplex(4), 3)
    assert sorted(h.edges) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_n_range_is_enforced():
    sq = hypercube_theory(2)
    for bad in (1, 5):
        with pytest.raises(ValueError):
            build_hypergraph(sq, bad)


def test_fully_connected():
    h = build_hypergraph(hypercube_theory(2), 2)
    assert is_fully_connected(3, (0, 1, 2), h)
    pent = build_hypergraph(ngon_theory(5), 2)
    assert not is_fully_connected(1, (0, 2), pent)
    with pytest.raises(ValueError):
        is_fully_connected(0, (0, 1), h)
    with pytest.raises(ValueError):
        is_fully_connected(0, (), h)
    for outside in (-1, -5, 4, 100):
        assert is_fully_connected(outside, (0, 1), h) is False


def test_greedy_on_empty_hypergraph():
    h = DistinguishabilityHypergraph(3, 4, frozenset())
    assert greedy_max_clique(h).members == ()
    assert exact_max_clique(h).members == ()


@pytest.mark.parametrize("family,n,size", [
    ("square", 2, 4), ("square", 3, 0),
    ("pentagon", 2, 2), ("pentagon", 3, 0),
    ("cube", 2, 8), ("simplex3x3", 2, 9), ("simplex3x3", 3, 4),
])
def test_greedy_matches_exact_on_fixtures(family, n, size):
    theories = {
        "square": hypercube_theory(2),
        "pentagon": ngon_theory(5),
        "cube": hypercube_theory(3),
        "simplex3x3": prism_product(classical_simplex(3), classical_simplex(3)),
    }
    t = theories[family]
    h = build_hypergraph(t, n)
    greedy = greedy_max_clique(h)
    exact = exact_max_clique(h)
    assert len(exact) == size
    assert len(greedy) == len(exact)
    assert clique_is_valid(h, greedy)
    assert clique_is_valid(h, exact)
    # Soundness: re-certify a sample of the winning clique's subsets by LP.
    rng = random.Random(7)
    subsets = list(itertools.combinations(exact.members, n))
    for s in rng.sample(subsets, min(5, len(subsets))):
        states = [t.generators[i] for i in s]
        assert is_perfectly_distinguishable(t, states, validate=False).distinguishable


def test_hypercube_cliques_reach_all_vertices():
    for m in (1, 2, 3, 4):
        h = build_hypergraph(hypercube_theory(m), 2)
        assert len(greedy_max_clique(h)) == 2 ** m
        if 2 ** m <= 24:
            assert len(exact_max_clique(h)) == 2 ** m


def test_simplex_pairwise_clique_is_d():
    for d in (2, 3, 4, 5):
        h = build_hypergraph(classical_simplex(d), 2)
        assert len(exact_max_clique(h)) == d


def test_exact_budget_refusal():
    h = build_hypergraph(classical_simplex(3), 2)
    with pytest.raises(ValueError):
        exact_max_clique(h, node_budget=2)


def test_pairwise_prefilter_matches_brute_force_up_to_10_nodes():
    cases = [(classical_simplex(4), 3), (hypercube_theory(2), 3),
             (hypercube_theory(3), 2), (hypercube_theory(3), 3)]
    for seed in (1, 2):
        t = random_planar_theory(seed)
        if 3 <= t.num_generators <= 10:
            cases.append((t, 3))
    for t, n in cases:
        assert t.num_generators <= 10
        pruned = build_hypergraph(t, n)
        assert pruned.edges == brute_hypergraph(t, n).edges


def _float_cube():
    cube = hypercube_theory(3)
    return make_theory("cube", cube.unit, cube.generators, numeric_mode=FLOAT)


@pytest.mark.parametrize("make,n,size", [
    (lambda: classical_simplex(5), 4, 5),
    (lambda: classical_simplex(6), 5, 6),
    (lambda: hypercube_theory(3), 4, 0),
    (_float_cube, 4, 0),
    (lambda: theory_from_json(fixtures()["cube"]["theory"]), 4, 0),
    (lambda: theory_from_json(fixtures()["s3-prism-s3"]["theory"]), 4, 0),
    (lambda: ngon_theory(8), 4, 0),
], ids=["simplex-d5-N4", "simplex-d6-N5", "hypercube-m3-N4", "float-hypercube-m3-N4",
        "cube-fixture-N4", "s3-prism-s3-N4", "ngon-n8-N4"])
def test_level_by_level_build_matches_brute_force_beyond_triples(make, n, size):
    theory = make()
    h = build_hypergraph(theory, n)
    assert h == brute_hypergraph(theory, n) and len(h.edges) == size


def test_no_4_subset_is_decided_when_no_triple_is_an_edge(monkeypatch):
    # Every pair of the 3-cube is an edge and no triple is; pruning through
    # the pairs alone would leave all 70 4-subsets to decide. No group is
    # planted, so each candidate subset is decided on its own.
    sizes = []
    decide = hypergraph._subset_distinguishable

    def counted(theory, subset):
        sizes.append(len(subset))
        return decide(theory, subset)

    monkeypatch.setattr(hypergraph, "_subset_distinguishable", counted)
    assert not build_hypergraph(planted(hypercube_theory(3), ()), 4).edges
    assert sizes == [2] * 28 + [3] * 56


def test_oracle_dominates_greedy_on_random_hypergraphs():
    rng = random.Random(99)
    for _ in range(30):
        nodes = rng.randint(3, 9)
        n = rng.randint(2, 3)
        if n > nodes:
            continue
        all_edges = list(itertools.combinations(range(nodes), n))
        edges = frozenset(e for e in all_edges if rng.random() < 0.5)
        h = DistinguishabilityHypergraph(n, nodes, edges)
        g = greedy_max_clique(h)
        x = exact_max_clique(h)
        assert len(x) >= len(g)
        assert clique_is_valid(h, g) and clique_is_valid(h, x)


def _random_hypergraph(seed, n, nodes, p):
    """Each N-subset is an edge with probability p; p = None gives the complete hypergraph."""
    rng = random.Random(seed)
    return DistinguishabilityHypergraph(n, nodes, frozenset(
        s for s in itertools.combinations(range(nodes), n) if p is None or rng.random() < p))


_SHAPES = [  # (N, nodes, edge probability, whether the exact search runs too)
    *((n, nodes, 0.0, True) for n, nodes in ((2, 6), (3, 7), (4, 8))),
    *((n, nodes, None, True) for n, nodes in ((2, 12), (3, 10), (4, 9))),
    *((n, nodes, None, True) for n in (2, 3, 4) for nodes in range(n)),
    # The clique-search benchmark's exact and greedy shapes, and its K32.
    (2, 24, 0.85, True), (3, 22, 0.85, True), (2, 64, 0.5, False), (3, 36, 0.6, False),
    (2, 32, None, False),
]


@pytest.mark.parametrize("n,nodes,p,exact", _SHAPES)
def test_searches_match_the_list_based_reference_on_shapes(n, nodes, p, exact):
    for seed in (1, 2):
        h = _random_hypergraph(seed, n, nodes, p)
        assert greedy_max_clique(h).members == reference_greedy_max_clique(h)
        if exact:
            assert exact_max_clique(h).members == reference_exact_max_clique(h)


def test_greedy_keeps_the_lexicographically_smaller_tie():
    # The growth of (0, 6) takes node 1 and can then reach only
    # {0, 1, 6, 7}: as large as the best so far, (0, 4, 6, 7), but smaller.
    # A prune on size alone (bound <= best) would stop it there.
    edges = frozenset({(0, 1), (0, 4), (0, 5), (0, 6), (0, 7), (1, 5), (1, 6), (1, 7), (2, 4),
                       (2, 7), (3, 4), (3, 5), (3, 6), (3, 7), (4, 6), (4, 7), (6, 7)})
    h = DistinguishabilityHypergraph(2, 8, edges)
    assert greedy_max_clique(h).members == reference_greedy_max_clique(h) == (0, 1, 6, 7)


def test_greedy_on_k64_is_every_node():
    # The 6-cube's pairs; the list-based reference is too slow to run here.
    h = _random_hypergraph(0, 2, 64, None)
    assert greedy_max_clique(h).members == tuple(range(64))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_searches_match_the_list_based_reference_on_random_hypergraphs(n):
    rng = random.Random(n)
    for seed in range(40):
        h = _random_hypergraph(seed, n, rng.randint(n, 14), rng.uniform(0.3, 0.95))
        assert greedy_max_clique(h).members == reference_greedy_max_clique(h)
        assert exact_max_clique(h).members == reference_exact_max_clique(h)


def test_links_leave_equality_hash_and_json_unchanged():
    h = DistinguishabilityHypergraph(3, 5, frozenset({(0, 1, 2), (0, 1, 3), (1, 2, 4)}))
    fresh = DistinguishabilityHypergraph(3, 5, h.edges)
    doc = hypergraph_to_json(fresh)
    assert h.links == {(0, 1): 0b1100, (0, 2): 0b10, (1, 2): 0b10001, (0, 3): 0b10,
                       (1, 3): 0b1, (1, 4): 0b100, (2, 4): 0b10}
    assert "links" in vars(h) and "links" not in vars(fresh)
    assert h == fresh and hash(h) == hash(fresh) and hypergraph_to_json(h) == doc


def test_max_clique_monotone_in_edges():
    rng = random.Random(5)
    nodes, n = 7, 3
    all_edges = list(itertools.combinations(range(nodes), n))
    edges = set(e for e in all_edges if rng.random() < 0.4)
    base = len(exact_max_clique(DistinguishabilityHypergraph(n, nodes, frozenset(edges))))
    for extra in all_edges:
        if extra in edges:
            continue
        grown = len(exact_max_clique(
            DistinguishabilityHypergraph(n, nodes, frozenset(edges | {extra}))))
        assert grown >= base


def test_pairwise_clique_never_exceeds_four_in_the_plane():
    # The planar slice of the general bound: 30 seeded polytopes here, the
    # acceptance suite runs the full 200.
    for seed in range(30):
        t = random_planar_theory(seed)
        if t.num_generators < 2:
            continue
        h = build_hypergraph(t, 2)
        assert len(exact_max_clique(h)) <= 4


def test_json_roundtrip_and_files(tmp_path):
    h = build_hypergraph(hypercube_theory(2), 2)
    doc = hypergraph_to_json(h)
    assert doc["N"] == 2 and doc["num_nodes"] == 4
    assert hypergraph_from_json(json.loads(json.dumps(doc))) == h
    path = tmp_path / "square.json"
    save_hypergraph(h, path)
    assert load_hypergraph(path) == h
    with pytest.raises(ValueError):
        hypergraph_from_json({"N": 2})


@pytest.mark.parametrize("save,load,old,new", [
    pytest.param(save_hypergraph, load_hypergraph, build_hypergraph(hypercube_theory(2), 2),
                 build_hypergraph(hypercube_theory(2), 3), id="hypergraph"),
    pytest.param(save_theory, load_theory, hypercube_theory(2), hypercube_theory(3),
                 id="theory"),
])
def test_failed_save_keeps_the_old_file_and_leaves_no_partial_one(tmp_path, monkeypatch,
                                                                  save, load, old, new):
    path = tmp_path / "square.json"
    save(old, path)
    before = path.read_bytes()

    def broken_dump(doc, fh, **kwargs):
        fh.write('{"N": 3, "edg')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    with pytest.raises(OSError):
        save(new, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["square.json"]
    monkeypatch.undo()
    assert load(path) == old


def test_cache_roundtrip(tmp_path):
    t = hypercube_theory(2)
    first = build_hypergraph(t, 2, cache_dir=str(tmp_path))
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    again = build_hypergraph(t, 2, cache_dir=str(tmp_path))
    assert first == again


def test_a_cache_hit_computes_no_group(tmp_path, monkeypatch):
    missed = build_hypergraph(hypercube_theory(3), 2, cache_dir=str(tmp_path))

    def no_search(theory):
        raise AssertionError("a cache hit searched for the symmetry group")

    monkeypatch.setattr(theory_module, "_symmetry_generators", no_search)
    fresh = hypercube_theory(3)  # its group is not cached yet
    assert build_hypergraph(fresh, 2, cache_dir=str(tmp_path)) == missed
    assert not {"symmetries", "_symmetry_candidates"} & vars(fresh).keys()
    with pytest.raises(AssertionError, match="searched"):
        build_hypergraph(hypercube_theory(3), 2)


def test_unreadable_cache_file_is_a_miss(tmp_path, monkeypatch):
    t = hypercube_theory(2)
    loads = []

    def counting_load(path):
        loads.append(path)
        return load_hypergraph(path)

    monkeypatch.setattr(hypergraph, "load_hypergraph", counting_load)
    good = build_hypergraph(t, 2, cache_dir=str(tmp_path))
    assert loads == []  # a plain miss reads nothing
    [path] = tmp_path.iterdir()
    healthy = path.read_bytes()
    path.write_bytes(healthy[:len(healthy) // 2])  # truncated
    assert build_hypergraph(t, 2, cache_dir=str(tmp_path)) == good
    assert len(loads) == 1 and path.read_bytes() == healthy
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_a_cache_file_for_another_n_is_a_miss(tmp_path):
    square = hypercube_theory(2)
    pairs = build_hypergraph(square, 2, cache_dir=str(tmp_path))
    [pair_file] = tmp_path.iterdir()
    triple_file = tmp_path / pair_file.name.replace("-N2.json", "-N3.json")
    triple_file.write_bytes(pair_file.read_bytes())  # the N=2 edges under the N=3 key
    triples = build_hypergraph(square, 3, cache_dir=str(tmp_path))
    assert pairs.edges and triples.n_arity == 3 and not triples.edges
    assert load_hypergraph(triple_file) == triples  # the rebuild overwrote it


def _parallel_map_in_order(workers):
    # Fewer items than the pool threshold run in-process; the descending
    # list shows that pooled chunks come back in input order.
    lists = (list(range(MIN_POOLED_ITEMS - 1)), list(range(5 * MIN_POOLED_ITEMS, 0, -1)))
    results = [parallel_map(hex, items, workers) for items in lists]
    assert results == [[hex(x) for x in items] for items in lists]
    return results


@pytest.mark.parametrize("run", [
    pytest.param(lambda w: build_hypergraph(hypercube_theory(3), 2, workers=w),
                 id="hypercube-m3-N2"),
    # N=3 prunes through the pair graph, then pools the candidate stage.
    pytest.param(lambda w: build_hypergraph(simplex_power(3, 2), 3, workers=w),
                 id="simplex-power-q3-l2-N3"),
    # The tolerance travels to the workers inside the pickled theory.
    pytest.param(lambda w: build_hypergraph(replace(ngon_theory(7), tol=1e-7), 2, workers=w),
                 id="float-ngon-n7-tol1e-7"),
    pytest.param(_parallel_map_in_order, id="parallel-map-few-and-many"),
])
def test_parallel_workers_agree_with_sequential(run):
    assert run(2) == run(1)


@pytest.mark.parametrize("n,n_arity,edges", [(3, 2, 3), (3, 3, 1), (6, 2, 9), (6, 3, 0)])
def test_exact_triangle_and_hexagon(n, n_arity, edges):
    # Every pair of the triangle; the hexagon's opposite and next-but-one pairs.
    h = build_hypergraph(ngon_theory(n), n_arity)
    assert ngon_theory(n).numeric_mode == "exact" and len(h.edges) == edges


def test_clique_invariant_rejects_non_complete_sets():
    h = build_hypergraph(ngon_theory(5), 2)
    assert not clique_is_valid(h, Clique((0, 1, 2)))


# --- one LP per symmetry orbit ------------------------------------------------

ORBIT_BUILDS = ([(f"hypercube:m={m}", 2) for m in range(1, 6)]
                + [(f"hypercube:m={m}", 3) for m in range(2, 5)]
                + [(f"simplex:d={d}", n) for d in range(3, 6) for n in (2, 3)]
                + [(f"simplex-power:q={q},l={l}", n) for q, l in ((2, 2), (3, 2), (2, 3))
                   for n in (2, 3)]
                + [(f"ngon:n={n}", k) for n in (3, 4, 6) for k in (2, 3)]
                + [("prism:simplex:d=3+hypercube:m=2", n) for n in (2, 3)])


@functools.cache
def direct_build(spec, n_arity):
    """The build with one LP per subset: no group planted."""
    return build_hypergraph(planted(build_family(spec), ()), n_arity)


def orbit_lps(theory, spec, n_arity):
    """The LPs of an orbit build: the orbits of each level's candidates
    under the checked group, each level's edges taken from the direct build."""
    v, lps = theory.num_generators, 0
    for k in range(2, n_arity + 1):
        below = direct_build(spec, k - 1).edges if k > 2 else {(x,) for x in range(v)}
        candidates = [s for s in itertools.combinations(range(v), k)
                      if all(sub in below for sub in itertools.combinations(s, k - 1))]
        lps += len(theory_module.orbits(candidates, theory.symmetries))
    return lps


@contextlib.contextmanager
def counted_decisions():
    """The state tuples of the hypergraph.is_perfectly_distinguishable calls
    made in this process, one per decision. Calls made in pool workers are
    not seen, so the list is complete only when no pool starts: at 1
    worker, or with fewer than MIN_POOLED_ITEMS orbits in every level."""
    decided = []
    decide = hypergraph.is_perfectly_distinguishable

    def counted(theory, states, **kwargs):
        decided.append(states)
        return decide(theory, states, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypergraph, "is_perfectly_distinguishable", counted)
        yield decided


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec,n_arity", ORBIT_BUILDS)
def test_orbit_build_equals_the_direct_build(spec, n_arity, workers):
    theory = build_family(spec)
    with counted_decisions() as decided:
        h = build_hypergraph(theory, n_arity, workers=workers)
    assert h == direct_build(spec, n_arity)
    assert theory.symmetries == theory._symmetry_candidates  # the search's output passes its check
    assert len(decided) < math.comb(theory.num_generators, 2) or theory.num_generators <= 2
    if workers == 1:  # one LP per orbit
        assert len(decided) == orbit_lps(theory, spec, n_arity)


@pytest.mark.parametrize("spec,n_arity", sorted({*ORBIT_BUILDS,
                                                 *((spec, 2) for spec in SYMMETRIC_FAMILIES)}))
def test_every_orbit_member_takes_a_certificate_from_its_representative(spec, n_arity):
    # A member takes its representative's verdict. Its certificate is the
    # representative's witness or Farkas vector moved along the word that
    # maps the representative onto it, and that passes the reference
    # re-check by substitution on the member's states.
    theory = build_family(spec)
    v, perms = theory.num_generators, theory.symmetries
    members = 0
    for orbit in theory_module.orbits(list(itertools.combinations(range(v), n_arity)), perms):
        rep = orbit[0]
        scaled = scale_evidence(subset_evidence(theory, rep))
        for word in orbit_words(orbit, perms, v).values():
            assert moved_evidence(theory, [word[x] for x in rep], scaled, word) is not None
            members += 1
    assert members == math.comb(v, n_arity)


@pytest.mark.parametrize("spec,n_arity", [("hypercube:m=3", 2), ("hypercube:m=3", 3),
                                           ("simplex-power:q=3,l=2", 3)])
def test_evidence_moves_along_every_proven_generator_and_back(spec, n_arity):
    theory = build_family(spec)
    symmetries = theory.symmetries
    inverses = [tuple(sorted(range(len(perm)), key=perm.__getitem__)) for perm in symmetries]
    reordered = 0
    for subset in itertools.combinations(range(theory.num_generators), n_arity):
        evidence = subset_evidence(theory, subset)
        scaled = scale_evidence(evidence)
        for perm, inverse in zip(symmetries, inverses):
            image = tuple(perm[x] for x in subset)  # the moved order, not sorted
            reordered += image != tuple(sorted(image))
            moved = moved_evidence(theory, image, scaled, perm)
            assert moved is not None
            back = moved_evidence(theory, subset, moved, inverse)
            assert evidence_fractions(back) == evidence
    assert reordered > 0


def test_the_identity_leaves_a_certificate_unchanged():
    cube = hypercube_theory(3)
    cert = subset_evidence(cube, (0, 1, 2))
    assert not isinstance(cert, discrimination.Measurement)
    assert moved_certificate(cert, tuple(range(8)), 8) == cert


@pytest.mark.parametrize("perm", [(0, 1, 2, 3), (1, 0, 2, 3), (0, 0, 2, 3), (0, 1, 2),
                                  (0, 1, 2, 3, 4)],
                         ids=["identity", "vertex-swap", "not-one-to-one", "short", "long"])
def test_the_check_keeps_only_symmetries(perm):
    # Two exchanged vertices of the square are no symmetry; the identity is.
    square = hypercube_theory(2)
    checked = planted(square, (perm, *square.symmetries)).symmetries
    assert checked == ((perm,) if perm == (0, 1, 2, 3) else ()) + square.symmetries


def test_a_non_symmetry_only_costs_lps():
    cube = hypercube_theory(3)
    swap = (1, 0, *range(2, 8))  # two vertices of the cube exchanged: no symmetry
    for n_arity in (2, 3):
        theory = planted(cube, (swap,))
        with counted_decisions() as decided:
            h = build_hypergraph(theory, n_arity)
        assert theory.symmetries == ()
        assert h == direct_build("hypercube:m=3", n_arity)
        # Every pair of the cube is an edge, so each level decides all its k-subsets.
        assert len(decided) == sum(math.comb(8, k) for k in range(2, n_arity + 1))


# The levels below have at least MIN_POOLED_ITEMS orbits, so at 2 workers
# the orbits are decided in the pool, where counted_decisions sees nothing.
def test_a_pooled_orbit_build_equals_the_one_worker_build():
    spec = "simplex-power:q=3,l=3"
    symmetries = reference_hints(spec)
    # Every pair is an edge, so the triple candidates are all 2,925 triples.
    triples = list(itertools.combinations(range(27), 3))
    assert len(theory_module.orbits(triples, symmetries)) == 10 >= MIN_POOLED_ITEMS
    pooled, single = (build_hypergraph(planted(build_family(spec), symmetries), 3, workers=w)
                      for w in (2, 1))
    assert pooled == single and len(pooled.edges) == 1737


def test_a_non_symmetry_in_the_pool_keeps_the_edges():
    # The check drops the swap, so each of the 28 pairs and 56 triples is
    # its own orbit, and the pool decides them.
    cube = hypercube_theory(3)
    swap = (1, 0, *range(2, 8))
    for n_arity in (2, 3):
        h = build_hypergraph(planted(cube, (swap,)), n_arity, workers=2)
        assert h == direct_build("hypercube:m=3", n_arity)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_false_hint_that_joins_edges_and_non_edges_keeps_the_edges(workers):
    # The 9-cycle on the generators of simplex-power(3,2) is no symmetry:
    # some of its 10 triple orbits hold edges and non-edges alike.
    cycle = (*range(1, 9), 0)
    theory = planted(simplex_power(3, 2), (cycle,))
    h = build_hypergraph(theory, 3, workers=workers)
    assert h == direct_build("simplex-power:q=3,l=2", 3) and len(h.edges) == 48
    assert theory.symmetries == ()
    orbits = theory_module.orbits(list(itertools.combinations(range(9), 3)), [cycle])
    assert len(orbits) == 10 and any(len({s in h.edges for s in o}) == 2 for o in orbits)


def test_a_corrupted_generator_is_dropped_and_the_true_ones_kept():
    # Each reference generator of the cube's group with the images of
    # vertices 0 and 1 exchanged is no symmetry. The check drops those and
    # keeps the true generators beside them, so the build still makes one
    # LP per orbit of the full group.
    true = hypercube_symmetries(3)
    corrupted = tuple((p[1], p[0], *p[2:]) for p in true)
    theory = planted(hypercube_theory(3), corrupted + true)
    with counted_decisions() as decided:
        h = build_hypergraph(theory, 3)
    assert theory.symmetries == true
    assert h == direct_build("hypercube:m=3", 3)
    assert len(decided) == sum(len(theory_module.orbits(list(itertools.combinations(range(8), k)),
                                                      true)) for k in (2, 3))


def corruptions(scaled):
    """scaled with one entry changed (in each row, the first nonzero entry
    negated, or the last entry raised by one); a witness with its effects
    reversed or its last effect dropped; a Farkas vector without its last
    entry or with a zero inserted before it (one state row too many)."""
    for r, row in enumerate(scaled.rows):
        k = next(k for k, v in enumerate(row) if v != 0)
        for j, value in ((k, -row[k]), (len(row) - 1, row[-1] + 1)):
            rows = list(scaled.rows)
            rows[r] = (*row[:j], value, *row[j + 1:])
            yield replace(scaled, rows=tuple(rows))
    if scaled.witness:
        yield from (replace(scaled, rows=scaled.rows[::-1]), replace(scaled, rows=scaled.rows[:-1]))
    else:
        yield from (replace(scaled, rows=(scaled.rows[0][:-1],)),
                    replace(scaled, rows=(scaled.rows[0][:-1] + (0,) + scaled.rows[0][-1:],)))


def extrapolations(theory, indices, moved):
    """2x - y and 3x - 2y for the moved evidence x and the LP's own
    evidence y on the same states, when both are witnesses or both Farkas
    vectors. Affine combinations keep the sum of the effects, the delta
    conditions and a Farkas vector's combination of rows, so they test the
    bounds, the signs and the right-hand side alone."""
    own = scale_evidence(subset_evidence(theory, indices))
    if own.witness != moved.witness:
        return
    for a in (2, 3):
        rows, den = integer_rows([[a * F(x, moved.den) - (a - 1) * F(y, own.den)
                                   for x, y in zip(r, s)] for r, s in zip(moved.rows, own.rows)])
        yield replace(moved, rows=tuple(map(tuple, rows)), den=den)


@pytest.mark.parametrize("spec,n_arity,hint", [
    ("hypercube:m=3", 2, None), ("hypercube:m=3", 3, None),
    ("hypercube:m=3", 2, (1, 0, *range(2, 8))), ("hypercube:m=3", 3, (1, 0, *range(2, 8))),
    ("simplex-power:q=3,l=2", 3, None), ("simplex-power:q=3,l=2", 3, (*range(1, 9), 0)),
    ("ngon:n=6", 2, None),
], ids=["cube-N2", "cube-N3", "cube-swap-N2", "cube-swap-N3", "simplex-power-N3",
        "simplex-power-9-cycle-N3", "hexagon-N2"])
def test_the_integer_recheck_agrees_with_the_fraction_verifiers(spec, n_arity, hint):
    # Every orbit member's moved evidence, along the family's generators or
    # a false hint, its corruptions and its extrapolations: the integer
    # re-check answers as the plain Fraction formula of a witness, or exact
    # lp.verify_farkas, does on the same evidence in Fractions.
    theory = build_family(spec)
    v = theory.num_generators
    perms = theory.symmetries if hint is None else (hint,)
    subsets = list(itertools.combinations(range(v), n_arity))
    verdicts = {True: 0, False: 0}
    for orbit in theory_module.orbits(subsets, perms):
        rep = orbit[0]
        scaled = scale_evidence(subset_evidence(theory, rep))
        for member, perm in orbit_words(orbit, perms, v).items():
            if member == rep:
                continue
            indices = [perm[x] for x in rep]
            states = [theory.generators[k] for k in indices]
            moved = move(theory, scaled, perm)
            for candidate in (moved, *corruptions(moved),
                              *extrapolations(theory, indices, moved)):
                fractions = evidence_fractions(candidate)
                expected = (plain_verify_witness(theory, states, fractions)
                            if candidate.witness else lp.verify_farkas(
                                discrimination._feasibility_problem(theory, states), fractions))
                assert rechecks(theory, indices, candidate) == expected
                verdicts[expected] += 1
    # Each comparison above saw a failing check; the true generators' moves
    # pass too, while the swap fails every move of a triple.
    assert verdicts[False] > 0 and (verdicts[True] > 0 or hint is not None)


@pytest.mark.parametrize("last,expected", [
    ((0, 0, 1), True), ((F(1, 2), F(1, 2), 0), True),
    ((F(-1, 2), F(3, 4), F(3, 4)), False),  # only e_1 . g_3 >= 0 fails
    ((1, 1, -1), False),  # only e_3 . g_3 >= 0 fails
])
def test_the_witness_recheck_bounds_every_effect(last, expected):
    # States 0, 1, 2 of the tetrahedron; effect i is 1 on g_i and last[i]
    # on g_3, so the effects sum to u and answer their states exactly.
    tetrahedron = classical_simplex(4)
    effects = [tuple(F(i == j) for j in range(3)) + (F(a),) for i, a in enumerate(last)]
    meas = discrimination.Measurement(tuple(effects))
    scaled = scale_evidence(meas)
    states = tetrahedron.generators[:3]
    assert plain_verify_witness(tetrahedron, states, meas) == expected
    assert discrimination.verify_witness(tetrahedron, states, meas) == expected
    assert rechecks(tetrahedron, (0, 1, 2), scaled) == expected


# A float theory, or an exact one whose generators do not span (the square
# in four dimensions), has no group, not even with true symmetries planted
# as the search's output: build_hypergraph makes one LP per pair.
@pytest.mark.parametrize("theory,true", [
    (make_theory("cube", hypercube_theory(3).unit, hypercube_theory(3).generators,
                 numeric_mode=FLOAT), hypercube_symmetries(3)),
    (ngon_theory(7), ((*range(1, 7), 0),)),
    (Theory("flat-square", 4, (F(1), F(0), F(0), F(0)),
            tuple(g + (F(0),) for g in hypercube_theory(2).generators)), hypercube_symmetries(2)),
], ids=["float-hypercube-m3", "ngon-n7", "non-spanning-exact"])
def test_float_theories_keep_one_lp_per_pair(theory, true):
    assert theory.symmetries == planted(theory, true).symmetries == ()
    with counted_decisions() as decided:
        h = build_hypergraph(theory, 2)
    assert h == build_hypergraph(planted(theory, ()), 2)
    assert len(decided) == math.comb(theory.num_generators, 2)


# --- the LP-free oracle on simplex powers ---------------------------------------

def component_oracle_edges(q, l, n_arity):
    """The N-subsets of simplex-power(q, l) in which some coordinate holds N
    pairwise different symbols, the codeword of each generator read through
    families.codeword_state_index."""
    words = {codeword_state_index(q, w): w
             for w in itertools.product(range(1, q + 1), repeat=l)}
    return [s for s in itertools.combinations(range(q ** l), n_arity)
            if any(len({words[k][c] for k in s}) == n_arity for c in range(l))]


@pytest.mark.parametrize("n_arity, q, l", [
    (3, 2, 2), (3, 2, 3), (3, 2, 4), (3, 2, 5), (3, 3, 2), (3, 3, 3), (3, 4, 2),
    (3, 5, 2), (3, 6, 2), (4, 2, 4), (4, 3, 2), (4, 3, 3), (4, 4, 2), (4, 5, 2)])
def test_simplex_power_edges_equal_the_component_oracle(n_arity, q, l):
    # An N-subset of codewords is perfectly distinguishable exactly when
    # some coordinate tells all N apart (ROADMAP item 11).
    h = build_hypergraph(simplex_power(q, l), n_arity)
    assert sorted(h.edges) == component_oracle_edges(q, l, n_arity)
