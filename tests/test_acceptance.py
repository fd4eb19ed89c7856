"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line each (run with -s to see the lines as they complete)."""

import itertools
import json
import math
import random
import time
from decimal import Decimal, getcontext
from fractions import Fraction as F

from conftest import (linearly_independent, mat_vec, nwise_distinguishable_by_lp,
                      random_lifted_theory, random_planar_theory, random_invertible_matrix)
from polygpt import cli, lp
from polygpt.capacity import (failure_probability_bound, kappa_pairwise, probabilistic_params,
                              randomized_search, sample_random_code,
                              verify_hypercube_memory, verify_nwise_by_components)
from polygpt.discrimination import (instance_from_indices, is_perfectly_distinguishable,
                                    max_success_probability, verify_witness)
from polygpt.families import (classical_simplex, codeword_state_index, hypercube_theory,
                              ngon_theory, prism_product, simplex_power)
from polygpt.hypergraph import (build_hypergraph, exact_max_clique, greedy_max_clique)
from polygpt.linalg import dot
from polygpt.theory import (Measurement, Theory, conic_weights, is_measurement,
                            reduce_to_pure_states)


def _report(label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_1_hypercube_optimality_m_1_to_6(tmp_path):
    start = time.monotonic()
    all_ok = True
    for m in range(1, 7):
        report = verify_hypercube_memory(m, workers=2)
        all_ok &= report.verified and report.dimension == m + 1
    # the CLI surface reports the same verdict
    cli_out = tmp_path / "vh3.json"
    code = cli.run(["verify-hypercube", "--m", "3", "--workers", "2",
                    "--out", str(cli_out)])
    out = json.loads(cli_out.read_text())
    elapsed = time.monotonic() - start
    all_ok &= code == 0 and out["verified"] is True
    all_ok &= elapsed < 300
    _report(f"criterion 1: hypercube pairs verified by witness + exact LP for m=1..6 "
            f"({elapsed:.0f}s)", all_ok)


def test_criterion_2_compression_factor_table():
    getcontext().prec = 40
    ok = kappa_pairwise(3) == 1.5
    for m in range(1, 21):
        ref = Decimal(m) / (Decimal(m + 1).ln() / Decimal(2).ln())
        mine = Decimal(repr(kappa_pairwise(m)))
        ok &= abs(mine - ref) <= abs(ref) * Decimal("1e-12")
    _report("criterion 2: kappa(2,m) matches m/log2(m+1) to 12 digits for m=1..20, "
            "kappa(2,3)=1.5 exactly", ok)


def test_criterion_3_planar_bound():
    square = build_hypergraph(hypercube_theory(2), 2)
    ok = len(exact_max_clique(square)) == 4
    violations = 0
    for seed in range(200):
        t = random_planar_theory(seed)
        if t.num_generators < 2:
            continue
        if len(exact_max_clique(build_hypergraph(t, 2))) > 4:
            violations += 1
    ok &= violations == 0
    _report("criterion 3: square pairwise clique = 4; 200 random planar theories "
            "never exceed 4", ok)


def test_criterion_4_appendix_c_counterexample():
    cube = hypercube_theory(3)
    states = [tuple(F(v) for v in s) for s in
              [(1, 1, 1, 1), (1, -1, 1, -1), (1, -1, -1, 1)]]
    effects = ((F(1, 2), F(1, 2), F(0), F(0)),
               (F(1, 2), F(0), F(0), F(-1, 2)),
               (F(1, 2), F(0), F(-1, 2), F(0)))
    ans = is_perfectly_distinguishable(cube, states, validate=False)
    ok = not ans.distinguishable
    ok &= lp.verify_farkas(ans.problem, ans.certificate)
    delta_ok = all(dot(e, s) == (1 if i == j else 0)
                   for i, e in enumerate(effects) for j, s in enumerate(states))
    ok &= delta_ok
    total = tuple(sum(e[k] for e in effects) for k in range(4))
    ok &= total == (F(3, 2), F(1, 2), F(-1, 2), F(-1, 2)) and total != cube.unit
    ok &= not is_measurement(cube, Measurement(effects))
    ok &= not verify_witness(cube, states, Measurement(effects))
    _report("criterion 4: appendix triple refused with verified Farkas certificate; "
            "delta-effects exist but are no measurement", ok)


def test_criterion_5_example_10_counterexample():
    t = simplex_power(2, 2)
    idxs = [codeword_state_index(2, w) for w in [(1, 1), (1, 2), (2, 1)]]
    states = [t.generators[i] for i in idxs]
    ans = is_perfectly_distinguishable(t, states, validate=False)
    ok = not ans.distinguishable
    target = tuple(b + c - a for a, b, c in zip(states[0], states[1], states[2]))
    weights = conic_weights(t, target)
    ok &= weights is not None
    if weights is not None:
        recombined = tuple(sum(w * g[k] for w, g in zip(weights, t.generators))
                           for k in range(t.dim))
        ok &= recombined == target and all(w >= 0 for w in weights)
    _report("criterion 5: minimal q=2,l=2 triple refused; ordering certificate "
            "omega2+omega3-omega1 in the cone verified exactly", ok)


def test_criterion_6_square_hypergraphs_with_brute_force():
    sq = hypercube_theory(2)
    h2 = build_hypergraph(sq, 2)
    h3 = build_hypergraph(sq, 3)
    ok = sorted(h2.edges) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    ok &= not h3.edges
    for n, expected in ((2, h2.edges), (3, h3.edges)):
        brute = set()
        for s in itertools.combinations(range(4), n):
            sts = [sq.generators[i] for i in s]
            if is_perfectly_distinguishable(sq, sts, validate=False).distinguishable:
                brute.add(s)
        ok &= brute == set(expected)
    _report("criterion 6: square N=2 is K4 and N=3 is empty, equal to unpruned "
            "enumeration", ok)


def test_criterion_7_clique_oracle_agreement():
    fleet = [hypercube_theory(2), ngon_theory(5), hypercube_theory(3),
             prism_product(classical_simplex(3), classical_simplex(3))]
    ok = True
    for theory in fleet:
        assert theory.num_generators <= 16
        for n in (2, 3):
            h = build_hypergraph(theory, n)
            ok &= len(greedy_max_clique(h)) == len(exact_max_clique(h))
    _report("criterion 7: greedy clique equals the exact oracle on square, pentagon, "
            "cube, and the simplex prism at N=2,3", ok)


def test_criterion_8_probabilistic_construction():
    start = time.monotonic()
    ok = probabilistic_params(3, 16) == (16, 39, 586)
    ok &= probabilistic_params(2, 4) == (4, 8, 25)
    ok &= failure_probability_bound(4, 10, 4, 2) == F(6, 1048576)

    report = randomized_search(3, q=9, l=12, m_codewords=8, trials=1000, seed=2026,
                               workers=2)
    bound = float(report.bound)
    sigma = math.sqrt(bound * (1 - bound) / report.trials)
    ok &= report.empirical_failure <= bound + 3 * sigma

    lp_checked = 0
    rng = random.Random(8)
    while lp_checked < 4:
        q, l = rng.choice([(3, 2), (2, 3)])
        code = sample_random_code(q, l, rng.randint(3, min(8, q ** l)),
                                  seed=rng.randint(0, 10 ** 9))
        if verify_nwise_by_components(code, 3):
            ok &= nwise_distinguishable_by_lp(code, 3)
            lp_checked += 1
    elapsed = time.monotonic() - start
    ok &= elapsed < 120
    _report(f"criterion 8: construction parameters, exact bound, Monte Carlo within "
            f"3 sigma, component codes certified by LP ({elapsed:.0f}s)", ok)


def test_criterion_9_property_suites():
    distinguishable_sets = []

    range_ok = consistency_ok = witness_ok = affine_ok = True
    for seed in range(500):
        rng = random.Random(seed)
        t = random_lifted_theory(seed, gens_range=(3, 5))
        n = rng.randint(2, min(3, t.num_generators))
        idxs = rng.sample(range(t.num_generators), n)
        states = [t.generators[i] for i in idxs]
        weights = [F(rng.randint(1, 4)) for _ in range(n)]
        priors = [w / sum(weights) for w in weights]

        res = max_success_probability(instance_from_indices(t, idxs, priors))
        range_ok &= max(priors) <= res.p_success <= 1

        ans = is_perfectly_distinguishable(t, states, validate=False)
        uniform = max_success_probability(instance_from_indices(t, idxs))
        consistency_ok &= ans.distinguishable == (uniform.p_success == 1)
        if ans.distinguishable:
            witness_ok &= verify_witness(t, states, ans.witness)
            distinguishable_sets.append(states)
        else:
            witness_ok &= lp.verify_farkas(ans.problem, ans.certificate)

        mat, inv = random_invertible_matrix(rng, t.dim)
        mapped = Theory(t.name, t.dim, mat_vec([tuple(r) for r in zip(*inv)], t.unit),
                        tuple(mat_vec(mat, g) for g in t.generators))
        mapped_ans = is_perfectly_distinguishable(
            mapped, [mapped.generators[i] for i in idxs], validate=False)
        affine_ok &= mapped_ans.distinguishable == ans.distinguishable

    _report("criterion 9a: success-probability range on 500 instances", range_ok)
    _report("criterion 9b: feasibility/optimum consistency on 500 instances",
            consistency_ok)
    _report("criterion 9c: witness and certificate soundness on 500 instances",
            witness_ok)
    _report("criterion 9d: affine invariance on 500 instances", affine_ok)

    # Lemma-4 necessity on every distinguishable set met above and every edge
    # of the fixture hypergraphs; coarse-graining exhaustively on hyperedges.
    independence_ok = True
    coarse_ok = True
    fleet = [(simplex_power(3, 2), 3), (classical_simplex(4), 3),
             (hypercube_theory(3), 2)]
    for theory, n in fleet:
        h = build_hypergraph(theory, n)
        pair_graph = build_hypergraph(theory, 2)
        for edge in sorted(h.edges):
            states = [theory.generators[i] for i in edge]
            independence_ok &= linearly_independent(states)
            distinguishable_sets.append(states)
            for pair in itertools.combinations(edge, 2):
                coarse_ok &= pair in pair_graph.edges
    for states in distinguishable_sets:
        independence_ok &= linearly_independent(states)
    _report("criterion 9e: linear independence of every distinguishable set found",
            independence_ok)
    _report("criterion 9f: every hyperedge is pairwise distinguishable "
            "(coarse-graining)", coarse_ok)

    prism_ok = True
    for seed in range(30):
        rng = random.Random(9000 + seed)
        a = random_lifted_theory(7000 + seed, dim_range=(2, 3), gens_range=(2, 4))
        b = random_lifted_theory(8000 + seed, dim_range=(2, 3), gens_range=(2, 4))
        product = prism_product(a, b)
        prism_ok &= product.dim == (a.dim - 1) + (b.dim - 1) + 1
        prism_ok &= product.num_generators == a.num_generators * b.num_generators
        reduced = reduce_to_pure_states(product)
        prism_ok &= reduced.generators == product.generators
    _report("criterion 9g: prism dimension additivity and Cartesian pure states on "
            "30 random factor pairs", prism_ok)
