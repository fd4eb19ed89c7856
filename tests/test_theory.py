import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import (SYMMETRIC_FAMILIES, exact_bland_runs, linearly_independent, plain_bland,
                      random_lifted_theory, random_planar_theory, reference_is_state,
                      reference_pure_states)
from polygpt import simplex
from polygpt import theory as theory_module
from polygpt.fixtures import fixtures
from polygpt.families import build_family, classical_simplex, hypercube_effect, hypercube_theory
from polygpt.theory import (EXACT, FLOAT, Measurement, Theory, conic_weights, is_effect,
                            is_measurement, is_state, make_theory,
                            reduce_to_pure_states, theory_from_json, theory_to_json,
                            validate_theory)


def test_classical_simplex_passes_all_checks():
    report = validate_theory(classical_simplex(3))
    assert report.ok
    assert set(report.checks) == {"unit_normalization", "spanning", "affine_rank"}


def test_subspace_generators_fail_spanning():
    # Segment living inside a 3-dim space: spanning must fail.
    t = Theory("flat", 3, (F(1), F(0), F(0)),
               ((F(1), F(0), F(0)), (F(1), F(1), F(0))))
    report = validate_theory(t)
    assert not report.checks["spanning"]
    assert not report.ok


def test_float_spanning_is_decided_exactly():
    # 1e-12 is far below the float tolerance, but the stored coordinates
    # span, as basis_inverse (which reads them exactly) already says.
    thin = make_theory("thin", (1, 0, 0), [(1, 0, 0), (1, 1, 0), (1, 0, 1e-12)],
                       numeric_mode=FLOAT)
    assert thin.basis_inverse is not None
    assert validate_theory(thin).checks == {"unit_normalization": True, "spanning": True,
                                            "affine_rank": True}
    line = make_theory("line", (1, 0, 0), [(1, 0, 0), (1, 1, 0), (1, 2, 0)], numeric_mode=FLOAT)
    assert line.basis_inverse is None
    assert not validate_theory(line).checks["spanning"]


def test_hypercube_theory_valid():
    t = hypercube_theory(3)
    assert t.dim == 4
    assert validate_theory(t).ok


def test_unnormalized_generator_rejected_at_load():
    with pytest.raises(ValueError):
        make_theory("bad", [1, 0], [[2, 0]])


def test_is_state_on_generators_and_mixtures():
    t = hypercube_theory(2)
    for g in t.generators:
        assert is_state(t, g)
    centroid = tuple(sum(g[i] for g in t.generators) / 4 for i in range(3))
    assert is_state(t, centroid)
    assert not is_state(t, (F(1), F(2), F(0)))  # coordinate exceeds the square
    with pytest.raises(ValueError):
        is_state(t, (F(1), F(0)))


def test_zero_and_unit_are_effects():
    t = hypercube_theory(2)
    assert is_effect(t, (F(0), F(0), F(0)))
    assert is_effect(t, t.unit)


def test_hypercube_face_effect_and_binary_measurement():
    t = hypercube_theory(2)
    e = hypercube_effect(2, 1)
    assert is_effect(t, e)
    complement = tuple(u - v for u, v in zip(t.unit, e))
    assert is_measurement(t, Measurement((e, complement)))
    assert not is_measurement(t, Measurement((e, e)))


def test_appendix_triple_effects_do_not_sum_to_unit():
    t = hypercube_theory(3)
    effects = (
        (F(1, 2), F(1, 2), F(0), F(0)),
        (F(1, 2), F(0), F(0), F(-1, 2)),
        (F(1, 2), F(0), F(-1, 2), F(0)),
    )
    assert all(is_effect(t, e) for e in effects)
    total = tuple(sum(e[i] for e in effects) for i in range(4))
    assert total == (F(3, 2), F(1, 2), F(-1, 2), F(-1, 2))
    assert not is_measurement(t, Measurement(effects))


def test_reduce_removes_midpoint():
    v1 = (F(1), F(0), F(0))
    v2 = (F(1), F(1), F(0))
    mid = tuple((a + b) / 2 for a, b in zip(v1, v2))
    t = Theory("seg", 3, (F(1), F(0), F(0)), (v1, v2, mid))
    reduced = reduce_to_pure_states(t)
    assert reduced.generators == (v1, v2)


def test_reduce_keeps_hypercube_vertices():
    for m in (1, 2, 3):
        t = hypercube_theory(m)
        assert reduce_to_pure_states(t).generators == t.generators


def test_reduce_drops_square_centroid_and_is_idempotent():
    t = hypercube_theory(2)
    centroid = tuple(sum(g[i] for g in t.generators) / 4 for i in range(3))
    fat = Theory(t.name, t.dim, t.unit, t.generators + (centroid,))
    reduced = reduce_to_pure_states(fat)
    assert reduced.generators == t.generators
    assert reduce_to_pure_states(reduced).generators == reduced.generators


def test_reduce_preserves_membership_answers():
    rng = random.Random(5)
    t = random_lifted_theory(11)
    centroid = tuple(sum(g[i] for g in t.generators) / t.num_generators
                     for i in range(t.dim))
    fat = Theory(t.name, t.dim, t.unit, t.generators + (centroid,))
    reduced = reduce_to_pure_states(fat)
    probes = [centroid] + list(t.generators)
    for _ in range(5):
        w = [F(rng.randint(0, 5)) for _ in t.generators]
        s = sum(w)
        if s:
            probes.append(tuple(sum(wi * g[i] for wi, g in zip(w, t.generators)) / s
                                for i in range(t.dim)))
    for p in probes:
        assert is_state(fat, p) == is_state(reduced, p)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("seed", range(8))
def test_membership_without_the_sum_row_matches_the_reference(seed, mode):
    # u . g = 1 for every generator, so sum(a) = 1 follows from u . x = 1:
    # dropping that row changes no answer.
    rng = random.Random(seed)
    answers = set()
    for base in (random_lifted_theory(seed), random_planar_theory(seed)):
        gens = list(base.generators)
        centroid = tuple(sum(col) / len(gens) for col in zip(*gens))
        midpoints = [tuple((a + b) / 2 for a, b in zip(g, h)) for g, h in zip(gens, gens[1:])]
        beyond = [tuple(2 * a - c for a, c in zip(g, centroid)) for g in gens]  # past a vertex
        doubled = [tuple(2 * a for a in g) for g in gens[:2]]  # u . x = 2
        fat = gens + [rng.choice(gens) for _ in range(2)] + [centroid] + midpoints
        rng.shuffle(fat)
        fat = make_theory(base.name, base.unit, fat, numeric_mode=mode)
        t = make_theory(base.name, base.unit, gens, numeric_mode=mode)
        kept = reduce_to_pure_states(fat).generators
        assert kept == reference_pure_states(fat)
        assert sorted(kept) == sorted(t.generators)
        for x in gens + midpoints + [centroid] + beyond + doubled:
            x = tuple(map(float, x)) if mode == FLOAT else x
            answers.add(is_state(t, x))
            assert is_state(t, x) == reference_is_state(t, x)
    assert answers == {True, False}


@pytest.mark.parametrize("spec", SYMMETRIC_FAMILIES)
def test_reduction_keeps_every_family_vertex(spec):
    t = build_family(spec)
    assert reduce_to_pure_states(t).generators == reference_pure_states(t) == t.generators
    assert reduce_to_pure_states(t) is t  # its cached group comes along


def test_exact_duplicates_in_mixed_forms_keep_their_first_occurrence():
    # 1, F(2, 2) and "2/2" are one value; make_theory reads them alike, and
    # a Theory built directly keeps each form, ints first.
    forms = [(1, 0, 0), (F(2, 2), 1, 0), ("2/2", "0", "1"), (F(1), "1/3", "1/3"),
             ("1", F(0), F(0)), (F(1), 1, F(0)), (1, F(2, 2), 0), (1, F(1, 3), F(1, 3))]
    t = make_theory("mixed", (1, 0, 0), forms)
    assert reduce_to_pure_states(t) == replace(t, generators=reference_pure_states(t))
    assert reduce_to_pure_states(t).generators == ((1, 0, 0), (1, 1, 0), (1, 0, 1))
    raw = Theory("raw", 3, (1, 0, 0), ((1, 0, 0), (1, 1, 0), (F(1), F(0), F(0)), (1, 0, 1),
                                       (F(1), F(1), 0), (1, F(1, 3), F(1, 3))))
    reduced = reduce_to_pure_states(raw)
    assert reduced == replace(raw, generators=reference_pure_states(raw))
    assert [list(map(type, g)) for g in reduced.generators] == [[int, int, int]] * 3


@pytest.mark.parametrize("spec", SYMMETRIC_FAMILIES)
def test_every_family_with_duplicates_and_its_centroid_reduces_as_before(spec):
    # Every third vertex again, with its integral coordinates as ints, and
    # the centroid: the same theory as the pairwise duplicate loop gives.
    t = build_family(spec)
    again = tuple(tuple(int(v) if v.denominator == 1 else v for v in g)
                  for g in t.generators[::3])
    centroid = tuple(sum(col) / t.num_generators for col in zip(*t.generators))
    fat = Theory(t.name, t.dim, t.unit, (*t.generators[:2], *again, centroid, *t.generators[2:]))
    assert reduce_to_pure_states(fat) == replace(fat, generators=reference_pure_states(fat))


def counted_memberships(monkeypatch):
    """The targets of the membership LPs (theory._combination_weights) run
    after this call in the test."""
    targets = []
    weights = theory_module._combination_weights

    def counted(vectors, target, arith):
        targets.append(target)
        return weights(vectors, target, arith)

    monkeypatch.setattr(theory_module, "_combination_weights", counted)
    return targets


def test_the_cube_with_its_centre_and_edge_midpoints_reduces_to_its_vertices(monkeypatch):
    # The 21 points have the cube's group, whose orbits are the vertices,
    # the centre and the midpoints: one membership LP each.
    cube = hypercube_theory(3)
    gens = cube.generators
    centre = tuple(sum(col) / 8 for col in zip(*gens))
    midpoints = [tuple((a + b) / 2 for a, b in zip(g, h)) for g, h in itertools.combinations(gens, 2)
                 if sum(a != b for a, b in zip(g, h)) == 1]
    fat = Theory(cube.name, cube.dim, cube.unit, (centre, *midpoints[:6], *gens, *midpoints[6:]))
    lps = counted_memberships(monkeypatch)
    reduced = reduce_to_pure_states(fat)
    assert len(midpoints) == 12 and reduced.generators == gens
    assert len(lps) == 3


def test_the_8_cube_reduces_with_one_membership_lp(monkeypatch):
    cube = hypercube_theory(8)
    lps = counted_memberships(monkeypatch)
    assert reduce_to_pure_states(cube) is cube
    assert len(lps) == 1


@pytest.mark.parametrize("theory", [
    make_theory("cube", hypercube_theory(3).unit, hypercube_theory(3).generators,
                numeric_mode=FLOAT),
    Theory("flat-square", 4, (F(1), F(0), F(0), F(0)),
           tuple(g + (F(0),) for g in hypercube_theory(2).generators)),
], ids=["float-cube", "non-spanning-square"])
def test_a_float_or_non_spanning_list_keeps_one_membership_lp_per_generator(monkeypatch, theory):
    lps = counted_memberships(monkeypatch)
    assert reduce_to_pure_states(theory).generators == theory.generators
    assert theory.symmetries == () and len(lps) == theory.num_generators


@pytest.mark.parametrize("spec", ["hypercube:m=2", "hypercube:m=3", "simplex:d=4",
                                  "simplex-power:q=3,l=2", "ngon:n=6",
                                  "prism:simplex:d=3+hypercube:m=2"])
def test_a_symmetric_list_loses_exactly_its_non_extreme_points(spec):
    # Every vertex, the centroid and every pair's midpoint (antipodal pairs
    # share theirs with the centroid): orbit verdicts match the program with
    # the sum row, decided point by point.
    t = build_family(spec)
    centroid = tuple(sum(col) / t.num_generators for col in zip(*t.generators))
    midpoints = [tuple((a + b) / 2 for a, b in zip(g, h))
                 for g, h in itertools.combinations(t.generators, 2)]
    fat = Theory(t.name, t.dim, t.unit, (*midpoints, centroid, *t.generators))
    assert reduce_to_pure_states(fat).generators == reference_pure_states(fat) == t.generators


def _fixture_theories_with_centroids():
    """Every bundled fixture theory, plus a copy with its centroid added so
    that reduction has a generator to drop."""
    theories = []
    for fix in fixtures().values():
        t = theory_from_json(fix["theory"])
        centroid = tuple(sum(g[i] for g in t.generators) / t.num_generators
                         for i in range(t.dim))
        theories += [t, Theory(t.name, t.dim, t.unit, t.generators + (centroid,),
                               t.numeric_mode)]
    return theories


def test_guided_reduction_matches_plain_bland_on_fixtures():
    theories = _fixture_theories_with_centroids()
    with exact_bland_runs() as fallbacks:
        guided = [reduce_to_pure_states(t) for t in theories]
    with plain_bland():
        plain = [reduce_to_pure_states(t) for t in theories]
    assert guided == plain
    assert [t.num_generators for t in guided[1::2]] == [t.num_generators for t in guided[::2]]
    # Every membership LP is certified on the guide's basis: none falls back.
    assert fallbacks == []


def test_linear_independence():
    assert linearly_independent([])
    assert linearly_independent(classical_simplex(4).generators)
    assert not linearly_independent(hypercube_theory(2).generators)
    cube = hypercube_theory(3)
    assert linearly_independent([cube.generators[0], cube.generators[5]])


def test_effect_values_lie_in_unit_interval_on_random_mixtures():
    rng = random.Random(23)
    t = hypercube_theory(3)
    effects = [hypercube_effect(3, i) for i in (1, 2, 3)] + [t.unit]
    for _ in range(50):
        w = [F(rng.randint(0, 4)) for _ in t.generators]
        total = sum(w) or F(1)
        state = tuple(sum(wi * g[i] for wi, g in zip(w, t.generators)) / total
                      for i in range(t.dim))
        for e in effects:
            v = sum(a * b for a, b in zip(e, state))
            assert 0 <= v <= 1


def test_cone_membership_weights():
    t = classical_simplex(3)
    w = conic_weights(t, (F(2), F(0), F(1)))
    assert w is not None
    assert conic_weights(t, (F(-1), F(0), F(0))) is None


def test_json_roundtrip_is_bit_exact():
    t = hypercube_theory(2)
    doc = theory_to_json(t)
    assert theory_from_json(doc) == t
    # through an actual serialization
    assert theory_from_json(json.loads(json.dumps(doc))) == t


def test_json_rejects_malformed_documents():
    with pytest.raises(ValueError):
        theory_from_json({"name": "x", "dim": 2, "unit": [1, 0]})
    good = theory_to_json(classical_simplex(2))
    bad = dict(good, dim=5)
    with pytest.raises(ValueError):
        theory_from_json(bad)


@pytest.mark.parametrize("bogus", [
    lambda n, m: simplex.StandardResult(simplex.OPTIMAL, x=(F(0),) * (n - 1) + (F(1),)),
    lambda n, m: simplex.StandardResult(simplex.OPTIMAL, x=(F(-1),) * n),
    lambda n, m: simplex.StandardResult(simplex.INFEASIBLE, farkas=(F(0),) * m),
    lambda n, m: simplex.StandardResult(simplex.INFEASIBLE, farkas=(F(1),) * m),
], ids=["weights-miss-the-target", "negative-weights", "farkas-without-contradiction",
        "farkas-positive-on-a-column"])
def test_membership_answers_are_checked_by_substitution(monkeypatch, bogus):
    t = classical_simplex(3)
    monkeypatch.setattr(simplex, "solve_standard_min",
                        lambda costs, rows, rhs, arith: bogus(len(costs), len(rows)))
    for check in (lambda: is_state(t, (F(1), F(0), F(0))),
                  lambda: conic_weights(t, (F(2), F(0), F(0))),
                  lambda: reduce_to_pure_states(t)):
        with pytest.raises(RuntimeError):
            check()
