import itertools
import json
import math
from fractions import Fraction as F

import pytest

from conftest import (SYMMETRIC_FAMILIES, evidence_fractions, float_ngon,
                      hypercube_symmetries, invert, known_group_order, mat_vec, moved_witness,
                      orbit_words, prism_pair_index, reference_hints, scale_evidence, sifts,
                      simplex_power_symmetries, stabilizer_chain)
from polygpt import cli, discrimination
from polygpt import theory as theory_module
from polygpt.families import (MAX_GENERATORS, build_family, classical_simplex,
                              codeword_state_index, hypercube_effect, hypercube_state,
                              hypercube_theory, FamilySpec, ngon_theory,
                              parse_family_spec, prism_product, simplex_power)
from polygpt.linalg import dot
from polygpt.theory import reduce_to_pure_states, validate_theory


def test_simplex_shapes():
    assert classical_simplex(1).num_generators == 1
    seg = classical_simplex(2)
    assert seg.dim == 2 and seg.num_generators == 2
    tri = classical_simplex(3)
    assert tri.dim == 3 and validate_theory(tri).ok
    with pytest.raises(ValueError):
        classical_simplex(0)


@pytest.mark.parametrize("m", range(1, 9))
def test_hypercube_counts(m):
    t = hypercube_theory(m)
    assert t.dim == m + 1
    assert t.num_generators == 2 ** m


def test_hypercube_effect_reads_the_sign():
    m = 4
    t = hypercube_theory(m)
    for i in range(1, m + 1):
        e = hypercube_effect(m, i)
        for eps_index, g in enumerate(t.generators):
            expected = 1 if g[i] == 1 else 0
            assert dot(e, g) == expected
    with pytest.raises(ValueError):
        hypercube_effect(m, 0)
    with pytest.raises(ValueError):
        hypercube_effect(m, m + 1)


def test_hypercube_state_validation():
    assert hypercube_state((1, -1)) == (1, 1, -1)
    with pytest.raises(ValueError):
        hypercube_state((1, 0))
    with pytest.raises(ValueError):
        hypercube_state(())


def test_ngon_four_is_exact_and_square_like():
    t = ngon_theory(4)
    assert t.numeric_mode == "exact"
    assert t.num_generators == 4
    assert validate_theory(t).ok


@pytest.mark.parametrize("n", [3, 4, 6])
def test_ngon_is_exact_in_the_chebyshev_frame(n):
    # Vertex k is (1, cos k theta, sin k theta / sin theta), theta = 2 pi / n:
    # the float vertex under a linear map that fixes the unit.
    t = ngon_theory(n)
    assert t.numeric_mode == "exact" and validate_theory(t).ok
    theta = 2 * math.pi / n
    for k, (one, x, y) in enumerate(t.generators):
        assert isinstance(x, F) and isinstance(y, F) and one == 1
        assert math.isclose(x, math.cos(k * theta), abs_tol=1e-12)
        assert math.isclose(y, math.sin(k * theta) / math.sin(theta), abs_tol=1e-12)


def test_every_other_ngon_is_the_float_circle():
    for n in (5, 7, 8, 12, 40):
        assert ngon_theory(n) == float_ngon(n)


def test_ngon_float_vertices_on_unit_circle():
    t = ngon_theory(5)
    assert t.numeric_mode == "float"
    for g in t.generators:
        assert math.isclose(g[1] ** 2 + g[2] ** 2, 1.0, abs_tol=1e-12)
    assert ngon_theory(3).num_generators == 3
    with pytest.raises(ValueError):
        ngon_theory(2)


def test_prism_of_segments_is_square_shaped():
    seg = classical_simplex(2)
    sq = prism_product(seg, seg)
    assert sq.dim == 3
    assert sq.num_generators == 4
    assert validate_theory(sq).ok
    assert reduce_to_pure_states(sq).num_generators == 4


def test_prism_dimension_is_additive():
    s3 = classical_simplex(3)
    t = prism_product(s3, s3)
    assert t.dim == 5          # (3-1) + (3-1) + 1
    assert t.num_generators == 9
    assert validate_theory(t).ok


def test_prism_with_point_factor_keeps_shape():
    s3 = classical_simplex(3)
    point = classical_simplex(1)
    t = prism_product(s3, point)
    assert t.dim == s3.dim
    assert t.num_generators == s3.num_generators
    assert validate_theory(t).ok


def test_prism_rejects_float_factors():
    with pytest.raises(ValueError):
        prism_product(ngon_theory(5), classical_simplex(2))


def test_prism_generator_order_is_a_major():
    a = classical_simplex(2)
    b = classical_simplex(3)
    t = prism_product(a, b)
    assert t.num_generators == 6
    assert prism_pair_index(1, 2, b.num_generators) == 5


def test_simplex_power_dimensions():
    assert simplex_power(3, 2).dim == 5
    assert simplex_power(3, 2).num_generators == 9
    assert simplex_power(4, 1).generators == classical_simplex(4).generators
    t = simplex_power(2, 3)
    assert t.dim == 3 * 1 + 1
    assert t.num_generators == 8
    with pytest.raises(ValueError):
        simplex_power(0, 2)
    with pytest.raises(ValueError):
        simplex_power(10, 10)  # generator cap


def test_simplex_power_matches_hypercube_affinely():
    # q=2, l=m gives 2^m pure states in dimension m+1, same as the cube.
    for m in (1, 2, 3):
        sp = simplex_power(2, m)
        hc = hypercube_theory(m)
        assert sp.dim == hc.dim
        assert sp.num_generators == hc.num_generators


def test_codeword_indexing_round_trips():
    q, l = 3, 2
    t = simplex_power(q, l)
    seen = set()
    for w in [(1, 1), (1, 3), (2, 2), (3, 1), (3, 3)]:
        idx = codeword_state_index(q, w)
        assert 0 <= idx < t.num_generators
        seen.add(idx)
    assert len(seen) == 5
    assert codeword_state_index(2, (1, 1)) == 0
    assert codeword_state_index(2, (2, 1)) == 2
    with pytest.raises(ValueError):
        codeword_state_index(2, (3,))


def test_family_spec_parsing():
    assert build_family("simplex:d=3").name == "simplex-3"
    assert build_family("hypercube:m=4").dim == 5
    assert build_family("ngon:n=5").numeric_mode == "float"
    assert build_family("simplex-power:q=3,l=2").num_generators == 9
    assert build_family("prism:simplex:d=3+simplex:d=3").dim == 5
    spec = parse_family_spec("simplex-power:q=3,l=2")
    assert spec.kind == "simplex-power" and spec.params == {"q": 3, "l": 2}
    for bad in ("octagon", "hypercube", "hypercube:m=", "hypercube:n=4",
                "simplex-power:q=3", "prism:simplex:d=2"):
        with pytest.raises(ValueError):
            parse_family_spec(bad)


@pytest.mark.parametrize("text", ["hypercube:m=3,m=2", "simplex-power:q=3,l=2,q=3",
                                  "prism:simplex:d=2+hypercube:m=2,m=3",
                                  "prism:simplex:d=2,d=2+hypercube:m=2"])
def test_a_repeated_family_parameter_is_refused(text):
    # The last value used to win silently.
    with pytest.raises(ValueError, match="repeated family parameter '[mqd]'"):
        parse_family_spec(text)


@pytest.mark.parametrize("build", [
    lambda: hypercube_theory(13),
    lambda: hypercube_theory(10 ** 9),  # 2^m must not be formed to see it
    lambda: classical_simplex(MAX_GENERATORS + 1),
    lambda: ngon_theory(MAX_GENERATORS + 1),
    lambda: prism_product(hypercube_theory(7), hypercube_theory(6)),
    lambda: simplex_power(2, 10 ** 5),  # 2^100000 has too many digits to print
], ids=["hypercube-13", "hypercube-huge", "simplex", "ngon", "prism", "simplex-power-huge"])
def test_every_constructor_refuses_more_generators_than_the_cap(build):
    with pytest.raises(ValueError, match=f"generators exceed the cap {MAX_GENERATORS}"):
        build()


def test_an_oversized_family_is_a_usage_error(capsys):
    assert cli.run(["theory", "--family", f"ngon:n={MAX_GENERATORS + 1}"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polygpt: error: ")


def test_a_power_of_the_one_point_theory_returns_at_once(capsys):
    point = classical_simplex(1)
    product = prism_product(prism_product(point, point), point)
    big = simplex_power(1, 10 ** 7)
    assert (big.name, big.dim, big.unit, big.generators) == \
        ("simplex-1^x10000000", 1, point.unit, point.generators) == \
        ("simplex-1^x10000000", product.dim, product.unit, product.generators)
    assert big.symmetries == ()  # one state: nothing to move
    family = "simplex-power:q=1,l=10000000"
    assert cli.run(["theory", "--family", family]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    assert cli.run(["hypergraph", "--family", family, "--N", "2", "--workers", "1"]) == 1
    assert capsys.readouterr().err == "polygpt: error: N must lie in 2..1\n"


def test_unknown_family_kind_is_rejected():
    with pytest.raises(ValueError, match="bogus"):
        FamilySpec("bogus", {}).build()


@pytest.mark.parametrize("spec", SYMMETRIC_FAMILIES)
def test_every_supplied_symmetry_is_proven(spec):
    # Theory.symmetries checks each generator of the search in integers and
    # keeps them all; here, independently, find A with A g_k = g_perm[k] on
    # a basis of generators, in plain Fractions, and check it on every
    # generator.
    theory = build_family(spec)
    symmetries = theory.symmetries
    assert symmetries == theory._symmetry_candidates
    gens = [tuple(F(v) for v in g) for g in theory.generators]
    basis, _, _ = theory.basis_inverse
    basis_inverse = invert([list(row) for row in zip(*(gens[b] for b in basis))])
    assert basis_inverse is not None
    # The witness of the first decided pair (0, k), or of the one state of a
    # 1-simplex, moves to e A^-1; the hexagon's pair (0, 1) is not decided.
    pairs = [theory.generators[:1] + theory.generators[k:k + 1]
             for k in range(1, max(2, theory.num_generators))]
    answers = (discrimination.is_perfectly_distinguishable(theory, states) for states in pairs)
    witness = next(answer.witness for answer in answers if answer.distinguishable)
    assert witness is not None
    for perm in symmetries:
        images = list(zip(*(gens[perm[b]] for b in basis)))  # G: the images as columns
        a = [[dot(row, col) for col in zip(*basis_inverse)] for row in images]  # A = G B^-1
        assert all(mat_vec(a, g) == gens[p] for g, p in zip(gens, perm))
        a_inverse = invert(a)
        moved = moved_witness(theory, scale_evidence(witness), perm)
        assert evidence_fractions(moved).effects == tuple(
            tuple(dot(e, col) for col in zip(*a_inverse)) for e in witness.effects)


@pytest.mark.parametrize("spec,expected", [
    ("hypercube:m=3", ((0, 1, 4, 5, 2, 3, 6, 7), (0, 2, 1, 3, 4, 6, 5, 7),
                       (1, 0, 3, 2, 5, 4, 7, 6))),
    ("simplex-power:q=3,l=2", ((0, 1, 2, 6, 7, 8, 3, 4, 5), (0, 2, 1, 3, 5, 4, 6, 8, 7),
                               (0, 3, 6, 1, 4, 7, 2, 5, 8), (1, 0, 2, 4, 3, 5, 7, 6, 8))),
    ("prism:simplex:d=3+hypercube:m=2", ((0, 1, 2, 3, 8, 9, 10, 11, 4, 5, 6, 7),
                                         (0, 2, 1, 3, 4, 6, 5, 7, 8, 10, 9, 11),
                                         (1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10),
                                         (4, 5, 6, 7, 0, 1, 2, 3, 8, 9, 10, 11))),
], ids=["hypercube-m3", "simplex-power-q3-l2", "prism-simplex-d3-hypercube-m2"])
def test_the_group_search_returns_the_pinned_generators(spec, expected):
    # The search's output before the check, generator by generator and in
    # order, so that a change to its orbit bookkeeping cannot move it.
    assert build_family(spec)._symmetry_candidates == expected


def test_symmetry_generators_follow_the_index_conventions():
    # Bit m-1-i of a hypercube index is set when eps_i = -1.
    swap, flip = hypercube_symmetries(2)
    assert (swap, flip) == ((0, 2, 1, 3), (2, 3, 0, 1))
    # A simplex-power index is the codeword read base q, factor 0 first.
    q, l = 3, 2
    moved = dict(zip(("symbol swap", "symbol cycle", "factor swap", "factor cycle"),
                     simplex_power_symmetries(q, l)))
    word = (1, 3)
    index = codeword_state_index(q, word)
    assert moved["symbol swap"][index] == codeword_state_index(q, (2, 3))
    assert moved["symbol cycle"][index] == codeword_state_index(q, (2, 3))
    assert moved["factor swap"][index] == codeword_state_index(q, (3, 1))
    assert moved["factor cycle"][index] == codeword_state_index(q, (3, 1))
    # A prism has no hints; its computed group is the square's, of order 8.
    square = build_family("prism:simplex:d=2+simplex:d=2")
    chain = stabilizer_chain(square.basis_inverse[0], square.symmetries, 4)
    assert math.prod(map(len, chain)) == 8


@pytest.mark.parametrize("spec", SYMMETRIC_FAMILIES)
def test_the_computed_group_has_the_known_order_and_every_hint(spec):
    # Every computed generator is proven above, so the group they generate
    # has at most the known order; reaching it, the generators are a strong
    # generating set for the basis, and each reference hint sifts through.
    theory = build_family(spec)
    base, order = theory.basis_inverse[0], known_group_order(spec)
    chain = stabilizer_chain(base, theory.symmetries, theory.num_generators)
    assert math.prod(map(len, chain)) == order
    assert len(theory.symmetries) <= order.bit_length() - 1  # at most log2 of the order
    assert all(sifts(chain, base, hint) for hint in reference_hints(spec))


@pytest.mark.parametrize("spec,n_arity,subsets,orbits", [
    ("hypercube:m=5", 2, 496, 5),
    ("hypercube:m=6", 2, 2016, 6),
    ("hypercube:m=4", 3, 560, 6),
    ("simplex-power:q=3,l=3", 3, 2925, 10),
])
def test_orbit_counts(spec, n_arity, subsets, orbits):
    theory = build_family(spec)
    v, perms = theory.num_generators, theory.symmetries
    candidates = list(itertools.combinations(range(v), n_arity))
    found = theory_module.orbits(candidates, perms)
    assert len(candidates) == subsets and len(found) == orbits
    assert sorted(s for orbit in found for s in orbit) == candidates
    for orbit in found:
        assert orbit[0] == min(orbit)  # the representative comes first
        orbit_words(orbit, perms, v)  # fails unless every member is an image of it


class _CountedPerms(list):
    """Permutations that count how often they are read: once per subset
    whose images an orbit search follows."""
    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


@pytest.mark.parametrize("spec,n_arity", [("hypercube:m=4", 2), ("simplex-power:q=3,l=2", 3),
                                          ("prism:simplex:d=3+hypercube:m=2", 2)])
def test_orbits_are_found_one_at_a_time_in_order(spec, n_arity):
    # The group search reads the first orbit only: _orbits follows the
    # images of that orbit's members and no others, and yields the orbits
    # that theory.orbits lists, in its order.
    theory = build_family(spec)
    perms = _CountedPerms(theory.symmetries)
    candidates = list(itertools.combinations(range(theory.num_generators), n_arity))
    orbits = theory_module.orbits(candidates, perms)
    assert len(orbits) > 1 and perms.reads == len(candidates)
    perms.reads = 0
    lazy = theory_module._orbits(candidates, perms)
    assert next(lazy) == orbits[0] and perms.reads == len(orbits[0]) < len(candidates)
    assert list(lazy) == orbits[1:] and perms.reads == len(candidates)
