import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from conftest import (ReferenceSplitMix64, component_discriminates, nwise_distinguishable_by_lp,
                      random_planar_points, reference_sample_codewords,
                      reference_verify_nwise_by_components, tournament_count)
from polygpt import capacity, discrimination, hypergraph
from polygpt.capacity import (MAX_CODEWORDS, CapacityReport, RandomCode, SplitMix64, d_pairwise,
                              danzer_grunbaum_check, failure_probability_bound, kappa_pairwise,
                              probabilistic_params, randomized_search, sample_random_code,
                              verify_hypercube_memory, verify_nwise_by_components)
from polygpt.discrimination import is_perfectly_distinguishable
from polygpt.exactlog import PrecisionError
from polygpt.families import codeword_state_index, hypercube_theory, simplex_power
from polygpt.theory import Measurement, is_measurement


def test_pairwise_dimension_and_kappa():
    assert d_pairwise(3) == 4
    assert kappa_pairwise(3) == 1.5
    assert kappa_pairwise(1) == 1.0
    assert kappa_pairwise(7) == 7 / 3
    assert abs(kappa_pairwise(6) - 6 / math.log2(7)) < 1e-12
    with pytest.raises(ValueError):
        d_pairwise(0)


def test_tournament_count():
    assert tournament_count(5, 2) == 4
    assert tournament_count(1, 4) == 0
    assert tournament_count(10, 4) == 3
    with pytest.raises(ValueError):
        tournament_count(3, 1)


@pytest.mark.parametrize("m,pairs", [(1, 1), (2, 6), (3, 28)])
def test_verify_hypercube_small(m, pairs):
    report = verify_hypercube_memory(m)
    assert report.verified
    assert report.dimension == m + 1
    assert report.achieved_set_size == 2 ** m
    assert report.achieved_set_size * (report.achieved_set_size - 1) // 2 == pairs


@pytest.mark.parametrize("route", ["_face_deltas", "pairwise_distinguishable"])
def test_either_route_alone_vetoes_the_sweep(monkeypatch, route):
    # Every pair runs both routes: the delta conditions of its closed-form
    # witness, a face measurement checked valid once per sweep, and the LP.
    # One pair refused by either route alone must fail the report.
    checked = getattr(capacity, route)
    calls = []

    def refuse_one(*args):
        calls.append(args)
        return checked(*args) and len(calls) != 5

    monkeypatch.setattr(capacity, route, refuse_one)
    report = verify_hypercube_memory(3, workers=1)
    assert report.verified is False and len(calls) == 28


def test_each_face_measurement_is_checked_once_and_vetoes_the_sweep(monkeypatch):
    # The m face measurements are checked in full once per sweep, each by
    # verify_witness on one pair it answers, through discrimination.responds;
    # one refused face fails the report.
    responds = discrimination.responds
    calls = []

    def refuse_the_last(theory, rows, den, *states):
        calls.append(rows)
        return responds(theory, rows, den, *states) and len(calls) != 3

    monkeypatch.setattr(discrimination, "responds", refuse_the_last)
    assert verify_hypercube_memory(3, workers=1).verified is False
    assert len(calls) == 3 and len({str(rows) for rows in calls}) == 3


@pytest.mark.parametrize("deltas", ["checked", "accepted"])
def test_a_face_measurement_failing_a_bound_vetoes_the_sweep(monkeypatch, deltas):
    # The first face effect (1/2, 1/2, 0, 0) raised to (1, 1/2, 0, 0) reads
    # 3/2 on every vertex with x_1 = +1; its complement then reads -1/2.
    # Every vertex is in a pair that this face answers, so the pairs' delta
    # checks refuse it too; with those accepting everything, the face's own
    # check still fails the report.
    built = capacity._face_measurements

    def altered(theory):
        (e, _), *rest = [face.effects for face in built(theory)]
        e = (2 * e[0],) + e[1:]
        face = Measurement((e, tuple(u - v for u, v in zip(theory.unit, e))))
        assert not is_measurement(theory, face)
        return (face, *(Measurement(effects) for effects in rest))

    monkeypatch.setattr(capacity, "_face_measurements", altered)
    if deltas == "accepted":
        monkeypatch.setattr(capacity, "_face_deltas", lambda *args: True)
    assert verify_hypercube_memory(3, workers=1).verified is False


def test_verify_hypercube_bounds():
    with pytest.raises(ValueError):
        verify_hypercube_memory(0)
    with pytest.raises(ValueError):
        verify_hypercube_memory(9)


def test_probabilistic_params_paper_values():
    assert probabilistic_params(3, 16) == (16, 39, 586)
    assert probabilistic_params(2, 4) == (4, 8, 25)


def test_probabilistic_params_max_clause_branch():
    # 2q/(N(N-1)) <= 2 makes the denominator log2(2) = 1, so l = 2Nm.
    q, l, dim = probabilistic_params(3, 2)
    assert q == 1
    assert l == 2 * 3 * 2
    assert dim == 1


def test_probabilistic_params_rejections():
    with pytest.raises(ValueError):
        probabilistic_params(1, 8)
    with pytest.raises(ValueError):
        probabilistic_params(2, 1)
    with pytest.raises(ValueError):
        probabilistic_params(9, 3)  # 2^3 < 9 states cannot exist
    assert probabilistic_params(8, 3)[0] == 2  # 2^3 = 8 states


def test_huge_m_is_refused_without_forming_2_to_the_m(monkeypatch):
    # 2^m for m = 10^8 alone is a 12.5 MB integer.
    monkeypatch.setattr(capacity, "sample_random_code", None)
    assert probabilistic_params(2, 10 ** 12) == (1589, 376155382085, 597334746750981)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="beyond desk scale"):
            randomized_search(2, m=10 ** 8, trials=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_failure_bound_exact_values():
    assert failure_probability_bound(4, 10, 4, 2) == F(6, 1048576)
    assert failure_probability_bound(4, 0, 5, 2) == math.comb(5, 2)
    assert failure_probability_bound(5, 7, 3, 3) == \
        (1 - F(4, 5) * F(3, 5)) ** 7  # M = N: single subset
    with pytest.raises(ValueError):
        failure_probability_bound(2, 5, 4, 3)  # N > q


def test_failure_bound_monotonicity():
    for l in range(0, 8):
        assert failure_probability_bound(5, l + 1, 6, 2) < failure_probability_bound(5, l, 6, 2)
    for m in range(2, 9):
        assert failure_probability_bound(5, 4, m + 1, 2) > failure_probability_bound(5, 4, m, 2)


def test_splitmix_is_deterministic_and_splittable():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    c1 = SplitMix64(42).derive(1)
    c2 = SplitMix64(42).derive(2)
    assert c1.next_u64() != c2.next_u64()


def test_sample_random_code():
    code = sample_random_code(9, 12, 8, seed=42)
    assert len(code.codewords) == 8
    assert len(set(code.codewords)) == 8
    assert all(len(w) == 12 and all(1 <= s <= 9 for s in w) for w in code.codewords)
    assert sample_random_code(9, 12, 8, seed=42) == code
    assert sample_random_code(9, 12, 8, seed=43) != code
    with pytest.raises(ValueError):
        sample_random_code(2, 2, 5, seed=0)


@pytest.mark.parametrize("codewords", [((1, 1), (1, 1)), ((1, 1), (1, 4)), ((1, 0),),
                                       ((1, 1, 1),), ((1,),)])
def test_the_public_constructor_refuses_a_bad_code(codewords):
    # Repeated, out of range (4 > q, 0 < 1) or of the wrong length.
    with pytest.raises(ValueError):
        RandomCode(3, 2, codewords, 0)


def test_drawn_codes_equal_the_checked_codes_of_their_codewords():
    rng = random.Random(31)
    for _ in range(200):
        q, l = rng.randint(2, 9), rng.randint(1, 6)
        m = rng.randint(1, min(12, q ** l))
        code = sample_random_code(q, l, m, seed=rng.randint(0, 2 ** 64 - 1))
        checked = RandomCode(code.q, code.l, code.codewords, code.seed)
        assert code == checked and hash(code) == hash(checked) and repr(code) == repr(checked)


def test_component_discrimination_examples():
    bad = RandomCode(2, 2, ((1, 1), (1, 2), (2, 1)), 0)
    assert not component_discriminates(bad, (0, 1, 2), 0)
    assert not component_discriminates(bad, (0, 1, 2), 1)
    assert not verify_nwise_by_components(bad, 3)
    good = RandomCode(3, 2, ((1, 1), (2, 1), (3, 2)), 0)
    assert component_discriminates(good, (0, 1, 2), 0)
    assert verify_nwise_by_components(good, 3)


def test_column_filter_matches_the_per_subset_check():
    rng = random.Random(27)
    outcomes = set()
    for _ in range(400):
        q, l, n = rng.randint(2, 5), rng.randint(1, 5), rng.randint(2, 4)
        m = rng.randint(0, min(q ** l, 9))
        code = sample_random_code(q, l, m, seed=rng.randint(0, 2 ** 64 - 1))
        verdict = verify_nwise_by_components(code, n)
        assert verdict == reference_verify_nwise_by_components(code, n), (q, l, m, n)
        outcomes.add((verdict, m < n))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_column_filter_reads_every_chunk(monkeypatch):
    # Of the four triples only the last, (1, 2, 3), repeats a symbol in
    # both components, so at two subsets a chunk the second chunk decides.
    monkeypatch.setattr(capacity, "SUBSET_CHUNK", 2)
    bad = RandomCode(3, 2, ((3, 3), (1, 1), (1, 2), (2, 1)), 0)
    assert not reference_verify_nwise_by_components(bad, 3)
    assert not verify_nwise_by_components(bad, 3)
    good = RandomCode(3, 2, ((3, 3), (1, 1), (1, 2), (2, 3)), 0)
    assert verify_nwise_by_components(good, 3)


def test_sampler_draws_the_symbols_of_one_randrange_per_symbol():
    # A power of two never rejects an output; q = 2^63 + 1 rejects about
    # half of them (for small q the odds are near 2^-64).
    for q, l, m in [(2, 3, 8), (3, 4, 20), (4, 2, 16), (5, 1, 5), (9, 12, 8), (2 ** 63 + 1, 2, 6),
                    (3, 0, 1), (7, 3, 0)]:
        for seed in range(60):
            assert sample_random_code(q, l, m, seed).codewords == \
                reference_sample_codewords(q, l, m, seed), (q, l, m, seed)


def test_draw_continues_the_reference_sequence():
    # Vigna's SplitMix64 outputs for the seeds 0 and 1234567.
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF
    assert SplitMix64(1234567).next_u64() == 6457827717110365317
    for n in (1, 3, 2 ** 63 + 1, 1 << 64):
        a, b = SplitMix64(5), ReferenceSplitMix64(5)
        assert a.draw(n, 40) == [b.randrange(n) for _ in range(40)]
        assert [a.draw(n, 1)[0] for _ in range(5)] == [b.randrange(n) for _ in range(5)]
        assert [a.next_u64() for _ in range(3)] == [b.next_u64() for _ in range(3)]
        assert a.state == b.state


@pytest.mark.parametrize("n,count", [(0, 1), (-3, 5), (2 ** 64 + 1, 1)])
def test_draw_refuses_a_range_outside_1_to_2_pow_64(n, count):
    # Above 2^64 every output would be rejected, so the draw would never end.
    rng = SplitMix64(5)
    with pytest.raises(ValueError, match="1..2"):
        rng.draw(n, count)
    assert rng.state == 5  # nothing was drawn


def test_a_symbol_range_above_2_pow_64_is_refused():
    with pytest.raises(ValueError, match="1..2"):
        sample_random_code(2 ** 64 + 1, 1, 1, 0)


def test_pairwise_component_check_is_distinctness():
    rng = random.Random(3)
    for _ in range(20):
        code = sample_random_code(3, 3, rng.randint(2, 8), seed=rng.randint(0, 10 ** 6))
        assert verify_nwise_by_components(code, 2)  # distinct by construction
    dup_free = RandomCode(2, 2, ((1, 1), (2, 2)), 0)
    assert verify_nwise_by_components(dup_free, 2)


def test_component_condition_matches_lp_exhaustively():
    # Sufficiency is what the capacity reports rely on; the exhaustive
    # sweep also confirms necessity on these instances (no subset is
    # distinguishable without a discriminating component).
    for q, l, n in [(3, 2, 3), (2, 3, 3), (3, 2, 4)]:
        theory = simplex_power(q, l)
        codes = list(itertools.product(range(1, q + 1), repeat=l))
        full = RandomCode(q, l, tuple(codes), 0)
        for subset in itertools.combinations(range(len(codes)), n):
            by_components = any(component_discriminates(full, subset, c) for c in range(l))
            idxs = [codeword_state_index(q, codes[i]) for i in subset]
            states = [theory.generators[i] for i in idxs]
            by_lp = is_perfectly_distinguishable(theory, states, validate=False).distinguishable
            assert by_components == by_lp, (q, l, subset)


def test_component_verified_codes_pass_full_lp():
    rng = random.Random(11)
    checked = 0
    while checked < 6:
        code = sample_random_code(3, 3, rng.randint(3, 6), seed=rng.randint(0, 10 ** 6))
        if verify_nwise_by_components(code, 3):
            assert nwise_distinguishable_by_lp(code, 3)
            checked += 1


def test_randomized_search_reproducible():
    a = randomized_search(3, q=9, l=12, m_codewords=8, trials=40, seed=7)
    b = randomized_search(3, q=9, l=12, m_codewords=8, trials=40, seed=7)
    assert (a.failures, a.empirical_failure, a.bound) == (b.failures, b.empirical_failure, b.bound)
    c = randomized_search(3, q=9, l=12, m_codewords=8, trials=40, seed=7, workers=2)
    assert c.failures == a.failures


def test_randomized_search_edge_cases():
    single = randomized_search(2, q=3, l=2, m_codewords=1, trials=20, seed=1)
    assert single.failures == 0  # no N-subsets to fail
    with pytest.raises(ValueError):
        randomized_search(4, q=3, l=2, m_codewords=4, trials=5, seed=1)  # q < N
    with pytest.raises(ValueError):
        randomized_search(2, q=2, l=2, m_codewords=9, trials=5, seed=1)  # M > q^l


def test_randomized_search_caps_the_codeword_count(monkeypatch):
    # The cap is checked before any code is drawn; 2^40 codewords would
    # never finish drawing.
    def no_sampling(*args):
        raise AssertionError("a code was drawn past the cap")

    monkeypatch.setattr(capacity, "sample_random_code", no_sampling)
    for kwargs in (dict(m=40), dict(q=9, l=12, m_codewords=MAX_CODEWORDS + 1),
                   # 4,096 codewords of 400,000 symbols each: within the
                   # codeword and dimension caps, over MAX_SYMBOLS.
                   dict(q=2, l=400_000, m_codewords=MAX_CODEWORDS)):
        with pytest.raises(ValueError, match="beyond desk scale"):
            randomized_search(2, trials=5, seed=1, **kwargs)


def test_randomized_search_refuses_m_with_a_codeword_count(monkeypatch):
    # m would set q, l and the label m while M words are drawn: a code
    # the report would not describe. The refusal comes before any work.
    def no_work(*args):
        raise AssertionError("work began before the refusal")

    monkeypatch.setattr(capacity, "probabilistic_params", no_work)
    monkeypatch.setattr(capacity, "sample_random_code", no_work)
    for kwargs in (dict(m=5), dict(m=5, q=9, l=12)):
        with pytest.raises(ValueError, match="not both"):
            randomized_search(3, m_codewords=8, trials=10, seed=1, **kwargs)
    monkeypatch.undo()
    assert randomized_search(3, m=5, q=9, l=12, trials=2, seed=1).m == 5.0
    assert randomized_search(3, q=9, l=12, m_codewords=8, trials=2, seed=1).m == 3.0


def test_randomized_search_refuses_a_lone_q_or_l_and_no_codewords(monkeypatch):
    # A lone q or l was recomputed from m unannounced (q=50 reported q = 4),
    # and M = 0 ran every trial before failing in log2(0); q and l with
    # neither m nor M leave the codeword count unset. Each refusal names
    # the parameter and comes before any work.
    def no_work(*args):
        raise AssertionError("work began before the refusal")

    monkeypatch.setattr(capacity, "probabilistic_params", no_work)
    monkeypatch.setattr(capacity, "sample_random_code", no_work)
    for kwargs, message in ((dict(m=4, q=50), "l is missing"), (dict(m=4, l=24), "q is missing"),
                            (dict(q=9, m_codewords=8), "l is missing"),
                            (dict(q=9, l=12), "give m, or an explicit codeword count")):
        with pytest.raises(ValueError, match=f"^{message}"):
            randomized_search(3, trials=5, seed=1, **kwargs)
    for count in (0, -2):
        with pytest.raises(ValueError, match="m_codewords must be >= 1"):
            randomized_search(2, q=3, l=2, m_codewords=count, trials=5, seed=1)


def test_randomized_search_from_m():
    rep = randomized_search(2, m=4, trials=30, seed=3)
    assert (rep.q, rep.l, rep.dimension) == (4, 8, 25)
    assert rep.m == 4.0
    assert rep.kappa_lower_bound == pytest.approx(4 / math.log2(25), abs=1e-12)


RATIONAL_PENTAGON = [
    (F(1), F(0)),
    (F(31, 100), F(95, 100)),
    (F(-81, 100), F(59, 100)),
    (F(-81, 100), F(-59, 100)),
    (F(31, 100), F(-95, 100)),
]


def test_dg_check_on_squares_and_pentagons():
    assert danzer_grunbaum_check([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert not danzer_grunbaum_check(RATIONAL_PENTAGON)
    assert danzer_grunbaum_check([(0, 0, 0), (3, 1, 2)])


@pytest.mark.parametrize("points,message", [
    ([(0, 0), (0, 0)], "points must be distinct"),
    ([], "need at least one point"),
    ([(0, 0), (1, 0, 0)], "points must share a dimension"),
], ids=["repeated", "empty", "mixed-dimension"])
def test_dg_check_refuses_a_malformed_point_list(points, message):
    with pytest.raises(ValueError, match=message):
        danzer_grunbaum_check(points)


def test_dg_check_decides_one_lp_per_orbit(monkeypatch):
    # The 3-cube's 28 vertex pairs fall into 3 orbits of its group (one per
    # Hamming distance): one LP each, counted in this process (no pool).
    decided = []
    decide = hypergraph.is_perfectly_distinguishable

    def counted(*args, **kwargs):
        decided.append(args[1])
        return decide(*args, **kwargs)

    monkeypatch.setattr(hypergraph, "is_perfectly_distinguishable", counted)
    assert danzer_grunbaum_check(list(itertools.product((1, -1), repeat=3)))
    assert len(decided) == 3
    assert danzer_grunbaum_check([(F(1, 3), 2)])  # a single point holds


def test_dg_check_fails_on_interior_points():
    assert not danzer_grunbaum_check([(0, 0), (4, 0), (0, 4), (1, 1)])


def test_dg_check_on_hypercube_vertex_subsets():
    rng = random.Random(2)
    for n in (2, 3, 4):
        verts = list(itertools.product((0, 1), repeat=n))
        for _ in range(4):
            k = rng.randint(2, min(6, len(verts)))
            subset = rng.sample(verts, k)
            assert danzer_grunbaum_check(subset)


def test_dg_check_rejects_five_random_planar_points():
    failures = 0
    for seed in range(30):
        pts = random_planar_points(random.Random(4000 + seed), 5)
        if not danzer_grunbaum_check(pts):
            failures += 1
    assert failures == 30
