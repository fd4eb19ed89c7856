"""Shared helpers: seeded instance generators and independent oracles."""

import contextlib
import itertools
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polygpt import discrimination, lp, simplex
from polygpt.families import FAMILIES, codeword_state_index, parse_family_spec, simplex_power
from polygpt.linalg import dot, pivot_columns, rat, solve_columns, unit_vector
from polygpt.theory import FLOAT, Theory, reduce_to_pure_states


def random_rational(rng, span=12, den=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_planar_points(rng, n):
    pts = set()
    while len(pts) < n:
        pts.add((random_rational(rng), random_rational(rng)))
    return sorted(pts)


def random_planar_theory(seed, min_pts=4, max_pts=7):
    """Random rational vertex set in the plane, lifted to a dim-3 theory
    and reduced to its extreme points."""
    rng = random.Random(seed)
    pts = random_planar_points(rng, rng.randint(min_pts, max_pts))
    gens = tuple((Fraction(1), x, y) for x, y in pts)
    t = Theory(f"planar-{seed}", 3, (Fraction(1), Fraction(0), Fraction(0)), gens)
    return reduce_to_pure_states(t)


def random_lifted_theory(seed, dim_range=(3, 4), gens_range=(3, 6)):
    """Random polytope theory in dimension 3 or 4 for property sweeps."""
    rng = random.Random(seed)
    d = rng.randint(*dim_range)
    n = rng.randint(*gens_range)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(random_rational(rng, span=6, den=3) for _ in range(d - 1)))
    gens = tuple((Fraction(1),) + p for p in sorted(pts))
    unit = tuple(Fraction(1 if i == 0 else 0) for i in range(d))
    return reduce_to_pure_states(Theory(f"random-{seed}", d, unit, gens))


def invert(a):
    """Exact inverse of a square rational matrix; None when singular."""
    n = len(a)
    cols = solve_columns(a, [unit_vector(n, i) for i in range(n)])
    return None if cols is None else [tuple(col[i] for col in cols) for i in range(n)]


def mat_vec(a, x):
    return tuple(dot(row, x) for row in a)


def reference_rank(rows):
    """Row rank by plain Fraction Gaussian elimination, with no tolerance:
    a float is read as the binary fraction it stores."""
    m = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is not None:
            m[r], m[pivot] = m[pivot], m[r]
            for i in range(r + 1, len(m)):
                f = m[i][col] / m[r][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            r += 1
    return r


def linearly_independent(states):
    """Exact test; every entry must be an int, a Fraction or a "p/q" string."""
    return len(pivot_columns([[rat(v) for v in s] for s in states])) == len(states)


def tournament_count(n, n_arity=2):
    """Measurements needed to single out one of n states that are mutually
    N-wise distinguishable: ceil((n-1)/(N-1))."""
    if n < 1 or n_arity < 2:
        raise ValueError("need n >= 1 and N >= 2")
    return -((-(n - 1)) // (n_arity - 1))


def prism_pair_index(a_index, b_index, b_count):
    """Generator index of the (a, b) pair in a prism product (A-major)."""
    return a_index * b_count + b_index


def nwise_distinguishable_by_lp(code, n_arity):
    """Ground-truth N-wise mutual distinguishability of a random code's
    codeword states in the simplex-power theory, by the exact LP over every
    N-subset (desk-scale codes only)."""
    theory = simplex_power(code.q, code.l)
    indices = [codeword_state_index(code.q, w) for w in code.codewords]
    return all(discrimination.is_perfectly_distinguishable(
        theory, [theory.generators[i] for i in subset], validate=False).distinguishable
        for subset in itertools.combinations(indices, n_arity))


# Family specs with a known symmetry group and reference hints
# (reference_hints); test_families proves every computed generator.
SYMMETRIC_FAMILIES = ([f"hypercube:m={m}" for m in range(1, 7)]
                      + [f"simplex:d={d}" for d in range(1, 7)]
                      + [f"simplex-power:q={q},l={l}"
                         for q, l in ((2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4))]
                      + ["ngon:n=3", "ngon:n=4", "ngon:n=6"])


# --- reference symmetry groups -----------------------------------------------
# A few permutations of a family's generator indices, written by hand from
# each constructor's index convention, that generate its symmetry group.

def _index_permutations(points, maps):
    """Each map on the points, as a permutation of the point indices."""
    index = {p: k for k, p in enumerate(points)}
    return tuple(tuple(index[f(p)] for p in points) for f in maps)


def hypercube_symmetries(m):
    """Adjacent coordinate swaps and one sign flip, which generate the
    hyperoctahedral group, on hypercube_theory(m)'s vertex indices."""
    patterns = list(itertools.product((1, -1), repeat=m))
    maps = [lambda p, i=i: p[:i] + (p[i + 1], p[i]) + p[i + 2:] for i in range(m - 1)]
    maps.append(lambda p: (-p[0],) + p[1:])
    return _index_permutations(patterns, maps)


def simplex_power_symmetries(q, l):
    """On factor 0 a symbol transposition and the q-cycle, then a factor
    transposition and the l-cycle, which generate S_q wr S_l, on
    simplex_power(q, l)'s indices (codewords read base q, as in
    codeword_state_index)."""
    if q == 1:
        return ()  # one state: nothing to move
    words = list(itertools.product(range(q), repeat=l))
    swap = (1, 0, *range(2, q))
    maps = [lambda w: (swap[w[0]],) + w[1:], lambda w: ((w[0] + 1) % q,) + w[1:]]
    if l >= 2:
        maps += [lambda w: (w[1], w[0]) + w[2:], lambda w: w[1:] + w[:1]]
    return _index_permutations(words, maps)


def simplex_symmetries(d):
    """One transposition and the d-cycle of the d vertices."""
    return simplex_power_symmetries(d, 1)  # simplex_power(d, 1) is classical_simplex(d)


def ngon_symmetries(n):
    """The rotation and a reflection of the n vertices."""
    return _index_permutations(range(n), [lambda k: (k + 1) % n, lambda k: -k % n])


REFERENCE_HINTS = {"simplex": simplex_symmetries, "hypercube": hypercube_symmetries,
                   "ngon": ngon_symmetries, "simplex-power": simplex_power_symmetries}


def reference_hints(spec):
    """The hand-written generators of a SYMMETRIC_FAMILIES spec's group."""
    family = parse_family_spec(spec)
    return REFERENCE_HINTS[family.kind](*(family.params[k] for k in FAMILIES[family.kind][1]))


def known_group_order(spec):
    """d!, 2^m m!, (q!)^l l! or 2n: the order of a SYMMETRIC_FAMILIES spec's group."""
    family = parse_family_spec(spec)
    p = family.params
    return {"simplex": lambda: math.factorial(p["d"]),
            "hypercube": lambda: 2 ** p["m"] * math.factorial(p["m"]),
            "simplex-power": lambda: math.factorial(p["q"]) ** p["l"] * math.factorial(p["l"]),
            "ngon": lambda: 2 * p["n"]}[family.kind]()


def planted(theory, perms):
    """A fresh copy of theory whose cached Theory.symmetries is perms, so
    that build_hypergraph moves answers along them in place of the
    computed group: true generators, false hints or none at all."""
    fresh = replace(theory)
    vars(fresh)["symmetries"] = tuple(perms)
    return fresh


def stabilizer_chain(base, perms, v):
    """For each base point b_k, its orbit under the perms (of 0..v-1) that
    fix b_0..b_{k-1}, each orbit point mapped to a perm that takes b_k to
    it. When perms are a strong generating set for the base, the product
    of the orbit sizes is the group's order, and sifts decides membership;
    else the product is at most the order."""
    chain = []
    for k, b in enumerate(base):
        level = [p for p in perms if all(p[x] == x for x in base[:k])]
        transversal = {b: tuple(range(v))}
        stack = [b]
        while stack:
            y = stack.pop()
            for p in level:
                if p[y] not in transversal:
                    transversal[p[y]] = tuple(p[x] for x in transversal[y])
                    stack.append(p[y])
        chain.append(transversal)
    return chain


def sifts(chain, base, perm):
    """Whether perm reduces to the identity through the chain's transversals."""
    for b, transversal in zip(base, chain):
        t = transversal.get(perm[b])
        if t is None:
            return False
        inverse = {image: x for x, image in enumerate(t)}
        perm = tuple(inverse[y] for y in perm)  # t^-1 perm fixes b
    return perm == tuple(range(len(perm)))


def float_ngon(n):
    """The regular n-gon on the unit circle in float mode, as ngon_theory
    builds it for every n but 3, 4 and 6."""
    gens = tuple((1.0, math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
                 for k in range(n))
    return Theory(f"ngon-{n}", 3, (1.0, 0.0, 0.0), gens, numeric_mode=FLOAT)


# --- membership with the sum row stated --------------------------------------

def reference_convex_weights(vectors, target, arith):
    """Nonnegative a with sum(a_j vectors[j]) = target and the row sum(a) = 1
    stated; None when no such weights exist."""
    rows = [[v[j] for v in vectors] for j in range(len(target))] + [[1] * len(vectors)]
    res = simplex.solve_standard_min([0] * len(vectors), rows, [*target, 1], arith=arith)
    return res.x if res.status == simplex.OPTIMAL else None


def reference_is_state(t, x):
    return (t.arith().is_zero(dot(t.unit, x) - 1)
            and reference_convex_weights(t.generators, x, t.arith()) is not None)


def reference_pure_states(t):
    """The generators reduce_to_pure_states keeps, by the program with the sum row."""
    arith = t.arith()
    unique = []
    for g in t.generators:
        if not any(all(arith.is_zero(a - b) for a, b in zip(g, h)) for h in unique):
            unique.append(g)
    return tuple(g for i, g in enumerate(unique) if len(unique) == 1
                 or reference_convex_weights(unique[:i] + unique[i + 1:], g, arith) is None)


def random_invertible_matrix(rng, d):
    while True:
        m = [[random_rational(rng, span=3, den=2) for _ in range(d)] for _ in range(d)]
        inv = invert(m)
        if inv is not None:
            return m, inv


# --- witness oracles ---------------------------------------------------------

def plain_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def plain_is_effect(t, e):
    return all(0 <= plain_dot(e, g) <= 1 for g in t.generators)


def plain_is_measurement(t, m):
    total = tuple(sum(col) for col in zip(*m.effects))
    return all(plain_is_effect(t, e) for e in m.effects) and total == t.unit


def plain_verify_witness(t, states, m):
    """verify_witness by the plain Fraction formula, for exact theories."""
    return (len(m.effects) == len(states) and plain_is_measurement(t, m)
            and all(plain_dot(e, s) == (i == j) for i, e in enumerate(m.effects)
                    for j, s in enumerate(states)))


# --- LP oracles --------------------------------------------------------------

def boxed_random_lp(seed, num_vars=None, extra_rows=None, box=6):
    """Random bounded LP: a full variable box plus a few random rows.
    Bounded and pointed by construction, so vertex enumeration is a
    complete oracle."""
    rng = random.Random(seed)
    n = num_vars or rng.randint(1, 3)
    k = extra_rows if extra_rows is not None else rng.randint(0, 4)
    rows = []
    for i in range(n):
        e = [Fraction(1 if j == i else 0) for j in range(n)]
        rows.append((e, lp.LE, Fraction(box)))
        rows.append((e, lp.GE, Fraction(-box)))
    for _ in range(k):
        row = [random_rational(rng, span=4, den=2) for _ in range(n)]
        rel = rng.choice([lp.LE, lp.GE])
        rows.append((row, rel, random_rational(rng, span=8, den=2)))
    objective = [random_rational(rng, span=5, den=2) for _ in range(n)]
    return lp.problem(objective, rows, n)


def enumerate_feasible_vertices(prob):
    """All basic feasible points: every n-subset of constraints solved as
    equalities, kept when the full system is satisfied."""
    n = prob.num_vars
    vertices = []
    for subset in itertools.combinations(range(len(prob.constraints)), n):
        a = [prob.constraints[i][0] for i in subset]
        b = [prob.constraints[i][2] for i in subset]
        solved = solve_columns(a, [b])
        if solved is not None and lp.check_solution(prob, solved[0]):
            vertices.append(solved[0])
    return vertices


def brute_force_optimum(prob):
    """Best vertex value, or None when no feasible vertex exists."""
    best = None
    for x in enumerate_feasible_vertices(prob):
        val = sum(c * v for c, v in zip(prob.objective, x))
        if best is None or val > best:
            best = val
    return best


def evidence_fractions(evidence):
    """The Fraction form of discrimination.ScaledEvidence: a Measurement
    for a witness, a tuple for a Farkas vector."""
    values = tuple(tuple(Fraction(v, evidence.den) for v in row) for row in evidence.rows)
    return discrimination.Measurement(values) if evidence.witness else values[0]


# --- discrimination LPs built row by row ------------------------------------

def reference_effect_rows(theory, n_states):
    """The cone-membership rows over e_1..e_{N-1}, each row built fresh for
    one problem: e_i . g >= 0 block by block, then sum_i e_i . g <= 1."""
    d = theory.dim
    nvars = d * (n_states - 1)
    rows = []
    for i in range(n_states - 1):
        for v in theory.generators:
            row = [0] * nvars
            row[i * d:(i + 1) * d] = list(v)
            rows.append((row, lp.GE, 0))
    for v in theory.generators:
        rows.append((list(v) * (n_states - 1), lp.LE, 1))
    return nvars, rows


def reference_feasibility_problem(theory, states):
    """discrimination._feasibility_problem with no shared block."""
    n = len(states)
    nvars, rows = reference_effect_rows(theory, n)
    d = theory.dim
    for i in range(n - 1):
        row = [0] * nvars
        row[i * d:(i + 1) * d] = list(states[i])
        rows.append((row, lp.EQ, 1))
    rows.append((list(states[n - 1]) * (n - 1), lp.EQ, 0))
    return lp.problem([0] * nvars, rows, nvars)


def reference_success_problem(theory, states, priors):
    """discrimination.success_probability_problem's problem with no shared block."""
    n = len(states)
    nvars, rows = reference_effect_rows(theory, n)
    objective = [priors[i] * states[i][j] - priors[n - 1] * states[n - 1][j]
                 for i in range(n - 1) for j in range(theory.dim)]
    return lp.problem(objective, rows, nvars)


# --- exact simplex paths -----------------------------------------------------

# The regular 11-gon, vertex k at (cos, sin)(2 pi k / 11) rounded with
# Fraction.limit_denominator(1000), as an exact theory file. Its integer-scaled
# rows reach about 10^17, beyond what the float guide's absolute tolerance can
# pivot on, so every guide stalls (ROADMAP item 8). Written out as "p/q"
# literals, so no platform's cos and sin enter.
ROUNDED_11GON = {"name": "ngon-11-rounded", "dim": 3, "unit": [1, 0, 0], "generators": [
    [1, x, y] for x, y in (
        ("1", "0"), ("832/989", "439/812"), ("415/999", "765/841"), ("-75/527", "389/393"),
        ("-647/988", "690/913"), ("-379/395", "91/323"), ("-379/395", "-91/323"),
        ("-647/988", "-690/913"), ("-75/527", "-389/393"), ("415/999", "-765/841"),
        ("832/989", "-439/812"))]}


@contextlib.contextmanager
def plain_bland():
    """Exact solves inside run the unguided Bland loop: the float guide
    reports nothing, so every solve takes the fallback."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_float_guide", lambda *args: None)
        yield


@contextlib.contextmanager
def exact_bland_runs():
    """Collects one entry per run of the exact Bland loop, that is, per
    guided solve that fell back."""
    runs = []
    bland = simplex._bland

    def counted(costs, rows, rhs, arith):
        if arith.exact:
            runs.append(len(rows))
        return bland(costs, rows, rhs, arith)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_bland", counted)
        yield runs


# --- float decision paths ----------------------------------------------------

def reference_float_distinguishable(theory, states, prob):
    """The two-verdict float decision: the forward and the reversed
    feasibility verdicts, each refusal backed by a success-probability gap
    check, must agree."""
    first = discrimination._verdict(theory, states, prob)
    rev = tuple(reversed(states))
    second = discrimination._verdict(theory, rev, discrimination._feasibility_problem(theory, rev))
    if second is not None and second.witness is not None:
        effects = tuple(reversed(second.witness.effects))
        second = discrimination.DistinguishabilityAnswer(
            True, witness=discrimination.Measurement(effects), problem=prob)
    clear = [answer for answer in (first, second) if answer is not None]
    if not clear:
        raise discrimination.IndeterminateError("numerically ambiguous")
    if clear[0].distinguishable != clear[-1].distinguishable:
        raise discrimination.IndeterminateError("float backends disagree")
    return clear[0]


@contextlib.contextmanager
def reference_float_path():
    """Float decisions inside take the two-verdict path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrimination, "_float_distinguishable", reference_float_distinguishable)
        yield


# --- polygon oracle ----------------------------------------------------------

def ngon_pair_separable_by_direction(n, i, j, steps=2000, margin=1e-6):
    """Supporting-line search on the regular n-gon: a direction whose
    maximum over the vertices is attained only at vertex i and whose
    minimum only at vertex j certifies the pair."""
    verts = [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
             for k in range(n)]
    for s in range(steps):
        theta = 2 * math.pi * s / steps
        d = (math.cos(theta), math.sin(theta))
        values = [d[0] * x + d[1] * y for x, y in verts]
        hi, lo = max(values), min(values)
        top = [k for k, v in enumerate(values) if v > hi - margin]
        bottom = [k for k, v in enumerate(values) if v < lo + margin]
        if top == [i] and bottom == [j]:
            return True
    return False


def interior_angle_sum_exceeds_pi(n) -> bool:
    """Adjacent-vertex criterion for the regular n-gon: distinguishability
    of neighbours needs alpha_i + alpha_{i+1} <= pi."""
    interior = math.pi * (n - 2) / n
    return 2 * interior > math.pi


# --- clique-search oracles ---------------------------------------------------

def _reference_extends(node, members, h):
    for sub in itertools.combinations(members, h.n_arity - 1):
        if tuple(sorted(sub + (node,))) not in h.edges:
            return False
    return True


def _reference_better(candidate, best):
    return len(candidate) > len(best) or (len(candidate) == len(best) and candidate < best)


def reference_greedy_max_clique(h):
    """The list-based greedy search: grow each hyperedge once, testing
    every node in ascending order against the edge set itself."""
    best = ()
    for edge in sorted(h.edges):
        grown = list(edge)
        for node in range(h.num_nodes):
            if node not in grown and _reference_extends(node, grown, h):
                grown.append(node)
        grown = tuple(sorted(grown))
        if _reference_better(grown, best):
            best = grown
    return best


def reference_exact_max_clique(h):
    """The list-based branch and bound, with no node budget."""
    if not h.edges:
        return ()
    n = h.n_arity
    best = []

    def extend(q, candidates):
        nonlocal best
        if len(q) >= n and len(q) > len(best):
            best = list(q)
        if len(q) + len(candidates) <= len(best):
            return
        for i, v in enumerate(candidates):
            rest = [w for w in candidates[i + 1:] if _reference_extends(w, q + [v], h)]
            extend(q + [v], rest)
            if len(q) + len(candidates) - (i + 1) <= len(best):
                return

    extend([], list(range(h.num_nodes)))
    return tuple(best)
