"""Memory-capacity formulas, verification runs, and the probabilistic
construction.

Covers the pairwise compression factor, brute verification of the
hypercube construction (closed-form witnesses cross-checked against the
LP), parameter evaluation and failure bound for the random simplex-power
construction, Monte Carlo sampling of random codes, and the parallel
supporting-hyperplanes check for point sets.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .discrimination import pairwise_distinguishable, verify_witness
from .exactlog import floor_of_log2_squared, floor_of_ratio_to_log2, log2_value
from .families import hypercube_effect, hypercube_theory
from .hypergraph import build_hypergraph
from .linalg import rat
from .parallel import parallel_map
from .theory import Measurement, Theory, reduce_to_pure_states

MAX_DIMENSION = 10 ** 6  # largest code dimension randomized_search accepts
MAX_CODEWORDS = 2 ** 12  # most codewords it draws; a trial checks all C(M, N) subsets
MAX_SYMBOLS = 2 ** 22  # most symbols M * l that one trial draws
SUBSET_CHUNK = 2 ** 14  # N-subsets that one trial's component check holds at once

# --- compression factors ----------------------------------------------------

def d_pairwise(m: int) -> int:
    """Minimal GPT dimension hosting 2^m pairwise distinguishable states."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return m + 1


def kappa_pairwise(m: int) -> float:
    """Pairwise compression factor m / log2(m + 1), certified to ~15
    digits; ValueError when it lies beyond the float range."""
    try:
        return float(m / Fraction(log2_value(Fraction(d_pairwise(m)))))
    except OverflowError:
        raise ValueError(f"kappa for an m of {m.bit_length()} bits lies beyond "
                         "the float range") from None


# --- hypercube verification --------------------------------------------------

@dataclass
class CapacityReport:
    n_arity: int
    m: int
    dimension: int
    kappa: float
    achieved_set_size: int
    verified: bool


def _face_measurements(theory: Theory) -> tuple:
    """Measurement k - 1 reads coordinate k: the face effect of
    hypercube_effect(m, k), then its complement to the unit."""
    m = theory.dim - 1
    return tuple(Measurement((e, tuple(u - v for u, v in zip(theory.unit, e))))
                 for e in (hypercube_effect(m, k) for k in range(1, m + 1)))


def _pair_checks(theory: Theory, faces: tuple, pair) -> tuple:
    """The closed-form witness on a vertex pair, then the LP, the
    independent second route. The witness is the face measurement of the
    first coordinate where the pair differs; hypercube_theory lists +1
    before -1, so for i < j its face effect is the first state's."""
    i, j = pair
    a, b = theory.generators[i], theory.generators[j]
    k = next(pos for pos in range(1, theory.dim) if a[pos] != b[pos])
    return verify_witness(theory, [a, b], faces[k - 1]), pairwise_distinguishable(theory, i, j)


def verify_hypercube_memory(m: int, workers: int = 1) -> CapacityReport:
    """Run both the closed-form witnesses and the exact LP over all vertex
    pairs of the m-cube theory, with the m face measurements built once;
    verified only when every pair passes both."""
    if not 1 <= m <= 8:
        raise ValueError("m must lie in 1..8 for the pairwise sweep")
    theory = hypercube_theory(m)
    pairs = list(itertools.combinations(range(theory.num_generators), 2))
    results = parallel_map(functools.partial(_pair_checks, theory, _face_measurements(theory)),
                           pairs, workers)
    verified = all(w and l for w, l in results)
    return CapacityReport(2, m, theory.dim, kappa_pairwise(m),
                          theory.num_generators, verified)


# --- probabilistic construction ----------------------------------------------

def probabilistic_params(n_arity: int, m: int) -> Tuple[int, int, int]:
    """(q, l, dim) for the random simplex-power construction; floors are
    evaluated with certified enclosures, never guessed."""
    if n_arity < 2:
        raise ValueError("N must be >= 2")
    if m < 2:
        raise ValueError("m must be >= 2 so that q >= 1")
    if m < (n_arity - 1).bit_length():  # 2^m < N, without forming 2^m
        raise ValueError("need at least N states: 2^m >= N")
    q = floor_of_log2_squared(Fraction(m))
    ratio = Fraction(2 * q, n_arity * (n_arity - 1))
    base = max(ratio, Fraction(2))
    l = floor_of_ratio_to_log2(Fraction(2 * n_arity * m), base)
    return q, l, l * (q - 1) + 1


def failure_probability_bound(q: int, l: int, m_codewords: int, n_arity: int) -> Fraction:
    """Union bound on a random M-codeword code having some N-subset with
    no discriminating component: C(M,N) (1 - prod_k (1 - k/q))^l."""
    if n_arity < 2:
        raise ValueError("N must be >= 2")
    if n_arity > q:
        raise ValueError("bound is vacuous for N > q (the product is not positive)")
    if q < 1 or l < 0 or m_codewords < 0:
        raise ValueError("parameters out of range")
    product = Fraction(1)
    for k in range(1, n_arity):
        product *= 1 - Fraction(k, q)
    return math.comb(m_codewords, n_arity) * (1 - product) ** l


class SplitMix64:
    """Tiny splittable PRNG: platform-stable, seeded, forkable per trial."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        return self.draw(1 << 64, 1)[0]

    def draw(self, n: int, count: int) -> list:
        """count uniform values in range(n), the ones that count calls
        draw(n, 1) return. An output at or above the largest multiple of n
        up to 2^64 is rejected, so every value is equally likely; n outside
        1..2^64 is a ValueError (above 2^64 every output would be)."""
        if not 1 <= n <= 1 << 64:
            raise ValueError(f"n must lie in 1..2^64, got {n}")
        mask = self.MASK
        limit = (1 << 64) - (1 << 64) % n
        state = self.state
        values = []
        while len(values) < count:
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            z ^= z >> 31
            if z < limit:
                values.append(z % n)
        self.state = state
        return values

    def derive(self, index: int) -> "SplitMix64":
        child = SplitMix64(self.state ^ (0xA5A5A5A5A5A5A5A5 + index))
        child.next_u64()
        return child


@dataclass(frozen=True)
class RandomCode:
    q: int
    l: int
    codewords: tuple  # distinct tuples over symbols 1..q
    seed: int

    def __post_init__(self):
        if len(set(self.codewords)) != len(self.codewords):
            raise ValueError("codewords must be distinct")
        for w in self.codewords:
            if len(w) != self.l or any(not 1 <= s <= self.q for s in w):
                raise ValueError(f"bad codeword {w}")

    @classmethod
    def _drawn(cls, q: int, l: int, codewords: tuple, seed: int) -> "RandomCode":
        """A code of distinct codewords over 1..q, each of length l, as
        sample_random_code draws them: built without __post_init__'s check."""
        code = object.__new__(cls)
        for name, value in (("q", q), ("l", l), ("codewords", codewords), ("seed", seed)):
            object.__setattr__(code, name, value)
        return code


def sample_random_code(q: int, l: int, m_codewords: int, seed: int) -> RandomCode:
    """Draw M distinct codewords with i.i.d. uniform symbols; collisions
    are redrawn (distinctness is required for distinguishability)."""
    if m_codewords > q ** l:
        raise ValueError(f"cannot draw {m_codewords} distinct codewords from {q}^{l}")
    rng = SplitMix64(seed)
    seen = set()
    words = []
    while len(words) < m_codewords:
        # One draw for every word still missing: a word takes the next l
        # symbols whether or not it repeats one already drawn.
        need = m_codewords - len(words)
        symbols = [v + 1 for v in rng.draw(q, need * l)]
        for i in range(need):
            w = tuple(symbols[i * l:(i + 1) * l])
            if w not in seen:
                seen.add(w)
                words.append(w)
    return RandomCode._drawn(q, l, tuple(words), seed)


def verify_nwise_by_components(code: RandomCode, n_arity: int) -> bool:
    """Sufficient condition for N-wise mutual distinguishability: every
    N-subset of codewords has some all-distinct component.

    Each component in turn keeps only the subsets that still lack an
    all-distinct symbol there. The subsets come in chunks of
    SUBSET_CHUNK, so a trial holds no more than that at once, whatever
    its codeword count."""
    words = code.codewords
    subsets = itertools.combinations(range(len(words)), n_arity)
    while pending := list(itertools.islice(subsets, SUBSET_CHUNK)):
        for c in range(code.l):
            symbol = [w[c] for w in words].__getitem__
            pending = [s for s in pending if len(set(map(symbol, s))) < n_arity]
            if not pending:
                break
        else:
            return False
    return True


@dataclass
class RandomSearchReport:
    n_arity: int
    m: Optional[float]
    q: int
    l: int
    dimension: int
    kappa_lower_bound: Optional[float]
    bound: Fraction
    failures: int
    trials: int
    empirical_failure: Optional[float]  # None when no trial ran
    seed: int


def _trial_fails(q: int, l: int, m_codewords: int, n_arity: int, seed: int) -> bool:
    code = sample_random_code(q, l, m_codewords, seed)
    return not verify_nwise_by_components(code, n_arity)


def randomized_search(n_arity: int, m: Optional[int] = None, trials: int = 100,
                      seed: int = 0, q: Optional[int] = None, l: Optional[int] = None,
                      m_codewords: Optional[int] = None,
                      workers: int = 1) -> RandomSearchReport:
    """Monte Carlo over random codes: empirical failure fraction of the
    component check next to the exact union bound."""
    if m is not None and m_codewords is not None:
        raise ValueError("give m or an explicit codeword count, not both")
    if (q is None) != (l is None):
        raise ValueError(f"{'l' if l is None else 'q'} is missing: give q and l together")
    if m_codewords is not None and m_codewords < 1:
        raise ValueError(f"m_codewords must be >= 1, got {m_codewords}")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if q is None:
        if m is None:
            raise ValueError("give m, or explicit q and l")
        q, l, _ = probabilistic_params(n_arity, m)
    if m_codewords is None:
        if m is None:
            raise ValueError("give m, or an explicit codeword count")
        if m >= MAX_CODEWORDS.bit_length():  # 2^m > MAX_CODEWORDS, without forming 2^m
            raise ValueError("parameters are beyond desk scale")
        m_codewords = 2 ** m
    dim = l * (q - 1) + 1
    if (m_codewords > MAX_CODEWORDS or dim > MAX_DIMENSION or m_codewords * l > MAX_SYMBOLS
            or m_codewords > q ** l):
        raise ValueError("parameters are beyond desk scale")
    if n_arity > q:
        raise ValueError("q < N: no component can ever discriminate")
    bound = failure_probability_bound(q, l, m_codewords, n_arity)
    # The report prints the bound exactly; refuse one that Python cannot print.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if digits and max(bound.numerator, bound.denominator) >= 10 ** digits:
        raise ValueError(f"the exact union bound has more than {digits} digits, "
                         "the interpreter's limit for printing an integer")

    root = SplitMix64(seed)
    trial_seeds = [root.derive(i).next_u64() for i in range(trials)]
    failures = sum(parallel_map(functools.partial(_trial_fails, q, l, m_codewords, n_arity),
                                trial_seeds, workers))

    eff_m = math.log2(m_codewords) if m is None else float(m)
    kappa_lb = eff_m / log2_value(Fraction(dim)) if dim > 1 else None
    return RandomSearchReport(n_arity, eff_m, q, l, dim, kappa_lb, bound,
                              failures, trials,
                              failures / trials if trials else None, seed)


# --- parallel supporting hyperplanes ------------------------------------------

def danzer_grunbaum_check(points: Sequence[Sequence]) -> bool:
    """Whether every pair of the (rational) points admits two parallel
    hyperplanes supporting the set, one through each point. Non-extreme
    points fail immediately; the extreme points hold when every pair is an
    edge of the lifted theory's N = 2 hypergraph, one LP per orbit of its
    symmetry group."""
    pts = [tuple(rat(v) for v in p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
    if not pts:
        raise ValueError("need at least one point")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points must share a dimension")
    lifted = tuple((Fraction(1),) + p for p in pts)
    unit = tuple(Fraction(1 if i == 0 else 0) for i in range(n + 1))
    theory = Theory("lifted-points", n + 1, unit, lifted)
    reduced = reduce_to_pure_states(theory)
    if reduced.num_generators < len(pts):
        return False  # some point is a convex combination of the others
    return len(pts) == 1 or len(build_hypergraph(reduced, 2).edges) == math.comb(len(pts), 2)
