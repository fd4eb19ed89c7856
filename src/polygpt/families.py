"""Constructors for the bundled theory families.

Simplices, hypercube theories, regular n-gons, prism (Cartesian) products,
and iterated simplex powers. All constructors emit generators already
normalized to the unit hyperplane. None states its theory's symmetry
group: Theory.symmetries computes it from the generators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import dot, unit_vector
from .theory import EXACT, FLOAT, Theory

MAX_GENERATORS = 4096  # most generators any constructor builds


def _refuse_above_cap(what: str, base: int, exponent: int = 1) -> None:
    """Refuse base^exponent > MAX_GENERATORS generators, without forming the
    power when the exponent alone puts it past the cap."""
    if base > 1 and exponent >= MAX_GENERATORS.bit_length():
        count = f"{base}^{exponent}"
    elif base ** exponent > MAX_GENERATORS:
        count = base ** exponent
    else:
        return
    raise ValueError(f"{what} = {count} generators exceed the cap {MAX_GENERATORS}")


def classical_simplex(d: int) -> Theory:
    """Classical d-outcome theory: the positive orthant with the summing unit."""
    if d < 1:
        raise ValueError("d must be >= 1")
    _refuse_above_cap("d", d)
    gens = [unit_vector(d, i) for i in range(d)]
    unit = (Fraction(1),) * d
    return Theory(f"simplex-{d}", d, unit, tuple(gens))


def hypercube_theory(m: int) -> Theory:
    """Cone x0 >= max |x_i| in dimension m+1; 2^m vertex states."""
    if m < 1:
        raise ValueError("m must be >= 1")
    _refuse_above_cap("2^m", 2, m)
    gens = [hypercube_state(eps) for eps in itertools.product((1, -1), repeat=m)]
    unit = unit_vector(m + 1, 0)
    return Theory(f"hypercube-{m}", m + 1, unit, tuple(gens))


def hypercube_state(eps: Sequence[int]) -> tuple:
    """Vertex state for a sign pattern: leading normalization 1, then eps."""
    if not eps or any(e not in (1, -1) for e in eps):
        raise ValueError("eps must be a nonempty vector over {+1, -1}")
    return (Fraction(1),) + tuple(Fraction(e) for e in eps)


def hypercube_effect(m: int, i: int) -> tuple:
    """Face effect reading coordinate i: x -> (x0 + x_i) / 2."""
    if not 1 <= i <= m:
        raise ValueError(f"effect index {i} out of range 1..{m}")
    half = Fraction(1, 2)
    return tuple(half if j in (0, i) else Fraction(0) for j in range(m + 1))


def ngon_theory(n: int) -> Theory:
    """Regular n-gon state space, vertex k at angle k theta = 2 pi k / n.

    For n = 3, 4 and 6, c = 2 cos theta is an integer, and vertex k is
    (1, T_k(c/2), U_{k-1}(c/2)) = (1, cos k theta, sin k theta / sin theta)
    in exact Fractions, by the Chebyshev recurrences T_{k+1} = c T_k - T_{k-1}
    and U_k = c U_{k-1} - U_{k-2}: the circle's vertices under a linear map
    that fixes the unit, which keeps every verdict. All other n come out in
    float mode, on the unit circle.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    _refuse_above_cap("n", n)
    c = {3: -1, 4: 0, 6: 1}.get(n)
    if c is not None:
        t, u = [Fraction(1), Fraction(c, 2)], [Fraction(0), Fraction(1)]  # T_0, T_1; U_-1, U_0
        while len(t) < n:
            t.append(c * t[-1] - t[-2])
            u.append(c * u[-1] - u[-2])
        gens = tuple((Fraction(1), t[k], u[k]) for k in range(n))
        return Theory(f"ngon-{n}", 3, (Fraction(1), Fraction(0), Fraction(0)), gens)
    gens = [(1.0, math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
            for k in range(n)]
    return Theory(f"ngon-{n}", 3, (1.0, 0.0, 0.0), tuple(gens), numeric_mode=FLOAT)


def _kernel_drop_index(unit: Sequence) -> int:
    # ker(u) is coordinatized by dropping the first index where u is nonzero.
    for k, v in enumerate(unit):
        if v != 0:
            return k
    raise ValueError("unit functional is zero")


def prism_product(a: Theory, b: Theory) -> Theory:
    """Cartesian product of the factor state spaces.

    Product coordinates are (shared normalization, reduced coordinates of
    the A part, reduced coordinates of the B part); the product dimension
    is (dim_A - 1) + (dim_B - 1) + 1.
    """
    if a.numeric_mode != EXACT or b.numeric_mode != EXACT:
        raise ValueError("prism products require exact-mode factors")
    _refuse_above_cap("|A| * |B|", a.num_generators * b.num_generators)
    ka = _kernel_drop_index(a.unit)
    kb = _kernel_drop_index(b.unit)
    base_a = a.generators[0]
    base_b = b.generators[0]

    def embed(x, y):
        t = dot(a.unit, x)
        ra = tuple(v - t * base_a[j] for j, v in enumerate(x) if j != ka)
        rb = tuple(v - t * base_b[j] for j, v in enumerate(y) if j != kb)
        return (t,) + ra + rb

    dim = a.dim + b.dim - 1
    gens = tuple(embed(ga, gb) for ga in a.generators for gb in b.generators)
    unit = unit_vector(dim, 0)
    return Theory(f"{a.name}*{b.name}", dim, unit, gens)


def simplex_power(q: int, l: int) -> Theory:
    """l-fold prism product of the q-vertex simplex (q^l pure states)."""
    if q < 1 or l < 1:
        raise ValueError("q and l must be >= 1")
    _refuse_above_cap("q^l", q, l)
    t = classical_simplex(q)
    # Every prism power of the one-point theory (q = 1) is that theory.
    for _ in range(l - 1 if q > 1 else 0):
        t = prism_product(t, classical_simplex(q))
    return Theory(f"simplex-{q}^x{l}", t.dim, t.unit, t.generators)


def codeword_state_index(q: int, codeword: Sequence[int]) -> int:
    """Generator index in simplex_power(q, len(codeword)) of a codeword
    over symbols 1..q."""
    idx = 0
    for s in codeword:
        if not 1 <= s <= q:
            raise ValueError(f"symbol {s} out of range 1..{q}")
        idx = idx * q + (s - 1)
    return idx


# --- family specs ------------------------------------------------------------

# kind -> (constructor, its integer parameters in call order); prism is
# built apart. A theory's symmetry group comes from the theory itself
# (Theory.symmetries), for every kind.
FAMILIES = {"simplex": (classical_simplex, ("d",)),
            "hypercube": (hypercube_theory, ("m",)),
            "ngon": (ngon_theory, ("n",)),
            "simplex-power": (simplex_power, ("q", "l"))}


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    params: dict

    def build(self) -> Theory:
        p = self.params
        if self.kind == "prism":
            return prism_product(p["a"].build(), p["b"].build())
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown family kind {self.kind!r}")
        constructor, names = FAMILIES[self.kind]
        return constructor(*(p[k] for k in names))


def parse_family_spec(text: str) -> FamilySpec:
    """Parse specs like simplex:d=3, hypercube:m=4, ngon:n=5,
    simplex-power:q=3,l=2, or prism:<spec>+<spec> (one level)."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"malformed family spec {text!r}")
    if kind == "prism":
        left, sep, right = rest.partition("+")
        if not sep:
            raise ValueError("prism spec needs two factors joined by '+'")
        return FamilySpec("prism", {"a": parse_family_spec(left),
                                    "b": parse_family_spec(right)})
    if kind not in FAMILIES:
        raise ValueError(f"unknown theory family {kind!r}")
    params = {}
    for part in rest.split(","):
        key, sep, val = part.partition("=")
        if not sep or not val.lstrip("-").isdigit():
            raise ValueError(f"malformed family parameter {part!r}")
        if key in params:
            raise ValueError(f"repeated family parameter {key!r} in {text!r}")
        params[key] = int(val)
    if tuple(sorted(params)) != tuple(sorted(FAMILIES[kind][1])):
        raise ValueError(f"{kind} needs parameters {FAMILIES[kind][1]}, got {tuple(params)}")
    return FamilySpec(kind, params)


def build_family(text: str) -> Theory:
    return parse_family_spec(text).build()
