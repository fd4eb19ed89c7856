"""Polyhedral GPT data model: theories, states, effects, measurements.

A theory is a cone in V-form: generator rays normalized to the unit
hyperplane plus the order-unit covector. States and effects are bare
coordinate tuples; validity is decided by the checking functions here
(cone membership by LP, effect bounds by direct evaluation).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from dataclasses import dataclass, replace
from typing import Sequence

from . import simplex
from .linalg import dot, integer_rows, pivot_columns, rat, rat_str, solve_columns, unit_vector
from .simplex import DEFAULT_TOL, Arith, IndeterminateError

EXACT = "exact"
FLOAT = "float"


@dataclass(frozen=True)
class Theory:
    name: str
    dim: int
    unit: tuple
    generators: tuple
    numeric_mode: str = EXACT
    tol: float = DEFAULT_TOL  # comparison tolerance in float mode; unused when exact

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if len(self.unit) != self.dim:
            raise ValueError("unit length != dim")
        if self.numeric_mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown numeric_mode {self.numeric_mode!r}")
        Arith(self.tol)  # the tolerance must be valid in both modes
        if not self.generators:
            raise ValueError("theory needs at least one generator")
        arith = self.arith()
        for g in self.generators:
            if len(g) != self.dim:
                raise ValueError("generator length != dim")
            if not arith.is_zero(dot(self.unit, g) - 1):
                raise ValueError(f"generator not normalized to u = 1: {g}")

    def arith(self) -> Arith:
        return Arith(None if self.numeric_mode == EXACT else self.tol)

    def scaled_rows(self, rows):
        """(rows, d): linalg.integer_rows in exact mode, (rows, 1) in float mode."""
        return integer_rows(rows) if self.numeric_mode == EXACT else (rows, 1)

    @functools.cached_property
    def generator_rows(self):
        """linalg.integer_rows of the generators, a float read as the
        binary fraction it stores, once per theory; not a field, so == and
        the hash skip it."""
        return integer_rows(self.generators)

    @functools.cached_property
    def unit_row(self):
        """scaled_rows([unit]), once per theory; cached like generator_rows."""
        return self.scaled_rows([self.unit])

    @functools.cached_property
    def generator_columns(self) -> tuple:
        """Column j of generator_rows as the pairs (k, G_kj) with G_kj != 0,
        so that a covector's values on all the generators are built from
        the nonzero entries alone. Cached like generator_rows."""
        return tuple(tuple((k, a) for k, a in enumerate(column) if a)
                     for column in zip(*self.generator_rows[0]))

    @functools.cached_property
    def basis_inverse(self):
        """(basis, rows, q): basis holds the indices of the first dim
        linearly independent generators, and (rows[k] . v) / q is the k-th
        coordinate of v in their basis, all read exactly; None when the
        generators do not span. Cached like generator_rows."""
        basis = pivot_columns(list(zip(*self.generators)))
        if len(basis) < self.dim:
            return None
        transposed = list(zip(*(self.generators[k] for k in basis)))
        inverse = solve_columns(transposed, [unit_vector(self.dim, k) for k in range(self.dim)])
        return (tuple(basis), *integer_rows(list(zip(*inverse))))

    @functools.cached_property
    def symmetries(self) -> tuple:
        """Generators of the group of the generator-index permutations that
        extend to linear maps, each map fixing the unit since u . g = 1 on
        every generator; () for a float theory or one whose generators do
        not span. Cached like generator_rows."""
        if self.numeric_mode != EXACT or self.basis_inverse is None:
            return ()
        return _symmetry_generators(self)

    @functools.cached_property
    def lp_blocks(self) -> dict:
        """The constraint blocks that discrimination's LPs share, keyed by
        the number of states and filled on first use. Cached like
        generator_rows."""
        return {}

    @property
    def num_generators(self) -> int:
        return len(self.generators)


def _symmetry_generators(t: Theory) -> tuple:
    """A permutation of spanning generators extends to a linear map exactly
    when it keeps W = G Q^-1 G^T, Q = sum g g^T (Bremner, Dutour Sikiric,
    Pasechnik, Rehn and Schuermann, LMS J. Comput. Math. 17, 2014). The
    search assigns images to the basis of t.basis_inverse in order, pruned
    by W, and reads each full assignment's permutation off the linear map
    it fixes. Basis index k is searched with the indices before it fixed,
    deepest k first, skipping images already in its orbit under the
    generators found so far; so each new generator at least doubles the
    group, and there are at most log2 |group| of them."""
    basis, inverse, q = t.basis_inverse
    gens, d = t.generator_rows
    gram = [[sum(g[i] * g[j] for g in gens) for j in range(t.dim)] for i in range(t.dim)]
    solved, _ = integer_rows(solve_columns(gram, gens))
    w = [[dot(g, x) for x in solved] for g in gens]  # W times a positive integer
    coords = [[(i, c) for i, c in enumerate(dot(row, g) for row in inverse) if c] for g in gens]
    index = {tuple(q * d * a for a in g): k for k, g in enumerate(gens)}  # keys: q * d * G_k

    def fits(images, x):  # W agrees on basis[:j+1] and images + (x,), j = len(images)
        return x not in images and all(w[x][y] == w[basis[len(images)]][b]
                                       for b, y in zip(basis, images + (x,)))

    def extend(images):  # a symmetry taking basis[i] to images[i] for the prefix given
        if len(images) == len(basis):
            # A g = sum_i coord_i(g) g_images[i] keeps the definite form Q^-1
            # on the basis (W), so A is invertible and perm is one-to-one.
            cols = [gens[k] for k in images]
            perm = tuple(index.get(tuple(sum(c * cols[i][s] for i, c in row)
                                         for s in range(t.dim))) for row in coords)
            return None if None in perm else perm
        return next(filter(None, (extend(images + (x,)) for x in range(len(gens))
                                  if fits(images, x))), None)

    found = []
    for k in reversed(range(len(basis))):
        orbit = {basis[k]}
        for c in range(len(gens)):
            perm = None if c in orbit or not fits(basis[:k], c) else extend(basis[:k] + (c,))
            if perm:
                found.append(perm)
                stack = list(orbit)
                while stack:
                    y = stack.pop()
                    for image in {p[y] for p in found} - orbit:
                        orbit.add(image)
                        stack.append(image)
    return tuple(found)


def make_theory(name: str, unit: Sequence, generators: Sequence[Sequence],
                numeric_mode: str = EXACT) -> Theory:
    """Coordinates may be ints, Fractions or "p/q" strings; float mode
    rounds each with float(), a string after reading it exactly with rat().
    A bool (JSON true or false) is refused."""

    def conv(v):  # rat refuses a bool, which float() would take
        if numeric_mode == FLOAT and not isinstance(v, bool):
            return float(rat(v) if isinstance(v, str) else v)
        return rat(v)

    unit = tuple(conv(v) for v in unit)
    generators = tuple(tuple(conv(v) for v in g) for g in generators)
    return Theory(name, len(unit), unit, generators, numeric_mode)


@dataclass(frozen=True)
class Measurement:
    """Finite effect family summing to the order unit."""

    effects: tuple

    def __post_init__(self):
        if not self.effects:
            raise ValueError("measurement needs at least one effect")

    def __len__(self):
        return len(self.effects)


# --- validity checks -------------------------------------------------------

@dataclass
class ValidationReport:
    checks: dict

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def validate_theory(t: Theory) -> ValidationReport:
    """One exact elimination decides all three checks: construction holds
    each generator to u . g = 1, and generators on that hyperplane span the
    space exactly when they span it affinely."""
    spanning = len(pivot_columns(t.generators)) == t.dim
    return ValidationReport({
        "unit_normalization": True,
        "spanning": spanning,
        "affine_rank": spanning,
    })


def _combination_weights(vectors, target, arith: Arith):
    """Nonnegative weights a with sum(a_j vectors[j]) = target; None when
    no such weights exist."""
    rows = [[v[j] for v in vectors] + [x] for j, x in enumerate(target)]
    if arith.exact:
        rows, _ = integer_rows(rows)
    rhs = [row.pop() for row in rows]
    res = simplex.solve_standard_min([0] * len(vectors), rows, rhs, arith=arith)
    if res.status == simplex.STALLED:
        raise IndeterminateError("membership LP stalled in float mode")
    # Certificate rule, in integers: d * x solves or d * y refutes (zero costs: never UNBOUNDED).
    if arith.exact:
        (v,), d = integer_rows([res.x or res.farkas])
        if not (min(v) >= 0 and all(dot(row, v) == d * b for row, b in zip(rows, rhs))
                if res.status == simplex.OPTIMAL else
                dot(v, rhs) > 0 and all(dot(v, col) <= 0 for col in zip(*rows))):
            raise RuntimeError("membership LP answer failed its substitution check (internal bug)")
    return res.x if res.status == simplex.OPTIMAL else None


def conic_weights(t: Theory, x: Sequence):
    """Weights showing x lies in the cone spanned by the generators."""
    if len(x) != t.dim:
        raise ValueError("dimension mismatch")
    return _combination_weights(t.generators, x, t.arith())


def convex_weights(t: Theory, x: Sequence):
    """Conic weights of a normalized x, which sum to 1: u . x = sum(a_k u . g_k)
    = sum(a_k), since every generator has u . g = 1. None when u . x != 1."""
    if len(x) != t.dim:
        raise ValueError("dimension mismatch")
    if not t.arith().is_zero(dot(t.unit, x) - 1):
        return None
    return conic_weights(t, x)


def is_state(t: Theory, x: Sequence) -> bool:
    return convex_weights(t, x) is not None


def is_effect(t: Theory, e: Sequence) -> bool:
    return _bounded(t, *t.scaled_rows([e]))


def is_measurement(t: Theory, m: Measurement) -> bool:
    return responds(t, *t.scaled_rows(m.effects))


def responds(t: Theory, rows, den, states=(), sden=1) -> bool:
    """Whether the effects rows[i] / den form a measurement of t that
    answers the states states[j] / sden with certainty, checked in order:
    0 <= e . g <= 1 on every generator g, the effects sum to u, and
    e_i . omega_j = [i = j]. Rows come from t.scaled_rows: integers in
    exact mode, compared exactly; floats with den = sden = 1 in float
    mode, compared within t.tol."""
    arith = t.arith()
    (unit,), du = t.unit_row
    return (_bounded(t, rows, den)
            and all(arith.is_zero(sum(col) * du - den * x) for col, x in zip(zip(*rows), unit))
            and all(arith.is_zero(dot(e, s) - (i == j) * den * sden)
                    for i, e in enumerate(rows) for j, s in enumerate(states)))


def _bounded(t: Theory, rows, den) -> bool:
    """0 <= e . g <= 1 on every generator g for every effect e = row / den of rows."""
    if any(len(row) != t.dim for row in rows):
        raise ValueError("dimension mismatch")
    arith = t.arith()
    values = [v for row in rows for v in _generator_values(t, row)]
    top = den * t.generator_rows[1] if arith.exact else den
    return not (arith.is_neg(min(values)) or arith.is_pos(max(values) - top))


def _generator_values(t: Theory, row) -> list:
    """row . G_k for every generator row G_k = d * g_k of t.generator_rows,
    summed over the nonzero entries of t.generator_columns; row . g_k in
    float mode."""
    if t.numeric_mode != EXACT:
        return [dot(row, g) for g in t.generators]
    values = [0] * t.num_generators
    for w, column in zip(row, t.generator_columns):
        if w:
            for k, a in column:
                values[k] += w * a
    return values


def reduce_to_pure_states(t: Theory) -> Theory:
    """Drop every generator in the cone of the others (its weights sum to 1,
    as in convex_weights); the survivors are the extreme points of the state space."""
    arith = t.arith()
    unique = []
    for g in t.generators:
        if not any(all(arith.is_zero(a - b) for a, b in zip(g, h)) for h in unique):
            unique.append(g)
    keep = []
    for i, g in enumerate(unique):
        others = unique[:i] + unique[i + 1:]
        if not others or _combination_weights(others, g, arith) is None:
            keep.append(g)
    if not keep:  # each in the others' cone within tol: only float round-off can land here
        raise IndeterminateError("no generator is extreme at this tolerance")
    return replace(t, generators=tuple(keep))


# --- JSON schema -----------------------------------------------------------

def theory_to_json(t: Theory) -> dict:
    doc = {
        "name": t.name,
        "dim": t.dim,
        "unit": [rat_str(v) for v in t.unit],
        "generators": [[rat_str(v) for v in g] for g in t.generators],
    }
    if t.numeric_mode != EXACT:
        doc["numeric_mode"] = t.numeric_mode
    return doc


def theory_from_json(doc: dict) -> Theory:
    try:
        mode = doc.get("numeric_mode", EXACT)
        if type(doc["name"]) is not str:
            raise TypeError(f"name must be a string, got {doc['name']!r}")
        if not all(type(v) is list for v in (doc["unit"], doc["generators"], *doc["generators"])):
            raise TypeError("unit, generators and each generator must be lists")
        t = make_theory(doc["name"], doc["unit"], doc["generators"], numeric_mode=mode)
        dim = doc["dim"]
        if type(dim) is not int:  # no float, str or bool
            raise ValueError(f"dim must be an integer, got {dim!r}")
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed theory JSON: {exc}") from exc
    if t.dim != dim:
        raise ValueError(f"declared dim {dim} != coordinate length {t.dim}")
    return t


def write_json(doc, fh) -> None:
    """The one JSON layout of every file and output: indent 2, sorted keys, final newline."""
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")


def save_json(doc, path) -> None:
    """Write a per-process temporary file next to the target and rename it
    into place, so a concurrent reader sees the old file or the new one,
    never a partial one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            write_json(doc, fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_theory(t: Theory, path) -> None:
    save_json(theory_to_json(t), path)


def load_theory(path) -> Theory:
    with open(path) as fh:
        return theory_from_json(json.load(fh))
