"""Command-line entry point.

Subcommands: theory, distinguish, psuccess, hypergraph, maxclique,
verify-hypercube, kappa, random-construction, dg-check, fixtures.
Output is machine-readable JSON (or CSV for the capacity reports) and is
byte-identical across runs for a fixed configuration and seed.

Exit codes: 0 success, 1 domain failure, 2 usage error (an unreadable
input or an unwritable output path among them).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from . import capacity, discrimination, hypergraph
from .exactlog import PrecisionError
from .families import build_family, parse_family_spec
from .fixtures import fixtures
from .linalg import rat, rat_str
from .parallel import usable_cpus as _default_workers
from .simplex import Arith
from .theory import DEFAULT_TOL, EXACT, FLOAT, load_theory, make_theory, \
    reduce_to_pure_states, save_json, theory_from_json, theory_to_json, validate_theory, \
    write_json

CACHE_ENV = "POLYGPT_CACHE_DIR"


class UsageError(Exception):
    exit_code = 2


class DomainError(Exception):
    exit_code = 1


def _vector_out(vec):
    return [rat_str(v) for v in vec]


def _load_theory_source(args):
    sources = [s for s in ("family", "theory", "fixture") if getattr(args, s, None)]
    if len(sources) != 1:
        raise UsageError("give exactly one theory source: --family, --theory, or --fixture")
    try:
        if args.family:
            return build_family(args.family), None
        if args.theory:
            return load_theory(args.theory), None
        fix = fixtures().get(args.fixture)
        if fix is None:
            raise UsageError(f"unknown fixture {args.fixture!r}; try the 'fixtures' subcommand")
        return theory_from_json(fix["theory"]), fix
    except (ValueError, OSError) as exc:
        raise UsageError(str(exc)) from exc


def _apply_backend(theory, args):
    """Honor --backend/--tol: exact is refused on irrational coordinates,
    float degrades a rational theory to the toleranced backend, and --tol
    becomes the returned theory's own tolerance."""
    tol = getattr(args, "tol", None)
    try:
        Arith(tol)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    backend = getattr(args, "backend", "auto")
    if backend == "exact" and theory.numeric_mode != EXACT:
        raise DomainError(f"exact backend rejected: '{theory.name}' has "
                          "irrational (float) coordinates")
    if backend == "float" and theory.numeric_mode == EXACT:
        try:
            theory = make_theory(theory.name, theory.unit, theory.generators, numeric_mode=FLOAT)
        except (OverflowError, ValueError) as exc:
            # A coordinate beyond the float range, or u . g = 1 lost to rounding.
            raise DomainError(f"float backend rejected: '{theory.name}': {exc}") from exc
    return theory if tol is None else dataclasses.replace(theory, tol=tol)


def _parse_indices(text):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"malformed state indices {text!r}") from exc


def _parse_priors(text, exact):
    try:
        values = [rat(part.strip()) for part in text.split(",")]
    except (ValueError, TypeError) as exc:
        raise UsageError(f"malformed priors {text!r}") from exc
    return values if exact else [float(v) for v in values]


def _cell(value) -> str:
    """A CSV cell: empty for null, 12 significant digits for a float or an
    exact "p/q" string, the string itself when it lies beyond the float
    range, str for the rest."""
    if isinstance(value, str):
        try:
            value = float(rat(value))
        except OverflowError:
            return value
    if isinstance(value, float):
        return _fmt12(value)
    return "" if value is None else str(value)


def _emit(doc, args, columns=()):
    csv = getattr(args, "format", "json") == "csv"
    if csv and args.out and os.path.splitext(args.out)[1].lower() == ".json":
        raise UsageError(f"--format csv writes its JSON beside --out; {args.out!r} "
                         "must not end in .json")
    try:
        # Plain writes, not save_json: --out may name a pipe or /dev/stdout.
        with (open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)) as fh:
            if csv:
                fh.write(",".join(columns) + "\n" + ",".join(_cell(doc[c]) for c in columns) + "\n")
            else:
                write_json(doc, fh)
        if csv and args.out:
            # exact values ride along in a parallel JSON artifact
            with open(os.path.splitext(args.out)[0] + ".json", "w") as fh:
                write_json(doc, fh)
    except OSError as exc:
        raise UsageError(str(exc)) from exc


def _fmt12(x: float) -> str:
    return f"{x:.12g}"


def _selected_states(args):
    theory, fix = _load_theory_source(args)
    theory = _apply_backend(theory, args)
    if args.states:
        indices = _parse_indices(args.states)
        for i in indices:
            if not 0 <= i < theory.num_generators:
                raise UsageError(f"state index {i} out of range 0..{theory.num_generators - 1}")
    elif fix and "triple" in fix:
        indices = [fix["state_indices"][label] for label in fix["triple"]]
    else:
        raise UsageError("give --states (or a fixture that names a state set)")
    return theory, indices, [theory.generators[i] for i in indices]


# --- subcommands -------------------------------------------------------------

def cmd_theory(args):
    theory, _ = _load_theory_source(args)
    report = validate_theory(theory)
    doc = {
        "name": theory.name,
        "dim": theory.dim,
        "num_generators": theory.num_generators,
        "numeric_mode": theory.numeric_mode,
        "checks": report.checks,
        "valid": report.ok,
        "theory": theory_to_json(theory),
    }
    _emit(doc, args)
    return 0


def cmd_distinguish(args):
    theory, indices, states = _selected_states(args)
    try:
        answer = discrimination.is_perfectly_distinguishable(theory, states, validate=False)
        # A float verdict has solved the same uniform-prior optimum already.
        result = answer.success or discrimination.max_success_probability(
            discrimination.instance(theory, states, validate=False))
    except discrimination.IndeterminateError as exc:
        raise DomainError(str(exc)) from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    doc = {
        "states": indices,
        "perfect": answer.distinguishable,
        "p_success": rat_str(result.p_success),
        "witness": [_vector_out(e) for e in (answer.witness or result.measurement).effects],
    }
    if answer.certificate is not None:
        doc["farkas_certificate"] = _vector_out(answer.certificate)
        if answer.problem != discrimination._feasibility_problem(theory, states):
            # Only the reversed float re-solve was clear: the certificate
            # is for the feasibility LP over the states in this order.
            doc["certificate_states"] = indices[::-1]
    _emit(doc, args)
    return 0


def cmd_psuccess(args):
    theory, indices, states = _selected_states(args)
    priors = None
    if args.priors:
        priors = _parse_priors(args.priors, theory.numeric_mode == EXACT)
        if len(priors) != len(states):
            raise UsageError("need as many priors as states")
    try:
        inst = discrimination.instance(theory, states, priors, validate=False)
        result = discrimination.max_success_probability(inst)
    except discrimination.IndeterminateError as exc:
        raise DomainError(str(exc)) from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    doc = {
        "states": indices,
        "priors": _vector_out(inst.priors),
        "p_success": rat_str(result.p_success),
        "perfect": result.perfect,
        "measurement": [_vector_out(e) for e in result.measurement.effects],
    }
    _emit(doc, args)
    return 0


def _build_hypergraph(args):
    """The hypergraph of the requested theory's pure states, through the
    cache of --cache-dir or $POLYGPT_CACHE_DIR when one is set."""
    theory, _ = _load_theory_source(args)
    theory = reduce_to_pure_states(_apply_backend(theory, args))
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    # A family's group, as hints: build_hypergraph re-checks every moved answer.
    symmetries = parse_family_spec(args.family).symmetries() if args.family else ()
    try:
        return hypergraph.build_hypergraph(theory, args.N, workers=args.workers,
                                           cache_dir=cache_dir, symmetries=symmetries)
    except (ValueError, discrimination.IndeterminateError) as exc:
        raise DomainError(str(exc)) from exc
    except OSError as exc:  # the cache directory cannot be written
        raise UsageError(str(exc)) from exc


def cmd_hypergraph(args):
    _emit(hypergraph.hypergraph_to_json(_build_hypergraph(args)), args)
    return 0


def cmd_maxclique(args):
    if args.hypergraph:
        try:
            h = hypergraph.load_hypergraph(args.hypergraph)
        except (ValueError, OSError) as exc:
            raise UsageError(str(exc)) from exc
    else:
        h = _build_hypergraph(args)
    method = args.method
    if method == "auto":
        method = "exact" if h.num_nodes <= args.node_budget else "greedy"
    try:
        if method == "exact":
            clique = hypergraph.exact_max_clique(h, node_budget=args.node_budget)
        else:
            clique = hypergraph.greedy_max_clique(h)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    doc = {
        "N": h.n_arity,
        "num_nodes": h.num_nodes,
        "method": method,
        "size": len(clique.members),
        "members": list(clique.members),
    }
    if not clique.members:
        doc["note"] = "no N-complete set of size >= N exists (empty hyperedge set)"
    _emit(doc, args)
    return 0


def cmd_verify_hypercube(args):
    try:
        report = capacity.verify_hypercube_memory(args.m, workers=args.workers)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    doc = {
        "N": report.n_arity,
        "m": report.m,
        "dimension": report.dimension,
        "kappa": float(_fmt12(report.kappa)),
        "achieved_set_size": report.achieved_set_size,
        "pairs_checked": report.achieved_set_size * (report.achieved_set_size - 1) // 2,
        "verified": report.verified,
    }
    _emit(doc, args, ("N", "m", "dimension", "kappa", "achieved_set_size", "verified"))
    return 0


def cmd_kappa(args):
    if args.N != 2:
        raise DomainError("closed-form compression factors are only known for N = 2")
    try:
        d = capacity.d_pairwise(args.m)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    kappa = capacity.kappa_pairwise(args.m)
    doc = {"N": 2, "m": args.m, "d": d, "kappa": float(_fmt12(kappa))}
    _emit(doc, args, ("N", "m", "d", "kappa"))
    return 0


def cmd_random_construction(args):
    explicit = [args.q, args.l, args.M]
    if any(v is not None for v in explicit) and not all(v is not None for v in explicit):
        raise UsageError("give all of --q, --l, --M or none of them")
    try:
        report = capacity.randomized_search(
            args.N, m=args.m, trials=args.trials, seed=args.seed,
            q=args.q, l=args.l, m_codewords=args.M, workers=args.workers)
    except (ValueError, PrecisionError) as exc:
        raise DomainError(str(exc)) from exc
    doc = {
        "N": report.n_arity,
        "m": report.m,
        "q": report.q,
        "l": report.l,
        "dim": report.dimension,
        "kappa_lower_bound": None if report.kappa_lower_bound is None
        else float(_fmt12(report.kappa_lower_bound)),
        "bound": rat_str(report.bound),
        # Clamped exactly, then converted: a bound beyond the float range reads 1.0.
        "bound_float": float(_fmt12(float(min(report.bound, 1)))),
        "failures": report.failures,
        "empirical_failure": report.empirical_failure,
        "trials": report.trials,
        "seed": report.seed,
    }
    _emit(doc, args, ("N", "m", "q", "l", "dim", "kappa_lower_bound", "bound",
                      "empirical_failure", "trials", "seed"))
    return 0


def cmd_dg_check(args):
    try:
        with open(args.points) as fh:
            raw = json.load(fh)
        points = [[rat(v) for v in p] for p in raw]
    except (OSError, ValueError, TypeError) as exc:
        raise UsageError(f"malformed points file: {exc}") from exc
    try:
        holds = capacity.danzer_grunbaum_check(points)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit({"holds": holds, "num_points": len(points),
           "space_dimension": len(points[0]) if points else 0}, args)
    return 0


def cmd_fixtures(args):
    table = fixtures()
    index = {}
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        for name, doc in sorted(table.items()):
            path = os.path.join(args.out_dir, f"{name}.json")
            save_json(doc, path)
            index[name] = path
    except OSError as exc:
        raise UsageError(str(exc)) from exc
    _emit({"fixtures": index}, args)
    return 0


# --- parser ------------------------------------------------------------------

def _add_source_flags(sub):
    sub.add_argument("--family", help="family spec, e.g. hypercube:m=3 or simplex-power:q=3,l=2")
    sub.add_argument("--theory", help="path to a theory JSON file")
    sub.add_argument("--fixture", help="bundled fixture name")


def _add_backend_flags(sub):
    sub.add_argument("--backend", choices=("auto", "exact", "float"), default="auto",
                     help="exact is refused for irrational-coordinate theories")
    sub.add_argument("--tol", type=float, help=f"float-backend tolerance (default {DEFAULT_TOL})")


def _add_output_flags(sub, csv_ok=False):
    sub.add_argument("--out", help="output path (default: stdout)")
    if csv_ok:
        sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polygpt",
        description="Polyhedral GPT toolkit: exact state discrimination, "
                    "distinguishability hypergraphs, and memory-capacity checks.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("theory", help="validate a theory and emit canonical JSON")
    _add_source_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_theory)

    p = subs.add_parser("distinguish", help="decide perfect distinguishability of a state set")
    _add_source_flags(p)
    _add_backend_flags(p)
    p.add_argument("--states", help="comma-separated pure-state indices, e.g. 0,3,5")
    _add_output_flags(p)
    p.set_defaults(func=cmd_distinguish)

    p = subs.add_parser("psuccess", help="maximal discrimination success probability")
    _add_source_flags(p)
    _add_backend_flags(p)
    p.add_argument("--states", help="comma-separated pure-state indices")
    p.add_argument("--priors", help="comma-separated rationals, e.g. 3/10,7/10")
    _add_output_flags(p)
    p.set_defaults(func=cmd_psuccess)

    p = subs.add_parser("hypergraph", help="build the N-distinguishability hypergraph")
    _add_source_flags(p)
    _add_backend_flags(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--cache-dir", help=f"on-disk cache (default: ${CACHE_ENV})")
    _add_output_flags(p)
    p.set_defaults(func=cmd_hypergraph)

    p = subs.add_parser("maxclique", help="largest N-wise mutually distinguishable set")
    _add_source_flags(p)
    _add_backend_flags(p)
    p.add_argument("--hypergraph", help="consume a hypergraph JSON file instead of a theory")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--method", choices=("auto", "exact", "greedy"), default="auto")
    p.add_argument("--node-budget", type=int, default=24)
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--cache-dir", help=f"on-disk cache (default: ${CACHE_ENV})")
    _add_output_flags(p)
    p.set_defaults(func=cmd_maxclique)

    p = subs.add_parser("verify-hypercube", help="verify all vertex pairs of the m-cube theory")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--workers", type=int, default=_default_workers())
    _add_output_flags(p, csv_ok=True)
    p.set_defaults(func=cmd_verify_hypercube)

    p = subs.add_parser("kappa", help="pairwise compression factor")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--m", type=int, required=True)
    _add_output_flags(p, csv_ok=True)
    p.set_defaults(func=cmd_kappa)

    p = subs.add_parser("random-construction", help="Monte Carlo over random codes vs the union bound")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--M", type=int, help="number of codewords")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=_default_workers())
    _add_output_flags(p, csv_ok=True)
    p.set_defaults(func=cmd_random_construction)

    p = subs.add_parser("dg-check", help="parallel-supporting-hyperplanes check for a point set")
    p.add_argument("--points", required=True, help="JSON file: list of rational coordinate lists")
    _add_output_flags(p)
    p.set_defaults(func=cmd_dg_check)

    p = subs.add_parser("fixtures", help="write the bundled fixtures as JSON files")
    p.add_argument("--out-dir", default="fixtures")
    _add_output_flags(p)
    p.set_defaults(func=cmd_fixtures)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(args, "workers", 1) < 1:
            raise UsageError(f"--workers must be at least 1, got {args.workers}")
        if getattr(args, "node_budget", 0) < 0:
            raise UsageError(f"--node-budget must be at least 0, got {args.node_budget}")
        return args.func(args)
    except (UsageError, DomainError) as exc:
        print(f"polygpt: error: {exc}", file=sys.stderr)
        return exc.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
