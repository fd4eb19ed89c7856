"""Exit code and SHA-256 of stdout and stderr for a fixed set of CLI
requests, against values recorded in cli_golden.json.

The set covers the exact fixtures under every theory subcommand at one
and two workers, the capacity reports as JSON and CSV, and polygpt's own
usage and domain errors. It leaves out float theories (their coordinates
come from the platform's cos and sin) and argparse's own errors (their
wording changes between Python versions). A request whose output changes
on purpose gets a new recorded value, named in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from polygpt import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
EXACT_FIXTURES = ("appendix-c-triple", "example-10-triple", "square", "cube", "s3-prism-s3")
TRIPLE_FIXTURES = ("appendix-c-triple", "example-10-triple")


def requests():
    reqs = []
    for fix in EXACT_FIXTURES:
        src = ["--fixture", fix]
        reqs.append(["theory", *src])
        for states, priors in (("0,1", "1/3,2/3"), ("0,1,2", "1/5,2/5,2/5")):
            reqs.append(["distinguish", *src, "--states", states])
            reqs.append(["psuccess", *src, "--states", states])
            reqs.append(["psuccess", *src, "--states", states, "--priors", priors])
        if fix in TRIPLE_FIXTURES:
            reqs.append(["distinguish", *src])
            reqs.append(["psuccess", *src])
        for workers in ("1", "2"):
            for n_arity in ("2", "3"):
                for cmd in ("hypergraph", "maxclique"):
                    reqs.append([cmd, *src, "--N", n_arity, "--workers", workers])
    for fmt in ("json", "csv"):
        for m in ("1", "2", "3"):
            for workers in ("1", "2"):
                reqs.append(["verify-hypercube", "--m", m, "--workers", workers, "--format", fmt])
        for m in ("1", "2", "5", "8"):
            reqs.append(["kappa", "--m", m, "--format", fmt])
        for workers in ("1", "2"):
            for args in (["--N", "3", "--q", "9", "--l", "12", "--M", "8", "--trials", "200"],
                         ["--N", "2", "--m", "4", "--trials", "50"]):
                reqs.append(["random-construction", *args, "--seed", "3", "--workers", workers,
                             "--format", fmt])
    reqs += [
        # usage errors, exit 2
        ["theory", "--family", "octagon:n=8"],
        ["theory", "--family", "hypercube:m=x"],
        ["theory", "--family", "simplex-power:q=3"],
        ["theory", "--family", "prism:simplex:d=2"],
        ["theory", "--fixture", "nope"],
        ["theory", "--family", "simplex:d=3", "--fixture", "square"],
        ["theory", "--family", "simplex:d=0"],
        ["theory", "--family", "simplex-power:q=9,l=9"],
        ["distinguish", "--family", "simplex:d=3"],
        ["distinguish", "--family", "simplex:d=3", "--states", "0,9"],
        ["distinguish", "--family", "simplex:d=3", "--states", "0,x"],
        ["distinguish", "--family", "simplex:d=3", "--states", "0,0"],
        ["psuccess", "--family", "simplex:d=3", "--states", "0,1", "--priors", "1/2"],
        ["psuccess", "--family", "simplex:d=3", "--states", "0,1", "--priors", "1/2,x"],
        ["psuccess", "--family", "simplex:d=3", "--states", "0,1", "--priors", "1/2,1/3"],
        ["psuccess", "--family", "simplex:d=3", "--states", "0,1", "--priors", "1/0,1"],
        ["random-construction", "--N", "3", "--q", "9"],
        # domain errors, exit 1
        ["distinguish", "--family", "ngon:n=5", "--states", "0,2", "--backend", "exact"],
        ["hypergraph", "--family", "simplex:d=3", "--N", "5", "--workers", "1"],
        ["maxclique", "--family", "simplex:d=3", "--N", "1", "--workers", "1"],
        ["verify-hypercube", "--m", "12", "--workers", "1"],
        ["kappa", "--N", "3", "--m", "4"],
        ["kappa", "--m", "0"],
        ["random-construction", "--N", "4", "--q", "3", "--l", "2", "--M", "4", "--trials", "5"],
        ["random-construction", "--N", "3", "--q", "9", "--l", "12", "--M", "8",
         "--trials", "-5"],
        ["random-construction", "--N", "3", "--trials", "5"],
    ]
    return reqs


def run_request(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return [code] + [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]


def test_cli_output_matches_the_recorded_hashes(monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    golden = json.loads(GOLDEN.read_text())
    keys = [" ".join(argv) for argv in requests()]
    assert sorted(keys) == sorted(golden)
    changed = [key for key, argv in zip(keys, requests()) if run_request(argv) != golden[key]]
    assert changed == []
