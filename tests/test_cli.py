import json
import math
import os
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest

from polygpt import capacity, cli, discrimination, exactlog, lp, parallel
from polygpt.capacity import failure_probability_bound
from polygpt.families import hypercube_theory, ngon_theory
from polygpt.fixtures import fixtures
from polygpt.hypergraph import hypergraph_from_json
from polygpt.theory import DEFAULT_TOL, load_theory, save_theory, theory_from_json


def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = cli.run(args + ["--out", str(out)])
    assert code == 0, f"exit {code} for {args}"
    return json.loads(out.read_text())


def test_theory_subcommand_validates_and_roundtrips(tmp_path):
    doc = run_json(tmp_path, ["theory", "--family", "hypercube:m=2"])
    assert doc["valid"] and doc["dim"] == 3 and doc["num_generators"] == 4
    path = tmp_path / "square.json"
    path.write_text(json.dumps(doc["theory"]))
    doc2 = run_json(tmp_path, ["theory", "--theory", str(path)], name="out2.json")
    assert doc2["theory"] == doc["theory"]


def test_theory_json_file_roundtrip_bit_exact(tmp_path):
    t = theory_from_json(fixtures()["s3-prism-s3"]["theory"])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_theory(t, p1)
    save_theory(load_theory(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert load_theory(p2) == t


def test_distinguish_fixture_appendix_c(tmp_path):
    doc = run_json(tmp_path, ["distinguish", "--fixture", "appendix-c-triple"])
    assert doc["perfect"] is False
    assert doc["p_success"] == "2/3"
    assert "farkas_certificate" in doc
    assert len(doc["witness"]) == 3


def test_distinguish_cube_pair(tmp_path):
    doc = run_json(tmp_path, ["distinguish", "--family", "hypercube:m=3",
                              "--states", "0,5"])
    assert doc["perfect"] is True
    assert doc["p_success"] == 1


def test_psuccess_with_priors(tmp_path):
    doc = run_json(tmp_path, ["psuccess", "--family", "hypercube:m=3",
                              "--states", "0,0", "--priors", "3/10,7/10"])
    assert doc["p_success"] == "7/10"
    assert doc["perfect"] is False


def test_hypergraph_and_maxclique_pipeline(tmp_path):
    hdoc = run_json(tmp_path, ["hypergraph", "--family", "hypercube:m=2", "--N", "2",
                               "--workers", "1"], name="h.json")
    assert hdoc["num_nodes"] == 4 and len(hdoc["edges"]) == 6
    hpath = tmp_path / "h_in.json"
    hpath.write_text(json.dumps(hdoc))
    cdoc = run_json(tmp_path, ["maxclique", "--hypergraph", str(hpath)], name="c.json")
    assert cdoc["size"] == 4 and cdoc["members"] == [0, 1, 2, 3]


@pytest.mark.parametrize("source", [["--family", "hypercube:m=3", "--N", "3"],
                                    ["--theory", "square.json"], ["--fixture", "square"]],
                         ids=["family", "theory", "fixture"])
def test_a_theory_source_beside_hypergraph_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                            source):
    # The file's square used to answer, the source ignored. Now neither
    # file is read.
    hpath = tmp_path / "sq.json"
    assert cli.run(["hypergraph", "--family", "hypercube:m=2", "--N", "2", "--workers", "1",
                    "--out", str(hpath)]) == 0

    def no_read(*args):
        raise AssertionError("a file was read before the refusal")

    monkeypatch.setattr(cli.hypergraph, "load_hypergraph", no_read)
    monkeypatch.setattr(cli, "load_theory", no_read)
    assert cli.run(["maxclique", "--hypergraph", str(hpath), *source]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "not both" in err[0]


def test_maxclique_from_family(tmp_path):
    doc = run_json(tmp_path, ["maxclique", "--family", "hypercube:m=3", "--N", "2",
                              "--workers", "1"])
    assert doc["size"] == 8
    assert doc["method"] == "exact"


def test_maxclique_empty_note(tmp_path):
    doc = run_json(tmp_path, ["maxclique", "--family", "hypercube:m=2", "--N", "3",
                              "--workers", "1"])
    assert doc["size"] == 0
    assert "note" in doc


def test_maxclique_greedy_on_request(tmp_path):
    doc = run_json(tmp_path, ["maxclique", "--family", "hypercube:m=3", "--N", "2",
                              "--workers", "1", "--method", "greedy"])
    assert doc["method"] == "greedy"
    assert doc["size"] == 8 and doc["members"] == list(range(8))


def test_exact_maxclique_above_the_node_budget_is_a_domain_error(capsys):
    assert cli.run(["maxclique", "--family", "hypercube:m=3", "--N", "2", "--workers", "1",
                    "--method", "exact", "--node-budget", "7"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "exceed the budget 7" in err[0]


def _reject(*args, **kwargs):
    raise ValueError("rejected value")


@pytest.mark.parametrize("module,name,argv,code", [
    (cli, "validate_theory", ["theory", "--family", "hypercube:m=2"], 2),
    (capacity, "kappa_pairwise", ["kappa", "--m", "3"], 1),
])
def test_a_rejected_value_gets_the_subcommands_exit_code(monkeypatch, capsys, module, name,
                                                         argv, code):
    # No handler of the subcommand wraps either call: cli.run maps the
    # ValueError to the exit code the subcommand declares.
    monkeypatch.setattr(module, name, _reject)
    assert cli.run(argv) == code
    assert capsys.readouterr().err.splitlines() == ["polygpt: error: rejected value"]


def test_every_subcommand_declares_what_a_rejected_value_means():
    subs = next(a for a in cli.build_parser()._actions if a.dest == "command")
    usage = {"theory", "distinguish", "psuccess", "dg-check", "fixtures"}
    assert {name: p.get_default("rejects") for name, p in subs.choices.items()} == {
        name: cli.UsageError if name in usage else cli.DomainError for name in subs.choices}
    assert len(subs.choices) == 10


def test_kappa_json_and_csv(tmp_path):
    doc = run_json(tmp_path, ["kappa", "--N", "2", "--m", "3"])
    assert doc == {"N": 2, "d": 4, "kappa": 1.5, "m": 3}
    out = tmp_path / "kappa.csv"
    assert cli.run(["kappa", "--N", "2", "--m", "6", "--format", "csv",
                    "--out", str(out)]) == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "N,m,d,kappa"
    assert row.startswith("2,6,7,2.13724312265")
    side = json.loads((tmp_path / "kappa.json").read_text())
    assert side["d"] == 7


@pytest.mark.parametrize("name", ["r.json", "r.JSON"])
def test_csv_out_ending_in_json_is_refused(tmp_path, capsys, name):
    # The JSON side file would take the CSV's own path and overwrite it.
    out = tmp_path / name
    assert cli.run(["verify-hypercube", "--m", "2", "--workers", "1", "--format", "csv",
                    "--out", str(out)]) == 2
    assert "must not end in .json" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_csv_out_that_is_no_regular_file_is_refused(tmp_path, capsys):
    # A FIFO (or /dev/stdout) took the CSV, and a regular file
    # "<out>.json" appeared beside it. The read end is opened first, so a
    # write would not block; nothing may be written.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert cli.run(["kappa", "--m", "3", "--format", "csv", "--out", str(fifo)]) == 2
        assert os.read(reader, 100) == b""
    finally:
        os.close(reader)
    assert "must be a regular file" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


@pytest.mark.parametrize("argv", [
    ["kappa", "--m", "3", "--out", "{tmp}/missing/x.json"],
    ["fixtures", "--out-dir", "{tmp}/file"],
    ["hypergraph", "--family", "simplex:d=3", "--N", "2", "--workers", "1",
     "--cache-dir", "{tmp}/file"],
], ids=["out-in-missing-dir", "out-dir-is-a-file", "cache-dir-is-a-file"])
def test_unwritable_paths_are_usage_errors(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    assert cli.run([a.format(tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polygpt: error: ")


@pytest.mark.parametrize("argv", [
    ["distinguish", "--family", "ngon:n=5", "--states", "0,1", "--tol", "1e-300"],
    ["psuccess", "--family", "ngon:n=5", "--states", "0,1", "--tol", "1e-300"],
    ["hypergraph", "--family", "ngon:n=5", "--N", "2", "--tol", "0.5", "--workers", "2"],
    ["maxclique", "--family", "ngon:n=5", "--N", "2", "--tol", "0.5", "--workers", "2"],
    # The membership LP of the pure-state reduction stalls.
    ["hypergraph", "--family", "ngon:n=5", "--N", "2", "--workers", "1", "--tol", "1"],
    # Every generator lies in the others' cone within tol: none is kept.
    ["maxclique", "--family", "ngon:n=16", "--N", "2", "--workers", "2", "--tol", "0.3"],
    # The success-probability LP ends INFEASIBLE, then UNBOUNDED, in floats.
    ["hypergraph", "--family", "hypercube:m=3", "--N", "3", "--workers", "1", "--tol", "0.5",
     "--backend", "float"],
    ["psuccess", "--family", "simplex-power:q=2,l=2", "--states", "0,1", "--priors", "1/3,2/3",
     "--tol", "1e-300", "--backend", "float"],
], ids=["distinguish", "psuccess", "hypergraph", "maxclique", "reduction-stalls",
        "reduction-keeps-nothing", "success-lp-infeasible", "success-lp-unbounded"])
def test_a_stalled_float_lp_is_a_domain_error(tmp_path, capsys, argv):
    # Tolerances this far from the default leave a float computation undecided.
    assert cli.run(argv + ["--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polygpt: error: ")
    assert not (tmp_path / "out.json").exists()


def test_an_ambiguous_floor_is_a_domain_error(tmp_path, capsys, monkeypatch):
    # At a 1-bit cap no floor of a log is certain: exactlog.PrecisionError.
    monkeypatch.setattr(exactlog, "MAX_BITS", 1)
    out = tmp_path / "out.json"
    assert cli.run(["random-construction", "--N", "2", "--m", "3", "--trials", "1",
                    "--workers", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polygpt: error: ") and "ambiguous" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("unit,generators", [
    ([1, 0], [[1, "1" + "0" * 400], [1, -1]]),  # a coordinate beyond the float range
    ([1, 1], [[str(10 ** 20 + 1), str(-10 ** 20)], [1, 0], [0, 1]]),  # u . g = 0 once rounded
], ids=["overflow", "unnormalized"])
@pytest.mark.parametrize("command", [["distinguish", "--states", "0,1"],
                                     ["hypergraph", "--N", "2", "--workers", "1"]])
def test_an_exact_theory_without_a_float_form_is_a_domain_error(tmp_path, capsys, unit,
                                                                 generators, command):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"name": "wide", "dim": 2, "unit": unit,
                                "generators": generators, "numeric_mode": "exact"}))
    assert cli.run(["theory", "--theory", str(path)]) == 0  # valid exactly
    capsys.readouterr()
    assert cli.run([command[0], "--theory", str(path), "--backend", "float", *command[1:]]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polygpt: error: float backend rejected")


def test_verify_hypercube_cli(tmp_path):
    doc = run_json(tmp_path, ["verify-hypercube", "--m", "2", "--workers", "1"])
    assert doc["verified"] is True
    assert doc["pairs_checked"] == 6


def test_random_construction_cli(tmp_path):
    doc = run_json(tmp_path, ["random-construction", "--N", "3", "--q", "9", "--l", "12",
                              "--M", "8", "--trials", "25", "--seed", "5", "--workers", "1"])
    assert doc["trials"] == 25
    # 56 * (25/81)^12, the exact union bound
    assert doc["bound"] == "3337860107421875000/79766443076872509863361"
    out = tmp_path / "mc.csv"
    assert cli.run(["random-construction", "--N", "2", "--m", "4", "--trials", "10",
                    "--seed", "1", "--workers", "1", "--format", "csv",
                    "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "N,m,q,l,dim,kappa_lower_bound,bound,empirical_failure,trials,seed"


def test_dg_check_cli(tmp_path):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[0, 0], [1, 0], [0, 1], [1, 1]]))
    doc = run_json(tmp_path, ["dg-check", "--points", str(pts)])
    assert doc["holds"] is True


def test_dg_check_refuses_booleans(tmp_path, capsys):
    # JSON true and false are no coordinates, not 1 and 0.
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[True], [False]]))
    assert cli.run(["dg-check", "--points", str(pts)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polygpt: error: ")


def test_dg_check_refuses_a_zero_denominator(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[0, "1/0"], [1, 1]]))
    assert cli.run(["dg-check", "--points", str(pts)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polygpt: error: ")


def test_dg_check_refuses_duplicate_points(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[0, 0], [1, 0], ["0/1", 0]]))
    assert cli.run(["dg-check", "--points", str(pts)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["polygpt: error: points must be distinct"]


def test_float_theory_file_reads_fraction_strings(tmp_path):
    # A "p/q" string is read exactly and rounded once, so it gives the
    # same float as its decimal twin.
    outputs = []
    for half in ("1/2", "0.5"):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"name": "h", "dim": 2, "unit": [1, 0],
                                    "numeric_mode": "float",
                                    "generators": [[1, half], [1, "-" + half]]}))
        out = tmp_path / f"out-{len(outputs)}.json"
        assert cli.run(["theory", "--theory", str(path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    for bad in ("nan", "1e400"):  # no rational; no float
        path.write_text(json.dumps({"name": "h", "dim": 2, "unit": [1, 0],
                                    "numeric_mode": "float", "generators": [[1, bad], [1, 0]]}))
        assert cli.run(["theory", "--theory", str(path)]) == 2


def test_random_construction_without_trials_measures_nothing(tmp_path):
    args = ["random-construction", "--N", "2", "--m", "3", "--trials", "0", "--workers", "1"]
    doc = run_json(tmp_path, args)
    assert doc["trials"] == 0 and doc["empirical_failure"] is None
    out = tmp_path / "mc.csv"
    assert cli.run(args + ["--format", "csv", "--out", str(out)]) == 0
    header, row = (line.split(",") for line in out.read_text().splitlines())
    assert row[header.index("empirical_failure")] == ""


def test_a_bound_beyond_the_float_range_prints_exactly(tmp_path):
    # C(4096, 400) times a probability near 1 is far above the largest float.
    args = ["random-construction", "--N", "400", "--q", "4096", "--l", "1", "--M", "4096",
            "--trials", "0", "--workers", "1"]
    doc = run_json(tmp_path, args)
    bound = failure_probability_bound(4096, 1, 4096, 400)
    assert bound > sys.float_info.max
    assert doc["bound_float"] == 1.0 and F(doc["bound"]) == bound
    out = tmp_path / "bound.csv"
    assert cli.run(args + ["--format", "csv", "--out", str(out)]) == 0
    header, row = (line.split(",") for line in out.read_text().splitlines())
    assert row[header.index("bound")] == doc["bound"]  # exact: no float holds it


def test_a_bound_past_the_digit_limit_is_refused_before_any_trial(monkeypatch, capsys, tmp_path):
    # 1/2^20000 has a 6,021-digit denominator; 1/2^14000 has 4,215 digits.
    monkeypatch.setattr(capacity, "_trial_fails", None)  # a trial would fail
    args = ["random-construction", "--N", "2", "--q", "2", "--M", "2", "--trials", "1",
            "--workers", "1"]
    assert cli.run(args + ["--l", "20000"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polygpt: error:")
    assert f"more than {sys.get_int_max_str_digits()} digits" in err[0]
    monkeypatch.undo()
    doc = run_json(tmp_path, args + ["--l", "14000"])
    assert doc["bound"] == f"1/{2 ** 14000}"


@pytest.mark.parametrize("limit,l,refused", [(10, 33, False), (10, 34, True), (0, 20000, False)])
def test_the_digit_limit_is_the_interpreters(monkeypatch, limit, l, refused):
    # 2^33 has 10 digits and 2^34 has 11; a limit of 0 is no limit.
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
    search = lambda: capacity.randomized_search(2, trials=0, q=2, l=l, m_codewords=2)
    if refused:
        with pytest.raises(ValueError, match="more than 10 digits"):
            search()
    else:
        assert search().bound == F(1, 2 ** l)


@pytest.mark.parametrize("spec,unit", [("simplex:d=3", [1, 1, 1]), ("ngon:n=5", [1.0, 0.0, 0.0])])
def test_one_state_is_singled_out_by_the_unit(tmp_path, spec, unit):
    psuccess = run_json(tmp_path, ["psuccess", "--family", spec, "--states", "0"])
    assert psuccess == {"states": [0], "priors": [1], "p_success": 1, "perfect": True,
                        "measurement": [unit]}
    distinguish = run_json(tmp_path, ["distinguish", "--family", spec, "--states", "0"])
    assert distinguish == {"states": [0], "perfect": True, "p_success": 1, "witness": [unit]}


def test_fixtures_subcommand(tmp_path):
    doc = run_json(tmp_path, ["fixtures", "--out-dir", str(tmp_path / "fx")])
    assert set(doc["fixtures"]) == set(fixtures())
    square = json.loads((tmp_path / "fx" / "square.json").read_text())
    assert square["expected"]["pairwise_clique"] == 4


def test_byte_identical_reruns(tmp_path):
    args = ["random-construction", "--N", "3", "--q", "9", "--l", "12", "--M", "8",
            "--trials", "30", "--seed", "11", "--workers", "1"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.run(args + ["--out", str(a)]) == 0
    assert cli.run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # worker count must not change the result bytes
    c = tmp_path / "c.json"
    assert cli.run(args[:-2] + ["--workers", "2", "--out", str(c)]) == 0
    assert a.read_bytes() == c.read_bytes()


def test_usage_errors_exit_2(tmp_path):
    assert cli.run(["theory", "--family", "octagon:n=8"]) == 2
    assert cli.run(["theory"]) == 2
    assert cli.run(["theory", "--family", "simplex:d=3", "--fixture", "square"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.run(["theory", "--theory", str(bad)]) == 2
    assert cli.run(["distinguish", "--family", "simplex:d=3", "--states", "0,9"]) == 2
    assert cli.run(["distinguish", "--family", "simplex:d=3", "--states", "0,x"]) == 2
    assert cli.run(["nonsense"]) == 2


@pytest.mark.parametrize("spec", ["hypercube:m=3,m=2", "prism:simplex:d=2+hypercube:m=2,m=2"])
def test_a_repeated_family_parameter_is_a_usage_error(capsys, spec):
    assert cli.run(["hypergraph", "--family", spec, "--N", "2", "--workers", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"polygpt: error: repeated family parameter 'm' in {spec.rpartition('+')[2]!r}"]


@pytest.mark.parametrize("m", [2 ** 1023 - 1, 2 ** 1024, 2 ** 1033],
                         ids=["2^1023-1", "2^1024", "2^1033"])
def test_kappa_of_an_m_beyond_the_float_range_while_kappa_is_within(tmp_path, m):
    # m / log2(m + 1) stays below the largest float up to m of about 2^1033.
    doc = run_json(tmp_path, ["kappa", "--m", str(m)])
    kappa = float(m / F(math.log2(m + 1)))
    assert doc["d"] == m + 1 and math.isclose(doc["kappa"], kappa, rel_tol=1e-11)


def test_a_kappa_beyond_the_float_range_is_a_domain_error(capsys):
    assert cli.run(["kappa", "--m", "9" * 400]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "polygpt: error: kappa for an m of 1329 bits lies beyond the float range"]


def test_domain_errors_exit_1():
    assert cli.run(["kappa", "--N", "3", "--m", "4"]) == 1
    assert cli.run(["random-construction", "--N", "4", "--q", "3", "--l", "2",
                    "--M", "4", "--trials", "5", "--workers", "1"]) == 1
    assert cli.run(["verify-hypercube", "--m", "12", "--workers", "1"]) == 1
    # exact backend is refused on irrational-coordinate theories
    assert cli.run(["distinguish", "--family", "ngon:n=5", "--states", "0,2",
                    "--backend", "exact"]) == 1


@pytest.mark.parametrize("size", [["--m", "40"], ["--q", "9", "--l", "12", "--M", "5000"],
                                  ["--m", "1000000000000"]], ids=["m", "M", "m-huge"])
def test_random_construction_caps_the_codeword_count(monkeypatch, capsys, size):
    # 2^40 or 2^(10^12) (from --m) or 5000 codewords exceed
    # capacity.MAX_CODEWORDS; a drawn code would mean the cap was missed.
    monkeypatch.setattr(capacity, "sample_random_code", None)
    assert cli.run(["random-construction", "--N", "2", *size, "--trials", "5",
                    "--workers", "1"]) == 1
    assert "beyond desk scale" in capsys.readouterr().err


def test_random_construction_refuses_no_codewords(monkeypatch, capsys):
    # --M 0 ran every trial and then failed in log2(0); the refusal comes
    # before any code is drawn.
    monkeypatch.setattr(capacity, "sample_random_code", None)
    assert cli.run(["random-construction", "--N", "2", "--q", "3", "--l", "2", "--M", "0",
                    "--trials", "1", "--workers", "1"]) == 1
    assert capsys.readouterr().err == "polygpt: error: m_codewords must be >= 1, got 0\n"


def test_malformed_hypergraph_file_is_a_usage_error(tmp_path):
    # Node 5 does not exist and [1, 1] repeats a node; no search may
    # answer from such a file.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"N": 2, "num_nodes": 3, "edges": [[0, 5], [1, 1]]}))
    for method in ("exact", "greedy"):
        assert cli.run(["maxclique", "--hypergraph", str(path), "--method", method]) == 2
    for n, nodes, edges in ((1, 3, [[0]]), (2, -1, []), (2, 3, [[1, 0]]), (2, 3, [[0, 1, 2]]),
                            (2, 3, [[-1, 0]]), (2, 3, [[0, 3]]), (2, 3, [[0.0, 1]]),
                            (2.9, "3", [[0, 1], [1, 2], [0, 2]]), (2, 3.99, [[0, 1]]),
                            (2, "3", [[0, 1]]), (2.0, 3, [[0, 1]]), (True, 3, [])):
        with pytest.raises(ValueError):
            hypergraph_from_json({"N": n, "num_nodes": nodes, "edges": edges})
    # Neither value may be truncated to an integer.
    path.write_text(json.dumps({"N": 2.9, "num_nodes": "3", "edges": [[0, 1], [1, 2], [0, 2]]}))
    assert cli.run(["maxclique", "--hypergraph", str(path)]) == 2


@pytest.mark.parametrize("doc", [[1, 2], {"name": "s", "unit": [1, 1],
                                           "generators": [[1, 0], [0, 1]]},
                                 {"name": "b", "dim": 2, "unit": [True, False],
                                  "generators": [[True, False], [True, True]]},
                                 {"name": "b", "dim": 2, "unit": [1, 0], "numeric_mode": "float",
                                  "generators": [[1, 0], [1, True]]},
                                 {"name": "z", "dim": 2, "unit": [1, 0],
                                  "generators": [[1, 0], [1, "1/0"]]},
                                 # Strings and objects where JSON lists belong would be
                                 # read through their characters or keys.
                                 {"name": "s", "dim": 2, "unit": "11", "generators": ["10", "01"]},
                                 {"name": "s", "dim": 2, "unit": [1, 1],
                                  "generators": [[1, 0], "01"]},
                                 {"name": "s", "dim": 2, "unit": {"1": 0, "1/1": 0},
                                  "generators": [{"1": 0, "0": 0}, {"0": 0, "1": 0}]},
                                 {"name": "s", "dim": 2, "unit": [1, 1],
                                  "generators": {"10": [1, 0], "01": [0, 1]}},
                                 {"name": ["x"], "dim": 2, "unit": [1, 1],
                                  "generators": [[1, 0], [0, 1]]},
                                 {"name": 7, "dim": 2, "unit": [1, 1],
                                  "generators": [[1, 0], [0, 1]]}],
                         ids=["list", "no-dim", "booleans", "float-booleans", "zero-denominator",
                              "strings", "string-generator", "objects", "generators-object",
                              "list-name", "number-name"])
def test_malformed_theory_file_is_a_usage_error(tmp_path, capsys, doc):
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        theory_from_json(doc)
    assert cli.run(["theory", "--theory", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polygpt: error: malformed theory JSON")


@pytest.mark.parametrize("dim,unit,generators", [
    (True, [1], [[1]]), (1.0, [1], [[1]]),
    ("3", [1, 0, 0], [[1, 0, 0], [1, 1, 0], [1, 0, 1]]),
], ids=["bool", "float", "string"])
def test_a_theory_dim_must_be_an_integer(tmp_path, capsys, dim, unit, generators):
    # The first two would load as dimension 1 if dim were only compared with !=.
    path = tmp_path / "theory.json"
    path.write_text(json.dumps({"name": "t", "dim": dim, "unit": unit,
                                "generators": generators}))
    assert cli.run(["theory", "--theory", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polygpt: error: malformed theory JSON")


@pytest.mark.parametrize("points", [
    ["00", "10", "01"], {"00": 0, "10": 0, "01": 0}, [{"0": 0, "1": 0}, [1, 0], [0, 1]],
], ids=["strings", "object", "object-point"])
def test_a_points_file_holds_lists_where_lists_belong(tmp_path, capsys, points):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(points))
    assert cli.run(["dg-check", "--points", str(pts)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polygpt: error: malformed points file")


@pytest.mark.parametrize("argv", [
    ["hypergraph", "--family", "hypercube:m=2", "--N", "2", "--workers", "0"],
    ["maxclique", "--family", "hypercube:m=2", "--N", "2", "--workers", "-3"],
    ["maxclique", "--family", "hypercube:m=2", "--N", "2", "--workers", "1",
     "--node-budget", "-1"],
    ["verify-hypercube", "--m", "2", "--workers", "0"],
    ["random-construction", "--N", "2", "--m", "3", "--trials", "5", "--workers", "-1"],
], ids=["hypergraph-workers", "maxclique-workers", "node-budget", "verify-hypercube-workers",
        "random-construction-workers"])
def test_out_of_range_workers_and_node_budget_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert cli.run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polygpt: error: ")
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_tolerance_must_be_positive_and_finite(tol):
    # nan compares false with everything; inf makes every two vectors equal.
    assert cli.run(["distinguish", "--family", "ngon:n=5", "--states", "0,2",
                    "--tol", tol]) == 2
    assert cli.run(["hypergraph", "--family", "ngon:n=5", "--N", "2", "--workers", "1",
                    "--tol", tol]) == 2
    for theory in (ngon_theory(5), hypercube_theory(2)):  # float and exact mode
        with pytest.raises(ValueError, match="positive finite"):
            replace(theory, tol=float(tol))


@pytest.mark.parametrize("n_arity", [0, 1])
def test_random_construction_needs_n_at_least_2(tmp_path, n_arity):
    with pytest.raises(ValueError, match="N must be >= 2"):
        failure_probability_bound(3, 2, 4, n_arity)
    out = tmp_path / "out.json"
    assert cli.run(["random-construction", "--N", str(n_arity), "--q", "3", "--l", "2",
                    "--M", "4", "--trials", "5", "--workers", "1", "--out", str(out)]) == 1
    assert not out.exists()


def test_random_construction_refuses_m_with_explicit_codewords(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert cli.run(["random-construction", "--N", "3", "--m", "5", "--q", "9", "--l", "12",
                    "--M", "8", "--trials", "10", "--workers", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polygpt: error: ")
    assert not out.exists()


def test_negative_trials_exit_1(tmp_path):
    out = tmp_path / "out.json"
    assert cli.run(["random-construction", "--N", "3", "--q", "9", "--l", "12", "--M", "8",
                    "--trials", "-5", "--workers", "1", "--out", str(out)]) == 1
    assert not out.exists()


def test_float_backend_on_rational_theory(tmp_path):
    doc = run_json(tmp_path, ["distinguish", "--family", "hypercube:m=2",
                              "--states", "0,3", "--backend", "float"])
    assert doc["perfect"] is True
    assert doc["p_success"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("command", ["distinguish", "psuccess"])
def test_float_p_success_is_at_most_1(tmp_path, command):
    # The unclamped float optimum of these two 11-gon vertices is 1.0000000000000002.
    doc = run_json(tmp_path, [command, "--family", "ngon:n=11", "--states", "0,5"])
    assert doc["perfect"] is True and doc["p_success"] == 1.0


def test_cache_env_var(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache))
    out = tmp_path / "h.json"
    assert cli.run(["hypergraph", "--family", "hypercube:m=2", "--N", "2",
                    "--workers", "1", "--out", str(out)]) == 0
    assert any(cache.iterdir())


def test_default_workers_follow_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert cli._default_workers() == 3


def test_default_workers_without_affinity_use_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert cli._default_workers() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._default_workers() == 1


def test_tol_stays_with_its_request(tmp_path):
    run_json(tmp_path, ["distinguish", "--family", "ngon:n=5", "--states", "0,2",
                        "--tol", "1e-3"])
    assert ngon_theory(5).arith().tol == DEFAULT_TOL == 1e-9
    assert cli.run(["distinguish", "--family", "ngon:n=5", "--states", "0,2",
                    "--tol", "0"]) == 2


def test_cache_key_covers_the_tolerance(tmp_path):
    cache = tmp_path / "cache"
    for tol in ("1e-3", "1e-12"):
        run_json(tmp_path, ["hypergraph", "--family", "ngon:n=5", "--N", "2", "--workers", "1",
                            "--tol", tol, "--cache-dir", str(cache)])
    assert len(list(cache.iterdir())) == 2


@pytest.mark.parametrize("states", ["0,2", "0,1"])
def test_distinguish_names_the_reversed_certificate_order(tmp_path, monkeypatch, states):
    # Only the reversed-order float re-solve gives a clear verdict, as in
    # test_reversed_resolve_alone_returns_checkable_evidence: the
    # success-probability optimum gives no verdict, so both feasibility
    # verdicts run, and the forward one is unclear.
    args = ["distinguish", "--family", "ngon:n=5", "--states", states]
    plain = run_json(tmp_path, args, name="plain.json")
    verdict = discrimination._verdict
    calls = []

    def first_unclear(theory, states, prob, *known):
        calls.append(states)
        return None if len(calls) == 1 else verdict(theory, states, prob, *known)

    monkeypatch.setattr(discrimination, "_success_verdict", lambda *args: None)
    monkeypatch.setattr(discrimination, "_verdict", first_unclear)
    doc = run_json(tmp_path, args, name="reversed.json")
    assert len(calls) == 2
    if doc["perfect"]:
        assert "certificate_states" not in doc  # the witness is put back in order
        return
    order = doc.pop("certificate_states")
    assert order == [int(i) for i in reversed(states.split(","))]
    assert doc.keys() == plain.keys() and doc["witness"] == plain["witness"]
    theory = ngon_theory(5)
    prob = discrimination._feasibility_problem(theory, [theory.generators[i] for i in order])
    assert lp.verify_farkas(prob, doc["farkas_certificate"], tol=theory.arith().tol)


@pytest.fixture
def recorded_pools(monkeypatch):
    """The max_workers of every process pool the test starts: a
    RecordingPool stands in for the executor and maps in-process."""
    sizes = []

    class RecordingPool:  # records max_workers and maps in-process; forks nothing
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.mark.parametrize("cpus,pool_sizes", [({0, 1}, [2]), ({3}, [])])
def test_pools_never_exceed_the_usable_cpus(tmp_path, monkeypatch, recorded_pools, cpus,
                                            pool_sizes):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    items = list(range(5 * parallel.MIN_POOLED_ITEMS))
    assert parallel.parallel_map(hex, items, 5000) == [hex(x) for x in items]
    assert recorded_pools == pool_sizes
    one = run_json(tmp_path, ["verify-hypercube", "--m", "3", "--workers", "1"], name="1.json")
    many = run_json(tmp_path, ["verify-hypercube", "--m", "3", "--workers", "5000"])
    assert one == many and recorded_pools == pool_sizes * 2


def test_the_parser_is_built_once_and_the_default_workers_follow_each_request(
        tmp_path, monkeypatch, recorded_pools):
    # The parser is cached for the process, but a request without --workers
    # reads the CPU affinity it runs under, not the one the parser saw.
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    first = run_json(tmp_path, ["verify-hypercube", "--m", "3"], name="first.json")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    second = run_json(tmp_path, ["verify-hypercube", "--m", "3"], name="second.json")
    assert first == second and recorded_pools == [2, 3] and built == [1]


@pytest.mark.parametrize("flags", [["--N", "2"], ["--N", "3"], ["--backend", "auto"],
                                   ["--backend", "float"], ["--tol", "0.1"],
                                   ["--N", "3", "--backend", "exact", "--tol", "1e-6"]])
def test_a_build_flag_beside_hypergraph_is_a_usage_error(tmp_path, monkeypatch, capsys, flags):
    # The file's N = 2 square used to answer, the flags ignored. Now the
    # file is not read.
    hpath = tmp_path / "sq.json"
    assert cli.run(["hypergraph", "--family", "hypercube:m=2", "--N", "2", "--workers", "1",
                    "--out", str(hpath)]) == 0

    def no_read(*args):
        raise AssertionError("the file was read before the refusal")

    monkeypatch.setattr(cli.hypergraph, "load_hypergraph", no_read)
    capsys.readouterr()
    assert cli.run(["maxclique", "--hypergraph", str(hpath), *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "beside --hypergraph" in err[0]
    assert all(flag in err[0] for flag in flags if flag.startswith("--"))


def test_maxclique_from_a_family_defaults_to_pairs(tmp_path):
    doc = run_json(tmp_path, ["maxclique", "--family", "hypercube:m=2", "--workers", "1"])
    assert doc["N"] == 2 and doc["size"] == 4
    doc = run_json(tmp_path, ["maxclique", "--family", "simplex:d=3", "--N", "3",
                              "--workers", "1"], name="triple.json")
    assert doc["N"] == 3 and doc["size"] == 3
