"""CLI surface: subcommands, exit codes, manifests, file round trips."""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import sierpack
from sierpack import cli, packing, reproduce
from sierpack._data import _read
from sierpack.certify import EMPIRICAL, CertificateReport, lower_bound_sequence
from sierpack.graph_core import read_graph
from sierpack.packing import EXACT, DecideResult, SolveResult, read_coloring
from sierpack.sierpinski import base_graph_library, gen_generalized


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def st1_graph(tmp_path, capsys):
    path = tmp_path / "st1.graph"
    code, _, _ = run_cli(["gen", "--family", "triangle", "--n", "1",
                          "-o", str(path)], capsys)
    assert code == 0
    return path


# ------------------------------------------------------------------- gen


def test_gen_writes_a_parseable_graph(st1_graph):
    g = read_graph(st1_graph)
    assert g.n == 6
    assert g.edge_count == 9


def test_gen_sierpinski_requires_k(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["gen", "--family", "sierpinski", "--n", "2",
                  "-o", str(tmp_path / "x.graph")])
    assert err.value.code == 3


def test_gen_generalized_requires_base(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["gen", "--family", "generalized", "--n", "2",
                  "-o", str(tmp_path / "x.graph")])
    assert err.value.code == 3


def test_gen_rejects_out_of_range_dimension(tmp_path, capsys):
    code, _, err = run_cli(["gen", "--family", "triangle", "--n", "99",
                            "-o", str(tmp_path / "x.graph")], capsys)
    assert code == 3
    assert "99" in err


def test_unknown_subcommand_exits_3(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["nonsense"])
    assert err.value.code == 3


@pytest.mark.parametrize("argv, files, message", [
    (["chi", "g"], {"g": "v a\nv b\nv c\ne a b\n"}, "connected graph"),
    (["chi", "g"], {"g": "v a\nv b\ne a a\ne a b\n"}, "self loop"),
    (["verify", "g", "c"], {"g": "v a\nv b\ne a b\n", "c": "a 1\nzz 2\n"},
     "'zz'"),
    (["decide", "g", "2", "--require", "q=1"], {"g": "v a\nv b\ne a b\n"},
     "'q'"),
    (["certify", "--family", "triangle", "--m", "1", "c"],
     {"c": "00 1\n01 2\n02 4\n11 1\n12 3\n22 2\n"}, "corner colors differ"),
    (["certify", "--family", "triangle", "--m", "1", "c"],
     {"c": "00 1\n01 1\n02 2\n11 1\n12 3\n22 1\n"}, "block pair 00, 01"),
    # color 2 is listed first and clashes too, but the lower color 1 is named
    (["certify", "--family", "triangle", "--m", "1", "c"],
     {"c": "00 2\n11 2\n22 2\n01 1\n02 1\n12 3\n"},
     "block pair 01, 02 shares color 1 at distance 1"),
    (["certify", "--family", "triangle", "--m", "1", "c", "--depth", "-3"],
     {"c": "00 1\n01 2\n02 3\n11 1\n12 4\n22 1\n"}, "depth must be >= 0, got -3"),
    (["search", "--family", "triangle", "--m", "2", "--max-color", "0", "-o", "f"],
     {"f": ""}, "max_color must be >= 1, got 0"),
    (["search", "--family", "triangle", "--m", "2", "--max-color", "8",
      "--restarts", "0", "-o", "f"], {"f": ""}, "restarts must be >= 1, got 0"),
    (["search", "--family", "triangle", "--m", "2", "--max-color", "8",
      "--iters", "-5", "-o", "f"], {"f": ""}, "iterations must be >= 0, got -5"),
    (["search", "--family", "triangle", "--m", "3", "--max-color", "2000000",
      "-o", "f"], {"f": ""}, "max_color 2000000 exceeds the block's 42 vertices"),
    # a NaN or infinite deadline never fires, and a negative one reads as TIMEOUT
    (["--timeout", "nan", "chi", "g"], {"g": "v a\nv b\ne a b\n"},
     "--timeout must be a finite number of seconds >= 0, got 'nan'"),
    (["chi", "g", "--timeout", "-1"], {"g": "v a\nv b\ne a b\n"},
     "--timeout must be a finite number of seconds >= 0, got '-1.0'"),
    (["decide", "g", "2", "--timeout", "inf"], {"g": "v a\nv b\ne a b\n"},
     "--timeout must be a finite number of seconds >= 0, got 'inf'"),
], ids=["chi-disconnected", "chi-self-loop", "verify-unknown-label",
        "decide-unknown-vertex", "certify-corner-mismatch", "certify-invalid-block",
        "certify-invalid-block-two-classes", "certify-negative-depth",
        "search-max-color-0", "search-restarts-0", "search-negative-iters",
        "search-max-color-above-block", "timeout-nan", "timeout-negative",
        "timeout-inf"])
def test_bad_input_exits_3_with_one_line(argv, files, message, tmp_path, capsys):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("sierpack: ")
    assert message in err


# ------------------------------------------------------------------- chi


def test_chi_exact_on_small_graph(st1_graph, capsys):
    code, out, _ = run_cli(["chi", str(st1_graph)], capsys)
    assert code == 0
    assert "chi_rho = 4" in out


def test_chi_quiet_prints_bare_value(st1_graph, capsys):
    code, out, _ = run_cli(["chi", str(st1_graph), "--quiet"], capsys)
    assert code == 0
    assert out.strip() == "4"


def test_chi_budget_expiry_exits_2(tmp_path, capsys):
    big = tmp_path / "st2.graph"
    run_cli(["gen", "--family", "triangle", "--n", "2", "-o", str(big)],
            capsys)
    code, out, _ = run_cli(["chi", str(big), "--timeout", "0.01"], capsys)
    assert code == 2
    assert "bounds" in out


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_global_flags_work_on_either_side_of_the_subcommand(before, tmp_path, capsys):
    big = tmp_path / "st2.graph"
    run_cli(["gen", "--family", "triangle", "--n", "2", "-o", str(big)],
            capsys)
    flags = ["--timeout", "0.01", "--json"]
    argv = flags + ["chi", str(big)] if before else ["chi", str(big)] + flags
    assert cli.build_parser().parse_args(argv).timeout == 0.01
    code, out, _ = run_cli(argv, capsys)
    assert code == 2
    (row,) = json.loads(out)["results"]
    assert row["name"] == "chi" and row["status"] == "report"


def test_chi_missing_file_exits_3(capsys):
    code, _, err = run_cli(["chi", "/no/such/file.graph"], capsys)
    assert code == 3
    assert "file.graph" in err


def test_chi_json_manifest_shape(st1_graph, capsys):
    code, out, _ = run_cli(["chi", str(st1_graph), "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["command"][0] == "sierpack"
    assert str(st1_graph) in doc["inputs"]
    (row,) = doc["results"]
    assert row["name"] == "chi"
    assert row["status"] == "pass"
    assert "chi_rho = 4" in row["detail"]


# ---------------------------------------------------------------- verify


def test_verify_round_trip_with_search_output(tmp_path, capsys):
    graph = tmp_path / "s2k13.graph"
    coloring = tmp_path / "s2k13.coloring"
    run_cli(["gen", "--family", "generalized", "--base", "K13", "--n", "2",
             "-o", str(graph)], capsys)
    code, out, _ = run_cli(["search", "--family", "generalized", "--base",
                            "K13", "--m", "2", "--max-color", "3",
                            "-o", str(coloring)], capsys)
    assert code == 0
    assert "CERTIFIED bound 3" in out
    code, out, _ = run_cli(["verify", str(graph), str(coloring)], capsys)
    assert code == 0
    assert "VALID (max color 3)" in out


def test_verify_rejects_bad_coloring(st1_graph, tmp_path, capsys):
    bad = tmp_path / "bad.coloring"
    labels = read_graph(st1_graph).labels
    bad.write_text("".join(f"{lab} 1\n" for lab in labels))
    code, out, _ = run_cli(["verify", str(st1_graph), str(bad)], capsys)
    assert code == 1
    assert "INVALID" in out


def test_verify_quiet_one_word(st1_graph, tmp_path, capsys):
    partial = tmp_path / "partial.coloring"
    partial.write_text("00 1\n")
    code, out, _ = run_cli(["verify", str(st1_graph), str(partial),
                            "--quiet"], capsys)
    assert code == 1
    assert out.strip() == "INVALID"


# ---------------------------------------------------------------- decide


def test_decide_sat_prints_witness(st1_graph, tmp_path, capsys):
    code, out, _ = run_cli(["decide", str(st1_graph), "4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("SAT")
    witness = tmp_path / "w.coloring"
    witness.write_text("\n".join(lines[1:]) + "\n")
    assert max(read_coloring(witness).values()) <= 4


def test_decide_unsat_exits_1(st1_graph, capsys):
    code, out, _ = run_cli(["decide", str(st1_graph), "3"], capsys)
    assert code == 1
    assert out.startswith("UNSAT")


def test_decide_constraints_flip_the_answer(st1_graph, capsys):
    # corner 00 must take some color; banning 1..4 there kills all
    # 4-colorings
    code, out, _ = run_cli(["decide", str(st1_graph), "4",
                            "--forbid", "00=1,2,3,4"], capsys)
    assert code == 1
    code, out, _ = run_cli(["decide", str(st1_graph), "4",
                            "--require", "00=1"], capsys)
    assert code == 0


def test_decide_bad_constraint_syntax_exits_3(st1_graph, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["decide", str(st1_graph), "4", "--forbid", "00"])
    assert err.value.code == 3


def test_decide_timeout_exits_2(tmp_path, capsys):
    big = tmp_path / "st2.graph"
    run_cli(["gen", "--family", "triangle", "--n", "2", "-o", str(big)],
            capsys)
    code, out, _ = run_cli(["decide", str(big), "7", "--timeout", "0.01"],
                           capsys)
    assert code == 2
    assert out.startswith("TIMEOUT")


# --------------------------------------------------------------- certify


def test_certify_shipped_block_is_certified(tmp_path, capsys):
    block = tmp_path / "fig7.coloring"
    block.write_text(_read("fig7_s2k13.coloring"))
    code, out, _ = run_cli(["certify", "--family", "generalized",
                            "--base", "K13", "--m", "2", str(block)], capsys)
    assert code == 0
    assert out.startswith("status CERTIFIED\n")
    assert "color 3 margin 1" in out


def test_certify_json_reports_elapsed_time(tmp_path, capsys):
    block = tmp_path / "fig7.coloring"
    block.write_text(_read("fig7_s2k13.coloring"))
    code, out, _ = run_cli(["certify", "--family", "generalized", "--base",
                            "K13", "--m", "2", "--json", str(block)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["elapsed"] > 0
    assert doc["results"][0]["elapsed"] > 0
    assert str(block) in doc["inputs"]


def test_certify_refuted_block_exits_1(tmp_path, capsys):
    block = tmp_path / "fig14.coloring"
    block.write_text(_read("fig14_st2.coloring"))
    code, out, _ = run_cli(["certify", "--family", "triangle", "--m", "2",
                            str(block)], capsys)
    assert code == 1
    assert out.startswith("status REFUTED")


def test_certify_refuted_greedy_block_names_first_violation(tmp_path, capsys):
    k4e = gen_generalized(4, base_graph_library("K4E"))
    block = tmp_path / "greedy.coloring"
    packing.write_coloring(block, packing.greedy_packing_coloring(k4e, seed=707825))
    code, out, _ = run_cli(["certify", "--family", "generalized", "--base", "K4E",
                            "--m", "4", str(block)], capsys)
    assert code == 1
    assert out.splitlines()[0] == (
        "status REFUTED dimension 5 color 2 pair 03330 30000 distance 2")


@pytest.mark.parametrize("argv", [
    ["certify", "--family", "triangle", "--m", "2", "fig14.coloring"],  # exits 1 anyway
    ["bounds", "--k", "4", "--n", "8"],  # exits 0 on a reader that stays
])
def test_reader_gone_exits_1_without_a_traceback(argv, tmp_path):
    (tmp_path / "fig14.coloring").write_text(_read("fig14_st2.coloring"))
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails: no race with the reader
    env = dict(os.environ, PYTHONPATH=str(Path(sierpack.__file__).parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-m", "sierpack.cli", *argv], cwd=tmp_path,
                              env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_certify_generalized_requires_base(tmp_path, capsys):
    block = tmp_path / "b.coloring"
    block.write_text("0 1\n")
    with pytest.raises(SystemExit) as err:
        cli.main(["certify", "--family", "generalized", "--m", "1",
                  str(block)])
    assert err.value.code == 3


# ---------------------------------------------------------------- bounds


def test_bounds_table_matches_library(capsys):
    code, out, _ = run_cli(["bounds", "--k", "4", "--n", "8"], capsys)
    assert code == 0
    seq = lower_bound_sequence(4, 8)
    got = [line.split() for line in out.strip().splitlines()]
    assert got == [[str(n), str(seq.term(n))] for n in range(1, 9)]


# ---------------------------------------------------------------- search


def test_search_uncertifiable_budget_exits_1(tmp_path, capsys):
    out_path = tmp_path / "tri.coloring"
    code, out, _ = run_cli(["search", "--family", "triangle", "--m", "1",
                            "--max-color", "2", "--iters", "2000",
                            "-o", str(out_path)], capsys)
    assert code == 1
    assert "no certificate" in out
    # the best candidate is still written for inspection
    assert set(read_coloring(out_path).values()) <= {1, 2}


def test_search_json_reports_bound(tmp_path, capsys):
    out_path = tmp_path / "k13.coloring"
    code, out, _ = run_cli(["search", "--family", "generalized", "--base",
                            "K13", "--m", "2", "--max-color", "3",
                            "--json", "-o", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["detail"] == "certified bound 3"
    assert doc["elapsed"] > 0 and doc["results"][0]["elapsed"] > 0


# -------------------------------------------------------------- manifest


def test_manifest_pass_fail_logic():
    rows = [
        reproduce.CheckRow("a", "first", "pass", 0.1),
        reproduce.CheckRow("c", "third", "report", 0.0, "informational"),
    ]
    manifest = reproduce.RunManifest(command=["sierpack", "reproduce"],
                                     results=rows)
    assert manifest.passed
    manifest.results.append(reproduce.CheckRow("d", "fourth", "fail", 0.0))
    assert not manifest.passed


def test_manifest_text_table_shows_verdict_and_counts():
    manifest = reproduce.RunManifest(
        command=["sierpack"],
        results=[reproduce.CheckRow("a", "first", "pass", 0.1),
                 reproduce.CheckRow("c", "third", "report", 0.0, "extra")])
    table = manifest.text_table()
    # report rows are listed but excluded from the tally
    assert "PASSED 1/1 checks" in table
    assert "[extra]" in table


def test_manifest_json_round_trip():
    manifest = reproduce.RunManifest(
        command=["sierpack", "chi"],
        inputs={"g.graph": "00" * 32},
        results=[reproduce.CheckRow("chi", "value", "pass", 1.234, "chi_rho = 4")])
    doc = json.loads(manifest.to_json())
    assert doc["version"] == cli.__version__
    assert doc["inputs"] == {"g.graph": "00" * 32}
    assert doc["results"][0]["elapsed"] == 1.234


def test_reproduce_manifest_records_settings(monkeypatch, capsys):
    doc = json.loads(reproduce.new_manifest(["sierpack", "reproduce"]).to_json())
    got = doc["settings"]
    assert sorted(got) == ["node_cap", "numpy", "python"]
    assert got["node_cap"] == packing.NODE_CAP == 1_000_000
    assert got["python"].count(".") == 2 and got["numpy"]
    assert len(doc["inputs"]) == 13
    # the run reads no environment variable
    monkeypatch.setenv("SIERPACK_C3_BUDGET", "soon")
    again = json.loads(reproduce.new_manifest(["sierpack", "reproduce"]).to_json())
    assert again == doc
    # quick is the only profile
    with pytest.raises(SystemExit) as exit_:
        cli.main(["reproduce", "--profile", "full"])
    out, err = capsys.readouterr()
    assert (exit_.value.code, out, err.count("\n")) == (3, "", 1)
    assert "'full'" in err


def test_packaged_data_hashes_are_complete():
    hashes = reproduce._hash_data_files()
    assert len(hashes) == 13
    assert all(len(h) == 64 for h in hashes.values())


# ------------------------------------------------- reproduction building


def test_shipped_coloring_checks_all_pass():
    rows = reproduce.run_checks(reproduce.select("verify."))
    assert len(rows) == 7
    assert all(r.status == "pass" for r in rows)


def test_small_oracle_check_passes_quickly():
    (row,) = reproduce.run_checks(["oracle.random"])
    assert row.status == "pass"


def test_solver_rows_do_not_read_the_clock(monkeypatch):
    # a clock that jumps an hour per call: the solver rows spend nodes, not
    # seconds, so every verdict and node count is that of a normal run
    hours = itertools.count(0.0, 3600.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(hours))
    rows = reproduce.run_checks(reproduce.select(
        "solver.", "unsat.", "lower.dim3", "bounds.anchor", "oracle."))
    assert len(rows) == 24
    assert [r for r in rows if r.status != "pass"] == []
    detail = {r.name: r.detail for r in rows}
    assert detail["solver.st2"] == "EXACT 8..8, 31598 nodes"
    assert detail["lower.dim3"] == "exhaustive, 76451 nodes"
    assert detail["bounds.anchor"] == "a_2 = 10, solver EXACT 10..10, 422396 nodes"
    assert detail["unsat.h"] == "UNSAT, 96 nodes"
    assert detail["oracle.random"] == "100 random graphs, seed 7, 2194 nodes"


# ------------------------------------------------------------ check table


def test_table_names_are_unique_and_premises_come_first():
    seen = set()
    for check in reproduce.TABLE:
        assert check.name not in seen, check.name
        assert set(check.premises) <= seen, check.name
        seen.add(check.name)


def _fake_table(calls, premise_status):
    def check(name, status, premises=()):
        def run(ctx):
            calls.append(name)
            return reproduce.Outcome(status, "")
        return reproduce.Check(name, "claim", run, premises)
    return (check("a", premise_status), check("b", "pass", ("a",)),
            check("c", "pass", ("a", "b")), check("d", "pass"))


def test_runner_runs_each_premise_once_in_table_order():
    calls = []
    rows = reproduce.run_checks(["c", "b"], table=_fake_table(calls, "report"))
    assert calls == ["a", "b", "c"]
    assert [(r.name, r.status) for r in rows] == [
        ("a", "report"), ("b", "pass"), ("c", "pass")]
    with pytest.raises(ValueError, match="'e'"):
        reproduce.run_checks(["e"], table=_fake_table([], "pass"))


def test_row_fails_without_running_when_its_premise_fails():
    calls = []
    rows = reproduce.run_checks(["c"], table=_fake_table(calls, "fail"))
    assert calls == ["a"]
    assert [r.status for r in rows] == ["fail", "fail", "fail"]
    assert rows[2].detail == "premise failed: a, b"


def test_side3_banned_color_facts_are_solved_once(monkeypatch):
    # only the unsat.side3.k7.* rows solve side 3 with color 7 banned, and
    # lower.dim3 fails unless its own solve of the 48-vertex union is UNSAT
    side3 = reproduce._family_graph("side3")
    current, banned_solves, answer = [], [], []

    def fake_decide(g, k, constraints=None, *, budget):
        assert budget is None  # capped in nodes, not seconds
        if g == side3 and k == 7 and constraints and constraints.forbidden:
            banned_solves.append(current[-1])
        if g.n == 48:
            return DecideResult(answer[-1], None, 1234, 0.0)
        return DecideResult("UNSAT", None, 0, 0.0)

    def tracked(check):
        def run(ctx):
            current.append(check.name)
            return check.run(ctx)
        return reproduce.Check(check.name, check.claim, run, check.premises)

    monkeypatch.setattr(reproduce, "is_packing_k_colorable", fake_decide)
    table = [tracked(c) for c in reproduce.TABLE
             if c.name.startswith(("unsat.", "lower.dim3"))]
    for status, detail in [
            ("TIMEOUT", "UNSAT not proven: node cap 1000000 reached after 1234 nodes"),
            ("SAT", "solver found a 7-coloring")]:
        answer.append(status)
        banned_solves.clear()
        rows = reproduce.run_checks([c.name for c in table], table=table)
        assert banned_solves == ["unsat.side3.k7.ban03", "unsat.side3.k7.ban23"]
        assert [r.name for r in rows if r.name.startswith("lower.")] == ["lower.dim3"]
        assert (rows[-1].status, rows[-1].detail) == ("fail", detail)
        (row,) = reproduce.run_checks(reproduce.select("lower.dim3"))
        assert (row.name, row.status, row.detail) == ("lower.dim3", "fail", detail)


def test_search_and_cert_rows_fail_without_their_proof(monkeypatch):
    # the search replays are deterministic and the eleven block certifies, so
    # an uncertified replay or an EMPIRICAL report is a failure, not a report
    configs = []

    def uncertified(cfg):
        configs.append((cfg.max_color, cfg.seed, cfg.iterations))
        return SimpleNamespace(certified_bound=None, penalty=7)

    monkeypatch.setattr(reproduce, "search_certified_coloring", uncertified)
    rows = reproduce.run_checks(reproduce.select("search."))
    assert configs == [(33, 5, 60_000), (31, 32, 500_000)]
    assert [(r.name, r.status, r.detail) for r in rows] == [
        ("search.certified", "fail", "no certificate, penalty 7"),
        ("search.target", "fail", "no certificate, penalty 7"),
        ("search.best", "fail", "premise failed: search.certified, search.target")]

    monkeypatch.setattr(reproduce, "certify_generalized_tiling",
                        lambda base, m, block: CertificateReport(EMPIRICAL, {},
                                                                 max_dimension=m + 2))
    rows = reproduce.run_checks(["cert.eleven", "tile.eleven"])
    assert [(r.name, r.status) for r in rows] == [("cert.eleven", "fail"),
                                                  ("tile.eleven", "fail")]
    assert rows[0].detail == "EMPIRICAL depth 7"


def test_bounds_anchor_fails_unless_chi_rho_is_ten(monkeypatch):
    # the row claims chi_rho(S2_4) = 10, so an exact 11 must fail it
    monkeypatch.setattr(reproduce, "chi_rho",
                        lambda g, budget: SolveResult(EXACT, 11, 11, None, 0, 0.0))
    (row,) = reproduce.run_checks(["bounds.anchor"])
    assert (row.status, row.detail) == ("fail", "a_2 = 10, solver EXACT 11..11, 0 nodes")
