"""CLI surface: subcommands, exit codes, manifests, file round trips."""

import json

import pytest

from sierpack import cli
from sierpack._data import _read
from sierpack.certify import lower_bound_sequence
from sierpack.graph_core import read_graph
from sierpack.packing import read_coloring


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
    (["search", "--family", "triangle", "--m", "2", "--max-color", "0", "-o", "f"],
     {"f": ""}, "max_color must be >= 1, got 0"),
    (["search", "--family", "triangle", "--m", "2", "--max-color", "8",
      "--restarts", "0", "-o", "f"], {"f": ""}, "restarts must be >= 1, got 0"),
    (["search", "--family", "triangle", "--m", "2", "--max-color", "8",
      "--iters", "-5", "-o", "f"], {"f": ""}, "iterations must be >= 0, got -5"),
], ids=["chi-disconnected", "chi-self-loop", "verify-unknown-label",
        "decide-unknown-vertex", "certify-corner-mismatch", "certify-invalid-block",
        "search-max-color-0", "search-restarts-0", "search-negative-iters"])
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
    assert out.startswith("status CERTIFIED mode refined")
    assert "color 3 margin 1" in out


def test_certify_refuted_block_exits_1(tmp_path, capsys):
    block = tmp_path / "fig14.coloring"
    block.write_text(_read("fig14_st2.coloring"))
    code, out, _ = run_cli(["certify", "--family", "triangle", "--m", "2",
                            str(block)], capsys)
    assert code == 1
    assert out.startswith("status REFUTED")


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


def test_bounds_literal_variant_differs(capsys):
    _, plain, _ = run_cli(["bounds", "--k", "5", "--n", "6"], capsys)
    _, literal, _ = run_cli(["bounds", "--k", "5", "--n", "6",
                             "--literal-recurrence"], capsys)
    assert plain.splitlines()[0] == literal.splitlines()[0]
    assert plain.splitlines()[-1] != literal.splitlines()[-1]


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


# -------------------------------------------------------------- manifest


def test_manifest_pass_fail_logic():
    rows = [
        cli.CheckRow("a", "first", "pass", 0.1),
        cli.CheckRow("b", "second", "degraded", 0.2, "fallback path"),
        cli.CheckRow("c", "third", "report", 0.0, "informational"),
    ]
    manifest = cli.RunManifest(command=["sierpack", "reproduce"],
                               results=rows)
    assert manifest.passed
    manifest.results.append(cli.CheckRow("d", "fourth", "fail", 0.0))
    assert not manifest.passed


def test_manifest_text_table_shows_verdict_and_counts():
    manifest = cli.RunManifest(
        command=["sierpack"],
        results=[cli.CheckRow("a", "first", "pass", 0.1),
                 cli.CheckRow("c", "third", "report", 0.0, "extra")])
    table = manifest.text_table()
    # report rows are listed but excluded from the tally
    assert "PASSED 1/1 checks" in table
    assert "[extra]" in table


def test_manifest_json_round_trip():
    manifest = cli.RunManifest(
        command=["sierpack", "chi"],
        inputs={"g.graph": "00" * 32},
        results=[cli.CheckRow("chi", "value", "pass", 1.234, "chi_rho = 4")])
    doc = json.loads(manifest.to_json())
    assert doc["version"] == cli.__version__
    assert doc["inputs"] == {"g.graph": "00" * 32}
    assert doc["results"][0]["elapsed"] == 1.234


def test_packaged_data_hashes_are_complete():
    hashes = cli._hash_data_files()
    assert len(hashes) == 13
    assert all(len(h) == 64 for h in hashes.values())


# ------------------------------------------------- reproduction building


def test_shipped_coloring_checks_all_pass():
    rows = cli.check_shipped_colorings()
    assert len(rows) == 7
    assert all(r.status == "pass" for r in rows)


def test_small_oracle_check_passes_quickly():
    (row,) = cli.check_solver_against_naive(count=5, seed=11)
    assert row.status == "pass"


def test_placement_search_on_full_graph_finds_nothing():
    s3 = cli._family_graph("S3_K4E")
    from sierpack.graph_core import induced_subgraph

    side3 = cli._side_blocks("3")
    side1 = cli._side_blocks("1")
    union = induced_subgraph(
        s3, [lab for blocks in (side3, side1) for b in blocks for lab in b])
    found, _ = cli._seven_placement_exists(union, side3, side1)
    assert not found


def test_placement_search_succeeds_when_relaxed():
    # same enumeration on the whole 64-vertex graph: the two extra
    # middle squares add shortcuts but also distant placements
    s3 = cli._family_graph("S3_K4E")
    side3 = cli._side_blocks("3")
    side1 = cli._side_blocks("1")
    # distances measured in the full graph are never larger, so if even
    # this relaxation finds nothing the union certainly has nothing
    found, _ = cli._seven_placement_exists(s3, side3, side1)
    assert not found


def test_digit_swap_isomorphism_holds():
    s3 = cli._family_graph("S3_K4E")
    a, *_ = cli._side_graph(s3, "3")
    b, *_ = cli._side_graph(s3, "1")
    assert cli._digit_swap_iso(a, b)
