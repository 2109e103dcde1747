import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import medianlab
from medianlab import formats
from medianlab.benzenoid import build_benzenoid
from medianlab.cli import build_parser, load_graph, main
from medianlab.errors import FormatError, InputError
from medianlab.graph import bhat, bn, cycle, grid
from medianlab.hypergraphs import Hypergraph
from medianlab.profiles import Profile


def capture(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_graph_text_roundtrip():
    for g in (cycle(6), bn(4), bhat(3), grid(2, 3)):
        text = formats.graph_to_text(g)
        again = formats.graph_from_text(text)
        assert again.n == g.n and again.edges() == g.edges()
    with_comments = "# a comment\n2 1\n0 1\n"
    assert formats.graph_from_text(with_comments).edges() == ((0, 1),)
    with pytest.raises(FormatError):
        formats.graph_from_text("2 2\n0 1\n")
    with pytest.raises(FormatError):
        formats.graph_from_text("")


@pytest.mark.parametrize("read, text, message", [
    (formats.graph_from_text, "x y\n", "bad graph header 'x y'"),
    (formats.hypergraph_from_text, "3\n", "bad hypergraph header '3'"),
    (lambda text: formats.table_from_text(cycle(6), text), "6 1 2\n",
     "bad table header '6 1 2'"),
    # the messages of the one reader of the graph, hypergraph and cell formats
    (formats.graph_from_text, "", "empty graph file"),
    (formats.hypergraph_from_text, "# a comment\n\n", "empty hypergraph file"),
    (formats.cells_from_text, "\n", "empty benzenoid cell file"),
    (formats.graph_from_text, "3 2\n0 1\n", "expected 2 edge lines, found 1"),
    (formats.hypergraph_from_text, "3 1\n", "expected 1 hyperedge lines, found 0"),
    (formats.graph_from_text, "3 1\n0 1 2\n", "bad edge line '0 1 2'"),
    (formats.hypergraph_from_text, "2 1\n0 x\n", "bad hyperedge line '0 x'"),
    (formats.cells_from_text, "0 0 0\n", "bad cell line '0 0 0'"),
], ids=["graph", "hypergraph", "table", "graph-empty", "hypergraph-empty",
        "cells-empty", "graph-count", "hypergraph-count", "graph-line",
        "hypergraph-line", "cells-line"])
def test_a_bad_header_names_its_format(read, text, message):
    with pytest.raises(FormatError) as info:
        read(text)
    assert str(info.value) == message


def test_hypergraph_text_roundtrip():
    h = Hypergraph.from_lists(4, [[0, 1], [1, 2, 3], [3]])
    assert formats.hypergraph_from_text(formats.hypergraph_to_text(h)) == h


def test_cells_text_roundtrip():
    b = build_benzenoid([(0, 0), (1, 0), (1, 1)])
    again = formats.cells_from_text(formats.cells_to_text(b))
    assert again.cells == b.cells
    assert again.graph.edges() == b.graph.edges()


def test_profile_text_roundtrip():
    p = Profile.parse("0:2 3 5:4")
    assert Profile.parse(p.format()) == p


def test_load_graph_generator_and_file(tmp_path):
    assert load_graph("cycle:6").n == 6
    target = tmp_path / "g.txt"
    target.write_text(formats.graph_to_text(cycle(4)))
    assert load_graph(str(target)).n == 4
    with pytest.raises(InputError):
        load_graph("missing_file.txt")


def test_classify_verb(capsys):
    code, out, err = capture(capsys, ["classify", "cycle:6"])
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert set(report["verdicts"]) == {
        "bipartite", "weakly_modular", "modular", "median",
        "helly", "bipartite_helly", "meshed", "witnesses",
    }
    assert report["verdicts"]["bipartite"] is True
    assert report["verdicts"]["modular"] is False
    assert "exit 0" in err


def test_reports_are_byte_stable(capsys):
    _, first, _ = capture(capsys, ["classify", "bn:4"])
    _, second, _ = capture(capsys, ["classify", "bn:4"])
    assert first == second


def test_median_verb(capsys):
    code, out, _ = capture(capsys, ["median", "cycle:6", "--profile", "0 2 4"])
    assert code == 0
    assert json.loads(out)["verdicts"]["median_set"] == [0, 2, 4]


def test_median_verb_on_the_empty_profile(capsys):
    # the f-vector of the empty profile is all zeros: every vertex is a median
    code, out, _ = capture(capsys, ["median", "cycle:6", "--profile", ""])
    assert code == 0
    verdicts = json.loads(out)["verdicts"]
    assert verdicts == {"median_set": [0, 1, 2, 3, 4, 5], "min_total_distance": 0}


def test_consensus_l6_verb(capsys):
    code, out, _ = capture(capsys, ["consensus", "l6", "--profile", "0 2 4"])
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["l6"] == [0]
    assert report["verdicts"]["median"] == [0, 2, 4]


def test_pairing_verbs(capsys):
    code, out, _ = capture(capsys, ["pairing", "check", "cycle:6", "--profile", "0 3"])
    assert code == 0
    assert json.loads(out)["verdicts"]["perfect_pairing"] is True

    code, out, _ = capture(
        capsys, ["pairing", "check", "complete:3", "--profile", "0:2 1:2 2:2"]
    )
    assert code == 1
    assert json.loads(out)["verdicts"]["perfect_pairing"] is False

    code, out, _ = capture(capsys, ["pairing", "double", "kmn:2,3"])
    assert code == 0

    code, out, _ = capture(
        capsys, ["pairing", "search", "hypercube:3", "--support", "4", "--mult", "1"]
    )
    assert code == 1
    witness = json.loads(out)["witnesses"]["profile"]
    assert witness  # refeedable
    code, out, _ = capture(
        capsys, ["pairing", "check", "hypercube:3", "--profile", witness]
    )
    assert code == 1

    # deep search: thousands of units on two vertices, no recursion limit
    code, out, _ = capture(
        capsys, ["pairing", "check", "cycle:6", "--profile", "0:1500 3:1500"]
    )
    assert code == 0
    assert json.loads(out)["verdicts"]["cost"] == 4500


def test_usage_errors_exit_two(capsys, tmp_path):
    code, out, _ = capture(capsys, ["classify", "nosuchfile.graph"])
    assert code == 2
    assert "error" in json.loads(out)
    code, out, _ = capture(capsys, ["median", "cycle:6", "--profile", "0:x"])
    assert code == 2
    code, out, _ = capture(
        capsys, ["pairing", "check", "cycle:6", "--profile", "0 1 2"]
    )
    assert code == 2  # odd profile rejected
    code, out, _ = capture(capsys, ["pairing", "check", "cycle:6", "--profile", ""])
    assert code == 2 and "nonempty" in json.loads(out)["error"]
    # a b-matching search that would run without end stops at its node cap,
    # the default one and one given by --cap
    for cap in ([], ["--cap", "100"]):
        argv = ["pairing", "check", "cycle:5", "--profile", "0:99999999999999999999 1:1"]
        code, out, _ = capture(capsys, argv + cap)
        assert code == 2 and "cap" in json.loads(out)["error"], cap
    # a negative token cannot cancel against another token
    for profile in ("0:-1", "1:-1 1:2"):
        code, out, _ = capture(capsys, ["median", "cycle:6", "--profile", profile])
        assert code == 2, profile
        assert "negative multiplicity" in json.loads(out)["error"], profile
    for profile, reason in (("9", "outside"), ("-1", "negative")):
        code, out, _ = capture(capsys, ["median", "cycle:6", "--profile", profile])
        assert code == 2
        assert reason in json.loads(out)["error"]
    # argparse usage errors, consensus length budgets below 1 (2 for C) and
    # graphs over the vertex cap
    for argv in (
        ["bogusverb"],
        ["median", "cycle:6"],
        ["median", "cycle:6", "--profile", "-1:1"],
        ["consensus", "check", "cycle:6", "--axiom", "C", "--max-len", "-1"],
        ["consensus", "check", "cycle:6", "--axiom", "C", "--max-len", "1"],
        ["consensus", "compare", "cycle:6", "--max-len", "0",
         "--left", "med", "--right", "med"],
        ["consensus", "tabulate-med", "cycle:6", "--max-len", "0"],
        ["classify", "hypercube:14"],  # over the vertex-count cap
    ):
        code, out, _ = capture(capsys, argv)
        assert code == 2, argv
        assert "error" in json.loads(out), argv

    # a table file naming vertex 9 on the 6-cycle
    table_file = tmp_path / "table.txt"
    capture(
        capsys,
        ["consensus", "tabulate-med", "cycle:6", "--max-len", "2",
         "--out", str(table_file)],
    )
    text = table_file.read_text()
    assert "\n5 | 5\n" in text
    table_file.write_text(text.replace("\n5 | 5\n", "\n9 | 5\n"))
    code, out, _ = capture(
        capsys,
        ["consensus", "check", "cycle:6", "--axiom", "C", "--max-len", "2",
         "--function", str(table_file)],
    )
    assert code == 2
    assert "outside" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify"],
        ["benzenoid", "build"],
        ["benzenoid", "embed"],
        ["benzenoid", "verify", "--support", "1", "--mult", "1"],
        ["construct", "incidence"],
        ["consensus", "check", "cycle:6", "--axiom", "C", "--max-len", "2", "--function"],
        ["corpus"],
    ],
    ids=["classify", "benzenoid-build", "benzenoid-embed", "benzenoid-verify",
         "construct-incidence", "consensus-check-function", "corpus"],
)
def test_non_utf8_input_file_exits_two(capsys, tmp_path, argv):
    path = tmp_path / "input.txt"
    path.write_bytes(b"2 1\n0 1\n\xff\n")
    code, out, _ = capture(capsys, argv + [str(path)])
    assert code == 2
    assert out.count("\n") == 1
    assert "not UTF-8 text" in json.loads(out)["error"]


def test_internal_errors_exit_three(capsys, tmp_path, monkeypatch):
    cli = importlib.import_module("medianlab.cli")
    classify = importlib.import_module("medianlab.classify")

    def one_report(out):
        assert out.count("\n") == 1
        return json.loads(out)

    # the bipartite-Helly self-check fails when the half-ball procedure lies
    with monkeypatch.context() as m:
        m.setattr(classify, "bipartite_helly_via_half_balls", lambda g: False)
        code, out, err = capture(capsys, ["classify", "kmn:2,3"])
    assert code == 3
    body = one_report(out)
    assert body["schema"] == 1 and body["command"] == ["classify", "kmn:2,3"]
    assert body["error"].startswith("internal error: RuntimeError: bipartite Helly")
    assert "Traceback" in err

    def crash(g):
        raise RuntimeError("handler crashed")

    monkeypatch.setattr(cli, "classify_graph", crash)
    code, out, _ = capture(capsys, ["classify", "cycle:6"])
    assert code == 3
    assert one_report(out)["error"] == "internal error: RuntimeError: handler crashed"

    # inside corpus the entry records exit 3 and the run goes on
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"entries": [
        ["classify", "cycle:6"],
        ["classify", "missing.graph"],
        ["median", "cycle:6", "--profile", "0 2 4"],
    ]}))
    code, out, _ = capture(capsys, ["corpus", str(manifest)])
    assert code == 3
    body = one_report(out)
    assert [r["exit"] for r in body["runs"]] == [3, 2, 0]
    assert body["verdicts"] == {"entries": 3, "exit": 3}
    assert body["runs"][0]["report"] == {
        "error": "internal error: RuntimeError: handler crashed"
    }


def test_help_prints_text_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: medianlab" in capsys.readouterr().out


def test_parser_built_once_lazily():
    assert build_parser() is build_parser()
    probe = (
        "import medianlab.cli as cli; "
        "print(cli.build_parser.cache_info().currsize)"
    )
    src = str(Path(medianlab.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "0"


def test_module_entry_point():
    # `python -m medianlab` runs the CLI from the source tree, without an install
    src = str(Path(medianlab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "medianlab", "classify", "cycle:6"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["command"] == ["classify", "cycle:6"]
    assert report["verdicts"]["modular"] is False


def test_cap_errors_exit_two(capsys):
    code, out, _ = capture(
        capsys,
        [
            "verify-connected-medians",
            "hypercube:3",
            "--support", "8",
            "--mult", "4",
            "--cap", "10",
        ],
    )
    assert code == 2
    code, out, _ = capture(capsys, ["pairing", "double", "kmn:2,3", "--cap", "3"])
    assert code == 2
    assert "cap" in json.loads(out)["error"]


def test_pairing_check_cap_below_one_exits_two(capsys):
    # the first search frame counts against the cap, as the first item does
    # in every other capped verb
    argv = ["pairing", "check", "cycle:6", "--profile", "0 3", "--cap", "1"]
    code, out, _ = capture(capsys, argv)
    assert code == 0 and json.loads(out)["verdicts"]["pairing"] == [[0, 3]]
    for cap in ("0", "-5"):
        argv[-1] = cap
        code, out, _ = capture(capsys, argv)
        assert code == 2
        body = json.loads(out)
        assert body["command"] == argv and body["error"] == f"b-matching search exceeded cap {cap} nodes"


def test_budget_errors_exit_two_at_once(capsys, tmp_path):
    huge_table = tmp_path / "huge.table"
    huge_table.write_text("6 1000000000\n")
    huge_hypergraph = tmp_path / "huge.hypergraph"
    huge_hypergraph.write_text("100000000 0\n")
    for argv, reason in (
        # 499,999,999 even profiles, refused before the first is tried
        (["pairing", "search", "grid:3,3", "--support", "9", "--mult", "9"], "exceeds cap"),
        # the divergence witness 0 2 4 is a profile of length 3
        (["consensus", "verify-l6", "--max-len", "2"], "length 3"),
        # table sizes come in closed form, not a sum over every length
        (["consensus", "tabulate-med", "cycle:6", "--max-len", "1000000000"], "cap"),
        (["consensus", "check", "cycle:6", "--axiom", "A", "--max-len", "3",
          "--function", str(huge_table)], "expected"),
        # the vertex cap is checked before the incidence edge list is built
        (["construct", "incidence", str(huge_hypergraph)], "exceed the cap"),
    ):
        start = time.perf_counter()
        code, out, _ = capture(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        body = json.loads(out)
        assert body["command"] == argv and reason in body["error"]


def test_construct_counterexample_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "cx.graph"
    code, out, _ = capture(
        capsys,
        ["construct", "counterexample", "--kind", "pairing", "--out", str(out_file)],
    )
    assert code == 0
    report = json.loads(out)
    g = formats.graph_from_text(out_file.read_text())
    assert g.n == report["graph"]["vertices"]
    assert formats.graph_to_text(g) == report["verdicts"]["graph_text"]


def test_construct_incidence(capsys, tmp_path):
    hfile = tmp_path / "h.txt"
    hfile.write_text("2 1\n0 1\n")
    code, out, _ = capture(capsys, ["construct", "incidence", str(hfile)])
    assert code == 0
    assert json.loads(out)["graph"]["vertices"] == 4


def test_consensus_check_and_compare(capsys, tmp_path):
    code, _, _ = capture(
        capsys,
        ["consensus", "check", "cycle:6", "--axiom", "C", "--max-len", "3"],
    )
    assert code == 0
    code, _, _ = capture(
        capsys,
        [
            "consensus", "check", "cycle:6",
            "--axiom", "T2", "--max-len", "3", "--function", "l6",
        ],
    )
    assert code == 1
    code, out, _ = capture(
        capsys,
        [
            "consensus", "compare", "cycle:6",
            "--max-len", "3", "--left", "med", "--right", "l6",
        ],
    )
    assert code == 1
    assert json.loads(out)["verdicts"]["divergences"] > 0

    # fabricated table with one flipped entry, fed back through a file
    table_file = tmp_path / "table.txt"
    code, out, _ = capture(
        capsys,
        [
            "consensus", "tabulate-med", "path:2",
            "--max-len", "2", "--out", str(table_file),
        ],
    )
    assert code == 0
    text = table_file.read_text().replace("0 1 | 0 1", "0 1 | 0")
    table_file.write_text(text)
    code, _, _ = capture(
        capsys,
        [
            "consensus", "check", "path:2",
            "--axiom", "B", "--max-len", "2", "--function", str(table_file),
        ],
    )
    assert code == 1


def test_consensus_table_file_is_checked_against_its_use(capsys, tmp_path):
    table_file = tmp_path / "table.txt"
    capture(
        capsys,
        ["consensus", "tabulate-med", "path:2", "--max-len", "2",
         "--out", str(table_file)],
    )
    text = table_file.read_text()
    check = ["consensus", "check", "path:2", "--axiom", "B", "--function", str(table_file)]
    # the header's length budget must be the one asked for
    code, out, _ = capture(capsys, check + ["--max-len", "7"])
    assert code == 2
    assert "--max-len 7" in json.loads(out)["error"]
    compare = ["consensus", "compare", "path:2", "--max-len", "3"]
    for sides in (["--left", str(table_file), "--right", "med"],
                  ["--left", "med", "--right", str(table_file)]):
        code, out, _ = capture(capsys, compare + sides)
        assert code == 2, sides
        assert "--max-len 3" in json.loads(out)["error"], sides
    # a profile listed twice is refused, not overwritten by its last line
    table_file.write_text(text + "0 1 | 0\n")
    code, out, _ = capture(capsys, check + ["--max-len", "2"])
    assert code == 2
    assert "twice" in json.loads(out)["error"]


def test_benzenoid_verbs(capsys, tmp_path):
    cells = tmp_path / "cells.txt"
    cells.write_text("0 0\n1 0\n")
    code, out, _ = capture(capsys, ["benzenoid", "build", str(cells)])
    assert code == 0
    assert json.loads(out)["verdicts"]["vertices"] == 10
    code, out, _ = capture(capsys, ["benzenoid", "embed", str(cells)])
    assert code == 0
    assert sorted(json.loads(out)["verdicts"]["tree_sizes"]) == [2, 3, 3]
    code, _, _ = capture(
        capsys,
        ["benzenoid", "verify", str(cells), "--support", "2", "--mult", "1"],
    )
    assert code == 0


def test_corpus_runner(capsys, tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"entries": []}))
    code, out, _ = capture(capsys, ["corpus", str(manifest)])
    assert code == 0
    assert json.loads(out)["verdicts"]["entries"] == 0

    manifest.write_text(
        json.dumps(
            {
                "entries": [
                    {"argv": ["classify", "cycle:6"]},
                    {"argv": ["pairing", "search", "hypercube:3",
                              "--support", "4", "--mult", "1"]},
                ]
            }
        )
    )
    code, out, _ = capture(capsys, ["corpus", str(manifest)])
    assert code == 1  # witness entry dominates

    manifest.write_text(
        json.dumps({"entries": [{"argv": ["classify", "missing.graph"]}]})
    )
    code, out, _ = capture(capsys, ["corpus", str(manifest)])
    assert code == 2

    # malformed entries and --help record exit 2 and the run goes on
    manifest.write_text(
        json.dumps(
            {
                "entries": [
                    {"argv": ["--help"]},
                    {"nope": 1},
                    5,
                    "classify cycle:6",
                    ["classify", "cycle:6"],
                ]
            }
        )
    )
    code, out, _ = capture(capsys, ["corpus", str(manifest)])
    assert code == 2
    runs = json.loads(out)["runs"]
    assert [r["exit"] for r in runs] == [2, 2, 2, 2, 0]
    assert all("error" in r["report"] for r in runs[:4])

    manifest.write_text(json.dumps([["classify", "cycle:6"]]))
    code, out, _ = capture(capsys, ["corpus", str(manifest)])
    assert code == 2
    assert "entries" in json.loads(out)["error"]

    # a manifest that names itself is a usage error for that entry, not a
    # recursion that ends in a crash
    manifest.write_text(
        json.dumps({"entries": [["corpus", str(manifest)], ["classify", "cycle:6"]]})
    )
    code, out, _ = capture(capsys, ["corpus", str(manifest)])
    assert code == 2
    runs = json.loads(out)["runs"]
    assert [r["exit"] for r in runs] == [2, 0]
    assert "nests a corpus" in runs[0]["report"]["error"]


def test_shipped_acceptance_manifest(capsys, monkeypatch):
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)
    code, out, _ = capture(capsys, ["corpus", "manifests/acceptance.json"])
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["entries"] == 16
    assert all(entry["exit"] == 0 for entry in report["runs"])
    # byte-for-byte golden: refactors must leave every report unchanged
    assert out == (root / "tests" / "data" / "acceptance_corpus.json").read_text()


# -- exit-code contract fuzz ---------------------------------------------------

SPECS = ("cycle:6", "cycle:5", "path:3", "complete:3", "kmn:2,2", "grid:2,3",
         "cycle:x", "nope:3", "grid:2", "cycle:")
small = st.integers(min_value=-2, max_value=3)
token = st.builds(
    lambda v, k: str(v) if k is None else f"{v}:{k}",
    st.integers(min_value=-1, max_value=10),
    st.none() | st.integers(min_value=-1, max_value=6),
)
profile = st.lists(token, max_size=4).map(" ".join)
rule = st.sampled_from(("med", "l6"))
# (verb words, takes a graph, {option: values}); each option may be left out
VERBS = (
    (["median"], True, {"--profile": profile}),
    (["pairing", "check"], True, {"--profile": profile}),
    (["pairing", "search"], True, {"--support": small, "--mult": small}),
    (["pairing", "local"], True,
     {"--vertex": small, "--support": small, "--mult": small, "--cap": small}),
    (["verify-connected-medians"], True,
     {"--power": small, "--support": small, "--mult": small, "--cap": small}),
    (["consensus", "check"], True,
     {"--axiom": st.sampled_from(("A", "B", "C", "T2", "Ek")),
      "--max-len": small, "--k": small, "--function": rule}),
    (["consensus", "compare"], True,
     {"--max-len": small, "--left": rule, "--right": rule}),
    (["consensus", "l6"], False, {"--profile": profile}),
    (["construct", "bn"], False, {"--n": small}),
    (["construct", "bhat"], False, {"--n": small}),
    (["classify"], True, {}),
)


@st.composite
def argvs(draw):
    words, takes_graph, options = draw(st.sampled_from(VERBS))
    argv = list(words)
    if takes_graph:
        argv.append(draw(st.sampled_from(SPECS)))
    for flag, values in options.items():
        if draw(st.booleans()):
            argv += [flag, str(draw(values))]
    return argv


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert out.getvalue().count("\n") == 1, argv  # one line ...
    assert isinstance(json.loads(out.getvalue()), dict), argv  # ... one object


# -- exit-code contract fuzz over file contents --------------------------------

FUZZ_GRAPH = "# the 4-cycle\n4 4\n0 1\n0 3\n1 2\n2 3\n"
FUZZ_FILES = {
    "graph": FUZZ_GRAPH,
    "cells": "# naphthalene\n0 0\n1 0\n",
    "hypergraph": "3 3\n0 1\n1 2\n0 2\n",
    "table": "2 2\n0 | 0\n1 | 1\n0 0 | 0\n0 1 | 0 1\n1 1 | 1\n",
    "manifest": json.dumps({"entries": [
        ["classify", "cycle:4"],
        {"argv": ["median", "path:3", "--profile", "0 2"]},
    ]}),
}
# every verb that reads a file of each kind; F stands for the file
FUZZ_VERBS = {
    "graph": (
        ["classify", "F"],
        ["median", "F", "--profile", "0 1"],
        ["verify-connected-medians", "F", "--support", "2", "--mult", "1"],
        ["pairing", "check", "F", "--profile", "0 1"],
        ["pairing", "search", "F", "--support", "2", "--mult", "1"],
        ["pairing", "double", "F"],
        ["pairing", "local", "F", "--vertex", "0"],
        ["consensus", "tabulate-med", "F", "--max-len", "2"],
        ["consensus", "check", "F", "--axiom", "B", "--max-len", "2"],
        ["consensus", "compare", "F", "--max-len", "2", "--left", "med", "--right", "med"],
    ),
    "cells": (
        ["benzenoid", "build", "F"],
        ["benzenoid", "embed", "F"],
        ["benzenoid", "verify", "F", "--support", "2", "--mult", "1"],
    ),
    "hypergraph": (["construct", "incidence", "F"],),
    "table": (
        ["consensus", "check", "path:2", "--axiom", "B", "--max-len", "2", "--function", "F"],
        ["consensus", "compare", "path:2", "--max-len", "2", "--left", "F", "--right", "med"],
    ),
    "manifest": (["corpus", "F"],),
}
BAD_BYTES = (b"\xff", b"\x00", b"\xc3", b"\xe2\x82", b"\r", b"\t", b"-", b"#", b"|",
             b"\n", b" ", b"[", b"{", b'"', b":", b",")
HUGE = (b"99999999999999999999", str(2**64).encode(), b"9" * 5000, b"-1", b"0",
        b"2049", b"1e3", b"3.5")
NESTING = (1, 50, 900, 100_000)


@st.composite
def mutated_files(draw):
    """A file kind, one of its verbs, and the kind's valid file after up to
    three byte-level mutations: truncation, an inserted bad byte, an
    integer replaced by a huge or odd one, a line repeated or dropped (the
    header included), or the whole file wrapped in deep JSON nesting."""
    kind = draw(st.sampled_from(sorted(FUZZ_FILES)))
    verb = draw(st.sampled_from(FUZZ_VERBS[kind]))
    data = FUZZ_FILES[kind].encode()
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("truncate", "byte", "integer", "repeat", "drop", "nest")))
        lines = data.splitlines(keepends=True)
        if op == "truncate":
            data = data[:draw(st.integers(0, len(data)))]
        elif op == "byte":
            i = draw(st.integers(0, len(data)))
            data = data[:i] + draw(st.sampled_from(BAD_BYTES)) + data[i:]
        elif op == "integer":
            runs = list(re.finditer(rb"\d+", data))
            if runs:
                run = runs[draw(st.integers(0, len(runs) - 1))]
                data = data[:run.start()] + draw(st.sampled_from(HUGE)) + data[run.end():]
        elif op in ("repeat", "drop") and lines:
            i = draw(st.integers(0, len(lines) - 1))
            lines[i] = lines[i] * draw(st.integers(2, 4)) if op == "repeat" else b""
            data = b"".join(lines)
        elif op == "nest":
            depth = draw(st.sampled_from(NESTING))
            data = b"[" * depth + data + b"]" * depth
    return kind, verb, data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# Tier-1 runs at least 300 examples; `--hypothesis-profile file-fuzz`
# (registered in conftest.py) runs 20,000
@settings(max_examples=max(300, settings().max_examples), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_files())
@example(("manifest", ["corpus", "F"], b"[" * 100_000 + b"]" * 100_000))
@example(("manifest", ["corpus", "F"], b'{"entries": [' + b"9" * 5000 + b"]}"))
@example(("graph", ["classify", "F"], b"2 1\n0 1\n\xff\n"))
def test_exit_code_contract_over_file_contents(fuzz_dir, case):
    kind, verb, data = case
    path = fuzz_dir / kind
    path.write_bytes(data)
    argv = [str(path) if word == "F" else word for word in verb]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, data[:200], err.getvalue()[-2000:])
    assert out.getvalue().count("\n") == 1, argv
    assert isinstance(json.loads(out.getvalue()), dict), argv
