import importlib
import json
import random
from itertools import combinations
from pathlib import Path

from medianlab.classify import (
    bipartite_helly_via_half_balls,
    bipartite_helly_via_interval_condition,
    check_conditions_tc_qc,
    classify,
    hypergraph_helly_by_triples,
    is_bipartite_helly,
    is_helly,
    is_median_graph,
    is_meshed,
    is_modular,
)
from medianlab.graph import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    tree_from_parent_list,
)
from medianlab.hypergraphs import Hypergraph, incidence_graph

from conftest import brute_force_helly, random_connected_bipartite


def test_tc_vacuous_on_bipartite(corpus):
    for name in ("c4", "c6", "path5", "k23", "q3", "b4", "bhat4"):
        tc, _, _ = check_conditions_tc_qc(corpus[name])
        assert tc


def test_qc_scan_on_c6():
    tc, qc, wit = check_conditions_tc_qc(cycle(6))
    assert tc and not qc
    u, v, w, z = wit["qc"]
    g = cycle(6)
    # the witness premise really holds and no filling vertex exists
    assert g.d(v, z) == g.d(w, z) == 1 and g.d(v, w) == 2
    assert g.d(u, v) == g.d(u, w) == g.d(u, z) - 1 >= 2
    assert not any(
        g.d(v, x) == 1 and g.d(w, x) == 1 and g.d(u, x) == g.d(u, v) - 1
        for x in range(6)
    )


def test_k3_conditions():
    tc, qc, wit = check_conditions_tc_qc(complete(3))
    assert tc and qc and not wit


def test_modular_median_examples():
    assert is_median_graph(tree_from_parent_list([0, 0, 1]))
    wit = []
    assert not is_modular(cycle(6), wit)
    assert wit[0] == (0, 2, 4)
    assert is_median_graph(hypercube(3))
    # 2, 3, 4 is the first triple of K_{2,3} with two medians (0 and 1)
    wit = []
    assert not is_median_graph(complete_bipartite(2, 3), wit)
    assert wit == [(2, 3, 4)]


def test_helly_examples():
    assert is_helly(complete(4))
    assert is_helly(complete(3))
    assert not is_helly(cycle(6))
    assert is_helly(tree_from_parent_list([0, 0, 0]))


def test_triple_criterion_matches_brute_force():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(3, 6)
        k = rng.randint(1, 12)
        edges = []
        for _ in range(k):
            size = rng.randint(1, n)
            edges.append(frozenset(rng.sample(range(n), size)))
        verdict, witness = hypergraph_helly_by_triples(range(n), edges)
        assert verdict == brute_force_helly(edges)
        # the witness is the subfamily picked by the first failing triple:
        # every edge holding two of its elements, with an empty meet
        expected = None
        for probe in combinations(range(n), 3):
            picked = [i for i, e in enumerate(edges) if len(e & set(probe)) >= 2]
            if picked and not frozenset.intersection(*(edges[i] for i in picked)):
                expected = tuple(picked)
                break
        assert witness == expected
        if not verdict:
            picked = [edges[i] for i in witness]
            assert all(a & b for a, b in combinations(picked, 2))
            meet = set(picked[0])
            for e in picked[1:]:
                meet &= e
            assert not meet


def test_classify_matches_golden_reports():
    # classify(g).as_dict() recorded from the implementation that intersected
    # the picked subfamily per triple and built triple interval meets
    path = Path(__file__).parent / "data" / "classify_golden.json"
    golden = json.loads(path.read_text())
    assert len(golden) == 50
    for entry in golden:
        g = Graph(entry["n"], [tuple(e) for e in entry["edges"]])
        assert classify(g).as_dict() == entry["report"], entry["name"]


def test_bipartite_helly_examples():
    wit = []
    assert not is_bipartite_helly(cycle(6), wit)
    assert wit  # modularity witness
    # non-bipartite input reports a reason, no crash
    wit = []
    assert not is_bipartite_helly(complete(3), wit)
    assert wit == ["not bipartite"]
    helly_h = Hypergraph.from_lists(3, [[0, 1], [1, 2], [0, 1, 2]])
    assert is_bipartite_helly(incidence_graph(helly_h).graph)


def test_classify_runs_modularity_once(monkeypatch):
    # the package exports a function named classify over the module
    module = importlib.import_module("medianlab.classify")
    calls = []
    original = module.is_modular

    def counted(g, witness=None):
        calls.append(g)
        return original(g, witness)

    monkeypatch.setattr(module, "is_modular", counted)
    for g, biphelly_witness in ((cycle(6), (0, 2, 4)), (hypercube(3), (0, 7))):
        calls.clear()
        report = classify(g)
        assert len(calls) == 1
        assert report.witnesses["bipartite_helly"] == biphelly_witness
    # on its own, the interval condition still tests modularity itself
    calls.clear()
    wit = []
    assert not is_bipartite_helly(cycle(6), wit)
    assert len(calls) == 1 and wit == [(0, 2, 4)]


def test_bipartite_helly_procedures_agree_on_random_graphs():
    rng = random.Random(11)
    for _ in range(60):
        g = random_connected_bipartite(rng, max_n=9)
        assert bipartite_helly_via_half_balls(g) == bipartite_helly_via_interval_condition(g)


def brute_meshed(g: Graph) -> bool:
    return all(
        any(
            g.d(v, x) == 1 and g.d(w, x) == 1 and 2 * g.d(u, x) <= g.d(u, v) + g.d(u, w)
            for x in range(g.n)
        )
        for u in range(g.n)
        for v in range(g.n)
        for w in range(g.n)
        if g.d(v, w) == 2
    )


def test_meshed_against_oracle(corpus):
    for g in corpus.values():
        assert is_meshed(g) == brute_meshed(g)
    assert is_meshed(hypercube(3))
    assert is_meshed(complete(3))


def test_class_hierarchy_on_corpus(corpus):
    for name, g in corpus.items():
        report = classify(g)
        if report.median:
            assert report.modular
        if report.modular:
            assert report.weakly_modular
        if report.bipartite_helly:
            assert report.modular and report.bipartite
        # every false flag carries a witness
        for flag in ("weakly_modular", "modular", "median", "meshed"):
            if not getattr(report, flag):
                assert flag in report.witnesses, (name, flag)


def test_expected_corpus_flags(corpus):
    assert classify(corpus["q3"]).median
    assert classify(corpus["k23"]).bipartite_helly
    assert classify(corpus["b4"]).bipartite
    report = classify(corpus["c6"])
    assert report.bipartite and not report.modular and not report.bipartite_helly
