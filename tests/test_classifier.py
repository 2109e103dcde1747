import importlib
import json
import random
from itertools import combinations, islice
from pathlib import Path

import pytest

from medianlab.classify import (
    _median_counts,
    _Scans,
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
from medianlab.cli import main
from medianlab.errors import DisconnectedGraphError
from medianlab.graph import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    generate,
    hypercube,
    tree_from_parent_list,
)
from medianlab.hypergraphs import Hypergraph, incidence_graph

from conftest import (
    brute_force_helly,
    random_connected_bipartite,
    random_connected_graph,
    random_tree,
)


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


def brute_berge(ground_masks, masks):
    """The Berge triple criterion by the plain i < j < k loop over the
    ground incidence masks: the picked member indices of the first triple
    whose picked mask no mask in `masks` covers, or None."""
    for a, b, c in combinations(ground_masks, 3):
        picked = a & b | a & c | b & c
        if picked and not any(m & picked == picked for m in masks):
            return tuple(e for e in range(picked.bit_length()) if picked >> e & 1)
    return None


def _incidence(members, elements):
    """The mask of each element: bit i set when it lies in members[i]."""
    return [sum(1 << i for i, e in enumerate(members) if x in e) for x in elements]


def test_triple_scan_matches_the_plain_loop_on_random_families():
    # the scan skips triples whose first element shares no member with one
    # of the others; verdicts and witnesses stay those of the plain loop
    rng = random.Random(1975)
    failing = 0
    seen = dict.fromkeys(("empty member", "idle element", "outside", "disjoint pair"), 0)
    for _ in range(2000):
        n = rng.randint(3, 8)
        universe = range(n + 3)
        ground = rng.sample(universe, n)  # three elements lie outside
        density = rng.choice((0.2, 0.35, 0.5))
        edges = [
            frozenset(x for x in universe if rng.random() < density)
            for _ in range(rng.randint(1, 9))
        ]
        holds, why = hypergraph_helly_by_triples(ground, edges)
        elements = sorted(set().union(*edges))
        ground_masks = _incidence(edges, sorted(ground))
        expected = brute_berge(ground_masks, _incidence(edges, elements))
        assert (holds, why) == (expected is None, expected), (ground, edges)
        failing += not holds
        seen["empty member"] += frozenset() in edges
        seen["idle element"] += 0 in ground_masks
        seen["outside"] += not set(elements) <= set(ground)
        seen["disjoint pair"] += any(not a & b for a, b in combinations(ground_masks, 2))
    assert failing >= 300
    assert min(seen.values()) >= 100, seen


def test_ball_and_half_ball_scans_match_the_plain_loop():
    rng = random.Random(1987)
    graphs = [generate(spec) for spec in NAMED]
    graphs += [random_connected_bipartite(rng, max_n=12) for _ in range(200)]
    failing = 0
    for g in graphs:
        diam = g.diameter
        balls = [g.ball(v, r) for v in range(g.n) for r in range(diam + 1)]
        masks = _incidence(balls, range(g.n))
        expected = brute_berge(masks, masks)
        wit = []
        assert is_helly(g, wit) == (expected is None), g.edges()
        assert wit == ([] if expected is None else [expected]), g.edges()
        if not g.is_bipartite:
            continue
        # v alone, then per radius r >= 1 the half-balls on the side of
        # vertex 0 and on the other side
        sides = g.bipartition()
        halves = []
        for v in range(g.n):
            halves.append({v})
            for r in range(1, diam + 1):
                halves += [{x for x in side if g.d(v, x) <= r} for side in sides]
        masks = _incidence(halves, range(g.n))
        expected = brute_berge(masks, masks)
        wit = []
        assert bipartite_helly_via_half_balls(g, wit) == (expected is None), g.edges()
        assert wit == ([] if expected is None else [expected]), g.edges()
        failing += expected is not None
    assert failing >= 40


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


def _count_calls(monkeypatch, name):
    """Wrap the classify core `name` so that each call is recorded; the
    package exports a function named classify over the module."""
    module = importlib.import_module("medianlab.classify")
    calls = []
    original = getattr(module, name)

    def counted(g, *args):
        calls.append(g)
        return original(g, *args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_classify_runs_modularity_once(monkeypatch):
    calls = _count_calls(monkeypatch, "_first_layer_violations")
    for g, biphelly_witness in ((cycle(6), (0, 2, 4)), (hypercube(3), (0, 7))):
        calls.clear()
        report = classify(g)
        assert len(calls) == 1
        assert report.witnesses["bipartite_helly"] == biphelly_witness
    # the qc and long-interval probes share the layers of each source
    layers = _count_calls(monkeypatch, "_layers")
    for g in (hypercube(3), generate("grid:3,3")):
        layers.clear()
        classify(g)
        assert len(layers) == g.n
    # on its own, the interval condition still tests modularity itself
    calls.clear()
    wit = []
    assert not is_bipartite_helly(cycle(6), wit)
    assert len(calls) == 1 and wit == [(0, 2, 4)]


def test_classify_skips_the_implied_scans(monkeypatch):
    # a weakly modular graph is meshed and a tree is Helly, so classify runs
    # the meshed scan only on graphs that are not weakly modular and the
    # ball scan only on graphs that are not trees; the half-ball self-check
    # of a bipartite graph always runs.  A tree is median, so it runs no
    # layer pass and builds no pair list, and a bipartite graph runs no tc
    # scan, whose body walks the edge list once per source
    meshed = _count_calls(monkeypatch, "_first_meshed_violation")
    columns = _count_calls(monkeypatch, "_first_column_failure")
    layers = _count_calls(monkeypatch, "_layers")
    pairs = _count_calls(monkeypatch, "_two_apart")
    edge_walks = []
    edges = Graph.edges
    monkeypatch.setattr(Graph, "edges", lambda g: edge_walks.append(g) or edges(g))
    counts = (meshed, columns, layers, pairs, edge_walks)
    tree = tree_from_parent_list([0, 0, 1, 1, 2, 4])
    for g, expected in (
        (hypercube(3), (0, 2, 8, 1, 0)),
        (generate("grid:3,3"), (0, 2, 9, 1, 0)),
        (complete(4), (0, 1, 4, 1, 4)),
        (tree, (0, 1, 0, 0, 0)),
        (cycle(6), (1, 2, 1, 1, 0)),
        # tc fails, so weak modularity is decided without the layer pass,
        # and a graph that is not bipartite is not modular
        (cycle(5), (1, 1, 0, 1, 1)),
    ):
        for calls in counts:
            calls.clear()
        report = classify(g)
        assert tuple(map(len, counts)) == expected, g.edges()
        assert report.meshed == brute_meshed(g)
    # on their own, is_helly and is_median_graph of a tree read the same
    # shortcuts
    for calls in counts:
        calls.clear()
    assert is_helly(tree) and is_median_graph(tree)
    assert not any(counts)


def _connected_labelled_graphs(max_n):
    """Every connected graph on the vertex set 0..n-1, n <= max_n."""
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            try:
                g = Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            except DisconnectedGraphError:
                continue
            yield g


def test_weakly_modular_is_meshed_and_trees_are_helly(corpus):
    # the two implications classify reads its verdicts from, against the
    # full meshed scan and the Berge scan of the explicit ball family
    graphs = list(_connected_labelled_graphs(5))
    assert len(graphs) == 772
    graphs += [generate(spec) for spec in NAMED] + list(corpus.values())
    rng = random.Random(2020)
    graphs += [
        random_connected_graph(rng, rng.randint(6, 10), rng.choice((0.1, 0.25, 0.5)))
        for _ in range(300)
    ]
    seen = set()
    for g in graphs:
        tc, qc, _ = check_conditions_tc_qc(g)
        tree = g.edge_count == g.n - 1
        meshed = is_meshed(g)
        balls = [g.ball(v, r) for v in range(g.n) for r in range(g.diameter + 1)]
        helly, _ = hypergraph_helly_by_triples(range(g.n), balls)
        if tc and qc:
            assert meshed, g.edges()
        if tree:
            assert helly, g.edges()
        elif g.is_bipartite:
            assert not helly, g.edges()
        report = classify(g)
        assert (report.meshed, report.helly) == (meshed, helly), g.edges()
        seen.add((tc and qc, meshed, tree, g.is_bipartite, helly))
    # weakly modular graphs and graphs that are not meshed; trees, bipartite
    # non-trees, Helly and non-Helly graphs that are not bipartite
    assert {(True, True), (False, False)} <= {(w, m) for w, m, *_ in seen}
    assert {(t, b, h) for *_, t, b, h in seen} == {
        (True, True, True), (False, True, False), (False, False, True), (False, False, False)
    }


def test_classify_builds_the_pair_list_once(monkeypatch):
    calls = _count_calls(monkeypatch, "_two_apart")
    for g in (cycle(6), hypercube(3), complete(4), generate("bhat:3")):
        calls.clear()
        classify(g)
        assert len(calls) == 1


def test_recognizers_skip_the_pair_list_and_layer_pass_they_need_not_read(monkeypatch):
    # no scan of the distance-2 pair list fails on a tree, so no recognizer
    # builds it there; modularity needs a bipartite graph, so on K4 the
    # modular and interval-condition recognizers run no layer pass
    pairs = _count_calls(monkeypatch, "_two_apart")
    layer_passes = _count_calls(monkeypatch, "_first_layer_violations")
    tree = tree_from_parent_list([0, 0, 1, 1, 2, 4])
    for recognizer in (
        check_conditions_tc_qc, is_modular, is_median_graph, is_helly,
        bipartite_helly_via_half_balls, bipartite_helly_via_interval_condition,
        is_bipartite_helly, is_meshed, classify,
    ):
        recognizer(tree)
    assert pairs == []
    layer_passes.clear()
    for recognizer in (is_modular, bipartite_helly_via_interval_condition):
        wit = []
        assert not recognizer(complete(4), wit)
        assert wit == [(0, 1, 2)]
    assert layer_passes == []


# the recognizers that read a flag off the record and walk the triples only
# to name a witness
WITNESS_ON_DEMAND = (
    is_modular, is_median_graph, bipartite_helly_via_interval_condition, is_bipartite_helly,
)


def test_recognizers_of_a_modular_graph_run_no_triple_walk(monkeypatch):
    # K_{2,3} is modular and not median: modularity is read off the layer
    # pass, and only a median witness walks the triples
    walks = _count_calls(monkeypatch, "_median_counts")
    g = generate("kmn:2,3")
    for recognizer in (is_modular, bipartite_helly_via_interval_condition, is_bipartite_helly):
        walks.clear()
        wit = []
        assert recognizer(g, wit) and wit == []
        assert walks == [], recognizer.__name__
    wit = []
    assert not is_median_graph(g, wit) and wit == [(2, 3, 4)] and len(walks) == 1
    # without a witness list a failing verdict is read off the flags alone,
    # also where no triple has a median or the graph is not bipartite
    hexagon_with_a_leaf = Graph(7, [(i, (i + 1) % 6) for i in range(6)] + [(0, 6)])
    assert hexagon_with_a_leaf.is_bipartite and not is_modular(hexagon_with_a_leaf, [])
    walks.clear()
    for g in (cycle(6), cycle(8), complete(4), hexagon_with_a_leaf):
        for recognizer in WITNESS_ON_DEMAND:
            assert not recognizer(g), recognizer.__name__
    assert walks == []


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


# -- oracles over many graphs: the local characterizations and the ball masks
# read off distance columns against explicit intervals and ball families

NAMED = (
    "cycle:4", "cycle:5", "cycle:6", "cycle:7", "cycle:8", "path:1", "path:2",
    "path:6", "complete:3", "complete:4", "kmn:1,3", "kmn:2,2", "kmn:2,3",
    "kmn:3,3", "kmn:3,4", "hypercube:3", "hypercube:4", "bn:3", "bn:4", "bn:5",
    "bhat:3", "bhat:4", "grid:2,2", "grid:2,5", "grid:3,3", "grid:3,4",
    "tree:0,0,1,1,2", "tree:0,1,2,3,3,5",
)


def _induced_connected(rng, host, k):
    """A random connected induced subgraph of `host` on k vertices."""
    keep = {rng.randrange(host.n)}
    while len(keep) < k:
        keep.add(rng.choice(sorted({y for x in keep for y in host.adj[x]} - keep)))
    index = {v: i for i, v in enumerate(sorted(keep))}
    return Graph(k, [(index[u], index[v]) for u, v in host.edges() if u in index and v in index])


def _oracle_graphs():
    graphs = [(spec, generate(spec)) for spec in NAMED]
    rng = random.Random(2008)
    hosts = (hypercube(4), generate("grid:4,4"))
    for i in range(320):
        n = rng.randint(3, 12)
        kind = i % 4
        if kind == 0:
            g = random_connected_bipartite(rng, max_n=12)
        elif kind == 1:
            g = random_connected_graph(rng, n, 0.2)
        elif kind == 2:
            g = random_tree(rng, n)
        else:
            g = _induced_connected(rng, hosts[i % 8 // 4], n)
        graphs.append((f"random/{i}", g))
    return graphs


ORACLE_GRAPHS = _oracle_graphs()


def _triple_oracle(g):
    """The first triple x < y < z whose intervals have an empty meet, and the
    first whose meet is not a single vertex, from `g.interval`."""
    no_median = not_one = None
    for x, y, z in combinations(range(g.n), 3):
        meet = g.interval(x, y) & g.interval(y, z) & g.interval(x, z)
        if not_one is None and len(meet) != 1:
            not_one = (x, y, z)
        if not meet:
            no_median = (x, y, z)
            break
    return no_median, not_one


def _named(found):
    return [] if found is None else [found]


def test_modular_and_median_match_the_triple_scan(monkeypatch):
    walks = _count_calls(monkeypatch, "_median_counts")
    kinds = set()
    for name, g in ORACLE_GRAPHS:
        no_median, not_one = _triple_oracle(g)
        walks.clear()
        assert is_modular(g) == (no_median is None), name
        assert is_median_graph(g) == (not_one is None), name
        assert walks == [], name
        kinds.add((g.is_bipartite, no_median is None, not_one is None))
        wit = []
        assert is_modular(g, wit) == (no_median is None), name
        assert wit == _named(no_median), name
        wit = []
        assert is_median_graph(g, wit) == (not_one is None), name
        assert wit == _named(not_one), name
        report = classify(g)
        assert (report.modular, report.median) == (no_median is None, not_one is None)
        assert report.witnesses.get("modular") == no_median, name
        assert report.witnesses.get("median") == not_one, name
    # median, modular but not median, bipartite but not modular, not bipartite
    assert kinds == {(True, True, True), (True, True, False), (True, False, False),
                     (False, False, False)}


def test_ball_masks_match_explicit_families():
    verdicts = set()
    for name, g in ORACLE_GRAPHS:
        radii = range(g.diameter + 1)
        balls = [g.ball(v, r) for v in range(g.n) for r in radii]
        holds, why = hypergraph_helly_by_triples(range(g.n), balls)
        wit = []
        assert is_helly(g, wit) == holds, name
        assert wit == _named(why), name
        verdicts.add(("helly", holds))
        if not g.is_bipartite:
            continue
        halves = [
            half
            for v in range(g.n)
            for r in radii
            for side in g.bipartition()
            if (half := g.ball(v, r) & side)
        ]
        holds, why = hypergraph_helly_by_triples(range(g.n), halves)
        wit = []
        assert bipartite_helly_via_half_balls(g, wit) == holds, name
        assert wit == _named(why), name
        verdicts.add(("half-balls", holds))
    assert len(verdicts) == 4


def _interval_condition_by_intervals(g):
    """The first (u, v) with d(u,v) >= 3 whose fan in I(u,v) has no second
    common neighbour there, from `g.interval`; None when there is none."""
    for u in range(g.n):
        for v in range(g.n):
            if g.d(u, v) < 3:
                continue
            inter = g.interval(u, v)
            fan = [w for w in g.neighbors(v) if w in inter]
            if not any(x != v and all(g.d(w, x) == 1 for w in fan) for x in inter):
                return u, v
    return None


def test_interval_condition_matches_the_interval_scan(monkeypatch):
    walks = _count_calls(monkeypatch, "_median_counts")
    verdicts = set()
    for name, g in ORACLE_GRAPHS:
        buf = []
        modular = is_modular(g, buf)
        expected = _interval_condition_by_intervals(g) if modular else buf[0]
        walks.clear()
        assert bipartite_helly_via_interval_condition(g) == (expected is None), name
        # the interval condition implies bipartite, so the verdicts agree
        assert is_bipartite_helly(g) == (expected is None), name
        assert walks == [], name
        wit = []
        assert bipartite_helly_via_interval_condition(g, wit) == (expected is None), name
        assert wit == _named(expected), name
        if modular:
            verdicts.add(expected is None)
    assert verdicts == {True, False}


def _median_counts_by_columns(g):
    """The triple walk one vertex at a time, the oracle of the packed
    `_median_counts`: each triple with its number of medians m, those with
    2 (d(x,m) + d(y,m) + d(z,m)) equal to the perimeter."""
    d = g.dist
    for x, y, z in combinations(range(g.n), 3):
        dx, dy, dz = d[x], d[y], d[z]
        perimeter = dx[y] + dy[z] + dx[z]
        yield (x, y, z), sum(2 * (a + b + c) == perimeter for a, b, c in zip(dx, dy, dz))


def _k23_with_tail(n):
    """K_{2,3} with sides {3, 4} and {0, 1, 2}, and a path 2, 5, 6, ..., n - 1
    hung off 2: the triples (0, 1, z) for z = 2 and z >= 5 have the two
    medians 3 and 4, and the diameter is n - 3."""
    sides = [(a, b) for a in (3, 4) for b in (0, 1, 2)]
    return Graph(n, sides + [(2 if v == 5 else v - 1, v) for v in range(5, n)])


# graphs on both sides of each boundary of the packing: 8-bit fields while
# 3 diam < 128 and 16-bit ones beyond, bytes rows up to 256 vertices and
# array('H') rows beyond.  K_{2,3} with a tail puts triples with two medians
# on every side: its diameter is n - 3, so n = 45 takes 8-bit fields and
# n = 46 16-bit ones.  path:44 has diameter 43 and takes 16-bit fields,
# cycle:44 (diameter 22) 8-bit ones, and kmn:2,255, not median, 8-bit
# fields read from array('H') rows
WIDTH_GRAPHS = [(spec, generate(spec)) for spec in (
    "cycle:43", "cycle:44", "path:43", "path:44", "path:45", "cycle:300", "cycle:301",
    "kmn:2,255",
)] + [(f"k23+tail:{n}", _k23_with_tail(n)) for n in (43, 44, 45, 46, 256, 257)]


@pytest.mark.parametrize("spec, bits", [
    ("cycle:60", 8), ("cycle:44", 8), ("path:43", 8), ("path:44", 16), ("kmn:2,255", 8),
])
def test_triple_walk_width_follows_the_diameter(monkeypatch, spec, bits):
    # field_bits(3 diam): cycle:60 has 60 vertices but diameter 30, and
    # path:44 diameter 43, whose 3 diam = 129 passes 127
    module = importlib.import_module("medianlab.classify")
    pack, widths = module.pack_fields, []

    def recording(values, width):
        widths.append(width)
        return pack(values, width)

    monkeypatch.setattr(module, "pack_fields", recording)
    next(_median_counts(generate(spec)))
    assert set(widths) == {bits}


def test_packed_walk_matches_the_walk_by_columns():
    for name, g in ORACLE_GRAPHS + WIDTH_GRAPHS:
        packed = list(islice(_median_counts(g), 20000))
        assert packed == list(islice(_median_counts_by_columns(g), 20000)), name


@pytest.mark.parametrize("k", [3, 4, 21, 22, 100, 129, 600])
def test_even_cycle_witnesses_in_closed_form(k):
    # C_2k: (0, 1, z) has its one median at 0 or 1, and (0, 2, k + 1) is
    # the first triple without exactly one median, and it has none; the
    # diameter is k, so k = 3, 4, 21 and 22 take 8-bit fields, k = 100
    # 16-bit fields from bytes rows, and k = 129 and 600 16-bit fields from
    # array rows
    scans = _Scans(cycle(2 * k))
    assert scans.median_violation == scans.modular_violation == (0, 2, k + 1)


@pytest.mark.parametrize("argv, name", [
    (["classify", "grid:14,14"], "classify_grid14x14.json"),
    (["classify", "tests/data/report_inputs/tree300.graph"], "classify_tree300.json"),
    (["pairing", "double", "tests/data/report_inputs/pairing_counterexample.graph"],
     "pairing_counterexample_double.json"),
    (["classify", "cycle:300"], "classify_cycle300.json"),
    (["classify", "tests/data/report_inputs/benzenoid_chain12.graph"],
     "classify_benzenoid_chain12.json"),
])
def test_large_classify_stdout_is_pinned(capsys, monkeypatch, argv, name):
    # the half-ball self-check at a few hundred vertices, through the CLI, the
    # packed triple walk on array('H') rows (cycle:300, not median), the
    # slowest exact-LP path, `pairing double` on the counterexample graph,
    # and the 12-cell benzenoid chain: 50 vertices, diameter 25 and not
    # median, whose walk takes 8-bit fields by its diameter where a width
    # read off n would take 16
    root = Path(__file__).parent.parent
    monkeypatch.chdir(root)
    assert main(argv) == 0
    assert capsys.readouterr().out == (root / "tests" / "data" / name).read_text()


# -- the layer-mask scans against the scans one vertex at a time that they
# replaced, kept here as oracles


def _qc_by_lists(g, pairs):
    for u, du in enumerate(g.dist):
        for v, w, common in pairs:
            k = du[v]
            if k >= 2 and du[w] == k and not any(du[x] == k - 1 for x in common):
                z = next((z for z in common if du[z] == k + 1), None)
                if z is not None:
                    return u, v, w, z
    return None


def _long_interval_by_lists(g):
    d, adj = g.dist, g.adj
    for u, du in enumerate(d):
        for v, k in enumerate(du):
            if k < 3:
                continue
            dv = d[v]
            fan = [w for w in adj[v] if du[w] == k - 1]
            if not any(
                du[x] == k - 2 and dv[x] == 2 and all(d[w][x] == 1 for w in fan)
                for x in adj[fan[0]]
            ):
                return u, v
    return None


def _random_tree_product(rng):
    """The Cartesian product of three random trees, 8 to 16 vertices in a
    random order: a median graph with an induced 3-cube, which fails the
    long-interval condition."""
    sizes = rng.choice(((2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 2, 4), (4, 2, 2)))
    trees = [random_tree(rng, k) for k in sizes]
    cells = [(a, b, c) for a in range(sizes[0]) for b in range(sizes[1]) for c in range(sizes[2])]
    label = list(range(len(cells)))
    rng.shuffle(label)
    index = {cell: label[i] for i, cell in enumerate(cells)}
    edges = set()
    for cell in cells:
        for axis, tree in enumerate(trees):
            for y in tree.adj[cell[axis]]:
                other = (*cell[:axis], y, *cell[axis + 1:])
                edges.add(tuple(sorted((index[cell], index[other]))))
    return Graph(len(cells), sorted(edges))


def test_layer_mask_scans_match_the_list_scans():
    module = importlib.import_module("medianlab.classify")
    graphs = list(_connected_labelled_graphs(5)) + [generate(spec) for spec in NAMED]
    rng = random.Random(2021)
    hosts = (hypercube(5), generate("grid:5,5"))
    for i in range(2100):
        n = rng.randint(6, 16)
        kind = i % 4
        if kind == 0:
            g = random_connected_bipartite(rng, max_n=16)
            while g.n < 6:
                g = random_connected_bipartite(rng, max_n=16)
        elif kind == 1:
            g = random_connected_graph(rng, n, rng.choice((0.1, 0.2, 0.35)))
        elif kind == 2:
            g = _induced_connected(rng, hosts[i % 8 // 4], n)
        else:
            g = _random_tree_product(rng)
        graphs.append(g)
    assert len(graphs) == 772 + len(NAMED) + 2100
    failures = {"qc": 0, "long interval, modular": 0}
    bipartite = sum(g.is_bipartite for g in graphs)
    assert 500 < bipartite < len(graphs) - 500
    for g in graphs:
        pairs = module._two_apart(g)
        qc = _qc_by_lists(g, pairs)
        # the long-interval probes run only on a bipartite graph, and the
        # pass ends at the first qc violation
        modular = g.is_bipartite and qc is None
        long_interval = _long_interval_by_lists(g) if modular else None
        assert module._first_layer_violations(g, pairs) == (qc, long_interval), g.edges()
        failures["qc"] += qc is not None
        failures["long interval, modular"] += long_interval is not None
    # 654 and 536 at this seed
    assert min(failures.values()) >= 100, failures


# -- the implied verdicts against full scans: the tc scan without its
# bipartite shortcut, and the layer pass as the two list scans above, with no
# tree shortcut and every fan probed


def _tc_full_scan(g):
    d, adj = g.dist, g.adj
    return next(
        (
            (u, v, w)
            for u, du in enumerate(d)
            for v, w in g.edges()
            if du[v] == du[w] >= 2
            and not any(d[w][x] == 1 and du[x] == du[v] - 1 for x in adj[v])
        ),
        None,
    )


def _layer_pass_full_scan(g, pairs):
    """The qc scan, then the long-interval scan on a bipartite graph with no
    qc violation, every fan probed."""
    qc = _qc_by_lists(g, pairs)
    if qc is not None or not g.is_bipartite:
        return qc, None
    return None, _long_interval_by_lists(g)


def _verdicts(g):
    """classify's report and every recognizer's verdict and witness."""
    found = [classify(g).as_dict(), check_conditions_tc_qc(g)]
    for recognizer in (
        is_modular, is_median_graph, bipartite_helly_via_interval_condition,
        is_bipartite_helly, is_meshed, is_helly,
    ):
        wit = []
        found.append((recognizer(g, wit), wit))
    return found


def _max_fan(g):
    """The most members of a fan, the neighbours of v inside I(u,v), over
    the pairs at distance 3 or more; 0 when there is none."""
    d = g.dist
    return max(
        (sum(d[u][w] == k - 1 for w in g.adj[v])
         for u in range(g.n) for v in range(g.n) if (k := d[u][v]) >= 3),
        default=0,
    )


def _implied_verdict_graphs():
    rng = random.Random(2024)
    hosts = (hypercube(5), generate("grid:5,5"))
    graphs = []
    for i in range(2000):
        n = rng.randint(4, 14)
        kind = i % 5
        if kind == 0:
            g = random_tree(rng, n)
        elif kind == 1:
            g = random_connected_bipartite(rng, max_n=14)
        elif kind == 2:
            g = random_connected_graph(rng, n, rng.choice((0.1, 0.2, 0.35)))
        elif kind == 3:
            g = _induced_connected(rng, hosts[i % 10 // 5], n)
        else:
            g = _random_tree_product(rng) if i % 2 else random_tree(rng, n)
        graphs.append(g)
    return graphs


def test_implied_verdicts_match_the_full_scans(monkeypatch):
    module = importlib.import_module("medianlab.classify")
    graphs = _implied_verdict_graphs()
    # the references, with every tree shortcut off as well
    with monkeypatch.context() as m:
        m.setattr(module, "_first_tc_violation", _tc_full_scan)
        m.setattr(module, "_first_layer_violations", _layer_pass_full_scan)
        m.setattr(module, "_is_tree", lambda g: False)
        expected = [_verdicts(g) for g in graphs]
    kinds = {"tree": 0, "bipartite, not a tree": 0, "modular, a fan of 3 or more": 0}
    for g, want in zip(graphs, expected):
        assert _verdicts(g) == want, g.edges()
        if g.edge_count == g.n - 1:
            kinds["tree"] += 1
        elif g.is_bipartite:
            kinds["bipartite, not a tree"] += 1
            kinds["modular, a fan of 3 or more"] += want[0]["modular"] and _max_fan(g) >= 3
    # 849, 814 and 280 at this seed
    assert min(kinds["tree"], kinds["bipartite, not a tree"]) >= 300, kinds
    assert kinds["modular, a fan of 3 or more"] >= 100, kinds

