import random
from itertools import combinations

import networkx as nx
import pytest

from medianlab.classify import is_bipartite_helly
from medianlab.combinatorics import adjacency_sets, maximal_stable_sets
from medianlab.errors import InputError
from medianlab.graph import cycle
from medianlab.hypergraphs import (
    Hypergraph,
    build_counterexample,
    clique_hypergraph,
    dual_hypergraph,
    incidence_graph,
    is_helly_hypergraph,
)
from medianlab.pairing import has_perfect_pairing
from medianlab.profiles import median_set, total_distance

from conftest import brute_force_helly, to_networkx


def test_interval_family_is_helly():
    ranges = [frozenset(range(a, b + 1)) for a, b in [(0, 3), (2, 5), (1, 4), (3, 3)]]
    assert is_helly_hypergraph(Hypergraph(6, tuple(ranges))).is_helly


def test_triangle_edge_set_is_not_helly():
    h = Hypergraph.from_lists(3, [[0, 1], [1, 2], [0, 2]])
    res = is_helly_hypergraph(h)
    assert not res.is_helly
    picked = [h.edges[i] for i in res.witness]
    assert all(a & b for a, b in combinations(picked, 2))
    meet = set(picked[0])
    for e in picked[1:]:
        meet &= e
    assert not meet


def test_helly_matches_brute_force_random():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(3, 6)
        edges = [
            frozenset(rng.sample(range(n), rng.randint(1, n)))
            for _ in range(rng.randint(1, 7))
        ]
        h = Hypergraph(n, tuple(edges))
        assert is_helly_hypergraph(h).is_helly == brute_force_helly(edges)


def test_dual_examples():
    h = Hypergraph.from_lists(2, [[0, 1]])
    d = dual_hypergraph(h)
    assert d.ground_size == 1
    assert d.edges == (frozenset({0}), frozenset({0}))
    assert d.has_duplicate_edges
    with pytest.raises(InputError):
        dual_hypergraph(Hypergraph.from_lists(3, [[0, 1]]))  # vertex 2 uncovered


def test_dual_involution_random():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(2, 6)
        edges = [
            frozenset(rng.sample(range(n), rng.randint(1, n)))
            for _ in range(rng.randint(1, 6))
        ]
        covered = set().union(*edges)
        edges.extend(frozenset({x}) for x in range(n) if x not in covered)
        h = Hypergraph(n, tuple(edges))
        assert dual_hypergraph(dual_hypergraph(h)) == h


def test_dual_of_clique_hypergraph_is_helly():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = [
            (a, b) for a, b in combinations(range(n), 2) if rng.random() < 0.5
        ]
        dual = dual_hypergraph(clique_hypergraph(n, edges))
        assert is_helly_hypergraph(dual).is_helly


def test_clique_hypergraph_examples():
    h = clique_hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    assert h.edges == (frozenset({0, 1, 2}),)
    c5 = cycle(5)
    h = clique_hypergraph(5, c5.edges())
    assert len(h.edges) == 5 and all(len(e) == 2 for e in h.edges)
    h = clique_hypergraph(2, [])  # two isolated vertices
    assert h.edges == (frozenset({0}), frozenset({1}))


def test_clique_hypergraph_of_the_complement_is_the_maximal_stable_sets():
    # build_counterexample reads the clique hypergraph of the complement
    # off the seed's maximal stable sets
    rng = random.Random(53)
    for _ in range(200):
        n = rng.randint(1, 8)
        edges = [
            (a, b) for a, b in combinations(range(n), 2) if rng.random() < 0.4
        ]
        present = set(edges)
        complement = [e for e in combinations(range(n), 2) if e not in present]
        stable = maximal_stable_sets(n, adjacency_sets(n, edges))
        assert list(clique_hypergraph(n, complement).edges) == stable


def test_incidence_graph_single_edge_is_four_cycle():
    inc = incidence_graph(Hypergraph.from_lists(2, [[0, 1]]))
    assert inc.graph.n == 4
    assert nx.is_isomorphic(to_networkx(inc.graph), nx.cycle_graph(4))


def test_incidence_graph_properties():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(2, 5)
        edges = [
            frozenset(rng.sample(range(n), rng.randint(1, n)))
            for _ in range(rng.randint(1, 5))
        ]
        h = Hypergraph(n, tuple(edges))
        inc = incidence_graph(h)
        g = inc.graph
        assert g.is_bipartite
        assert g.diameter <= 4
        # h-vertex distance 4 exactly when hyperedges are disjoint
        for i, j in combinations(range(len(edges)), 2):
            vi, vj = inc.edge_vertices[i], inc.edge_vertices[j]
            if edges[i] == edges[j]:
                continue
            if edges[i] & edges[j]:
                assert g.d(vi, vj) == 2
            else:
                assert g.d(vi, vj) == 4
        if is_helly_hypergraph(h).is_helly:
            assert is_bipartite_helly(g)


def test_counterexample_pairing_kind():
    cx = build_counterexample("pairing")
    g = cx.graph
    assert is_bipartite_helly(g)
    assert cx.profile.total == cx.seed_vertices == 6
    m = cx.seed_vertices // 2
    assert total_distance(g, cx.profile, cx.hub) == 4 * m == 12
    assert cx.hub in median_set(g, cx.profile)
    assert has_perfect_pairing(g, cx.profile) is None
    # the doubled profile does pair up: the seed has a fractional matching
    assert has_perfect_pairing(g, cx.profile.power(2)) is not None


def test_counterexample_double_kind():
    cx = build_counterexample("double_pairing")
    g = cx.graph
    assert is_bipartite_helly(g)
    m = cx.seed_vertices // 2
    assert total_distance(g, cx.profile, cx.hub) == 4 * m == 12
    assert has_perfect_pairing(g, cx.profile) is None
    assert has_perfect_pairing(g, cx.profile.power(2)) is None


def test_counterexample_unknown_kind():
    with pytest.raises(InputError):
        build_counterexample("oops")


def test_incidence_graph_checks_the_cap_before_allocating():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="exceed the cap"):
            incidence_graph(Hypergraph(10**8, ()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
