"""Shared fixtures and independent oracles for the test suite.

Oracles deliberately avoid the library's own code paths: networkx for
distances and isomorphism, explicit enumeration for Helly checks and
maximum pairings.
"""

from __future__ import annotations

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import settings

from medianlab.graph import (
    Graph,
    bhat,
    bn,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    path,
    tree_from_parent_list,
)


def to_networkx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def nx_distance(g: Graph, u: int, v: int) -> int:
    return nx.shortest_path_length(to_networkx(g), u, v)


def brute_force_max_pairing(g: Graph, items: list[int]) -> int:
    """Exact maximum pairing cost by full enumeration; items is the profile
    expanded to a list (even length)."""
    if not items:
        return 0
    a, rest = items[0], items[1:]
    best = -1
    for i in range(len(rest)):
        remaining = rest[:i] + rest[i + 1:]
        best = max(best, g.d(a, rest[i]) + brute_force_max_pairing(g, remaining))
    return best


def all_pairings(items: list[int]):
    if not items:
        yield []
        return
    a, rest = items[0], items[1:]
    for i in range(len(rest)):
        for tail in all_pairings(rest[:i] + rest[i + 1:]):
            yield [(a, rest[i])] + tail


def brute_force_helly(edges: list[frozenset]) -> bool:
    """Every pairwise intersecting subfamily meets; exponential, small input."""
    for r in range(2, len(edges) + 1):
        for picked in combinations(range(len(edges)), r):
            if all(
                edges[i] & edges[j]
                for i, j in combinations(picked, 2)
            ):
                meet = set(edges[picked[0]])
                for i in picked[1:]:
                    meet &= edges[i]
                if not meet:
                    return False
    return True


def random_connected_bipartite(rng: random.Random, max_n: int = 10) -> Graph:
    """Random connected bipartite graph: a random spanning tree plus extra
    edges that respect the tree's two-coloring."""
    n = rng.randint(2, max_n)
    parents = [rng.randint(0, i) for i in range(n - 1)]
    tree = tree_from_parent_list(parents)
    color = [0] * n
    for child in range(1, n):
        color[child] = 1 - color[parents[child - 1]]
    edges = set(tree.edges())
    for u in range(n):
        for v in range(u + 1, n):
            if color[u] != color[v] and rng.random() < 0.3:
                edges.add((u, v))
    return Graph(n, sorted(edges))


def random_tree(rng: random.Random, n: int) -> Graph:
    return tree_from_parent_list([rng.randint(0, i) for i in range(n - 1)])


def random_connected_graph(rng: random.Random, n: int, density: float) -> Graph:
    """A random spanning tree on n vertices plus each other pair as an edge
    with the given probability."""
    edges = set(random_tree(rng, n).edges())
    for u, v in combinations(range(n), 2):
        if rng.random() < density:
            edges.add((u, v))
    return Graph(n, sorted(edges))


@pytest.fixture(scope="session")
def corpus() -> dict[str, Graph]:
    return {
        "k3": complete(3),
        "c4": cycle(4),
        "c6": cycle(6),
        "path5": path(5),
        "k23": complete_bipartite(2, 3),
        "q3": hypercube(3),
        "b4": bn(4),
        "bhat4": bhat(4),
    }


# `pytest --hypothesis-profile file-fuzz` runs the file-content fuzz of the
# exit-code contract (test_cli.py) at 20,000 examples
settings.register_profile("file-fuzz", max_examples=20_000)
