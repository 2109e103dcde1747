"""Shared fixtures and independent oracles for the test suite.

Oracles deliberately avoid the library's own code paths: networkx for
distances and isomorphism, explicit enumeration for Helly checks and
maximum pairings.  The list kernels of the profile sweep are the forms
that `medianlab.profiles` ran before its f-vectors were packed, kept as
the oracles of the packed ones; their sweep takes each profile's
`f_vector` afresh.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import inf

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
from medianlab.profiles import PROFILE_CAP, canonical_profiles, f_vector


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


# -- the list kernels of the profile sweep -------------------------------------


def list_profile_sweep(g: Graph, max_support: int, max_mult: int,
                       even_only: bool = False, cap: int = PROFILE_CAP, group=None):
    """(profile, f-vector as a list) over canonical_profiles, each f the
    profile's own `f_vector`."""
    for profile in canonical_profiles(g.n, max_support, max_mult, even_only, cap, group):
        yield profile, f_vector(g, profile)


def list_connected_in_power(g: Graph, members, p: int) -> bool:
    """The members (a vertex set) induce a connected subgraph of the p-th
    power of g."""
    if len(members) < 2:
        return bool(members)
    left = set(members)
    reached = [left.pop()]
    for x in reached:  # breadth first; the list grows as it is walked
        dx = g.dist[x]
        near = [y for y in left if dx[y] <= p]
        left.difference_update(near)
        reached += near
    return not left


def list_peak_failures(f, probes):
    """The probed pairs (u, v) of `profiles.peak_probes` where f is not
    locally peakless, in probe order; an empty interior always fails."""
    get = f.__getitem__
    for u, v, interior in probes:
        fu, fv = f[u], f[v]
        hi = fu if fu > fv else fv
        low = min(map(get, interior), default=inf)
        if low > hi or (low == hi and fu != fv):
            yield u, v


def list_punctured_balls(g: Graph, p: int) -> list[list[int]]:
    """For each vertex v, the vertices w with 0 < d(v, w) <= p."""
    return [[w for w, d in enumerate(dv) if 0 < d <= p] for dv in g.dist]


def list_unimodal(f, balls) -> bool:
    """Every vertex off the minimum of f has a smaller value in its
    punctured ball (`list_punctured_balls`)."""
    best = min(f)
    get = f.__getitem__
    return all(fv == best or min(map(get, ball), default=fv) < fv
               for fv, ball in zip(f, balls))


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
