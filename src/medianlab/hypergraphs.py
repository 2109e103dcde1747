"""Hypergraph constructions: Helly tests, duals, clique hypergraphs,
incidence graphs, and the two counterexample builds they support."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .classify import hypergraph_helly_by_triples
from .combinatorics import adjacency_sets, maximal_cliques, maximal_stable_sets
from .errors import InputError
from .graph import Graph
from .pairing import fractional_perfect_b_matching, perfect_b_matching
from .profiles import Profile


@dataclass(frozen=True)
class Hypergraph:
    """Ground set 0..n-1 with a list of nonempty hyperedges.

    Duplicate hyperedges are permitted but flagged.
    """

    ground_size: int
    edges: tuple[frozenset[int], ...]

    def __post_init__(self):
        for e in self.edges:
            if not e:
                raise InputError("hyperedges must be nonempty")
            if not all(0 <= x < self.ground_size for x in e):
                raise InputError(f"hyperedge {sorted(e)} out of ground range")

    @classmethod
    def from_lists(cls, ground_size, edge_lists) -> "Hypergraph":
        return cls(ground_size, tuple(frozenset(e) for e in edge_lists))

    @property
    def has_duplicate_edges(self) -> bool:
        return len(set(self.edges)) < len(self.edges)

    def covers_ground(self) -> bool:
        seen = set().union(*self.edges) if self.edges else set()
        return seen == set(range(self.ground_size))


@dataclass
class HellyResult:
    is_helly: bool
    witness: tuple[int, ...] | None = None  # indices of a bad subfamily


def is_helly_hypergraph(h: Hypergraph) -> HellyResult:
    """Berge triple criterion, by the scan of
    `classify.hypergraph_helly_by_triples`; a failure yields the pairwise
    intersecting subfamily with empty intersection that the failing triple
    induces."""
    return HellyResult(
        *hypergraph_helly_by_triples(range(h.ground_size), list(h.edges))
    )


def dual_hypergraph(h: Hypergraph) -> Hypergraph:
    """Ground and edges swap roles: new edge S_x collects the indices of the
    old edges containing x."""
    if not h.covers_ground():
        raise InputError("dual needs every ground vertex covered by some edge")
    edges = tuple(
        frozenset(i for i, e in enumerate(h.edges) if x in e)
        for x in range(h.ground_size)
    )
    return Hypergraph(len(h.edges), edges)


def clique_hypergraph(n: int, edges) -> Hypergraph:
    """Hyperedges are the maximal cliques of the (not necessarily connected)
    graph given as an explicit edge list."""
    return Hypergraph(n, tuple(maximal_cliques(n, adjacency_sets(n, edges))))


@dataclass
class IncidenceGraph:
    """Hub-extended incidence graph of a hypergraph.

    Vertex numbering: hub 0, ground vertices 1..n, one vertex per hyperedge
    after that, each adjacent exactly to its members.
    """

    graph: Graph
    hub: int
    ground_vertices: tuple[int, ...]
    edge_vertices: tuple[int, ...]

    def labels(self) -> dict[int, str]:
        out = {self.hub: "u"}
        for i, v in enumerate(self.ground_vertices):
            out[v] = f"x{i}"
        for i, v in enumerate(self.edge_vertices):
            out[v] = f"h{i}"
        return out


def incidence_graph(h: Hypergraph) -> IncidenceGraph:
    n, k = h.ground_size, len(h.edges)
    # lazy, so Graph checks the vertex cap before any edge is built
    edges = chain(
        ((0, 1 + x) for x in range(n)),
        ((1 + n + i, 1 + x) for i, e in enumerate(h.edges) for x in sorted(e)),
    )
    return IncidenceGraph(
        Graph(1 + n + k, edges),
        hub=0,
        ground_vertices=tuple(range(1, 1 + n)),
        edge_vertices=tuple(range(1 + n, 1 + n + k)),
    )


# -- counterexample constructions ------------------------------------------------


@dataclass
class Counterexample:
    kind: str
    graph: Graph
    profile: Profile
    hub: int
    incidence: IncidenceGraph
    seed_vertices: int
    seed_edges: tuple[tuple[int, int], ...]


_SEEDS = {
    # two disjoint triangles: no perfect matching, fractional one exists
    "pairing": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    # K4 plus two pendants on vertex 0: no fractional perfect matching
    "double_pairing": (
        6,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (0, 5)],
    ),
}


def build_counterexample(kind: str) -> Counterexample:
    """Bipartite Helly graph plus canonical profile defeating the pairing
    (resp. double-pairing) property.

    Seed graph C -> B = complement(C) -> R = incidence graph of the dual of
    the clique hypergraph of B; the profile puts one unit on the vertex of
    each dual hyperedge.  The seed requirements (no isolated vertex, stable
    sets at most half the order, no [fractional] perfect matching) are
    re-verified here and a failure marks an implementation bug.
    """
    if kind not in _SEEDS:
        raise InputError(f"unknown counterexample kind {kind!r}")
    c_n, c_edges = _SEEDS[kind]
    m = c_n // 2
    adj = adjacency_sets(c_n, c_edges)
    if not all(adj):
        raise RuntimeError("seed graph has an isolated vertex")
    # the maximal stable sets of C are the maximal cliques of B = complement(C)
    stable = maximal_stable_sets(c_n, adj)
    if max(map(len, stable)) > m:
        raise RuntimeError("seed graph has a stable set above half its order")
    ones = {v: 1 for v in range(c_n)}
    if kind == "pairing":
        if perfect_b_matching(c_n, c_edges, ones) is not None:
            raise RuntimeError("seed graph unexpectedly has a perfect matching")
    else:
        if fractional_perfect_b_matching(c_n, c_edges, ones) is not None:
            raise RuntimeError(
                "seed graph unexpectedly has a fractional perfect matching"
            )
    dual = dual_hypergraph(Hypergraph(c_n, tuple(stable)))
    inc = incidence_graph(dual)
    profile = Profile.from_vertices(inc.edge_vertices)
    return Counterexample(
        kind=kind,
        graph=inc.graph,
        profile=profile,
        hub=inc.hub,
        incidence=inc,
        seed_vertices=c_n,
        seed_edges=tuple(sorted(tuple(sorted(e)) for e in c_edges)),
    )
