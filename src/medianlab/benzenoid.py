"""Benzenoids built from hexagonal cells, their three edge direction
classes, and the isometric embedding into a product of three trees.

Cells are axial coordinates (q, r) on a pointy-top hexagonal lattice.  A
cell's center sits at lattice point (2q + r, 3r) and its six corners at the
fixed offsets below, so vertex numbering, edge lists and class labels are
all reproducible from the cell set alone.

The lattice also does the searching: the cells are connected when
`graph.component_labels` over cell adjacency puts them in one class, each
tree of the embedding is a contraction of the components that
`component_labels` finds once a class's edges are removed, and the
incomplete hexagons are read off the cells next to the benzenoid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graph import Graph, component_labels
from .profiles import (
    PeakProbes,
    ball_masks,
    connected_in_power,
    count_canonical_profiles,
    median_mask,
    minimizers,
    peak_failures,
    peak_probes,
    profile_sweep,
    sweep_bits,
)
from .report import VerificationReport

# default cap on the profiles check (d) of `verify_benzenoid_properties` visits
VERIFY_PROFILE_CAP = 500_000

_CORNERS = ((0, 2), (1, 1), (1, -1), (0, -2), (-1, -1), (-1, 1))
_CELL_NEIGHBORS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def _corner(q: int, r: int, k: int) -> tuple[int, int]:
    cx, cy = 2 * q + r, 3 * r
    dx, dy = _CORNERS[k]
    return (cx + dx, cy + dy)


def edge_class(p: tuple[int, int], q: tuple[int, int]) -> int:
    """Direction class of a unit lattice edge: 1 vertical, 2 rising, 3 falling."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    if dx == 0:
        return 1
    return 2 if dx * dy > 0 else 3


@dataclass
class Benzenoid:
    cells: tuple[tuple[int, int], ...]
    graph: Graph
    coords: tuple[tuple[int, int], ...]  # lattice point of each vertex
    edge_classes: dict  # (u,v) sorted -> 1|2|3
    hexagons: tuple[tuple[int, ...], ...]  # per cell, corners in cyclic order

    def class_edges(self, label: int) -> list[tuple[int, int]]:
        return sorted(e for e, c in self.edge_classes.items() if c == label)


def build_benzenoid(cells) -> Benzenoid:
    """Assemble the graph of a hole-free connected union of hexagon cells.

    Cell connectivity is read off `component_labels` over cell adjacency;
    hole-freeness is the Euler count v - e + (cells + 1) = 2, which fails
    exactly when the union encloses extra faces.
    """
    cell_list = sorted(set((int(q), int(r)) for q, r in cells))
    if not cell_list:
        raise InputError("benzenoid needs at least one cell")
    position = {c: i for i, c in enumerate(cell_list)}
    labels = component_labels(len(cell_list), (
        (i, position[q + dq, r + dr])
        for i, (q, r) in enumerate(cell_list)
        for dq, dr in _CELL_NEIGHBORS
        if (q + dq, r + dr) in position
    ))
    if any(labels):
        # label 1 goes to the least cell outside cell 0's class
        raise InputError(f"cell set is disconnected at cell {cell_list[labels.index(1)]}")

    points = sorted({_corner(q, r, k) for q, r in cell_list for k in range(6)})
    index = {p: i for i, p in enumerate(points)}
    hexes = tuple(
        tuple(index[_corner(q, r, k)] for k in range(6)) for q, r in cell_list
    )
    edge_set = {
        (min(a, b), max(a, b)) for ring in hexes for a, b in zip(ring, ring[1:] + ring[:1])
    }
    v, e, f = len(points), len(edge_set), len(cell_list) + 1
    if v - e + f != 2:
        raise InputError(
            f"cell set encloses holes: Euler count v-e+f = {v - e + f} != 2"
        )
    graph = Graph(v, sorted(edge_set))
    classes = {
        (a, b): edge_class(points[a], points[b]) for a, b in sorted(edge_set)
    }
    return Benzenoid(tuple(cell_list), graph, tuple(points), classes, hexes)


def incomplete_hexagons(b: Benzenoid) -> list[tuple[int, int, int, int]]:
    """Length-3 paths using one edge of each class that lie in no hexagon,
    each oriented so that its first vertex is less than its last, sorted.

    Every lattice vertex has one edge of each class, and the class gives
    the direction up to sign, so a 3-path whose first and last edges differ
    in class turns the same way twice, and its four vertices are
    consecutive corners of one lattice cell.  That cell meets b, so it is
    one of b's cells or next to one.  Two lattice hexagons share at most two
    vertices, so the path lies in a hexagon of b exactly when that cell is
    one of b's.  Hence the paths are the runs of four consecutive corners,
    all three edges in b, of the cells next to b but not in it.
    """
    index = {p: v for v, p in enumerate(b.coords)}
    cells = set(b.cells)
    around = {(q + dq, r + dr) for q, r in cells for dq, dr in _CELL_NEIGHBORS} - cells
    found = []
    for q, r in around:
        # a corner outside b is -1, so no edge of b ends at it
        ring = [index.get(_corner(q, r, k), -1) for k in range(6)] * 2
        for k in range(6):
            run = ring[k:k + 4]
            if all((min(x, y), max(x, y)) in b.edge_classes for x, y in zip(run, run[1:])):
                found.append(tuple(run if run[0] < run[3] else reversed(run)))
    return sorted(found)


@dataclass
class TreeEmbedding:
    trees: tuple[Graph, Graph, Graph]
    phi: tuple[tuple[int, int, int], ...]  # vertex -> component ids

    def embedded_distance(self, u: int, v: int) -> int:
        return sum(
            t.dist[self.phi[u][i]][self.phi[v][i]] for i, t in enumerate(self.trees)
        )


def tree_embedding(b: Benzenoid) -> TreeEmbedding:
    """Split off each direction class, contract components, and map every
    vertex to its component triple; verifies the three factors are trees
    and that distances add up exactly."""
    g = b.graph
    trees = []
    coords = [[0] * g.n for _ in range(3)]
    for label in (1, 2, 3):
        removed = b.class_edges(label)
        comp = component_labels(g.n, (e for e in g.edges() if b.edge_classes[e] != label))
        links = {
            (min(comp[a], comp[b]), max(comp[a], comp[b]))
            for a, b in removed
        }
        tree = Graph(max(comp) + 1, sorted(links))
        if tree.edge_count != tree.n - 1:
            raise RuntimeError(
                f"class {label} contraction is not a tree "
                f"({tree.n} components, {tree.edge_count} links)"
            )
        trees.append(tree)
        coords[label - 1] = comp
    phi = tuple(
        (coords[0][v], coords[1][v], coords[2][v]) for v in range(g.n)
    )
    if len(set(phi)) != g.n:
        raise RuntimeError("tree embedding is not injective")
    embedding = TreeEmbedding(tuple(trees), phi)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if embedding.embedded_distance(u, v) != g.dist[u][v]:
                raise RuntimeError(
                    f"tree embedding fails isometry at pair ({u}, {v})"
                )
    return embedding


@dataclass
class BenzenoidReport(VerificationReport):
    cells: int
    gated_ok: bool
    opposition_ok: bool
    peakless_pairs_in_hexagons: bool
    medians_g2_connected: bool
    profiles_checked: int
    failures: list


def verify_benzenoid_properties(
    b: Benzenoid, max_support: int, max_mult: int, cap: int = VERIFY_PROFILE_CAP
) -> BenzenoidReport:
    """Finite checks behind the benzenoid consensus results.

    (a) every hexagon and incomplete hexagon is gated;
    (b) each hexagon lies in the interval from any vertex x to the hexagon
        vertex opposite x's gate;
    (c) within the profile budget, every 2-pair where the total distance
        fails local peaklessness lies in a common hexagon;
    (d) within the budget, median sets are connected in the square of the
        graph.

    Each check only adds failures, and each flag is true iff no failure of
    its kinds was added.  Checks (a) and (b) read one gate table per
    hexagon: the gate of every vertex, each member its own, so a hexagon
    costs n - 6 `Graph.gate` calls.
    """
    g = b.graph
    gates = [
        [x if x in hexa else g.gate(x, hexa) for x in range(g.n)]
        for hexa in b.hexagons
    ]
    failures = [
        {"not_gated_hexagon": hexa}
        for hexa, gate in zip(b.hexagons, gates) if None in gate
    ]
    failures += [
        {"not_gated_incomplete_hexagon": pth}
        for pth in incomplete_hexagons(b) if not g.is_gated(pth)
    ]

    for hexa, gate in zip(b.hexagons, gates):
        ring, members = list(hexa), set(hexa)
        for x, gx in enumerate(gate):
            if gx is None:
                failures.append({"missing_gate": [x, ring]})
                continue
            opposite = ring[(ring.index(gx) + 3) % 6]
            if not members <= g.interval(x, opposite):
                failures.append({"opposition": [x, ring, opposite]})

    # check (c) probes only the 2-pairs that lie in no common hexagon,
    # filtered and compiled once per graph for the sweep's field width
    # (`PeakProbes`): each profile gathers its f-vector at every probe in
    # one call and compares the packed values field by field, and
    # `peak_failures` reads the failing pairs in probe order.  Check (d)
    # reads the median set as a bit mask and searches it over the masks of
    # the balls of radius 2.  The sweep visits every profile, without the
    # orbit reduction of `check_unimodal_equals_connected`: its failures
    # name pairs and median sets as well as profiles, so an orbit would
    # have to map those too.
    hex_sets = [set(h) for h in b.hexagons]
    probes = PeakProbes([(u, v, inside) for u, v, inside in peak_probes(g, 2, 2)
                         if not any({u, v} <= h for h in hex_sets)],
                        sweep_bits(g, max_support, max_mult))
    balls = ball_masks(g, 2)
    for profile, f in profile_sweep(g, max_support, max_mult, cap=cap):
        for u, v in peak_failures(f, probes):
            failures.append({"peakless_pair_outside_hexagon": [u, v, profile]})
        if not connected_in_power(median_mask(f), balls):
            failures.append({"median_not_g2_connected": [profile, minimizers(f)]})

    kinds = {kind for failure in failures for kind in failure}
    return BenzenoidReport(
        cells=len(b.cells),
        gated_ok=kinds.isdisjoint(("not_gated_hexagon", "not_gated_incomplete_hexagon")),
        opposition_ok=kinds.isdisjoint(("missing_gate", "opposition")),
        peakless_pairs_in_hexagons="peakless_pair_outside_hexagon" not in kinds,
        medians_g2_connected="median_not_g2_connected" not in kinds,
        profiles_checked=count_canonical_profiles(g.n, max_support, max_mult),
        failures=failures,
    )
