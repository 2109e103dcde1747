import itertools
import random
import time
import tracemalloc
from array import array

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medianlab.errors import DisconnectedGraphError, InputError
from medianlab.graph import (
    MAX_VERTICES,
    Graph,
    bhat,
    bn,
    complete,
    component_labels,
    cycle,
    field_bits,
    field_masks,
    generate,
    hypercube,
    pack_fields,
    path,
    unpack_fields,
    tree_from_parent_list,
)

from conftest import to_networkx


def test_single_edge():
    g = Graph(2, [(0, 1)])
    assert g.d(0, 1) == 1


def test_cycle_antipode():
    assert cycle(6).d(0, 3) == 3


def test_hypercube_matches_hamming_distance():
    g = hypercube(3)
    for u in range(8):
        for v in range(8):
            assert g.d(u, v) == bin(u ^ v).count("1")


def test_rejections():
    with pytest.raises(DisconnectedGraphError) as err:
        Graph(4, [(0, 1), (2, 3)])
    assert {err.value.rep_a, err.value.rep_b} <= {0, 1, 2, 3}
    with pytest.raises(InputError):
        Graph(2, [(0, 2)])
    with pytest.raises(InputError):
        Graph(2, [(0, 0)])
    with pytest.raises(InputError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        Graph(0, [])


def test_bn3_is_the_six_cycle():
    g = bn(3)
    assert g.n == 6 and g.edge_count == 6
    assert all(g.degree(v) == 2 for v in range(6))
    assert g.is_bipartite
    assert nx.is_isomorphic(to_networkx(g), to_networkx(cycle(6)))


def test_bhat_apex_degrees():
    g = bhat(3)
    assert g.n == 8
    # apex a is adjacent to b_1..b_3 and to b
    assert g.degree(6) == 4
    assert set(g.neighbors(6)) == {3, 4, 5, 7}


def test_hypercube_one_is_k2():
    g = hypercube(1)
    assert g.n == 2 and g.edges() == ((0, 1),)


def test_generators_deterministic():
    for spec in ("cycle:6", "bn:4", "bhat:4", "grid:3,4", "kmn:2,3", "tree:0,0,1"):
        assert generate(spec).edges() == generate(spec).edges()


def test_generate_rejects_bad_specs():
    for spec in ("cycle", "cycle:2", "nosuch:3", "grid:3", "bn:2", "cycle:x"):
        with pytest.raises(InputError):
            generate(spec)


def test_distance_rows_are_compact():
    # a row is bytes up to 256 vertices, where no distance passes 255, and an
    # array('H') above.  With rows of tuples, building path(1024) peaked at
    # 26.4 MiB under tracemalloc, and path(2048) at 131 MiB; path(2048) takes
    # about 15 s under tracemalloc, which hooks each int and iterator the
    # 4M BFS steps allocate, so the bound is checked at n = 1024
    for k, kind in ((256, bytes), (257, array)):
        g = path(k)
        assert {type(row) for row in g.dist} == {kind}
        assert g.d(0, k - 1) == g.diameter == k - 1
    tracemalloc.start()
    try:
        g = path(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.d(1023, 0) == 1023
    assert peak < 8 * 2**20


def test_packed_fields_take_linear_time():
    # a linear pass takes about 0.01 s here, one big-int shift per field
    # about 2 s at 16 bits, so the bound tells the two apart
    rng = random.Random(5)
    for bits in (16, 32, 64):
        values = [rng.randrange(1 << bits - 1) for _ in range(1 << 16)]
        start = time.process_time()
        packed = pack_fields(values, bits)
        back = unpack_fields(packed, bits, len(values))
        assert time.process_time() - start < 0.25
        assert back == values
        head = sum(v << bits * i for i, v in enumerate(values[:50]))
        assert packed & (1 << bits * 50) - 1 == head
        ones, high = field_masks(bits, 3)
        assert (ones, high) == (sum(1 << bits * i for i in range(3)), ones << bits - 1)
    # an array('H') row and a bytes row are read by value in every width,
    # not by their buffers, as arrays of 16, 32 and 64 bits would read them
    row = array("H", [3, 0, 127, 1])
    for bits in (8, 16, 32, 64, 128):
        by_value = sum(v << bits * i for i, v in enumerate(row))
        for form in (row, bytes(list(row)), tuple(row)):
            assert pack_fields(form, bits) == by_value
        assert list(unpack_fields(by_value, bits, 4)) == list(row)
    assert pack_fields(bytes(list(row)), 8) == pack_fields(tuple(row), 8) == 0x017F0003
    # the triple walk's width is field_bits(3 diam), and diam <= n - 1, so
    # under the vertex cap no walk takes fields wider than 16 bits
    assert all(field_bits(3 * (n - 1)) == (8 if n <= 43 else 16)
               for n in range(1, MAX_VERTICES + 1))


def test_diameter_scans_the_rows_once():
    class CountedRows(tuple):
        scans = 0

        def __iter__(self):
            CountedRows.scans += 1
            return super().__iter__()

    g = cycle(9)
    g.dist = CountedRows(g.dist)
    assert g.diameter == g.diameter == 4
    assert CountedRows.scans == 1


def test_component_labels_match_networkx():
    rng = random.Random(31)
    for _ in range(400):
        n = rng.randint(1, 14)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
        h = nx.Graph()
        h.add_nodes_from(range(n))  # vertices in no pair are their own class
        h.add_edges_from(pairs)
        classes = sorted(nx.connected_components(h), key=min)
        assert component_labels(n, pairs) == [
            next(i for i, c in enumerate(classes) if x in c) for x in range(n)
        ]


def test_vertex_count_cap():
    with pytest.raises(InputError, match="cap"):
        Graph(MAX_VERTICES + 1, [])
    # generators refuse before building an edge list of that size
    for spec in ("hypercube:14", "hypercube:100000", "cycle:100000000", "grid:100000,100000",
                 "complete:3000", "kmn:2000,100", "bn:1025", "bhat:1024", "path:2049"):
        with pytest.raises(InputError, match="cap"):
            generate(spec)


def test_interval_examples():
    c6 = cycle(6)
    for i in range(6):
        assert c6.interval(i, (i + 3) % 6) == frozenset(range(6))
    assert c6.interval(2, 2) == {2}
    q3 = hypercube(3)
    # antipodal pair: every vertex lies on some shortest path
    on_paths = set()
    for p in nx.all_shortest_paths(to_networkx(q3), 0, 7):
        on_paths.update(p)
    assert q3.interval(0, 7) == frozenset(on_paths) == frozenset(range(8))
    assert q3.interval_interior(0, 7) == frozenset(range(8)) - {0, 7}


def test_interval_characterization_exhaustive(corpus):
    for g in corpus.values():
        for u, v, w in itertools.product(range(g.n), repeat=3):
            member = w in g.interval(u, v)
            assert member == (g.d(u, w) + g.d(w, v) == g.d(u, v))
        for u in range(g.n):
            for v in range(g.n):
                assert g.interval(u, v) == g.interval(v, u)


def brute_gate(g, x, members):
    hits = [
        h
        for h in members
        if all(g.d(x, h) + g.d(h, y) == g.d(x, y) for y in members)
    ]
    return hits[0] if len(hits) == 1 else (None if not hits else hits)


def test_gate_examples():
    c6 = cycle(6)
    for x in range(6):
        for h in range(6):
            assert c6.gate(x, [h]) == h
    # {v0, v2} is not gated in C6: v1 would need to sit in both intervals
    assert not c6.is_gated([0, 2])
    assert c6.gate(1, [0, 2]) is None
    with pytest.raises(InputError):
        c6.gate(0, [])


def test_gate_matches_brute_force(corpus):
    for g in corpus.values():
        for size in (1, 2, 3):
            for members in itertools.combinations(range(g.n), size):
                for x in range(g.n):
                    assert g.gate(x, members) == brute_gate(g, x, members)


# -- half-balls and quasi-medians, read off the distance table; nothing in
# the package needs them, so they are kept here, with their tests


def half_ball(g, v, r, side):
    """The ball of radius r around v intersected with the colour class
    containing the vertex `side`."""
    cls0, cls1 = g.bipartition()
    return g.ball(v, r) & (cls0 if side in cls0 else cls1)


def quasi_median(g, x, y, z):
    """A metric triangle (v1, v2, v3) splitting the three pairwise distances
    of x, y, z, lexicographically smallest among valid triples; all three
    equal when the triple has a median vertex."""
    d = g.dist
    c1 = sorted(g.interval(x, y) & g.interval(x, z))
    c2 = sorted(g.interval(y, x) & g.interval(y, z))
    c3 = sorted(g.interval(z, x) & g.interval(z, y))
    for v1 in c1:
        for v2 in c2:
            if d[x][y] != d[x][v1] + d[v1][v2] + d[v2][y]:
                continue
            for v3 in c3:
                if d[y][z] != d[y][v2] + d[v2][v3] + d[v3][z]:
                    continue
                if d[z][x] != d[z][v3] + d[v3][v1] + d[v1][x]:
                    continue
                if g.is_metric_triangle(v1, v2, v3):
                    return (v1, v2, v3)
    raise RuntimeError("no quasi-median found; distance table corrupt")


def test_balls():
    c6 = cycle(6)
    assert c6.ball(0, 0) == {0}
    assert len(c6.ball(0, 2)) == 5
    assert half_ball(c6, 0, 1, side=1) == {1, 5}
    assert half_ball(c6, 0, 2, side=0) == {0, 2, 4}
    with pytest.raises(InputError):
        half_ball(complete(3), 0, 1, side=1)


def test_quasi_median_examples():
    tree = tree_from_parent_list([0, 0, 1, 1])
    trip = quasi_median(tree, 2, 3, 4)
    assert trip[0] == trip[1] == trip[2] == 1
    c6 = cycle(6)
    assert quasi_median(c6, 0, 2, 4) == (0, 2, 4)
    assert c6.is_metric_triangle(0, 2, 4)
    k3 = complete(3)
    assert quasi_median(k3, 0, 1, 2) == (0, 1, 2)


def test_quasi_median_equalities(corpus):
    for g in corpus.values():
        picks = itertools.islice(itertools.combinations(range(g.n), 3), 40)
        for x, y, z in picks:
            v1, v2, v3 = quasi_median(g, x, y, z)
            assert g.is_metric_triangle(v1, v2, v3)
            assert g.d(x, y) == g.d(x, v1) + g.d(v1, v2) + g.d(v2, y)
            assert g.d(y, z) == g.d(y, v2) + g.d(v2, v3) + g.d(v3, z)
            assert g.d(z, x) == g.d(z, v3) + g.d(v3, v1) + g.d(v1, x)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 9), st.data())
def test_distances_match_networkx(k, data):
    kind = data.draw(st.sampled_from(["cycle", "path", "complete"]))
    g = {"cycle": cycle, "path": path, "complete": complete}[kind](k)
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1))
    assert g.d(u, v) == nx.shortest_path_length(to_networkx(g), u, v)


def test_bipartition_matches_networkx():
    import random

    rng = random.Random(97)
    for _ in range(300):
        n = rng.randint(1, 11)
        parents = [rng.randint(0, i) for i in range(n - 1)]
        edges = {(p, i + 1) for i, p in enumerate(parents)}
        p = rng.random() * 0.4
        edges |= {(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p}
        g = Graph(n, sorted(edges))
        h = to_networkx(g)
        assert g.is_bipartite == nx.is_bipartite(h), g.edges()
        if g.is_bipartite:
            side0, side1 = g.bipartition()
            assert 0 in side0 and side0 | side1 == set(range(n))
            assert all((u in side0) != (v in side0) for u, v in g.edges())
