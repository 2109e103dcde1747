import importlib
import random
from collections import deque
from dataclasses import replace
from pathlib import Path

import networkx as nx
import pytest

import medianlab.benzenoid as benzenoid_module
from medianlab.benzenoid import (
    build_benzenoid,
    edge_class,
    incomplete_hexagons,
    tree_embedding,
    verify_benzenoid_properties,
)
from medianlab.cli import main
from medianlab.errors import BudgetError, InputError
from medianlab.graph import Graph, cycle, hypercube
from medianlab.profiles import canonical_profiles, minimizers, peak_probes

from conftest import (
    list_connected_in_power,
    list_peak_failures,
    list_profile_sweep,
    to_networkx,
)


def test_single_cell_is_a_hexagon():
    b = build_benzenoid([(0, 0)])
    g = b.graph
    assert g.n == 6 and g.edge_count == 6
    assert nx.is_isomorphic(to_networkx(g), to_networkx(cycle(6)))
    for label in (1, 2, 3):
        assert len(b.class_edges(label)) == 2
    assert len(b.hexagons) == 1
    assert incomplete_hexagons(b) == []


def test_edge_classes_partition_and_alternate():
    b = build_benzenoid([(0, 0), (1, 0), (1, 1)])
    labels = [b.edge_classes[e] for e in sorted(b.edge_classes)]
    assert len(labels) == b.graph.edge_count
    # incident edges never share a class
    for v in range(b.graph.n):
        incident = [
            b.edge_classes[(min(v, w), max(v, w))] for w in b.graph.neighbors(v)
        ]
        assert len(incident) == len(set(incident))
    # every hexagon carries two edges of each class
    for ring in b.hexagons:
        ring_labels = [
            b.edge_classes[(min(ring[i], ring[(i + 1) % 6]), max(ring[i], ring[(i + 1) % 6]))]
            for i in range(6)
        ]
        assert sorted(ring_labels) == [1, 1, 2, 2, 3, 3]


def test_two_cells():
    b = build_benzenoid([(0, 0), (1, 0)])
    assert b.graph.n == 10 and b.graph.edge_count == 11
    assert len(b.hexagons) == 2
    emb = tree_embedding(b)
    # independent component count: drop each class in networkx
    sizes = []
    for label in (1, 2, 3):
        h = to_networkx(b.graph)
        h.remove_edges_from(b.class_edges(label))
        sizes.append(nx.number_connected_components(h))
    assert sorted(t.n for t in emb.trees) == sorted(sizes) == [2, 3, 3]


def test_rejections():
    with pytest.raises(InputError):
        build_benzenoid([])
    with pytest.raises(InputError) as err:
        build_benzenoid([(0, 0), (2, 0)])
    assert "disconnected" in str(err.value)
    # the message names the least cell outside the least cell's component
    with pytest.raises(InputError, match=r"disconnected at cell \(0, 0\)$"):
        build_benzenoid([(5, 0), (0, 0), (-3, 0), (1, 0), (-3, 1)])
    ring = [(0, 0), (1, 0), (1, 1), (0, 2), (-1, 2), (-1, 1)]
    with pytest.raises(InputError) as err:
        build_benzenoid(ring)
    assert "holes" in str(err.value)


def test_single_cell_embeds_into_three_cube():
    b = build_benzenoid([(0, 0)])
    emb = tree_embedding(b)
    assert [t.n for t in emb.trees] == [2, 2, 2]
    # the image is a subset of the 3-cube and distances match Hamming
    q3 = hypercube(3)
    codes = [sum(bit << i for i, bit in enumerate(triple)) for triple in emb.phi]
    assert len(set(codes)) == 6
    for u in range(6):
        for v in range(6):
            assert b.graph.d(u, v) == q3.d(codes[u], codes[v])


def test_isometry_all_pairs_three_cells():
    for cells in ([(0, 0), (1, 0), (2, 0)], [(0, 0), (1, 0), (1, 1)]):
        b = build_benzenoid(cells)
        emb = tree_embedding(b)
        for u in range(b.graph.n):
            for v in range(b.graph.n):
                assert emb.embedded_distance(u, v) == b.graph.d(u, v)


def test_four_cell_block_with_interior_vertices():
    b = build_benzenoid([(0, 0), (1, 0), (0, 1), (1, 1)])
    g = b.graph
    assert g.n == 16  # pyrene shape: two interior degree-3 vertices
    assert sorted(g.degree(v) for v in range(g.n)).count(3) == 6
    tree_embedding(b)  # isometry verified internally
    for ring in b.hexagons:
        assert g.is_gated(ring)
    for p in incomplete_hexagons(b):
        assert g.is_gated(p)


def test_incomplete_hexagons_bent_chain():
    straight = build_benzenoid([(0, 0), (1, 0), (2, 0)])
    assert incomplete_hexagons(straight) == []
    bent = build_benzenoid([(0, 0), (1, 0), (1, 1)])
    paths = incomplete_hexagons(bent)
    assert len(paths) == 1
    (p,) = paths
    g = bent.graph
    labels = {
        edge_class(bent.coords[p[i]], bent.coords[p[i + 1]]) for i in range(3)
    }
    assert labels == {1, 2, 3}
    assert not any(set(p) <= set(h) for h in bent.hexagons)
    assert g.is_gated(p)


def test_hexagons_are_gated():
    for cells in ([(0, 0)], [(0, 0), (1, 0)], [(0, 0), (1, 0), (1, 1)]):
        b = build_benzenoid(cells)
        for ring in b.hexagons:
            assert b.graph.is_gated(ring)


def test_gate_lies_between_outside_vertices_and_hexagon():
    # for z gated at v in a hexagon, every 2-pair partner u of v has
    # both u and v on a shortest (u,z)-path
    b = build_benzenoid([(0, 0), (1, 0), (1, 1)])
    g = b.graph
    for ring in b.hexagons:
        members = set(ring)
        for z in range(g.n):
            if z in members:
                continue
            v = g.gate(z, ring)
            for u in members:
                if g.d(u, v) == 2:
                    assert v in g.interval(u, z)
                    assert u in g.interval(u, z)


def test_verify_properties_single_cell():
    b = build_benzenoid([(0, 0)])
    report = verify_benzenoid_properties(b, 3, 2)
    assert report.ok
    assert report.profiles_checked > 0


def test_verify_properties_two_and_bent():
    for cells in ([(0, 0), (1, 0)], [(0, 0), (1, 0), (1, 1)]):
        b = build_benzenoid(cells)
        report = verify_benzenoid_properties(b, 2, 1)
        assert report.ok, report.failures


def test_verify_peakless_check_outside_hexagons():
    # with one hexagon dropped, check (c) reports the 2-pairs of that
    # hexagon where F fails local peaklessness, in the order a per-pair
    # scan of every profile finds them
    b = build_benzenoid([(0, 0), (1, 0), (1, 1)])
    g = b.graph
    kept = b.hexagons[1:]
    report = verify_benzenoid_properties(replace(b, hexagons=kept), 2, 2)
    got = [f["peakless_pair_outside_hexagon"] for f in report.failures
           if "peakless_pair_outside_hexagon" in f]
    want = []
    for profile in canonical_profiles(g.n, 2, 2):
        f = [sum(k * g.d(v, x) for x, k in profile.counts) for v in range(g.n)]
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.d(u, v) != 2 or any({u, v} <= set(h) for h in kept):
                    continue
                inside = [w for w in range(g.n) if g.d(u, w) == g.d(w, v) == 1]
                hi = max(f[u], f[v])
                if not any(f[w] < hi or f[u] == f[w] == f[v] for w in inside):
                    want.append([u, v, profile])
    assert want and got == want
    assert not report.peakless_pairs_in_hexagons
    assert verify_benzenoid_properties(b, 2, 2).peakless_pairs_in_hexagons


def test_verify_budget_cap():
    b = build_benzenoid([(0, 0), (1, 0)])
    with pytest.raises(BudgetError):
        verify_benzenoid_properties(b, 5, 3, cap=10)


def _not_gated_hexagon(b, monkeypatch):
    # a set that is not gated has a vertex without a gate, and this one is
    # not a ring either, so opposition fails at the vertices with a gate
    return replace(b, hexagons=b.hexagons + ((0, 1, 2, 3, 4, 6),))


def _not_gated_incomplete_hexagon(b, monkeypatch):
    monkeypatch.setattr(benzenoid_module, "incomplete_hexagons", lambda b: [(0, 9)])
    return b


def _misordered_hexagon(b, monkeypatch):
    # the first hexagon with two corners swapped: still gated, but the
    # corner "opposite" a gate is no longer opposite it
    a, c, d, *rest = b.hexagons[0]
    return replace(b, hexagons=((a, d, c, *rest),) + b.hexagons[1:])


def _peak_outside_hexagons(b, monkeypatch):
    monkeypatch.setattr(benzenoid_module, "peak_failures", lambda f, probes: [(0, 3)])
    return b


def _median_not_g2_connected(b, monkeypatch):
    monkeypatch.setattr(benzenoid_module, "connected_in_power", lambda members, balls: False)
    return b


@pytest.mark.parametrize("broken, kinds, flags_off", [
    (_not_gated_hexagon, {"not_gated_hexagon", "missing_gate", "opposition"},
     {"gated_ok", "opposition_ok"}),
    (_not_gated_incomplete_hexagon, {"not_gated_incomplete_hexagon"}, {"gated_ok"}),
    (_misordered_hexagon, {"opposition"}, {"opposition_ok"}),
    (_peak_outside_hexagons, {"peakless_pair_outside_hexagon"}, {"peakless_pairs_in_hexagons"}),
    (_median_not_g2_connected, {"median_not_g2_connected"}, {"medians_g2_connected"}),
])
def test_each_failure_kind_turns_off_its_flag(monkeypatch, broken, kinds, flags_off):
    flags = {"gated_ok", "opposition_ok", "peakless_pairs_in_hexagons", "medians_g2_connected"}
    b = build_benzenoid([(0, 0), (1, 0)])
    report = verify_benzenoid_properties(broken(b, monkeypatch), 2, 2)
    assert {kind for failure in report.failures for kind in failure} == kinds
    assert {flag for flag in flags if not getattr(report, flag)} == flags_off
    assert not report.ok and report.as_dict()["ok"] is False


def test_hexagon_checks_read_one_gate_table(monkeypatch):
    # checks (a) and (b) share one gate per vertex outside each hexagon
    calls = []
    gate = Graph.gate
    monkeypatch.setattr(Graph, "gate", lambda g, x, members: calls.append(x) or gate(g, x, members))
    for cells, expected in (([(0, 0), (1, 0)], 8), ([(0, 0), (1, 0), (1, 1)], 34)):
        calls.clear()
        assert verify_benzenoid_properties(build_benzenoid(cells), 2, 1).ok
        assert len(calls) == expected


# -- oracles for `incomplete_hexagons` and `tree_embedding`: a path search
# four levels of neighbours deep and a breadth-first component labelling


def four_deep_incomplete_hexagons(b):
    """Every path v0 v1 v2 v3 with v0 < v3 and one edge of each class, found
    by walking four levels of neighbours, that lies in no hexagon of b."""
    g = b.graph
    hex_sets = [set(h) for h in b.hexagons]
    found = []
    for v1 in range(g.n):
        for v0 in g.neighbors(v1):
            for v2 in g.neighbors(v1):
                if v2 == v0:
                    continue
                for v3 in g.neighbors(v2):
                    if v3 in (v0, v1) or v0 > v3:
                        continue
                    labels = {
                        b.edge_classes[(min(v0, v1), max(v0, v1))],
                        b.edge_classes[(min(v1, v2), max(v1, v2))],
                        b.edge_classes[(min(v2, v3), max(v2, v3))],
                    }
                    if labels != {1, 2, 3}:
                        continue
                    if any({v0, v1, v2, v3} <= h for h in hex_sets):
                        continue
                    found.append((v0, v1, v2, v3))
    return sorted(found)


def bfs_tree_embedding(b):
    """phi and the tree edge lists, with each class's components labelled by
    a breadth-first search from each unlabelled vertex in turn."""
    g = b.graph
    columns, tree_edges = [], []
    for label in (1, 2, 3):
        removed = set(b.class_edges(label))
        comp = [-1] * g.n
        count = 0
        for start in range(g.n):
            if comp[start] >= 0:
                continue
            comp[start] = count
            count += 1
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for y in g.neighbors(x):
                    if (min(x, y), max(x, y)) not in removed and comp[y] < 0:
                        comp[y] = comp[x]
                        queue.append(y)
        columns.append(comp)
        tree_edges.append(tuple(sorted(
            {(min(comp[u], comp[v]), max(comp[u], comp[v])) for u, v in removed}
        )))
    return tuple(zip(*columns)), tree_edges


def test_incomplete_hexagons_and_embedding_match_the_oracles(monkeypatch):
    # hole-free connected cell sets grown as the benchmark grows them
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    gen = importlib.import_module("gen")
    rng = random.Random(2026)
    paths = 0
    for _ in range(500):
        cells = gen.random_benzenoid(rng, rng.randint(1, 16))
        b = build_benzenoid(cells)
        found = incomplete_hexagons(b)
        assert found == four_deep_incomplete_hexagons(b), cells
        paths += len(found)
        emb = tree_embedding(b)
        phi, tree_edges = bfs_tree_embedding(b)
        assert emb.phi == phi, cells
        assert [t.edges() for t in emb.trees] == tree_edges, cells
    assert paths > 500


@pytest.mark.parametrize("verb", ["build", "embed"])
def test_branched_benzenoid_stdout_is_pinned(capsys, monkeypatch, verb):
    # a three-armed 7-cell benzenoid with three incomplete hexagons
    root = Path(__file__).parent.parent
    monkeypatch.chdir(root)
    assert main(["benzenoid", verb, "tests/data/report_inputs/branched7.cells"]) == 0
    pinned = root / "tests" / "data" / f"benzenoid_branched7_{verb}.json"
    assert capsys.readouterr().out == pinned.read_text()


def test_branched_benzenoid_verification_stdout_is_pinned(capsys, monkeypatch):
    # 34,280 profiles through checks (c) and (d)
    root = Path(__file__).parent.parent
    monkeypatch.chdir(root)
    argv = ["benzenoid", "verify", "tests/data/report_inputs/branched7.cells",
            "--support", "3", "--mult", "2"]
    assert main(argv) == 0
    pinned = root / "tests" / "data" / "benzenoid_branched7_verify_s3_m2.json"
    assert capsys.readouterr().out == pinned.read_text()


SWEEP_KINDS = {"peakless_pair_outside_hexagon", "median_not_g2_connected"}


def list_sweep_failures(b, max_support, max_mult):
    """Checks (c) and (d) of verify_benzenoid_properties on the list kernels."""
    g = b.graph
    hex_sets = [set(h) for h in b.hexagons]
    probes = [(u, v, inside) for u, v, inside in peak_probes(g, 2, 2)
              if not any({u, v} <= h for h in hex_sets)]
    failures = []
    for profile, f in list_profile_sweep(g, max_support, max_mult):
        for u, v in list_peak_failures(f, probes):
            failures.append({"peakless_pair_outside_hexagon": [u, v, profile]})
        med = minimizers(f)
        if not list_connected_in_power(g, med, 2):
            failures.append({"median_not_g2_connected": [profile, med]})
    return failures


def test_sweep_checks_match_the_list_kernels_on_random_benzenoids(monkeypatch):
    # with its first hexagon dropped, a benzenoid fails check (c) on the
    # 2-pairs of that hexagon, so the failures and their order are compared
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    gen = importlib.import_module("gen")
    rng = random.Random(33)
    compared = 0
    for _ in range(30):
        b = build_benzenoid(gen.random_benzenoid(rng, rng.randint(1, 6)))
        support, mult = rng.choice(((2, 1), (2, 2), (3, 1)))
        for cut in (b, replace(b, hexagons=b.hexagons[1:])):
            report = verify_benzenoid_properties(cut, support, mult)
            got = [failure for failure in report.failures if SWEEP_KINDS & failure.keys()]
            assert got == list_sweep_failures(cut, support, mult), b.cells
            compared += len(got)
    assert compared > 1000
