"""The automorphism primitive and the searches that run modulo Aut(G).

networkx's `GraphMatcher` is the oracle for the group, and the full
enumerations below, which visit every profile or vertex, are the oracles
for the searches that visit orbit representatives only.
"""

import random
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

import medianlab.graph as graph_module
from medianlab.cli import main
from medianlab.errors import BudgetError
from medianlab.formats import graph_from_text
from medianlab.graph import (
    Graph,
    automorphism_generators,
    generate,
    generator_names,
    grid,
    orbit_minima,
)
from medianlab.pairing import (
    double_pairing_property,
    has_perfect_pairing,
    ma_violation_search,
    pairing_property_bounded_search,
    scale_to_even_profile,
)
from medianlab.profiles import (
    Profile,
    canonical_profiles,
    check_unimodal_equals_connected,
    count_canonical_profiles,
    f_vector,
    minimizers,
    peak_probes,
    profile_orbit,
)

from conftest import (
    list_connected_in_power,
    list_peak_failures,
    list_punctured_balls,
    list_unimodal,
    random_connected_graph,
    random_tree,
    to_networkx,
)

DATA = Path(__file__).parent / "data"

# one small instance of every named generator
NAMED = {
    "cycle": "cycle:6",
    "path": "path:5",
    "complete": "complete:5",
    "kmn": "kmn:2,3",
    "complete_bipartite": "complete_bipartite:3,3",
    "hypercube": "hypercube:3",
    "bn": "bn:4",
    "bhat": "bhat:4",
    "grid": "grid:3,3",
    "tree": "tree:0,0,1,1,2,2",
}
SEARCH_GRAPHS = (
    "cycle:5", "cycle:6", "cycle:7", "path:5", "kmn:2,3", "hypercube:3",
    "bn:4", "grid:3,3", "grid:2,4", "tree:0,0,1,1,2,2",
)


def group_closure(n, generators):
    """Every element of the group the generators generate."""
    identity = tuple(range(n))
    seen = {identity}
    todo = [identity]
    for p in todo:
        for s in generators:
            q = tuple(s[x] for x in p)
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return seen


def nx_automorphisms(g):
    nxg = to_networkx(g)
    return {
        tuple(m[v] for v in range(g.n))
        for m in GraphMatcher(nxg, nxg).isomorphisms_iter()
    }


def orbits_of(n, group):
    return {frozenset(p[v] for p in group) for v in range(n)}


def random_graphs(seed, count, max_n):
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, max_n)
        if i % 4 == 0:
            yield random_tree(rng, n)
        else:
            yield random_connected_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.8)))


def is_automorphism(g, p):
    return sorted(p) == list(range(g.n)) and (
        {tuple(sorted((p[u], p[v]))) for u, v in g.edges()} == set(g.edges())
    )


def assert_matches_networkx(g):
    generators = g.automorphisms()
    assert all(is_automorphism(g, p) for p in generators)
    group = group_closure(g.n, generators)
    oracle = nx_automorphisms(g)
    assert orbits_of(g.n, group) == orbits_of(g.n, oracle)
    assert len(group) == len(oracle)


@pytest.mark.parametrize("name", generator_names())
def test_automorphisms_of_named_graphs_match_networkx(name):
    assert_matches_networkx(generate(NAMED[name]))


def test_automorphisms_of_random_graphs_match_networkx():
    nontrivial = 0
    for g in random_graphs(17, 320, 10):
        assert_matches_networkx(g)
        nontrivial += bool(g.automorphisms())
    assert nontrivial > 100


def test_automorphisms_of_regular_graphs_match_networkx():
    # dense random regular graphs: colour refinement cannot tell their
    # vertices apart, so the search reaches leaves whose colour sizes all
    # match the first path's and that are not automorphisms
    for seed in range(3):
        nxg = nx.random_regular_graph(12, 25, seed=seed)
        assert_matches_networkx(Graph(25, sorted(tuple(sorted(e)) for e in nxg.edges())))


def test_automorphisms_are_lazy_and_cached():
    g = generate("cycle:6")
    assert g._automorphisms is None
    assert g.automorphisms() is g.automorphisms()


def vertex_orbits(g):
    """Vertex orbits of the group g.automorphisms() generates, by union of
    each vertex with its images."""
    orbit = {v: {v} for v in range(g.n)}
    for p in g.automorphisms():
        for v in range(g.n):
            merged = orbit[v] | orbit[p[v]]
            for x in merged:
                orbit[x] = merged
    return {frozenset(o) for o in orbit.values()}


def test_large_symmetric_graphs_finish_within_the_work_cap():
    g = generate("hypercube:5")
    assert len(group_closure(g.n, g.automorphisms())) == 3840
    # bn:8 and bhat:8 have 8! * 2 automorphisms, too many to list here
    for spec, orbits in (("hypercube:5", 1), ("bn:8", 1), ("bhat:8", 2)):
        g = generate(spec)
        for p in g.automorphisms():
            assert {tuple(sorted((p[u], p[v]))) for u, v in g.edges()} == set(g.edges())
        assert len(vertex_orbits(g)) == orbits
    g = grid(14, 14)
    group = group_closure(g.n, g.automorphisms())
    m = 13
    square = lambda i, j: (  # noqa: E731 - the eight symmetries of the square
        (i, j), (j, i), (m - i, j), (i, m - j),
        (m - i, m - j), (m - j, m - i), (j, m - i), (m - j, i),
    )
    expected = {frozenset(a * 14 + b for a, b in square(i, j))
                for i in range(14) for j in range(14)}
    assert len(group) == 8 and orbits_of(g.n, group) == expected


def test_work_cap_gives_the_trivial_group(monkeypatch):
    for spec in ("cycle:6", "hypercube:3", "bn:4"):
        g = generate(spec)
        full = automorphism_generators(g)
        assert full == g.automorphisms() != ()
        step = g.n + 2 * len(g.edges())
        for cap in (1, 3 * step):
            monkeypatch.setattr(graph_module, "AUTOMORPHISM_WORK_CAP", cap)
            assert automorphism_generators(g) == ()
        monkeypatch.undo()


def test_work_cap_midway_keeps_the_generators_found(monkeypatch):
    # the least cap past which the search has found one generator stops it
    # before the last: the generators found are kept, each an automorphism,
    # and the orbits of the subgroup they generate are finer, so the searches
    # reduced modulo it keep their group-free results
    for spec in ("cycle:7", "kmn:3,3", "grid:3,3", "bn:4"):
        g = generate(spec)
        full = automorphism_generators(g)
        step = g.n + 2 * len(g.edges())
        monkeypatch.setattr(graph_module, "AUTOMORPHISM_WORK_CAP", 2)
        plain = generate(spec)
        assert plain.automorphisms() == ()
        group_free = (
            check_unimodal_equals_connected(plain, 1, 3, 2).as_dict(),
            pairing_property_bounded_search(plain, 3, 2),
        )
        cap = step
        while True:
            monkeypatch.setattr(graph_module, "AUTOMORPHISM_WORK_CAP", cap)
            partial = automorphism_generators(g)
            if partial:
                break
            cap += step
        assert 0 < len(partial) < len(full), spec
        assert all(is_automorphism(g, p) for p in partial)
        h = generate(spec)
        assert h.automorphisms() == partial
        assert group_free == (
            check_unimodal_equals_connected(h, 1, 3, 2).as_dict(),
            pairing_property_bounded_search(h, 3, 2),
        )
        monkeypatch.undo()


def test_tree300_keeps_its_generators_at_the_cap():
    # the search on this tree passes AUTOMORPHISM_WORK_CAP; the twin leaf
    # transpositions found before it stay
    g = graph_from_text((DATA / "report_inputs" / "tree300.graph").read_text())
    generators = automorphism_generators(g)
    assert generators and all(is_automorphism(g, p) for p in generators)


def test_orbit_minima_against_explicit_orbits():
    for g in list(random_graphs(5, 60, 8)) + [generate(s) for s in NAMED.values()]:
        group = group_closure(g.n, g.automorphisms())
        for k in (1, 2, 3):
            supports = list(combinations(range(g.n), k))
            expected = [
                s for s in supports
                if all(tuple(sorted(p[x] for x in s)) >= s for p in group)
            ]
            assert orbit_minima(g.n, supports, g.automorphisms()) == expected
        assert orbit_minima(g.n, supports, ()) == supports
        # several sizes in one list, in the order canonical_profiles uses
        mixed = sorted(s for k in (1, 2, 3) for s in combinations(range(g.n), k))
        assert orbit_minima(g.n, mixed, g.automorphisms()) == [
            s for s in mixed
            if all(tuple(sorted(p[x] for x in s)) >= s for p in group)
        ]


def test_profile_orbit_is_the_image_under_the_whole_group():
    g = generate("hypercube:3")
    group = group_closure(g.n, g.automorphisms())
    for text in ("0", "0 1:2", "0:2 3 5", "1 2 4:3"):
        profile = Profile.parse(text)
        expected = {tuple(sorted((p[v], k) for v, k in profile.counts)) for p in group}
        assert profile_orbit(profile, g.automorphisms()) == expected
    assert profile_orbit(profile, ()) == {profile.counts}


# -- the reduced searches against full enumerations ---------------------------


def full_unimodal_check(g, p, max_support, max_mult):
    """check_unimodal_equals_connected's failures by visiting every profile,
    on the list kernels."""
    probes = peak_probes(g, p + 1, 2 * p)
    balls = list_punctured_balls(g, p)
    failures = []
    for profile in canonical_profiles(g.n, max_support, max_mult):
        f = f_vector(g, profile)
        uni = list_unimodal(f, balls)
        conn = list_connected_in_power(g, minimizers(f), p)
        peak = next(list_peak_failures(f, probes), None) is None
        if not (uni and conn and peak):
            failures.append(
                {"profile": profile, "unimodal": uni, "connected": conn, "peakless": peak}
            )
    return failures


def full_pairing_search(g, max_support, max_mult):
    return next(
        (profile for profile in canonical_profiles(g.n, max_support, max_mult, even_only=True)
         if has_perfect_pairing(g, profile) is None),
        None,
    )


def full_double_pairing(g):
    """(vertex, stable set, witness) of the first failing vertex over all
    vertices, or None."""
    for u in range(g.n):
        violation = ma_violation_search(g, u)
        if violation is not None:
            return u, violation.stable_set, scale_to_even_profile(violation.point)
    return None


def assert_unimodal_check_matches(g, p, max_support=3, max_mult=2):
    report = check_unimodal_equals_connected(g, p, max_support, max_mult)
    assert report.failures == full_unimodal_check(g, p, max_support, max_mult)
    assert report.profiles_checked == count_canonical_profiles(g.n, max_support, max_mult)
    return len(report.failures)


# known failure counts at support 3, mult 2, power 1
FAILURE_COUNTS = {"cycle:5": 130, "cycle:7": 378, "kmn:2,3": 5}


@pytest.mark.parametrize("spec", SEARCH_GRAPHS)
def test_reduced_unimodal_check_matches_full_enumeration_on_named_graphs(spec):
    failures = [assert_unimodal_check_matches(generate(spec), p) for p in (1, 2)]
    if spec in FAILURE_COUNTS:
        assert failures[0] == FAILURE_COUNTS[spec]


def test_reduced_unimodal_check_matches_full_enumeration_on_random_graphs():
    failures = 0
    for g in random_graphs(31, 110, 8):
        for p in (1, 2):
            failures += assert_unimodal_check_matches(g, p)
    assert failures > 500


def test_verify_connected_medians_stdout_is_pinned(capsys):
    argv = ["verify-connected-medians", "cycle:7", "--power", "1",
            "--support", "3", "--mult", "2"]
    assert main(argv) == 1
    expected = (DATA / "vcm_cycle7_p1_s3_m2.json").read_text()
    assert capsys.readouterr().out == expected


def test_reduced_pairing_search_finds_the_first_witness():
    assert pairing_property_bounded_search(generate("cycle:7"), 3, 2) == Profile.parse("0:2 1:2 4:2")
    for spec in SEARCH_GRAPHS:
        g = generate(spec)
        for budget in ((2, 2), (3, 2)):
            assert pairing_property_bounded_search(g, *budget) == full_pairing_search(g, *budget)
    found = 0
    for g in random_graphs(43, 120, 8):
        expected = full_pairing_search(g, 3, 2)
        assert pairing_property_bounded_search(g, 3, 2) == expected
        found += expected is not None
    assert found > 5


def test_reduced_double_pairing_matches_every_vertex_scan():
    failing = 0
    for g in list(random_graphs(59, 40, 6)) + [generate(s) for s in ("cycle:5", "kmn:2,3", "bn:4")]:
        result = double_pairing_property(g)
        expected = full_double_pairing(g)
        if expected is None:
            assert result.holds
        else:
            failing += 1
            assert (result.vertex, result.stable_set, result.witness) == expected
    assert failing > 5


def test_over_budget_searches_raise_before_the_group_search(monkeypatch):
    def no_group(self):
        raise AssertionError("group computed before the budget check")

    monkeypatch.setattr(Graph, "automorphisms", no_group)
    g = generate("cycle:40")
    with pytest.raises(BudgetError):
        check_unimodal_equals_connected(g, 1, 6, 2, cap=1000)
    with pytest.raises(BudgetError):
        pairing_property_bounded_search(g, 6, 2)


def test_trivial_group_under_the_work_cap_leaves_verdicts_unchanged(monkeypatch):
    specs = ("cycle:7", "kmn:2,3", "hypercube:3", "grid:3,3")
    before = {}
    for spec in specs:
        g = generate(spec)
        assert g.automorphisms()
        before[spec] = (
            check_unimodal_equals_connected(g, 1, 3, 2).as_dict(),
            pairing_property_bounded_search(g, 3, 2),
            double_pairing_property(g).as_dict() if g.n <= 8 else None,
        )
    monkeypatch.setattr(graph_module, "AUTOMORPHISM_WORK_CAP", 2)
    for spec in specs:
        g = generate(spec)
        assert g.automorphisms() == ()
        assert before[spec] == (
            check_unimodal_equals_connected(g, 1, 3, 2).as_dict(),
            pairing_property_bounded_search(g, 3, 2),
            double_pairing_property(g).as_dict() if g.n <= 8 else None,
        )
