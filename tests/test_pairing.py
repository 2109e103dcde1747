import inspect
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice

import networkx as nx
import numpy as np
import pytest
from scipy.optimize import linprog

import medianlab.pairing as pairing_module
from medianlab.combinatorics import maximal_cliques, maximal_stable_sets, stable_sets
from medianlab.errors import BudgetError, InputError
from medianlab.graph import (
    Graph,
    bn,
    complete,
    complete_bipartite,
    cycle,
    generate,
    grid,
    hypercube,
    path,
    tree_from_parent_list,
)
from medianlab.hypergraphs import build_counterexample
from medianlab.pairing import (
    Pairing,
    auxiliary_graph,
    double_pairing_property,
    fractional_perfect_b_matching,
    has_fractional_perfect_b_matching,
    has_perfect_pairing,
    has_perfect_pi_matching,
    local_graph,
    ma_violation_search,
    matching_stable_set_check,
    me_polytope,
    neighborhood,
    pairing_property_bounded_search,
    perfect_b_matching,
    scale_to_even_profile,
)
from medianlab.profiles import Profile, canonical_profiles, f_vector, median_set, total_distance
from medianlab.rational_lp import EQ, GE, LE, RationalLinearSystem, _phase_one, _phase_two, _Tableau

from conftest import all_pairings, brute_force_max_pairing, random_connected_graph


def test_pairing_cost_and_covers():
    c6 = cycle(6)
    p = Pairing.from_pairs([(0, 3), (2, 5)])
    assert p.cost(c6) == 6
    assert p.covers() == Profile.parse("0 2 3 5")


def test_has_perfect_pairing_matches_brute_force():
    # the maximum pairing cost reaches min F exactly when has_perfect_pairing
    # returns a pairing; grid:3,3 and cycle:5 give most of the "no" profiles
    specs = (
        "cycle:5", "cycle:6", "complete:4", "kmn:2,3", "grid:3,3",
        "hypercube:3", "bn:4", "path:5", "tree:0,0,1,1,2",
    )
    graphs = {spec: generate(spec) for spec in specs}
    rng = random.Random(5)
    no = 0
    for _ in range(3000):
        spec = rng.choice(specs)
        g = graphs[spec]
        items = sorted(rng.choices(range(g.n), k=rng.choice([2, 4, 6, 8])))
        profile = Profile.from_vertices(items)
        floor = min(f_vector(g, profile))
        hit = has_perfect_pairing(g, profile)
        reaches = brute_force_max_pairing(g, items) == floor
        assert reaches == (hit is not None), (spec, profile.format())
        if hit is None:
            no += 1
            continue
        pairing, _ = hit
        assert pairing.covers() == profile
        assert pairing.cost(g) == floor
    assert no >= 100, no


def test_auxiliary_graph_examples():
    p3 = path(3)  # a - u - b with u = 1
    aux = auxiliary_graph(p3, 1)
    assert (0, 2) in aux.edges
    assert set(aux.edges) == {(0, 1), (0, 2), (1, 2)}

    k3 = complete(3)
    aux = auxiliary_graph(k3, 0)
    assert set(aux.edges) == {(0, 1), (0, 2)}  # no (1,2): 0 is not between

    c6 = cycle(6)
    aux = auxiliary_graph(c6, 0)
    # definition scan: u=0 lies between v,w iff d(v,0)+d(0,w)=d(v,w)
    expected = {
        (v, w)
        for v in range(6)
        for w in range(v + 1, 6)
        if c6.d(v, 0) + c6.d(0, w) == c6.d(v, w)
    }
    assert set(aux.edges) == expected
    assert {(0, w) for w in range(1, 6)} <= expected
    assert (1, 5) in expected and (1, 4) in expected and (2, 4) not in expected


def test_perfect_pi_matching_examples():
    c6 = cycle(6)
    aux = auxiliary_graph(c6, 0)
    loop = has_perfect_pi_matching(aux, Profile.parse("0:2"))
    assert loop is not None and loop.pairs == ((0, 0),)

    k3 = complete(3)
    aux = auxiliary_graph(k3, 0)
    assert has_perfect_pi_matching(aux, Profile.parse("0:2 1:2 2:2")) is None

    star = complete_bipartite(1, 3)  # center 0
    aux = auxiliary_graph(star, 0)
    hit = has_perfect_pi_matching(aux, Profile.parse("0 1 2 3"))
    assert hit is not None
    assert hit.covers() == Profile.parse("0 1 2 3")
    for a, b in hit.pairs:
        assert star.d(a, 0) + star.d(0, b) == star.d(a, b)


def test_has_perfect_pairing_examples():
    c6 = cycle(6)
    hit = has_perfect_pairing(c6, Profile.parse("1 4"))
    assert hit is not None
    pairing, vertex = hit
    assert pairing.pairs == ((1, 4),)
    assert vertex in c6.interval(1, 4)

    k3 = complete(3)
    assert has_perfect_pairing(k3, Profile.parse("0:2 1:2 2:2")) is None

    k23 = complete_bipartite(2, 3)
    for profile in canonical_profiles(5, 5, 2, even_only=True):
        hit = has_perfect_pairing(k23, profile)
        assert hit is not None
        pairing, vertex = hit
        # strong duality: the pairing cost reaches the minimum of F
        assert pairing.cost(k23) == min(f_vector(k23, profile))
        assert all(vertex in k23.interval(a, b) for a, b in pairing.pairs)

    with pytest.raises(InputError):
        has_perfect_pairing(k3, Profile.parse("0"))


def test_perfect_b_matching_node_cap():
    # cycle:5 at base 0 with demand 0:k 1:1, k odd: the edge 01 and then the
    # loop at 0, one search node per pair but the last, (k + 1) / 2 in all
    aux = auxiliary_graph(cycle(5), 0)
    edges = list(aux.edges) + [(0, 0)]
    hit = perfect_b_matching(aux.n, edges, {0: 19, 1: 1}, cap=10)
    assert hit == ((0, 0),) * 9 + ((0, 1),)
    with pytest.raises(BudgetError) as caught:
        perfect_b_matching(aux.n, edges, {0: 19, 1: 1}, cap=9)
    assert caught.value.count == 10
    # the cap bounds the search, not the demand: an input that once ran
    # without end stops at its cap
    with pytest.raises(BudgetError):
        has_perfect_pairing(cycle(5), Profile.parse("0:99999999999999999999 1:1"), cap=1000)
    # a search that fails fast is not charged for the demand's size
    assert has_perfect_pairing(complete(3), Profile.parse("0:2 1:2 2:2"), cap=4) is None


def test_perfect_b_matching_charges_its_first_frame():
    # the pair 03 of cycle:6 takes one search node: cap 1 finds it, and a
    # cap below 1 stops the search before its first frame
    aux = auxiliary_graph(cycle(6), 0)
    edges = list(aux.edges) + [(0, 0)]
    assert perfect_b_matching(aux.n, edges, {0: 1, 3: 1}, cap=1) == ((0, 3),)
    for cap in (0, -5):
        with pytest.raises(BudgetError, match=f"cap {cap} nodes") as caught:
            perfect_b_matching(aux.n, edges, {0: 1, 3: 1}, cap=cap)
        assert caught.value.count == 1
        with pytest.raises(BudgetError):
            has_perfect_pairing(cycle(6), Profile.parse("0 3"), cap=cap)


def test_perfect_b_matching_frame_memory():
    # the loop at 0 meets the huge demand one search node at a time, so the
    # search pushes frames until the cap; each frame holds its vertex, its
    # options and its next option, and the matching is read off the stack
    aux = auxiliary_graph(cycle(5), 0)
    edges = list(aux.edges) + [(0, 0)]
    cap = 1 << 14
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            perfect_b_matching(aux.n, edges, {0: 10**20 - 1, 1: 1}, cap=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200 * cap


def test_maximum_pairing_examples():
    # known maximum pairing costs; where a perfect pairing exists its cost is
    # the maximum, and where none does the maximum falls short of min F
    c6 = cycle(6)
    hit = has_perfect_pairing(c6, Profile.parse("1 4"))
    assert hit is not None
    assert hit[0].cost(c6) == c6.d(1, 4) == 3

    k3 = complete(3)
    doubled = Profile.parse("0:2 1:2 2:2")
    assert has_perfect_pairing(k3, doubled) is None
    # the best pairing, (0,1) (0,2) (1,2), costs 3 and min F is 4
    assert brute_force_max_pairing(k3, [0, 0, 1, 1, 2, 2]) == 3
    assert min(f_vector(k3, doubled)) == 4

    q3 = hypercube(3)
    everyone = Profile.from_vertices(range(8))
    hit = has_perfect_pairing(q3, everyone)
    assert hit is not None
    pairing, _ = hit
    assert pairing.covers() == everyone
    assert pairing.cost(q3) == 12
    assert brute_force_max_pairing(q3, list(range(8))) == 12

    with pytest.raises(InputError):
        has_perfect_pairing(c6, Profile.parse("0"))


def test_weak_duality_random(corpus):
    rng = random.Random(17)
    graphs = list(corpus.values())
    for _ in range(400):
        g = rng.choice(graphs)
        items = sorted(rng.choices(range(g.n), k=rng.choice([2, 4, 6])))
        profile = Profile.from_vertices(items)
        pairs = rng.choice(list(all_pairings(items)))
        pairing = Pairing.from_pairs(pairs)
        v = rng.randrange(g.n)
        cost = pairing.cost(g)
        fv = total_distance(g, profile, v)
        assert cost <= fv
        inside = all(v in g.interval(a, b) for a, b in pairing.pairs)
        assert (cost == fv) == inside


def test_fractional_matching_examples():
    k3 = complete(3)
    aux = auxiliary_graph(k3, 0)
    res = has_fractional_perfect_b_matching(aux, {})
    assert res.feasible and res.certificate == {}

    res = has_fractional_perfect_b_matching(aux, {0: 2, 1: 2, 2: 2})
    assert not res.feasible
    assert res.disabling_set == {1, 2}

    # odd cycle center: fractional works where integral needs halves
    aux5 = auxiliary_graph(complete(3), 0)
    res = has_fractional_perfect_b_matching(aux5, {0: 2, 1: 1, 2: 1})
    assert res.feasible
    for (a, b), x in res.certificate.items():
        assert x > 0


def test_demand_outside_the_graph_is_an_input_error():
    aux = auxiliary_graph(cycle(6), 0)
    edges = list(aux.edges) + [(0, 0)]
    for demand in ({9: 2}, {-1: 2}, {9: 0}, {0: 2, 6: 2}):
        with pytest.raises(InputError, match="out of range 0..5"):
            has_fractional_perfect_b_matching(aux, demand)
        with pytest.raises(InputError, match="out of range 0..5"):
            perfect_b_matching(aux.n, edges, demand)
    for demand in ({0: -2}, {1: 2, 4: -1}):
        with pytest.raises(InputError, match="nonnegative"):
            has_fractional_perfect_b_matching(aux, demand)
        with pytest.raises(InputError, match="nonnegative"):
            perfect_b_matching(aux.n, edges, demand)
    with pytest.raises(InputError, match="out of range 0..5"):
        has_perfect_pi_matching(aux, Profile.parse("9:2"))
    # demands inside the graph still decide as before
    assert has_fractional_perfect_b_matching(aux, {0: 2, 3: 2}).feasible
    assert has_perfect_pi_matching(aux, Profile.parse("0 3")) is not None


def test_fractional_certificate_satisfies_degrees(corpus):
    rng = random.Random(23)
    for g in corpus.values():
        for _ in range(8):
            u = rng.randrange(g.n)
            aux = auxiliary_graph(g, u)
            b = {v: rng.randint(0, 3) for v in range(g.n)}
            res = has_fractional_perfect_b_matching(aux, b)
            if not res.feasible:
                s = res.disabling_set
                inside = sum(b.get(v, 0) for v in s)
                around = sum(b.get(v, 0) for v in neighborhood(aux.adjacency(), s))
                assert inside > around
                continue
            degree = {v: Fraction(0) for v in range(g.n)}
            for (x, y), weight in res.certificate.items():
                if x == y:
                    degree[x] += 2 * weight
                else:
                    degree[x] += weight
                    degree[y] += weight
            assert degree == {v: Fraction(b.get(v, 0)) for v in range(g.n)}


def test_b_match_implies_median(corpus):
    # feasible fractional matching at u forces u into the median set
    rng = random.Random(31)
    for g in corpus.values():
        for _ in range(10):
            u = rng.randrange(g.n)
            aux = auxiliary_graph(g, u)
            edges = list(aux.edges) + [(u, u)]
            chosen = rng.choices(edges, k=rng.randint(1, 5))
            b = {}
            for a, c in chosen:
                b[a] = b.get(a, 0) + (2 if a == c else 1)
                if a != c:
                    b[c] = b.get(c, 0) + 1
            assert has_fractional_perfect_b_matching(aux, b).feasible
            assert u in median_set(g, Profile.from_counts(b))


def test_half_integrality_small(corpus):
    rng = random.Random(37)
    for g in list(corpus.values())[:5]:
        for _ in range(15):
            u = rng.randrange(g.n)
            aux = auxiliary_graph(g, u)
            b = {v: 2 * rng.randint(0, 2) for v in range(g.n)}
            frac = has_fractional_perfect_b_matching(aux, b).feasible
            edges = list(aux.edges) + [(u, u)]
            integral = perfect_b_matching(aux.n, edges, b) is not None
            assert frac == integral


def lp_fractional_perfect_b_matching(n, edges, demand):
    """The degree equalities over nonnegative edge weights as an exact LP,
    one column per edge entry; each endpoint adds 1 to its vertex's row,
    so a loop counts twice.  Returns the nonzero weights, or None."""
    system = RationalLinearSystem(len(edges))
    for v in range(n):
        system.add([(a == v) + (b == v) for a, b in edges], EQ, demand.get(v, 0))
    result = system.solve()
    if result.status == "infeasible":
        return None
    return {edges[j]: x for j, x in enumerate(result.point) if x}


def scipy_has_fractional_perfect_b_matching(n, edges, demand):
    if not edges:
        return not any(demand.values())
    a_eq = [[(a == v) + (b == v) for a, b in edges] for v in range(n)]
    b_eq = [demand.get(v, 0) for v in range(n)]
    ref = linprog(
        np.zeros(len(edges)), A_eq=np.array(a_eq), b_eq=np.array(b_eq),
        bounds=[(0, None)] * len(edges), method="highs",
    )
    assert ref.status in (0, 2)
    return ref.status == 0


def assert_half_integral_certificate(n, edges, demand, cert):
    """Exact positive half-integral weights on listed edges that meet
    every degree."""
    degree = [Fraction(0)] * n
    for (a, b), x in cert.items():
        assert (a, b) in edges
        assert type(x) is Fraction and x > 0 and (2 * x).denominator == 1
        degree[a] += x
        degree[b] += x
    assert degree == [Fraction(demand.get(v, 0)) for v in range(n)]


def test_max_flow_matches_lp_and_scipy():
    """The double-cover max-flow verdict equals the exact LP's and scipy's,
    on auxiliary graphs, on edge lists with loops anywhere and on the
    counterexample seed graphs, and every certificate checks exactly."""
    rng = random.Random(2003)
    cases = []
    while len(cases) < 500:
        g = random_connected_graph(rng, rng.randint(2, 9), rng.choice([0.1, 0.3, 0.6]))
        u = rng.randrange(g.n)
        edges = list(auxiliary_graph(g, u).edges) + [(u, u)]
        if rng.random() < 0.5:  # the degrees of some weighting
            demand = {}
            for a, b in rng.choices(edges, k=rng.randint(1, 6)):
                demand[a] = demand.get(a, 0) + 1
                demand[b] = demand.get(b, 0) + 1
        else:
            demand = {v: rng.randint(0, 3) for v in range(g.n)}
        cases.append((g.n, edges, demand, (g, u)))
    for _ in range(150):  # loops at several vertices, a repeated edge
        n = rng.randint(1, 7)
        edges = sorted({
            tuple(sorted(rng.sample(range(n), 2))) if n > 1 and rng.random() < 0.7
            else (v, v)
            for v in rng.choices(range(n), k=rng.randint(1, 10))
        })
        if rng.random() < 0.2:
            edges.append(edges[0])
        cases.append((n, edges, {v: rng.randint(0, 4) for v in range(n)}, None))
    for kind in ("pairing", "double_pairing"):
        cx = build_counterexample(kind)
        ones = dict.fromkeys(range(cx.seed_vertices), 1)
        cases.append((cx.seed_vertices, list(cx.seed_edges), ones, None))
    verdicts = []
    for n, edges, demand, aux_of in cases:
        cert = fractional_perfect_b_matching(n, edges, demand)
        oracle = lp_fractional_perfect_b_matching(n, edges, demand)
        assert (cert is not None) == (oracle is not None), (n, edges, demand)
        assert (cert is not None) == scipy_has_fractional_perfect_b_matching(n, edges, demand)
        if cert is not None:
            assert_half_integral_certificate(n, edges, demand, cert)
        if aux_of is not None:
            g, u = aux_of
            res = has_fractional_perfect_b_matching(auxiliary_graph(g, u), demand)
            assert res.feasible == (cert is not None)
            assert res.certificate == cert
        verdicts.append(cert is not None)
    assert verdicts[-2:] == [True, False]  # the seeds, as build_counterexample needs
    assert 150 < sum(verdicts) < len(verdicts) - 150


def double_cover_max_flow(n, edges, demand):
    """Edmonds-Karp on the bipartite double cover as a dict-of-dicts
    residual graph: the source feeds v' and v'' drains to the sink, each
    with capacity b(v); an edge vw gives v'->w'' and w'->v'' with
    capacities b(v) and b(w), a loop at v the arc v'->v''.  Returns whether
    a maximum flow saturates every source arc."""
    need = {v: k for v, k in demand.items() if k}
    # nodes: v' is v, v'' is n + v, then the source and the sink
    source, sink = 2 * n, 2 * n + 1
    residual = [{} for _ in range(2 * n + 2)]
    for v, k in need.items():
        residual[source][v] = k
        residual[n + v] = {sink: k}
    used = {}
    for a, b in edges:
        if a in need and b in need and (a, b) not in used and (b, a) not in used:
            used[(a, b)] = None
            residual[a][n + b] = need[a]
            residual[b][n + a] = need[b]
    for x in range(2 * n + 2):  # reverse arcs start empty
        for y in list(residual[x]):
            residual[y].setdefault(x, 0)

    def augmenting_path():
        parent = {source: None}
        queue = [source]
        for x in queue:
            for y, room in residual[x].items():
                if room and y not in parent:
                    parent[y] = x
                    if y == sink:
                        path = []
                        while parent[y] is not None:
                            path.append((parent[y], y))
                            y = parent[y]
                        return path
                    queue.append(y)
        return None

    flow = 0
    while path := augmenting_path():
        push = min(residual[x][y] for x, y in path)
        for x, y in path:
            residual[x][y] -= push
            residual[y][x] += push
        flow += push
    return flow == sum(need.values())


def _drawn_like_the_benchmark(rng):
    """A tree, a connected bipartite graph or a connected graph with a
    triangle on 6 to 10 vertices, a base vertex u, and a demand that is the
    degree vector of random weights on A_u (always feasible) or independent
    draws from 0..3 (zeros kept as entries)."""
    n = rng.randint(6, 10)
    family = rng.randrange(3)
    if family == 0:
        edges = {(i, rng.randrange(i)) for i in range(1, n)}
    elif family == 1:
        side = [0, 1] + [rng.randrange(2) for _ in range(n - 2)]
        edges = {(1, 0)}
        for v in range(2, n):
            edges.add((v, rng.choice([w for w in range(v) if side[w] != side[v]])))
        edges |= {(b, a) for a in range(n) for b in range(a + 1, n)
                  if side[a] != side[b] and rng.random() < 0.25}
    else:
        edges = {(1, 0), (2, 1), (2, 0)} | {(v, rng.randrange(v)) for v in range(3, n)}
        edges |= {(b, a) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.2}
    g = Graph(n, sorted(edges))
    u = rng.randrange(n)
    aux = auxiliary_graph(g, u)
    if rng.random() < 0.5:
        demand = dict.fromkeys(range(n), 0)
        for a, b in rng.sample(list(aux.edges) + [(u, u)], min(len(aux.edges) + 1, rng.randint(2, 5))):
            k = rng.randint(1, 3)
            demand[a] += k
            demand[b] += k
    else:
        demand = {v: rng.randint(0, 3) for v in range(n)}
    return aux, demand


def _first_disabling_set(aux, demand):
    adj = aux.adjacency()
    for s in stable_sets(aux.n, adj, exclude=(aux.base,)):
        if sum(demand.get(v, 0) for v in s) > sum(demand.get(v, 0) for v in neighborhood(adj, s)):
            return s
    return None


def test_transportation_flow_matches_oracles():
    """On 2,400 inputs drawn as the benchmark draws its fractional jobs,
    half of them with loops added anywhere, edges repeated and edges
    reversed, the flow's verdict equals the double-cover Edmonds-Karp's and
    the exact LP's; every certificate is exact, positive, half-integral and
    on listed edges, and a "no" names the first disabling stable set."""
    rng = random.Random(2024)
    verdicts = []
    for i in range(2400):
        aux, demand = _drawn_like_the_benchmark(rng)
        edges = list(aux.edges) + [(aux.base, aux.base)]
        if i % 2:
            edges += [(v, v) for v in rng.sample(range(aux.n), rng.randint(1, 3))]
            edges += rng.choices(edges, k=2)
            edges += [(b, a) for a, b in rng.sample(edges, min(3, len(edges)))]
            rng.shuffle(edges)
        cert = fractional_perfect_b_matching(aux.n, edges, demand)
        feasible = cert is not None
        assert feasible == double_cover_max_flow(aux.n, edges, demand)
        assert feasible == (lp_fractional_perfect_b_matching(aux.n, edges, demand) is not None)
        if feasible:
            assert_half_integral_certificate(aux.n, edges, demand, cert)
        if i % 2 == 0:
            res = has_fractional_perfect_b_matching(aux, demand)
            assert res.feasible == feasible and res.certificate == cert
            assert res.disabling_set == (None if feasible else _first_disabling_set(aux, demand))
        verdicts.append(feasible)
    assert 800 < sum(verdicts) < 1600


def test_transportation_flow_is_scale_free(monkeypatch):
    """k times a demand is feasible exactly when the demand is, with an
    exact certificate, and takes no more augmentations, for k = 2 and
    k = 10**12."""
    calls = []

    def counting(*args):
        calls.append(None)
        return augment(*args)

    augment = pairing_module._augment
    monkeypatch.setattr(pairing_module, "_augment", counting)
    rng = random.Random(12)
    for _ in range(300):
        aux, demand = _drawn_like_the_benchmark(rng)
        edges = list(aux.edges) + [(aux.base, aux.base)]
        calls.clear()
        feasible = fractional_perfect_b_matching(aux.n, edges, demand) is not None
        base = len(calls)
        for k in (2, 10**12):
            scaled = {v: k * b for v, b in demand.items()}
            calls.clear()
            cert = fractional_perfect_b_matching(aux.n, edges, scaled)
            assert (cert is not None) == feasible
            assert len(calls) <= base
            if cert is not None:
                assert_half_integral_certificate(aux.n, edges, scaled, cert)


def test_me_polytope_structure():
    g = path(3)
    system = me_polytope(g, 1)
    assert system.num_vars == 3
    assert len(system.constraints) == 3
    # a profile with median 1 satisfies every constraint
    for coeffs, in [(c.coeffs,) for c in system.constraints]:
        assert sum(coeffs[w] * [1, 0, 1][w] for w in range(3)) >= 0


def test_matching_feasible_points_lie_in_me(corpus):
    # the Hall polytope sits inside the median polytope
    rng = random.Random(61)
    for g in corpus.values():
        for _ in range(6):
            u = rng.randrange(g.n)
            aux = auxiliary_graph(g, u)
            edges = list(aux.edges) + [(u, u)]
            b = {}
            for a, c in rng.choices(edges, k=rng.randint(1, 4)):
                b[a] = b.get(a, 0) + (2 if a == c else 1)
                if a != c:
                    b[c] = b.get(c, 0) + 1
            assert has_fractional_perfect_b_matching(aux, b).feasible
            for con in me_polytope(g, u).constraints:
                lhs = sum(con.coeffs[w] * b.get(w, 0) for w in range(g.n))
                assert lhs >= con.rhs


def test_ma_violation_search_trees():
    for g in (path(3), path(5), tree_from_parent_list([0, 0, 1])):
        for u in range(g.n):
            assert ma_violation_search(g, u) is None


def from_scratch_violation(g, u):
    """The Ma(u) = Me(u) search with a new slice and a full two-phase
    solve for every stable set of A_u."""
    adj = auxiliary_graph(g, u).adjacency()
    for s in stable_sets(g.n, adj, exclude=(u,)):
        around = frozenset().union(*(adj[v] for v in s))
        system = me_polytope(g, u)
        system.add([1] * g.n, EQ, 1)
        result = system.solve([(v in around) - (v in s) for v in range(g.n)])
        assert result.status == "optimal"
        if result.value < 0:
            return s, result.point, result.value
    return None


def test_ma_violation_search_matches_from_scratch_solves():
    cx = build_counterexample("double_pairing").graph
    # every vertex of the small graphs; on the counterexample its vertex 0,
    # where double_pairing_property stops (a from-scratch walk of one of
    # its vertices without a violation takes about 40 s)
    cases = ((bn(4), range(8)), (cycle(8), range(8)), (grid(2, 3), range(6)), (cx, [0]))
    for g, vertices in cases:
        first = None
        for u in vertices:
            want = from_scratch_violation(g, u)
            got = ma_violation_search(g, u)
            assert (got and (got.stable_set, got.point, got.optimum)) == want, u
            if want is None:
                continue
            first = first or (u, want)
            # the cap counts the same walk, so it fires just before the witness
            walk = list(stable_sets(g.n, auxiliary_graph(g, u).adjacency(), exclude=(u,)))
            k = walk.index(want[0]) + 1
            assert ma_violation_search(g, u, cap=k).stable_set == want[0]
            with pytest.raises(BudgetError):
                ma_violation_search(g, u, cap=k - 1)
        verdict = double_pairing_property(g)
        if first is None:
            assert verdict.holds
        else:
            u, (s, point, _) = first
            assert not verdict.holds
            assert (verdict.vertex, verdict.stable_set) == (u, s)
            assert verdict.witness == scale_to_even_profile(point)


def test_ma_violation_search_warm_starts_phase_two(monkeypatch):
    # grid(3,3) at a corner: 111 stable sets and no violation, so the walk
    # runs to the end; warm phase 2s pivot far less than cold ones, each of
    # which starts from the one phase-1 tableau
    g, u = grid(3, 3), 0
    count = [0]
    pivot = _Tableau.pivot

    def counted(tab, r, j):
        count[0] += 1
        return pivot(tab, r, j)

    monkeypatch.setattr(_Tableau, "pivot", counted)
    assert ma_violation_search(g, u) is None
    warm, count[0] = count[0], 0
    adj = auxiliary_graph(g, u).adjacency()
    system = me_polytope(g, u)
    system.add([1] * g.n, EQ, 1)
    objectives = [
        [(v in neighborhood(adj, s)) - (v in s) for v in range(g.n)]
        for s in stable_sets(g.n, adj, exclude=(u,))
    ]
    tab, allowed = _phase_one(g.n, system.constraints)
    assert min(_phase_two(tab, allowed, g.n, obj).value for obj in objectives) >= 0
    assert 4 * warm < count[0], (warm, count[0])
    # the exact pivot work of the warm walks, pinned: the tableau's entry
    # types must not change the pivot sequence
    assert warm == 31
    for u, pivots in ((1, 51), (4, 55)):
        count[0] = 0
        assert ma_violation_search(g, u) is None
        assert count[0] == pivots, u
    count[0] = 0
    assert matching_stable_set_check(local_graph(hypercube(3), 0).graph, "double").holds
    assert count[0] == 38


def test_double_pairing_small_graphs():
    assert double_pairing_property(path(2)).holds
    assert double_pairing_property(complete_bipartite(2, 3)).holds
    assert double_pairing_property(cycle(4)).holds


def test_double_pairing_fails_on_bn4():
    # the doubled left side of K_{4,4} minus a matching cannot be paired
    g = bn(4)
    res = double_pairing_property(g)
    assert not res.holds
    assert has_perfect_pairing(g, res.witness) is None
    assert has_perfect_pairing(g, res.witness.power(2)) is None


def test_double_pairing_consistent_with_bounded_search():
    # when the polytope route says yes, no budget profile refutes it;
    # when it says no, the scaled witness is a concrete refutation
    for g in (path(2), path(3), cycle(4), complete_bipartite(2, 3)):
        assert double_pairing_property(g).holds
        for profile in canonical_profiles(g.n, 3, 2):
            assert has_perfect_pairing(g, profile.power(2)) is not None


def test_scale_to_even_profile():
    p = scale_to_even_profile((Fraction(1, 3), Fraction(0), Fraction(2, 3)))
    assert p == Profile.from_counts({0: 2, 2: 4})
    assert p.is_even


def test_local_graph_structure(corpus):
    g = corpus["q3"]
    local = local_graph(g, 0)
    assert set(local.vertices) == set(g.ball(0, 2))
    base = local.base
    inner = local.graph
    assert all(inner.is_adjacent(base, v) for v in range(inner.n) if v != base)
    for i, j in inner.edges():
        a, b = local.vertices[i], local.vertices[j]
        assert g.d(a, 0) + g.d(0, b) == g.d(a, b)


def test_matching_stable_set_tree_and_star():
    tree = tree_from_parent_list([0, 0, 1, 1])
    for u in range(tree.n):
        local = local_graph(tree, u)
        assert matching_stable_set_check(local.graph, "double").holds
    star = complete_bipartite(1, 3)
    local = local_graph(star, 1)  # a leaf: its ball of radius 2 is everything
    assert matching_stable_set_check(local.graph, "double").holds
    assert matching_stable_set_check(
        local.graph, "single", max_support=3, max_mult=2
    ).holds
    with pytest.raises(InputError):
        matching_stable_set_check(local.graph, "single")


def from_scratch_double_check(g):
    """The double matching-stable-set check with one full solve per stable
    set S: a point with b(S) - b(N(S)) >= 1 while every vertex and every
    maximal stable set T keeps b(T) - b(N(T)) <= 0."""
    adj = [set(g.neighbors(v)) for v in range(g.n)]

    def hall(members):
        hood = set().union(*(adj[v] for v in members))
        return [(v in members) - (v in hood) for v in range(g.n)]

    escapes = [(z,) for z in range(g.n)] + maximal_stable_sets(g.n, adj)
    for s in stable_sets(g.n, adj):
        system = RationalLinearSystem(g.n)
        system.add(hall(s), GE, 1)
        for t in escapes:
            system.add(hall(t), LE, 0)
        result = system.solve()
        if result.feasible:
            return False, scale_to_even_profile(result.point), s
    return True, None, None


def test_double_check_matches_from_scratch_solves():
    rng = random.Random(211)
    graphs = [
        local_graph(g, u).graph
        for spec in ("kmn:2,3", "cycle:8", "path:6", "hypercube:3", "grid:3,3", "bn:4")
        for g in [generate(spec)]
        for u in range(g.n)
    ]
    graphs += [random_connected_graph(rng, rng.randint(3, 9), rng.choice([0.15, 0.3, 0.5]))
               for _ in range(100)]
    # a failing graph whose witness differs when scaled from the point of
    # the one polytope instead of the per-S system
    graphs.append(Graph(9, [(0, 1), (0, 2), (0, 5), (1, 4), (1, 5), (2, 3), (2, 6), (2, 7),
                            (2, 8), (3, 4), (3, 6), (3, 7), (5, 8)]))
    failures = 0
    for g in graphs:
        got = matching_stable_set_check(g, "double")
        assert (got.holds, got.witness, got.stable_set) == from_scratch_double_check(g)
        failures += not got.holds
    assert failures >= 5  # failing graphs are among the cases


def test_single_variant_profile_budget():
    # the budget is counted before the first profile is checked
    with pytest.raises(BudgetError) as info:
        matching_stable_set_check(grid(3, 3), "single", max_support=9, max_mult=9)
    assert info.value.count == 499_999_999
    with pytest.raises(BudgetError):
        pairing_property_bounded_search(grid(3, 3), 9, 9)


def test_single_vertex_neighborhood_local_check():
    # base with a single neighbor: profiles must route through it trivially
    p2 = path(2)
    local = local_graph(p2, 0)
    assert matching_stable_set_check(
        local.graph, "single", max_support=2, max_mult=3
    ).holds


def test_pairing_search_budget_of_pairs(corpus):
    # profiles of size two always pair perfectly
    for g in corpus.values():
        assert pairing_property_bounded_search(g, 2, 1) is None


def test_pairing_search_three_cube():
    witness = pairing_property_bounded_search(hypercube(3), 8, 2)
    assert witness is not None
    assert has_perfect_pairing(hypercube(3), witness) is None


def test_stable_set_enumeration():
    g = cycle(4)
    adj = [set(g.neighbors(v)) for v in range(4)]
    sets = list(stable_sets(4, adj))
    assert frozenset({0, 2}) in sets and frozenset({1, 3}) in sets
    assert all(not (adj[a] & s) for s in sets for a in s)
    assert len(sets) == len(set(sets))
    with pytest.raises(BudgetError):
        list(stable_sets(4, adj, cap=2))
    assert maximal_stable_sets(4, adj) == [frozenset({0, 2}), frozenset({1, 3})]


def test_maximal_cliques_match_networkx():
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(1, 14)
        p = rng.choice([0.1, 0.4, 0.8, 0.95])
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        adj = [set() for _ in range(n)]
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        want = nx.Graph()
        want.add_nodes_from(range(n))
        want.add_edges_from(edges)
        expected = sorted((frozenset(c) for c in nx.find_cliques(want)), key=sorted)
        assert maximal_cliques(n, adj) == expected


def test_enumerators_do_not_recurse_per_element():
    # a 300-vertex clique and a 300-element stable set, with far fewer
    # than 300 free interpreter frames
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        k300 = [set(range(300)) - {v} for v in range(300)]
        assert maximal_cliques(300, k300) == [frozenset(range(300))]
        edgeless = [set() for _ in range(300)]
        assert next(islice(stable_sets(300, edgeless), 299, None)) == frozenset(range(300))
    finally:
        sys.setrecursionlimit(limit)
