"""Pairings of even profiles, auxiliary-graph b-matchings, and the exact
polytope procedure deciding the double-pairing property.

Conventions that the rest of the package relies on:

* In the auxiliary graph of a base vertex u, the only loop sits at u
  (u lies in I(v,v) only for v = u), and a loop covers its endpoint twice:
  one unit of x on the loop contributes 2 toward the degree demand at u.
  This is what makes integral matchings correspond to pairings.
* All polytope questions are answered in exact rational arithmetic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import tee
from math import lcm

from .combinatorics import STABLE_SET_CAP, adjacency_sets, maximal_stable_sets, stable_sets
from .errors import BudgetError, InputError
from .graph import Graph, orbit_minima
from .profiles import (
    Profile,
    canonical_profiles,
    median_set,
    profile_sweep,
)
from .rational_lp import EQ, GE, LE, RationalLinearSystem
from .report import Report

# default cap on the search nodes of one integral b-matching search;
# `has_perfect_pi_matching` and `has_perfect_pairing` pass their `cap` through
B_MATCHING_NODE_CAP = 1 << 19


@dataclass(frozen=True)
class Pairing:
    """Multiset of unordered vertex pairs; pairs (a,a) are allowed."""

    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def from_pairs(cls, pairs) -> "Pairing":
        return cls(tuple(sorted(tuple(sorted(p)) for p in pairs)))

    def covers(self) -> Profile:
        counts: Counter = Counter()
        for a, b in self.pairs:
            counts[a] += 1
            counts[b] += 1
        return Profile.from_counts(counts)

    def cost(self, g: Graph) -> int:
        return sum(g.dist[a][b] for a, b in self.pairs)


@dataclass(frozen=True)
class AuxiliaryGraph:
    """Graph A_u on the vertices of G: v ~ w iff u lies between them."""

    base: int
    n: int
    edges: tuple[tuple[int, int], ...]  # sorted pairs (v,w) v<w, no loop entry

    def adjacency(self) -> list[set[int]]:
        return adjacency_sets(self.n, self.edges)


def neighborhood(adj, members) -> frozenset[int]:
    """N(S): every vertex adjacent to some member of S."""
    return frozenset().union(*(adj[v] for v in members))


# Every Hall test b(S) - b(N(S)) goes through `_hall_row`, as an LP row, or
# `_hall_excess`, as a value under given weights.


def _hall_row(n: int, adj, members) -> list[int]:
    """Coefficients of b(S) - b(N(S)) over the n vertex weights."""
    row = [0] * n
    for v in members:
        row[v] += 1
    for v in neighborhood(adj, members):
        row[v] -= 1
    return row


def _hall_excess(members, hood, weight):
    """b(S) - b(N(S)) for S = members with neighbourhood hood, under the
    vertex weights in the mapping `weight` (absent vertices weigh 0),
    summed over S and N(S) only."""
    inside = sum(weight.get(v, 0) for v in members)
    return inside - sum(weight.get(v, 0) for v in hood)


def _between(g: Graph, u: int, vertices):
    """Pairs v < w of the sorted `vertices` with u on a shortest v-w path:
    the one betweenness test, run over all vertices by `auxiliary_graph`,
    over the radius-2 ball by `local_graph` and over a profile's support
    by `_support_pairing`."""
    d = g.dist
    return [
        (v, w)
        for i, v in enumerate(vertices)
        for w in vertices[i + 1:]
        if d[v][u] + d[u][w] == d[v][w]
    ]


def auxiliary_graph(g: Graph, u: int) -> AuxiliaryGraph:
    return AuxiliaryGraph(u, g.n, tuple(_between(g, u, range(g.n))))


# -- exact b-matchings on explicit edge lists ----------------------------------
#
# Edge lists may contain loops (a,a); a loop covers its vertex twice.


def _check_demand(n, demand) -> None:
    """Reject a demand on a vertex outside 0..n-1, or a negative one."""
    for v, k in demand.items():
        if v not in range(n):
            raise InputError(f"demand vertex {v} out of range 0..{n - 1}")
        if k < 0:
            raise InputError("demands must be nonnegative")


def perfect_b_matching(n, edges, demand, cap: int = B_MATCHING_NODE_CAP):
    """Backtracking search for an integral perfect b-matching.

    Returns the multiset of used edges as a sorted tuple, or None.  The
    search always extends the currently scarcest vertex, the one with the
    fewest options left, breaking ties by index, and never revisits a
    partner smaller than the previous choice for the same vertex.  It
    raises `BudgetError` when it would push more than `cap` search nodes
    (stack frames, the first one included, so a cap below 1 stops it at
    once), so time and memory stay bounded whatever the demand.

    Partners are listed among the demand's support only, each vertex's
    option count is kept up to date as demands move, and only the chosen
    vertex's option list is built.
    """
    _check_demand(n, demand)
    need = {v: k for v, k in demand.items() if k > 0}
    if sum(need.values()) % 2:
        return None
    if not need:
        return ()
    # partners[v]: the sorted possible partners of v among the demand's
    # support, v itself when it has a loop
    partners = {v: set() for v in need}
    for a, b in edges:
        if a in need and b in need:
            partners[a].add(b)
            partners[b].add(a)
    partners = {v: sorted(ws) for v, ws in partners.items()}
    # a partner w is an option for v while need[w] > 0, or need[w] > 1
    # for a loop (w == v); count[v] is the number of v's options
    count = {v: sum(need[w] > (w == v) for w in ws) for v, ws in partners.items()}

    def step(x, delta):  # need[x] moves by delta, +1 or -1
        before = need.get(x, 0)
        after = before + delta
        if after:
            need[x] = after
        else:
            del need[x]
        if (before > 0) != (after > 0):
            for y in partners[x]:
                if y != x:
                    count[y] += delta
        if (before > 1) != (after > 1) and x in partners[x]:
            count[x] += delta

    # Depth-first over an explicit stack, so deep searches cannot overflow
    # the interpreter stack; a frame is [vertex, options, next option], and
    # its pair is its vertex with the option tried last.
    stack = []
    nodes = 0

    def push(last_vertex, last_partner):  # every frame, the first too, counts
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise BudgetError(f"b-matching search exceeded cap {cap} nodes", count=nodes)
        v = min(need, key=lambda x: (count[x], x))
        lo = last_partner if v == last_vertex else -1
        opts = [w for w in partners[v] if w >= lo and need.get(w, 0) > (w == v)]
        stack.append([v, opts, 0])

    push(None, None)
    while stack:
        v, opts, i = top = stack[-1]
        if i:  # retract the option tried last
            w = opts[i - 1]
            step(v, 1)
            step(w, 1)
        if i == len(opts):
            stack.pop()
            continue
        w = opts[i]
        top[2] = i + 1
        step(v, -1)
        step(w, -1)
        if not need:
            return tuple(sorted(
                (min(x, o[k - 1]), max(x, o[k - 1])) for x, o, k in stack
            ))
        push(v, w)
    return None


def fractional_perfect_b_matching(n, edges, demand):
    """A fractional perfect b-matching on the edge list, as a dict from
    edge to positive Fraction weight, or None when there is none.  Each
    endpoint of an edge adds its weight to its vertex's degree, so a loop
    counts twice.

    Decided by an integral transportation flow on the bipartite double
    cover (Schrijver, Combinatorial Optimization, 2003).  Each vertex v
    with demand has a left copy v' with supply b(v) and a right copy v''
    with room b(v); an edge vw, used once per unordered pair and only
    between vertices with demand, becomes the arcs v'->w'' and w'->v'',
    and a loop at v the arc v'->v''.  The arcs have no capacity of their
    own: the supply at v' already bounds what any of them can carry.  A
    flow that places every supply gives the half-integral certificate
    x_vw = (f(v'w'') + f(w'v''))/2 and x_vv = f(v'v'')/2, and a fractional
    perfect b-matching x gives such a flow (x_vw on both arcs, 2x_vv on
    the loop's), so the two exist together.

    A greedy start lets each v' in turn push what it can to its w'' in
    edge-list order; `_augment` then places the rest along shortest
    augmenting paths, and the answer is None as soon as supply is left
    with no augmenting path.
    """
    _check_demand(n, demand)
    supply = {v: k for v, k in demand.items() if k}  # left at each v'
    room = dict(supply)  # left at each w''
    partners = {v: [] for v in supply}  # v'->w'' arcs; also the x' with x'->v''
    used = []  # the edges that can carry weight, each unordered pair once
    flow = {}  # f(v'w'') by arc (v, w)
    for a, b in edges:
        if a in supply and b in supply and b not in partners[a]:
            used.append((a, b))
            partners[a].append(b)
            if a != b:
                partners[b].append(a)
            flow[a, b] = flow[b, a] = 0
    for v, ws in partners.items():
        for w in ws:
            push = min(supply[v], room[w])
            if push:
                flow[v, w] = push
                supply[v] -= push
                room[w] -= push
    left = sum(supply.values())
    while left:
        push = _augment(partners, flow, supply, room)
        if not push:
            return None
        left -= push
    cert = {}
    for a, b in used:
        # a loop's one arc is read twice here
        if total := flow[a, b] + flow[b, a]:
            cert[(a, b)] = Fraction(total, 4 if a == b else 2)
    return cert


def _augment(partners, flow, supply, room):
    """Push flow along one shortest augmenting path of the transportation
    network and return the amount, or 0 when no path is left.

    The search is breadth first from every v' with supply left at once.
    It goes forward along any arc x'->w'' and back from w'' to x' only
    where f(x'w'') > 0, and stops at the first w'' with room left.  The
    path's bottleneck is the smallest of the source's supply, the room at
    its end and the flow on its backward arcs; forward arcs never bind.
    """
    # the w'' each reached x' came from (None at a source), and the x' each
    # reached w'' came from
    from_right = dict.fromkeys(v for v, k in supply.items() if k)
    from_left = {}
    queue = list(from_right)
    end = None
    for x in queue:
        for w in partners[x]:
            if w in from_left:
                continue
            from_left[w] = x
            if room[w]:
                end = w
                break
            for y in partners[w]:
                if y not in from_right and flow[y, w]:
                    from_right[y] = w
                    queue.append(y)
        if end is not None:
            break
    else:
        return 0
    x = from_left[end]
    forward, backward = [(x, end)], []
    while (w := from_right[x]) is not None:
        backward.append((x, w))
        x = from_left[w]
        forward.append((x, w))
    push = min(supply[x], room[end], *(flow[arc] for arc in backward))
    supply[x] -= push
    room[end] -= push
    for arc in forward:
        flow[arc] += push
    for arc in backward:
        flow[arc] -= push
    return push


@dataclass
class FractionalMatchingResult:
    feasible: bool
    certificate: dict | None = None
    disabling_set: frozenset | None = None


def has_fractional_perfect_b_matching(
    aux: AuxiliaryGraph, demand
) -> FractionalMatchingResult:
    """Decide feasibility on A_u; on failure produce a disabling stable set,
    the first stable set S in `stable_sets` order with b(S) > b(N(S)).  No
    LP runs: the max-flow decides."""
    demand = dict(demand)
    edges = list(aux.edges) + [(aux.base, aux.base)]
    cert = fractional_perfect_b_matching(aux.n, edges, demand)
    if cert is not None:
        return FractionalMatchingResult(True, certificate=cert)
    adj = aux.adjacency()
    for s in stable_sets(aux.n, adj, exclude=(aux.base,)):
        if _hall_excess(s, neighborhood(adj, s), demand) > 0:
            return FractionalMatchingResult(False, disabling_set=s)
    raise RuntimeError("infeasible b-matching without disabling stable set")


# -- pairings ------------------------------------------------------------------


def has_perfect_pi_matching(
    aux: AuxiliaryGraph, profile: Profile, cap: int = B_MATCHING_NODE_CAP
):
    """Integral perfect profile-matching on A_u, as a Pairing, or None."""
    if not profile.is_even:
        raise InputError("profile must have even total multiplicity")
    edges = list(aux.edges) + [(aux.base, aux.base)]
    hit = perfect_b_matching(aux.n, edges, dict(profile.counts), cap)
    if hit is None:
        return None
    return Pairing.from_pairs(hit)


def has_perfect_pairing(g: Graph, profile: Profile, cap: int = B_MATCHING_NODE_CAP):
    """A pairing of the profile whose cost reaches min F, plus the median
    vertex witnessing it, or None.

    Testing a single median suffices: a perfect pairing forces equality of
    weak duality at every median, so either every median works or none does.
    No pairing costs more than min F, so the maximum pairing cost of the
    profile equals min F exactly when this returns a pairing.
    """
    if not profile.counts:
        raise InputError("profile must be nonempty")
    if not profile.is_even:
        raise InputError("profile must have even total multiplicity")
    u = min(median_set(g, profile))
    pairing = _support_pairing(g, u, profile, cap)
    if pairing is None:
        return None
    return pairing, u


def _support_pairing(g: Graph, u: int, profile: Profile, cap: int = B_MATCHING_NODE_CAP):
    """`has_perfect_pi_matching` on A_u, built only on u and the profile's
    support: `perfect_b_matching` reads no edge at a vertex without
    demand, so the pairing is the same, and A_u's O(n^2) pairs are never
    listed."""
    vertices = sorted({v for v, _ in profile.counts} | {u})
    hit = perfect_b_matching(g.n, _between(g, u, vertices) + [(u, u)], dict(profile.counts), cap)
    return None if hit is None else Pairing.from_pairs(hit)


def pairing_property_bounded_search(
    g: Graph, max_support: int, max_mult: int
):
    """First even profile within budget with no perfect pairing, or None.

    As in `has_perfect_pairing`, each profile is tested at its least median
    vertex, the first index where f is least, read with `min` and `index`
    on the packed f-vector the sweep yields, and on the edges of its
    auxiliary graph within the profile's support (`_support_pairing`).

    Only profiles on orbit-least supports under Aut(G) are tested.  The
    first failing profile P has one: if an automorphism s maps its support
    S below S, then s(P) also fails and comes before P."""
    sweep = profile_sweep(g, max_support, max_mult, even_only=True, group=g.automorphisms)
    for profile, f in sweep:
        if _support_pairing(g, f.index(min(f)), profile) is None:
            return profile
    return None


# -- the Me(u) / Ma(u) polytopes ------------------------------------------------


def me_polytope(g: Graph, u: int) -> RationalLinearSystem:
    """Weight functions b >= 0 with u a median of b:
    sum_w b(w) (d(v,w) - d(u,w)) >= 0 for every vertex v."""
    system = RationalLinearSystem(g.n)
    d = g.dist
    for v in range(g.n):
        system.add([d[v][w] - d[u][w] for w in range(g.n)], GE, 0)
    return system


@dataclass
class MaViolation:
    stable_set: frozenset[int]
    point: tuple[Fraction, ...]
    optimum: Fraction


def ma_violation_search(g: Graph, u: int, cap: int = STABLE_SET_CAP):
    """Search for a stable set of A_u whose Hall constraint cuts into Me(u).

    For each stable set S the exact LP minimizes b(N(S)) - b(S) over the
    slice of Me(u) with total weight 1; a negative optimum exhibits a
    weight function proving Ma(u) != Me(u).  The slice is built once per u,
    its phase 1 runs once, and each S starts phase 2 where the previous S
    ended; the first S with a negative optimum is solved again from the
    phase-1 tableau, so its point is the one a fresh solve gives.
    """
    aux = auxiliary_graph(g, u)
    adj = aux.adjacency()
    system = me_polytope(g, u)
    system.add([1] * g.n, EQ, 1)
    sets = stable_sets(aux.n, adj, exclude=(aux.base,), cap=cap)
    for s, result in _hall_minima(system, adj, sets):
        if result.status != "optimal":
            raise RuntimeError(f"Me(u) slice LP ended {result.status}")
        if result.value < 0:
            return MaViolation(s, result.point, result.value)
    return None


def _hall_minima(system, adj, sets):
    """Pairs (S, minimum of b(N(S)) - b(S) over `system`) for the stable
    sets S of `sets`, from `RationalLinearSystem.minimize_warm`.  The sets
    are read lazily, so a cap on them and an early exit both hold."""
    sets, walk = tee(sets)
    objectives = ([-c for c in _hall_row(system.num_vars, adj, s)] for s in walk)
    return zip(sets, system.minimize_warm(objectives))


def scale_to_even_profile(point) -> Profile:
    """Clear denominators and double, turning a rational weight vector into
    an even integral profile."""
    scale = 2 * lcm(*(x.denominator for x in point), 1)
    return Profile.from_counts({v: int(x * scale) for v, x in enumerate(point) if x})


@dataclass
class DoublePairingResult(Report):
    holds: bool
    vertex: int | None = None
    stable_set: frozenset[int] | None = None
    witness: Profile | None = None


def double_pairing_property(g: Graph, cap: int = STABLE_SET_CAP) -> DoublePairingResult:
    """True iff Ma(u) = Me(u) at every vertex.

    On failure the violating rational point is scaled to an even integral
    profile pi with u in Med(pi) and no fractional perfect pi-matching in
    A_u, so pi^2 has no perfect pairing.

    Only vertices least in their orbit under Aut(G) are checked, in
    increasing order (`_orbit_least_vertices`); the first failing vertex is
    least in its orbit, so it is still the one reported.
    """
    for u in _orbit_least_vertices(g):
        violation = ma_violation_search(g, u, cap=cap)
        if violation is not None:
            witness = scale_to_even_profile(violation.point)
            return DoublePairingResult(False, u, violation.stable_set, witness)
    return DoublePairingResult(True)


def _orbit_least_vertices(g: Graph):
    """Vertex 0, then every other vertex least in its orbit under Aut(G), in
    increasing order.  The group is computed only once a second vertex is
    asked for."""
    yield 0
    supports = orbit_minima(g.n, [(v,) for v in g.vertices()], g.automorphisms())
    yield from (v for (v,) in supports[1:])


# -- local graphs and the matching-stable-set property ---------------------------


@dataclass
class LocalGraph:
    """The radius-2 ball around a base vertex with betweenness adjacency."""

    graph: Graph
    vertices: tuple[int, ...]  # original labels, sorted
    base: int  # index of the base vertex inside `vertices`


def local_graph(g: Graph, u: int) -> LocalGraph:
    members = sorted(g.ball(u, 2))
    index = {v: i for i, v in enumerate(members)}
    edges = [(index[v], index[w]) for v, w in _between(g, u, members)]
    return LocalGraph(Graph(len(members), edges), tuple(members), index[u])


@dataclass
class MatchingStableSetResult(Report):
    holds: bool
    variant: str
    witness: Profile | None = None
    stable_set: frozenset[int] | None = None


def matching_stable_set_check(
    g: Graph,
    variant: str,
    max_support: int | None = None,
    max_mult: int | None = None,
    cap: int = STABLE_SET_CAP,
) -> MatchingStableSetResult:
    """Check the (double-)matching-stable-set property of a graph.

    The double variant is decided exactly: a stable set S is a witness when
    some weight vector violates Hall at S (b(S) >= b(N(S)) + 1) while every
    vertex and every maximal stable set stays within its neighborhood
    weight.  Those escape rows are homogeneous, so S is a witness exactly
    when hall(S) = b(S) - b(N(S)) has a positive maximum over the one
    polytope {escape rows <= 0, sum of b = 1, b >= 0}; the stable sets are
    walked over it with warm-started phase 2s, and only the first witness
    is solved again in the per-S form above, whose feasible point scales to
    an even integral counterexample profile.  The single variant is a
    bounded exhaustive search over even profiles.
    """
    if variant not in ("double", "single"):
        raise InputError(f"unknown variant {variant!r}")
    if variant == "single" and (max_support is None or max_mult is None):
        raise InputError("single variant needs a profile budget")
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    # a profile escapes through any vertex or maximal stable set whose
    # weight exceeds its neighborhood's
    escapes = [(z,) for z in range(g.n)] + maximal_stable_sets(g.n, adj)
    if variant == "double":
        # no escape may work, and these rows are the same for every S
        cone = RationalLinearSystem(g.n)
        for t in escapes:
            cone.add(_hall_row(g.n, adj, t), LE, 0)
        bounds = list(cone.constraints)
        cone.add([1] * g.n, EQ, 1)
        for s, result in _hall_minima(cone, adj, stable_sets(g.n, adj, cap=cap)):
            if result.feasible and result.value < 0:
                system = RationalLinearSystem(g.n)
                system.add(_hall_row(g.n, adj, s), GE, 1)
                system.constraints += bounds
                witness = scale_to_even_profile(system.solve().point)
                return MatchingStableSetResult(False, variant, witness, s)
        return MatchingStableSetResult(True, variant)
    # each escape set's neighbourhood once per graph, not once per profile
    hoods = [(t, neighborhood(adj, t)) for t in escapes]
    for profile in canonical_profiles(
        g.n, max_support, max_mult, even_only=True, cap=cap
    ):
        demand = dict(profile.counts)
        escaped = any(_hall_excess(t, hood, demand) > 0 for t, hood in hoods)
        if not escaped and perfect_b_matching(g.n, g.edges(), demand) is None:
            return MatchingStableSetResult(False, variant, profile)
    return MatchingStableSetResult(True, variant)
