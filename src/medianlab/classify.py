"""Exact recognizers for the graph classes used throughout the library.

Every `False` flag comes with a witness tuple that re-checks as a violation,
and witnesses are minimal-lexicographic so test expectations stay stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations

from .graph import Graph


@dataclass
class ClassReport:
    bipartite: bool
    weakly_modular: bool
    modular: bool
    median: bool
    helly: bool
    bipartite_helly: bool
    meshed: bool
    witnesses: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "bipartite": self.bipartite,
            "weakly_modular": self.weakly_modular,
            "modular": self.modular,
            "median": self.median,
            "helly": self.helly,
            "bipartite_helly": self.bipartite_helly,
            "meshed": self.meshed,
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
        }


def check_conditions_tc_qc(g: Graph):
    """Scan the triangle and quadrangle condition premises exhaustively.

    Returns (tc_holds, qc_holds, witnesses) where witnesses maps 'tc'/'qc'
    to the first violating vertex tuple in lexicographic order.
    """
    d = g.dist
    n = g.n

    def closer_common_neighbor(u, v, w):
        k = d[u][v]
        return any(d[w][x] == 1 and d[u][x] == k - 1 for x in g.adj[v])

    tc_bad = next(
        (
            (u, v, w)
            for u in range(n)
            for v in range(n)
            for w in g.adj[v]
            if w > v and d[u][v] == d[u][w] >= 2
            and not closer_common_neighbor(u, v, w)
        ),
        None,
    )
    qc_bad = next(
        (
            (u, v, w, z)
            for u in range(n)
            for v in range(n)
            for w in range(v + 1, n)
            if d[v][w] == 2 and d[u][v] == d[u][w] >= 2
            and not closer_common_neighbor(u, v, w)
            for z in g.adj[v]
            if d[w][z] == 1 and d[u][z] == d[u][v] + 1
        ),
        None,
    )
    witnesses = {}
    if tc_bad is not None:
        witnesses["tc"] = tc_bad
    if qc_bad is not None:
        witnesses["qc"] = qc_bad
    return tc_bad is None, qc_bad is None, witnesses


def _first_triple(g: Graph, bad):
    """The lexicographically first triple x < y < z whose median count
    satisfies `bad`, or None.  m is a median exactly when d(x,m) + d(y,m) +
    d(z,m) is half the perimeter d(x,y) + d(y,z) + d(x,z): the three
    triangle inequalities such as d(x,m) + d(m,y) >= d(x,y) are then tight.
    """
    d = g.dist
    for x, y, z in combinations(range(g.n), 3):
        dx, dy, dz = d[x], d[y], d[z]
        perimeter = dx[y] + dy[z] + dx[z]
        if bad(sum(2 * (a + b + c) == perimeter for a, b, c in zip(dx, dy, dz))):
            return x, y, z
    return None


def _holds(witness: list | None, found) -> bool:
    """True when no violation was `found`; else record it in `witness`."""
    if found is not None and witness is not None:
        witness.append(found)
    return found is None


def is_modular(g: Graph, witness: list | None = None) -> bool:
    """Every vertex triple has a median (nonempty triple interval meet)."""
    return _holds(witness, _first_triple(g, lambda medians: medians == 0))


def is_median_graph(g: Graph, witness: list | None = None) -> bool:
    """Every vertex triple has exactly one median; a triple with a repeated
    vertex always has exactly one, so only distinct triples are scanned."""
    return _holds(witness, _first_triple(g, lambda medians: medians != 1))


def hypergraph_helly_by_triples(ground: range | list, edges: list[frozenset]):
    """Berge triple criterion on an explicit set family.

    Returns (holds, witness); the witness is the index list of a pairwise
    intersecting subfamily with empty overall intersection: the edges that
    hold two or more elements of the first failing ground triple.
    """
    # masks[x] has bit i set when the element x lies in edges[i]
    masks: dict = {}
    for i, e in enumerate(edges):
        for x in e:
            masks[x] = masks.get(x, 0) | 1 << i
    for a, b, c in combinations(sorted(set(ground)), 3):
        ma, mb, mc = masks.get(a, 0), masks.get(b, 0), masks.get(c, 0)
        picked = ma & mb | ma & mc | mb & mc
        if picked and not any(m & picked == picked for m in masks.values()):
            return False, tuple(i for i in range(len(edges)) if picked >> i & 1)
    return True, None


def _ball_family(g: Graph) -> list[frozenset]:
    diam = g.diameter
    return [g.ball(v, r) for v in range(g.n) for r in range(diam + 1)]


def is_helly(g: Graph, witness: list | None = None) -> bool:
    """The family of balls has the Helly property (triple criterion)."""
    _, why = hypergraph_helly_by_triples(range(g.n), _ball_family(g))
    return _holds(witness, why)


def bipartite_helly_via_half_balls(g: Graph, witness: list | None = None) -> bool:
    """Half-ball family Helly test; empty half-balls are dropped."""
    cls0, cls1 = g.bipartition()
    diam = g.diameter
    family = []
    for v in range(g.n):
        for r in range(diam + 1):
            ball = g.ball(v, r)
            for side in (cls0, cls1):
                half = ball & side
                if half:
                    family.append(half)
    _, why = hypergraph_helly_by_triples(range(g.n), family)
    return _holds(witness, why)


def bipartite_helly_via_interval_condition(
    g: Graph, witness: list | None = None, modular: tuple | None = None
) -> bool:
    """Modularity plus the long-interval condition: for d(u,v) >= 3 the
    neighbors of v inside I(u,v) must have a second common neighbor there.

    `modular` is an `is_modular` verdict already at hand, as (holds,
    witness); without it modularity is tested here.
    """
    if modular is None:
        buf: list = []
        modular = (is_modular(g, buf), buf[-1] if buf else None)
    holds, why = modular
    if not holds:
        return _holds(witness, why)
    d = g.dist
    for u in range(g.n):
        for v in range(g.n):
            if d[u][v] < 3:
                continue
            inter = g.interval(u, v)
            fan = [w for w in g.neighbors(v) if w in inter]
            if not any(
                x != v and all(d[w][x] == 1 for w in fan)
                for x in sorted(inter)
            ):
                return _holds(witness, (u, v))
    return True


def is_bipartite_helly(
    g: Graph, witness: list | None = None, modular: tuple | None = None
) -> bool:
    """Decide bipartite Hellyness two independent ways and insist they agree.

    `modular` passes a known `is_modular` verdict on to the interval
    condition, as (holds, witness)."""
    if not g.is_bipartite:
        return _holds(witness, "not bipartite")
    by_half_balls = bipartite_helly_via_half_balls(g)
    by_intervals = bipartite_helly_via_interval_condition(g, witness, modular)
    if by_half_balls != by_intervals:
        raise RuntimeError(
            f"bipartite Helly procedures disagree: half-balls={by_half_balls} "
            f"interval-condition={by_intervals}"
        )
    return by_intervals


def is_meshed(g: Graph, witness: list | None = None) -> bool:
    """For every u and 2-pair (v,w), some common neighbor x of v,w has
    2 d(u,x) <= d(u,v) + d(u,w)."""
    d, n = g.dist, g.n
    found = next(
        (
            (u, v, w)
            for u in range(n)
            for v in range(n)
            for w in range(v + 1, n)
            if d[v][w] == 2 and not any(
                d[w][x] == 1 and 2 * d[u][x] <= d[u][v] + d[u][w] for x in g.adj[v]
            )
        ),
        None,
    )
    return _holds(witness, found)


def classify(g: Graph) -> ClassReport:
    witnesses = {}
    tc, qc, tcqc_wit = check_conditions_tc_qc(g)
    if "tc" in tcqc_wit:
        witnesses["weakly_modular"] = tcqc_wit["tc"]
    elif "qc" in tcqc_wit:
        witnesses["weakly_modular"] = tcqc_wit["qc"]

    def record(key, test):
        """Run a recognizer, keeping its last witness when it fails."""
        buf: list = []
        holds = test(g, buf)
        if not holds:
            why = buf[-1]  # a tuple, or the string "not bipartite"
            witnesses[key] = (why,) if isinstance(why, str) else why
        return holds

    modular = record("modular", is_modular)
    median = record("median", is_median_graph)
    helly = record("helly", is_helly)
    known = (modular, witnesses.get("modular"))
    biphelly = record("bipartite_helly", partial(is_bipartite_helly, modular=known))
    meshed = record("meshed", is_meshed)

    return ClassReport(
        bipartite=g.is_bipartite,
        weakly_modular=tc and qc,
        modular=modular,
        median=median,
        helly=helly,
        bipartite_helly=biphelly,
        meshed=meshed,
        witnesses=witnesses,
    )
