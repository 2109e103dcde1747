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
        return any(
            d[v][x] == 1 and d[w][x] == 1 and d[u][x] == k - 1 for x in range(n)
        )

    tc_bad = next(
        (
            (u, v, w)
            for u in range(n)
            for v in range(n)
            for w in range(v + 1, n)
            if d[v][w] == 1 and d[u][v] == d[u][w] >= 2
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
            for z in range(n)
            if d[v][z] == 1 and d[w][z] == 1 and d[u][z] == d[u][v] + 1
        ),
        None,
    )
    witnesses = {}
    if tc_bad is not None:
        witnesses["tc"] = tc_bad
    if qc_bad is not None:
        witnesses["qc"] = qc_bad
    return tc_bad is None, qc_bad is None, witnesses


def _triple_interval(g: Graph, x, y, z):
    return g.interval(x, y) & g.interval(y, z) & g.interval(z, x)


def is_modular(g: Graph, witness: list | None = None) -> bool:
    """Every vertex triple has a median (nonempty triple interval meet)."""
    for x, y, z in combinations(range(g.n), 3):
        if not _triple_interval(g, x, y, z):
            if witness is not None:
                witness.append((x, y, z))
            return False
    return True


def is_median_graph(g: Graph, witness: list | None = None) -> bool:
    """Every vertex triple has exactly one median."""
    for x in range(g.n):
        for y in range(x, g.n):
            for z in range(y, g.n):
                meet = _triple_interval(g, x, y, z)
                if len(meet) != 1:
                    if witness is not None:
                        witness.append((x, y, z))
                    return False
    return True


def hypergraph_helly_by_triples(ground: range | list, edges: list[frozenset]):
    """Berge triple criterion on an explicit set family.

    Returns (holds, witness); the witness is the index list of a pairwise
    intersecting subfamily with empty overall intersection.
    """
    universe = sorted(set(ground))
    for a, b, c in combinations(universe, 3):
        probe = {a, b, c}
        picked = [i for i, e in enumerate(edges) if len(e & probe) >= 2]
        if not picked:
            continue
        meet = set(edges[picked[0]])
        for i in picked[1:]:
            meet &= edges[i]
            if not meet:
                break
        if not meet:
            return False, tuple(picked)
    return True, None


def _ball_family(g: Graph) -> list[frozenset]:
    diam = g.diameter
    return [g.ball(v, r) for v in range(g.n) for r in range(diam + 1)]


def is_helly(g: Graph, witness: list | None = None) -> bool:
    """The family of balls has the Helly property (triple criterion)."""
    holds, why = hypergraph_helly_by_triples(range(g.n), _ball_family(g))
    if not holds and witness is not None:
        witness.append(why)
    return holds


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
    holds, why = hypergraph_helly_by_triples(range(g.n), family)
    if not holds and witness is not None:
        witness.append(why)
    return holds


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
        if witness is not None:
            witness.append(why)
        return False
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
                if witness is not None:
                    witness.append((u, v))
                return False
    return True


def is_bipartite_helly(
    g: Graph, witness: list | None = None, modular: tuple | None = None
) -> bool:
    """Decide bipartite Hellyness two independent ways and insist they agree.

    `modular` passes a known `is_modular` verdict on to the interval
    condition, as (holds, witness)."""
    if not g.is_bipartite:
        if witness is not None:
            witness.append("not bipartite")
        return False
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
    d = g.dist
    for u in range(g.n):
        for v in range(g.n):
            for w in range(v + 1, g.n):
                if d[v][w] != 2:
                    continue
                if not any(
                    d[v][x] == 1 and d[w][x] == 1 and 2 * d[u][x] <= d[u][v] + d[u][w]
                    for x in range(g.n)
                ):
                    if witness is not None:
                        witness.append((u, v, w))
                    return False
    return True


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
