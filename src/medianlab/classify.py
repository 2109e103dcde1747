"""Exact recognizers for the graph classes used throughout the library.

Every `False` flag comes with a witness tuple that re-checks as a violation,
and witnesses are minimal-lexicographic so test expectations stay stable.

Verdicts are read off the distance table through local characterizations
(Bandelt & Chepoi, "Metric graph theory and geometry: a survey", 2008): a
graph is modular iff it is bipartite and satisfies the quadrangle
condition, and a modular graph is median iff no two vertices at distance 2
have three common neighbours (an induced K_{2,3}).  A scan over vertex
triples runs only to name the witness of a flag that fails, and only when
that witness is asked for.

Five verdicts are implied and not scanned for.  All but the first are
read in the private cores or in the record described below, so every
public recognizer sees them:

- a weakly modular graph is meshed (Bandelt & Chepoi 2008; Chalopin,
  Chepoi, Hirai & Osajda, "Weakly modular graphs and nonpositive
  curvature", Mem. AMS 2020), so `classify` runs the meshed scan only when
  the triangle or the quadrangle condition fails; `is_meshed` keeps its
  direct scan, since reading the implied verdict would run the tc scan and
  the layer pass first, which costs about as much as the scan it saves;
- a tree is Helly: its balls are subtrees, and subtrees of a tree have the
  Helly property, so the ball scan runs only on graphs with a cycle;
- a bipartite graph satisfies the triangle condition: an edge joins two
  distance layers of every source, so the tc premise never holds there;
- a tree is a median graph, is meshed and satisfies the long-interval
  condition: no two of its vertices have two common neighbours and every
  fan has one member, so on a tree no recognizer runs a layer pass or
  builds a list of pairs at distance 2 (`_Scans.pairs`);
- on a modular graph, a fan of one or two members satisfies the
  long-interval condition: one member has a neighbour one layer closer to
  the source, and two members have a common one there by qc, so only
  fans of three or more members are probed.

The Berge triple scans, on balls and on half-balls, skip every ground
triple whose first element shares no member with one of the other two.
When two elements of a triple share no member, every member holding two
of its elements holds the third, so the third element's mask covers them
and the triple cannot fail.  On a bipartite graph no half-ball meets both
sides, so the half-ball self-check walks about a quarter of the triples.

The quadrangle condition and the long-interval condition are tested in
one pass over the sources, on bit masks.  For each source u, `_layers`
gives one int per distance k whose bit x is set iff d(u,x) = k; the
common neighbours of a pair at distance 2, and the neighbourhoods, are
masks built once per pass.  A probe is then one AND: a common neighbour
one step closer to u is `common & layers[k - 1]`, and the second common
neighbour of a fan lies in `layers[k - 2]` ANDed with the neighbourhood of
every fan member.  The qc probes of a source run first and the pass ends
at the first qc violation; the long-interval probes run only on a
bipartite graph and only until their first violation.  The loops keep
their order, so verdicts and witnesses are those of two scans one vertex
at a time.

The triple walk (`_median_counts`) packs each distance row once per walk
into one int with a field of 8 bits per vertex up to 43 vertices and of
16 bits beyond, so a triple's median count is one addition of three ints
and a popcount of the fields of the sum equal to half the perimeter.  The
fields are wide enough that no carry crosses one, so the count is exact.

Each scan has one private core that returns its first violation, or
None.  The scans that several verdicts share (the list of pairs at
distance 2, the layer pass and the triple walk) and the rules that
combine them (weakly modular = tc and qc; modular = bipartite and qc;
median = modular and no K_{2,3}; the interval condition = modular and no
long-interval violation; bipartite Helly = the interval condition,
checked against the half-ball test) are written once, as members of one
private record, `_Scans`.  `classify`, `check_conditions_tc_qc` and the
modular, median, interval-condition and bipartite Helly recognizers build
one record per call and read their verdicts off it, flags first;
`is_meshed` takes only the pair list.  A witness is read only when its
flag fails and it is asked for: by `classify`, or by a recognizer given a
witness list.  The triple walk runs at most once per record: it stops at
the first triple without exactly one median, the median witness, and
goes on to the first triple without a median, the modular witness, only
when that is read.  A member runs on its first read and is kept until
the call returns, so a scan runs at most once per call, and only when
some verdict or witness reads it: a graph that is not bipartite and
fails tc runs no layer pass, and a recognizer without a witness list
walks no triples.  The graph stores nothing.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property

from .graph import Graph
from .report import Report


@dataclass
class ClassReport(Report):
    bipartite: bool
    weakly_modular: bool
    modular: bool
    median: bool
    helly: bool
    bipartite_helly: bool
    meshed: bool
    witnesses: dict = field(default_factory=dict)


def _two_apart(g: Graph) -> list[tuple[int, int, list[int]]]:
    """(v, w, common neighbours) for every pair v < w at distance 2, in
    lexicographic order; the common neighbours ascend.  The qc and meshed
    cores take this list as an argument and the median rule reads it (the
    K_{2,3} test), so one list serves all three."""
    adj = g.adj
    pairs = []
    for v, dv in enumerate(g.dist):
        common: dict[int, list[int]] = {}
        for x in adj[v]:
            for w in adj[x]:
                if w > v and dv[w] == 2:
                    common.setdefault(w, []).append(x)
        pairs += [(v, w, common[w]) for w in sorted(common)]
    return pairs


def _layers(du) -> list[int]:
    """The distance layers of one source u as bit masks: bit x of entry k
    is set iff d(u,x) = k, with one empty layer past the last distance."""
    layers = [0] * (max(du) + 2)
    for x, k in enumerate(du):
        layers[k] |= 1 << x
    return layers


def _is_tree(g: Graph) -> bool:
    """A connected graph with n - 1 edges is a tree."""
    return g.edge_count == g.n - 1


# list-based on purpose: a layer-mask version ran the scan 3x slower on
# grid:14,14, hypercube:6 and tree300, measured before bipartite graphs returned
# at once
def _first_tc_violation(g: Graph) -> tuple | None:
    """First (u, v, w) in lexicographic order with vw an edge, d(u,v) =
    d(u,w) >= 2 and no common neighbour of v and w one step closer to u.
    An edge of a bipartite graph joins two layers of every source, so the
    premise never holds there."""
    if g.is_bipartite:
        return None
    d, adj = g.dist, g.adj
    return next(
        (
            (u, v, w)
            for u, du in enumerate(d)
            for v, w in g.edges()
            if du[v] == du[w] >= 2
            and not any(d[w][x] == 1 and du[x] == du[v] - 1 for x in adj[v])
        ),
        None,
    )


def _first_layer_violations(g: Graph, pairs) -> tuple:
    """(first qc violation, first long-interval violation) from one pass
    over the sources that builds the layers of each source once.

    A qc violation is (u, v, w, z) with (v, w, common) in the `_two_apart`
    list `pairs`, z a common neighbour one step farther from u than v and
    w, and no common neighbour one step closer; the pass returns at the
    first one in lexicographic order, with None as the second entry.

    On a bipartite graph the second entry is the first (u, v) with
    d(u,v) >= 3 whose fan, the neighbours of v inside I(u,v), has no second
    common neighbour there; it decides bipartite Hellyness only on a
    modular graph.  The second common neighbour lies in layer k-2 of u,
    k = d(u,v), and is adjacent to the fan, so it is also at distance 2
    from v.  Only fans of three or more members are probed: one member has
    a neighbour in layer k-2, and two members, being at distance 2, have
    one by qc, which holds wherever the entry is read.  On a graph that is
    not bipartite the entry is None.

    A tree is a median graph, so on a tree both entries are None at once.
    """
    if _is_tree(g):
        return None, None
    adj = g.adj
    commons = [(v, w, sum(1 << x for x in common)) for v, w, common in pairs]
    nbr = [sum(1 << x for x in row) for row in adj]
    long_interval = None
    for u, du in enumerate(g.dist):
        layers = _layers(du)
        for v, w, common in commons:
            k = du[v]
            if k >= 2 and du[w] == k and not common & layers[k - 1]:
                farther = common & layers[k + 1]
                if farther:
                    return (u, v, w, (farther & -farther).bit_length() - 1), None
        if long_interval is not None or not g.is_bipartite:
            continue
        for v, k in enumerate(du):
            if k < 3:
                continue
            fan = nbr[v] & layers[k - 1]
            rest = fan & (fan - 1)  # the fan without its lowest member
            if not rest & (rest - 1):  # one or two members
                continue
            meet = layers[k - 2]
            for w in adj[v]:
                if fan >> w & 1:
                    meet &= nbr[w]
            if not meet:
                long_interval = u, v
                break
    return None, long_interval


def _packed_rows(d, bits: int) -> list[int]:
    """The distance rows `d` as ints with one field of `bits` bits (8 or
    16) per vertex: field v of row u holds d(u,v).  8-bit fields are the
    bytes of a `bytes` row read little-endian.  A `bytes` row is widened to
    16-bit fields by writing its entries to the even bytes of a zeroed
    buffer, read little-endian (`array("H", row)` would read each two bytes
    as one entry); an `array('H')` row is read through `tobytes()` in the
    machine's byte order, so each field holds its entry, though on a
    big-endian machine the fields run from the top."""
    if bits == 8:
        return [int.from_bytes(row, "little") for row in d]
    if isinstance(d[0], array):
        return [int.from_bytes(row.tobytes(), sys.byteorder) for row in d]
    wide, rows = bytearray(2 * len(d)), []
    for row in d:
        wide[::2] = row
        rows.append(int.from_bytes(wide, "little"))
    return rows


def _median_counts(g: Graph):
    """Each triple x < y < z in lexicographic order with its number of
    medians.  m is a median exactly when d(x,m) + d(y,m) + d(z,m) is half
    the perimeter d(x,y) + d(y,z) + d(x,z): the three triangle inequalities
    such as d(x,m) + d(m,y) >= d(x,y) are then tight.

    The rows are packed once per walk (`_packed_rows`), so the three sums
    of a triple are one int addition, and the medians are the fields of
    the sum equal to half the perimeter.  An odd perimeter has no half, so
    no median.  The fields are counted in the sum XOR the half in every
    field: a field is zero there iff it held the half.  The fields are 8
    bits wide up to 43 vertices and 16 bits wide beyond, so a field of the
    sum, at most 3 diam <= 3 (n - 1), is below 2^7 or below 2^13, below
    half its range; so are the half and the XOR of the two.  Adding
    2^(bits-1) - 1 to such a field sets its top bit iff it is not zero,
    without a carry out of the field.  The count is n minus the set top
    bits, exact, and blind to the order of the fields.
    """
    d, n = g.dist, g.n
    bits = 8 if n <= 43 else 16
    rows = _packed_rows(d, bits)
    ones = ((1 << bits * n) - 1) // ((1 << bits) - 1)  # 1 in every field
    top = 1 << bits - 1
    low, high = (top - 1) * ones, top * ones
    for x in range(n):
        dx, rx = d[x], rows[x]
        for y in range(x + 1, n):
            dy, dxy, rxy = d[y], dx[y], rx + rows[y]
            for z in range(y + 1, n):
                perimeter = dxy + dy[z] + dx[z]
                if perimeter & 1:
                    yield (x, y, z), 0
                else:
                    v = (rxy + rows[z]) ^ (perimeter >> 1) * ones
                    yield (x, y, z), n - ((v + low) & high).bit_count()


class _Scans:
    """The scans of one graph that several verdicts share, and the rules
    that combine them.  Each member runs on its first read and lives as
    long as the record, which is built per call (module docstring).  The
    flags `modular`, `median`, `interval` and `bipartite_helly` read the
    pair list and the layer pass and never walk the triples.  Each flag's
    `*_violation` member is its first violation and is read only when the
    flag fails (`violation`); `weakly_modular_violation`, which has no
    flag, is None when tc and qc hold."""

    def __init__(self, g: Graph):
        self.g = g

    @cached_property
    def pairs(self) -> list[tuple[int, int, list[int]]]:
        """The `_two_apart` list, or [] on a tree, where no scan of the list
        finds a violation: a tree is a median graph and is meshed."""
        return [] if _is_tree(self.g) else _two_apart(self.g)

    @cached_property
    def layer_pass(self) -> tuple:
        """(first qc violation, first long-interval violation)."""
        return _first_layer_violations(self.g, self.pairs)

    @cached_property
    def modular(self) -> bool:
        """Bipartite with no qc violation, so the layer pass runs only on a
        bipartite graph."""
        return self.g.is_bipartite and self.layer_pass[0] is None

    @cached_property
    def median(self) -> bool:
        """Modular with no induced K_{2,3}: no two vertices at distance 2
        have three common neighbours."""
        return self.modular and all(len(common) < 3 for _, _, common in self.pairs)

    @cached_property
    def interval(self) -> bool:
        """Modular with no long-interval violation."""
        return self.modular and self.layer_pass[1] is None

    @cached_property
    def bipartite_helly(self) -> bool:
        """The interval condition.  On a bipartite graph the half-ball test
        must agree with it, or RuntimeError is raised: the half-ball scan
        runs on every bipartite graph, as this self-check."""
        holds = self.interval
        if self.g.is_bipartite and bipartite_helly_via_half_balls(self.g) != holds:
            raise RuntimeError("bipartite Helly procedures disagree: half-balls="
                               f"{not holds} interval-condition={holds}")
        return holds

    @cached_property
    def walk(self) -> tuple:
        """The triple walk of a graph that is not median, stopped at its
        first triple without exactly one median: ((that triple, its number
        of medians), the rest of the walk)."""
        walk = _median_counts(self.g)
        return next((t, m) for t, m in walk if m != 1), walk

    @cached_property
    def weakly_modular_violation(self) -> tuple | None:
        """The tc violation, else the qc one: the layer pass runs only when
        tc holds."""
        return _first_tc_violation(self.g) or self.layer_pass[0]

    def violation(self, flag: str) -> tuple | str | None:
        """None when the flag named `flag` holds, else its violation."""
        return None if getattr(self, flag) else getattr(self, flag + "_violation")

    @property
    def median_violation(self) -> tuple:
        return self.walk[0][0]

    @cached_property
    def modular_violation(self) -> tuple:
        """A triple without a median has no unique one either, so it comes
        no earlier than the median witness: the walk goes on from there."""
        (triple, medians), rest = self.walk
        return triple if not medians else next(t for t, m in rest if not m)

    @property
    def interval_violation(self) -> tuple:
        """The interval condition fails first at a long interval of a
        modular graph, and otherwise at the triple without a median."""
        return self.layer_pass[1] if self.modular else self.modular_violation

    @property
    def bipartite_helly_violation(self) -> tuple | str:
        """The interval-condition violation, or the reason "not bipartite"."""
        return self.interval_violation if self.g.is_bipartite else "not bipartite"


def check_conditions_tc_qc(g: Graph):
    """Scan the triangle and quadrangle condition premises, each up to its
    first violation.

    Returns (tc_holds, qc_holds, witnesses) where witnesses maps 'tc'/'qc'
    to the first violating vertex tuple in lexicographic order.
    """
    found = {"tc": _first_tc_violation(g), "qc": _Scans(g).layer_pass[0]}
    witnesses = {key: why for key, why in found.items() if why is not None}
    return found["tc"] is None, found["qc"] is None, witnesses


def _holds(witness: list | None, found) -> bool:
    """True when no violation was `found`; else record it in `witness`."""
    if found is not None and witness is not None:
        witness.append(found)
    return found is None


def _recognize(g: Graph, flag: str, witness: list | None) -> bool:
    """The `_Scans` flag named `flag`; its violation is read, and recorded
    in `witness`, only when the flag fails and a list was passed."""
    scans = _Scans(g)
    return getattr(scans, flag) if witness is None else _holds(witness, scans.violation(flag))


def is_modular(g: Graph, witness: list | None = None) -> bool:
    """Every vertex triple has a median: the graph is bipartite and satisfies
    the quadrangle condition.  The witness is the first triple without one."""
    return _recognize(g, "modular", witness)


def is_median_graph(g: Graph, witness: list | None = None) -> bool:
    """Every vertex triple has exactly one median: the graph is modular and
    no two vertices at distance 2 have three common neighbours.  The witness
    is the first distinct triple with no or several medians; a triple with a
    repeated vertex always has exactly one.
    """
    return _recognize(g, "median", witness)


def _berge_failure(ground_masks: list[int], masks) -> tuple | None:
    """The Berge triple criterion on element-to-member incidence masks.

    `ground_masks` holds the masks of the ground elements in order and
    `masks` those of every element.  A ground triple picks the members
    holding two or more of its elements (`ma & mb | ma & mc | mb & mc`);
    their meet is empty when no element's mask covers the picked mask.
    Covers are tried in the order: the previous triple's, the last one
    found for the same third element, then the elements of the lowest
    picked member.  Returns the picked member indices of the first triple
    without one, or None.

    Only triples whose first element shares a member with each of the
    other two are scanned.  When two elements of a triple share no member,
    every picked member holds the third, whose own mask then covers the
    picked mask, so the skipped triples never fail.
    """
    covers = {}  # lowest picked member -> the elements it holds
    last = 0  # the element that covered the previous triple
    hint = [0] * len(ground_masks)  # hint[k]: the last cover found with c = k
    for i, ma in enumerate(ground_masks):
        meeting = [k for k in range(i + 1, len(ground_masks)) if ground_masks[k] & ma]
        for at, j in enumerate(meeting):
            mb = ground_masks[j]
            both, either = ma & mb, ma | mb
            for k in meeting[at + 1 :]:
                picked = both | either & ground_masks[k]
                if not picked or last & picked == picked:
                    continue
                last = hint[k]
                if last & picked == picked:
                    continue
                low = (picked & -picked).bit_length() - 1
                held = covers.get(low)
                if held is None:
                    held = covers[low] = [m for m in masks if m >> low & 1]
                last = hint[k] = next((m for m in held if m & picked == picked), 0)
                if not last:
                    return tuple(e for e in range(picked.bit_length()) if picked >> e & 1)
    return None


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
    ground_masks = [masks.get(x, 0) for x in sorted(set(ground))]
    why = _berge_failure(ground_masks, list(masks.values()))
    return why is None, why


def _first_column_failure(g: Graph, block: list[str]) -> tuple | None:
    """The Berge triple criterion on a family with one block of members per
    vertex, its incidence masks read off the distance columns: bits
    v*w .. v*w + w - 1 of the mask of x are `block[d(v,x)]`, a binary
    string of width w, most significant bit first.  There is one block per
    distance, shared by every vertex."""
    masks = [int("".join(map(block.__getitem__, reversed(g.dist[x]))), 2) for x in range(g.n)]
    return _berge_failure(masks, masks)


def _first_ball_failure(g: Graph) -> tuple | None:
    """Berge failure of the ball family: ball (v, r) is member
    v*(diam+1) + r and holds x iff d(v,x) <= r.  A connected graph with
    n - 1 edges is a tree, whose balls are subtrees, so it has none."""
    if _is_tree(g):
        return None
    diam = g.diameter
    # bit r is set when a ball of radius r reaches distance k
    block = ["1" * (diam + 1 - k) + "0" * k for k in range(diam + 1)]
    return _first_column_failure(g, block)


def _first_meshed_violation(g: Graph, pairs) -> tuple | None:
    """First (u, v, w) with (v, w, common) in `pairs` and no common
    neighbour x with 2 d(u,x) <= d(u,v) + d(u,w)."""
    return next(
        (
            (u, v, w)
            for u, du in enumerate(g.dist)
            for v, w, common in pairs
            if not any(2 * du[x] <= du[v] + du[w] for x in common)
        ),
        None,
    )


def is_helly(g: Graph, witness: list | None = None) -> bool:
    """The family of balls has the Helly property (triple criterion)."""
    return _holds(witness, _first_ball_failure(g))


def bipartite_helly_via_half_balls(g: Graph, witness: list | None = None) -> bool:
    """Half-ball family Helly test; empty half-balls are dropped.

    The nonempty half-balls keep the order v, r, side (the side holding
    vertex 0 first).  Ball (v, 0) = {v} leaves one and every r >= 1 leaves
    two, so member v*(2 diam + 1) holds v alone and member
    v*(2 diam + 1) + 2r - 1 + side holds the vertices of that side within
    distance r of v.

    The side at distance parity r from v has no vertex at distance r + 1,
    so its half-balls of radii r and r + 1 are one set.  The scan runs on
    one member per radius, (v, r) = {x : d(v,x) <= r and d(v,x) = r mod 2},
    and names both half-balls of each picked member in its witness.  Its
    masks are therefore as wide as those of the ball scan.
    """
    cls0, _ = g.bipartition()
    diam = g.diameter
    # bit r is set when r >= k and r - k is even
    block = [
        "".join("1" if r >= k and (r - k) % 2 == 0 else "0" for r in range(diam, -1, -1))
        for k in range(diam + 1)
    ]
    found = _first_column_failure(g, block)
    if found is not None and witness is not None:
        # a picked member holds two vertices, so r >= 1; its side is v's
        # for r even and the other side for r odd
        width = 2 * diam + 1
        halves = []
        for m in found:
            v, r = divmod(m, diam + 1)
            first = v * width + 2 * r - 1 + ((v not in cls0) ^ r % 2)
            halves += [first, first + 2] if r < diam else [first]
        found = tuple(sorted(halves))
    return _holds(witness, found)


def bipartite_helly_via_interval_condition(g: Graph, witness: list | None = None) -> bool:
    """Modularity plus the long-interval condition: for d(u,v) >= 3 the
    neighbors of v inside I(u,v) must have a second common neighbor there."""
    return _recognize(g, "interval", witness)


def is_bipartite_helly(g: Graph, witness: list | None = None) -> bool:
    """Decide bipartite Hellyness two independent ways and insist they agree."""
    return _recognize(g, "bipartite_helly", witness)


def is_meshed(g: Graph, witness: list | None = None) -> bool:
    """For every u and 2-pair (v,w), some common neighbor x of v,w has
    2 d(u,x) <= d(u,v) + d(u,w).  The scan runs directly: reading the
    implied verdict would run the tc scan and the layer pass first."""
    return _holds(witness, _first_meshed_violation(g, _Scans(g).pairs))


def classify(g: Graph) -> ClassReport:
    scans = _Scans(g)
    found = {
        "weakly_modular": scans.weakly_modular_violation,
        "median": scans.violation("median"),
        "modular": scans.violation("modular"),
        "helly": _first_ball_failure(g),
        "bipartite_helly": scans.violation("bipartite_helly"),
        # a weakly modular graph is meshed
        "meshed": scans.weakly_modular_violation and _first_meshed_violation(g, scans.pairs),
    }
    # a violation is a nonempty tuple or the "not bipartite" reason
    return ClassReport(
        bipartite=g.is_bipartite,
        **{key: why is None for key, why in found.items()},
        witnesses={
            key: (why,) if isinstance(why, str) else why for key, why in found.items() if why
        },
    )
