"""Seeded input generators for the benchmark.

Everything here is plain Python on plain data (vertex counts, edge lists,
cell lists, profile strings); nothing imports medianlab, so generating an
input costs only what the benchmark itself does.  Each generator takes a
`random.Random`, so one (slot, variant) name always yields one input.
"""

from __future__ import annotations

import hashlib
import random


def rng_for(*parts) -> random.Random:
    """A generator seeded by a stable digest of `parts`, independent of the
    interpreter's hash randomisation."""
    digest = hashlib.sha256("/".join(map(str, parts)).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _relabel(rng: random.Random, n: int, edges):
    """The edge list under a random permutation of the vertices, sorted."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges)


def random_tree(rng: random.Random, n: int, diameter: int | None = None):
    """Random recursive tree on n vertices with shuffled labels; with
    `diameter`, drawn again until its diameter is that value."""
    while True:
        edges = [(i, rng.randrange(i)) for i in range(1, n)]
        if diameter is None or max(map(max, distances(n, edges))) == diameter:
            return n, _relabel(rng, n, edges)


def random_bipartite(rng: random.Random, n: int, extra: float):
    """Connected bipartite graph: a random spanning tree across two sides,
    plus each further cross pair with probability `extra`."""
    side = [0, 1] + [rng.randrange(2) for _ in range(n - 2)]
    order = [0, 1] + rng.sample(range(2, n), n - 2)
    placed = [[0], [1]]
    edges = {(0, 1)}
    for v in order[2:]:
        w = rng.choice(placed[1 - side[v]])
        edges.add((min(v, w), max(v, w)))
        placed[side[v]].append(v)
    for a in range(n):
        for b in range(a + 1, n):
            if side[a] != side[b] and (a, b) not in edges and rng.random() < extra:
                edges.add((a, b))
    return n, _relabel(rng, n, edges)


def random_nonbipartite(rng: random.Random, n: int, extra: float):
    """Connected graph with an odd cycle: a random tree, a triangle on
    vertices 0,1,2, and each further pair with probability `extra`."""
    edges = {(0, 1), (1, 2), (0, 2)}
    for v in range(3, n):
        w = rng.randrange(v)
        edges.add((w, v))
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in edges and rng.random() < extra:
                edges.add((a, b))
    return n, _relabel(rng, n, edges)


_CELL_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def _has_hole(cells: set) -> bool:
    """True when some non-cell is cut off from the outside of the set."""
    qs = [q for q, _ in cells]
    rs = [r for _, r in cells]
    lo_q, hi_q = min(qs) - 1, max(qs) + 1
    lo_r, hi_r = min(rs) - 1, max(rs) + 1
    start = (lo_q, lo_r)
    seen = {start}
    stack = [start]
    while stack:
        q, r = stack.pop()
        for dq, dr in _CELL_STEPS:
            nxt = (q + dq, r + dr)
            if (
                lo_q <= nxt[0] <= hi_q
                and lo_r <= nxt[1] <= hi_r
                and nxt not in cells
                and nxt not in seen
            ):
                seen.add(nxt)
                stack.append(nxt)
    box = (hi_q - lo_q + 1) * (hi_r - lo_r + 1)
    return len(seen) + len(cells) != box


def random_benzenoid(rng: random.Random, cells: int):
    """Hole-free connected set of `cells` hexagon cells, grown one random
    frontier cell at a time from (0, 0)."""
    chosen = {(0, 0)}
    while len(chosen) < cells:
        frontier = sorted(
            {
                (q + dq, r + dr)
                for q, r in chosen
                for dq, dr in _CELL_STEPS
            }
            - chosen
        )
        rng.shuffle(frontier)
        for cand in frontier:
            if not _has_hole(chosen | {cand}):
                chosen.add(cand)
                break
    return sorted(chosen)


def random_profile(rng: random.Random, n: int, support: int, max_mult: int,
                   even: bool) -> str:
    """Profile text 'v:k ...' on `support` distinct vertices of 0..n-1."""
    verts = sorted(rng.sample(range(n), min(support, n)))
    mults = [rng.randint(1, max_mult) for _ in verts]
    if even and sum(mults) % 2:
        mults[-1] += 1 if mults[-1] < max_mult else -1
        if mults[-1] == 0:
            mults[-1] = 2
    return " ".join(f"{v}:{k}" for v, k in zip(verts, mults))


def graph_text(n: int, edges) -> str:
    """The 'n m' header plus one 'u v' line per edge, as medianlab reads it."""
    return f"{n} {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in edges)


def cells_text(cells) -> str:
    return "".join(f"{q} {r}\n" for q, r in cells)


def distances(n: int, edges) -> list[list[int]]:
    """All-pairs hop distances of a connected graph, by breadth-first search."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    table = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if dist[y] < 0:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        table.append(dist)
    return table


def between_pairs(n: int, edges, u: int) -> list[tuple[int, int]]:
    """Pairs v < w with u on a shortest (v, w)-path: the edges of A_u."""
    d = distances(n, edges)
    return [
        (v, w)
        for v in range(n)
        for w in range(v + 1, n)
        if d[v][u] + d[u][w] == d[v][w]
    ]


def feasible_demand(rng: random.Random, n: int, edges, u: int) -> dict:
    """Degree demand of random positive weights on a few pairs (v, w) with u
    between them, the loop (u, u) counting twice: such a demand always has
    a perfect b-matching on the auxiliary graph of u."""
    pairs = between_pairs(n, edges, u) + [(u, u)]
    demand = dict.fromkeys(range(n), 0)
    for v, w in rng.sample(pairs, min(len(pairs), rng.randint(2, 5))):
        k = rng.randint(1, 3)
        demand[v] += k
        demand[w] += k
    return {v: k for v, k in demand.items() if k}


def random_demand(rng: random.Random, n: int) -> dict:
    """Independent small demands; most of these have no perfect b-matching."""
    return {v: k for v in range(n) if (k := rng.randint(0, 3))}
