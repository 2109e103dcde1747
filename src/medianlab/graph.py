"""Immutable simple connected graphs with cached all-pairs distances.

Distances are hop counts, computed once by breadth-first search from every
vertex.  Every other primitive (intervals, gates, balls, quasi-medians) is a
pure read of that table, so instances are safe to share freely.

Each distance row is `bytes` while n <= 256, so that no distance passes
255, and an `array('H')` above that.  A row then costs n or 2n bytes, where
a tuple costs 8n bytes of pointers and 28 more for each distance above 256,
and every read of it is still an int.

This module is also the one home of automorphism orbits: the generating set
`Graph.automorphisms` and the orbit filter `orbit_minima`, which every scan
reduced modulo Aut(G) reads, and of union–find (`_union`, `_find`), which
the orbit search and `component_labels` share.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Iterable
from itertools import chain
from math import comb
from operator import getitem

from .errors import DisconnectedGraphError, InputError

# Largest vertex count accepted.  The distance table holds n^2 entries, and
# every procedure above it is polynomial of degree 2 or more in n, so the
# cap turns an input that would exhaust memory into an InputError.
MAX_VERTICES = 2048

# Work the automorphism search may spend, in colour entries read: each
# search node, and each refinement round in it, costs n + 2m (a colour per
# vertex and per adjacency entry).  Past it the search reports the
# generators found so far and raises nothing: they generate a subgroup,
# whose orbits are finer, so that is always a correct answer for its
# callers, which then scan more vertices or supports, slower but with the
# same results.
AUTOMORPHISM_WORK_CAP = 1 << 21


class Graph:
    """Undirected simple connected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "dist", "_edges", "_bipartition", "_automorphisms")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise InputError(f"vertex count must be positive, got {n}")
        # checked before `edges` is read, so callers may pass a lazy iterable
        if n > MAX_VERTICES:
            raise InputError(f"{n} vertices exceed the cap of {MAX_VERTICES}")
        seen = set()
        adj = [[] for _ in range(n)]
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise InputError(f"malformed edge {e!r}") from None
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge {e!r} out of range 0..{n - 1}")
            if u == v:
                raise InputError(f"self-loop at vertex {u} not allowed")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InputError(f"duplicate edge {key}")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        self._edges = tuple(sorted(seen))
        self.dist = tuple(self._bfs(s) for s in range(n))
        # bipartite iff no edge joins two vertices equally far from vertex 0;
        # the sides are then the even and the odd distances
        d0 = self.dist[0]
        even = frozenset(v for v, d in enumerate(d0) if d % 2 == 0)
        bipartite = all(d0[u] != d0[v] for u, v in self._edges)
        self._bipartition = (even, frozenset(range(n)) - even) if bipartite else None
        self._automorphisms = None  # computed on first use

    def _bfs(self, source: int) -> bytes | array:
        dist = [-1] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            x = queue.popleft()
            for y in self.adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        for v, d in enumerate(dist):
            if d < 0:
                raise DisconnectedGraphError(source, v)
        return bytes(dist) if self.n <= 256 else array("H", dist)

    # -- basic accessors ---------------------------------------------------

    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def d(self, u: int, v: int) -> int:
        return self.dist[u][v]

    def is_adjacent(self, u: int, v: int) -> bool:
        return self.dist[u][v] == 1

    @property
    def diameter(self) -> int:
        return max(max(row) for row in self.dist)

    @property
    def is_bipartite(self) -> bool:
        return self._bipartition is not None

    def bipartition(self) -> tuple[frozenset[int], frozenset[int]]:
        """The two color classes, the one containing vertex 0 first."""
        if self._bipartition is None:
            raise InputError("graph is not bipartite")
        return self._bipartition

    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """A generating set of Aut(G), each generator a tuple p mapping v to
        p[v]; empty for the trivial group.  Past AUTOMORPHISM_WORK_CAP it
        generates a subgroup, possibly the trivial one.  Computed on the
        first call by `automorphism_generators` and kept."""
        if self._automorphisms is None:
            self._automorphisms = automorphism_generators(self)
        return self._automorphisms

    # -- metric primitives ---------------------------------------------------

    def interval(self, u: int, v: int) -> frozenset[int]:
        """All vertices on shortest (u,v)-paths."""
        duv = self.dist[u][v]
        du, dv = self.dist[u], self.dist[v]
        return frozenset(w for w in range(self.n) if du[w] + dv[w] == duv)

    def interval_interior(self, u: int, v: int) -> frozenset[int]:
        return self.interval(u, v) - {u, v}

    def ball(self, v: int, r: int) -> frozenset[int]:
        if r < 0:
            raise InputError(f"radius must be nonnegative, got {r}")
        dv = self.dist[v]
        return frozenset(x for x in range(self.n) if dv[x] <= r)

    def half_ball(self, v: int, r: int, side: int) -> frozenset[int]:
        """Ball intersected with the color class containing the vertex `side`."""
        cls0, cls1 = self.bipartition()
        mask = cls0 if side in cls0 else cls1
        return self.ball(v, r) & mask

    def gate(self, x: int, members: Iterable[int]):
        """The unique vertex of `members` on shortest paths from x to all of
        them, or None if no such vertex exists."""
        target = sorted(set(members))
        if not target:
            raise InputError("gate of an empty set is undefined")
        dx = self.dist[x]
        for cand in target:
            dc = self.dist[cand]
            if all(dx[cand] + dc[y] == dx[y] for y in target):
                return cand
        return None

    def is_gated(self, members: Iterable[int]) -> bool:
        target = sorted(set(members))
        if not target:
            raise InputError("gatedness of an empty set is undefined")
        inside = set(target)
        return all(
            self.gate(x, target) is not None
            for x in range(self.n)
            if x not in inside
        )

    def is_metric_triangle(self, v1: int, v2: int, v3: int) -> bool:
        """Pairwise intervals meet only in the shared endpoints."""
        i12 = self.interval(v1, v2)
        i13 = self.interval(v1, v3)
        i23 = self.interval(v2, v3)
        return (
            i12 & i13 == {v1}
            and i12 & i23 == {v2}
            and i13 & i23 == {v3}
        )

    def quasi_median(self, x: int, y: int, z: int) -> tuple[int, int, int]:
        """A metric triangle (v1,v2,v3) splitting the three pairwise
        distances of x,y,z, lexicographically smallest among valid triples.

        A size-0 result means the triplet has a median vertex.
        """
        d = self.dist
        c1 = sorted(self.interval(x, y) & self.interval(x, z))
        c2 = sorted(self.interval(y, x) & self.interval(y, z))
        c3 = sorted(self.interval(z, x) & self.interval(z, y))
        for v1 in c1:
            for v2 in c2:
                if d[x][y] != d[x][v1] + d[v1][v2] + d[v2][y]:
                    continue
                for v3 in c3:
                    if d[y][z] != d[y][v2] + d[v2][v3] + d[v3][z]:
                        continue
                    if d[z][x] != d[z][v3] + d[v3][v1] + d[v1][x]:
                        continue
                    if self.is_metric_triangle(v1, v2, v3):
                        return (v1, v2, v3)
        raise RuntimeError("no quasi-median found; distance table corrupt")


# -- automorphisms --------------------------------------------------------------


class _WorkCapHit(Exception):
    pass


def _rank(keys) -> list[int]:
    """Each key's index among the sorted distinct keys.  The colouring this
    gives depends on the keys alone, not on vertex labels, so an
    automorphism that preserves the keys preserves the colours."""
    index = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [index[key] for key in keys]


def _union(parent, a, b) -> None:
    """Merge the classes of a and b; every class keeps its least member as
    its root, so find(x) == x exactly for class minima."""
    a, b = _find(parent, a), _find(parent, b)
    if a != b:
        parent[max(a, b)] = min(a, b)


def _find(parent, a) -> int:
    while parent[a] != a:
        parent[a] = a = parent[parent[a]]
    return a


def component_labels(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The class of each of 0..n-1 under the equivalence the pairs generate,
    the classes numbered in the order of their least members: the labels a
    breadth-first search from each unlabelled vertex in turn would give."""
    parent = list(range(n))
    for a, b in pairs:
        _union(parent, a, b)
    number = {}
    return [number.setdefault(_find(parent, x), len(number)) for x in range(n)]


def automorphism_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    """A generating set of Aut(G) by individualisation and refinement
    (McKay and Piperno, Practical graph isomorphism, II, 2014).

    Colours start from the sorted distance rows and are refined until
    equitable: a vertex's colour is split by the multiset of its
    neighbours' colours.  Individualising a vertex v also splits every
    colour by the distance to v.  The first path individualises the least
    vertex of the smallest non-singleton colour until the colouring is
    discrete.  Then, deepest level first, each other vertex w of a level's
    colour that is not yet in the orbit of that level's vertex is tried:
    the subtree under w is searched for a leaf that maps the first leaf by
    an automorphism, pruning nodes whose colour sizes differ from the first
    path's.  The automorphisms found generate Aut(G), since at each level
    they reach the whole orbit of the stabilizer of the levels above.

    Refinement stops once a colouring is discrete.  Each search node, and
    each refinement round in it, costs n + 2m; a search that would spend
    more than AUTOMORPHISM_WORK_CAP returns the generators found so far.
    Each is checked edge by edge, so they generate a subgroup of Aut(G),
    the trivial one when the cap stops the first path.
    """
    n, adj, dist = g.n, g.adj, g.dist
    edges = g.edges()
    step_cost = n + 2 * len(edges)
    work = 0

    def spend():
        nonlocal work
        work += step_cost
        if work > AUTOMORPHISM_WORK_CAP:
            raise _WorkCapHit

    def refine(keys):
        spend()
        col = _rank(keys)
        count = max(col) + 1
        while count < n:
            spend()
            finer = _rank([
                (c, tuple(sorted([col[w] for w in nbrs])))
                for c, nbrs in zip(col, adj)
            ])
            finer_count = max(finer) + 1
            if finer_count == count:
                break
            col, count = finer, finer_count
        return col, count

    def individualise(col, v):
        return refine(list(zip(col, dist[v])))

    def sizes(col, count):
        out = [0] * count
        for c in col:
            out[c] += 1
        return out

    def target(col, count):
        size = sizes(col, count)
        c = min(range(count), key=lambda c: (size[c] < 2, size[c]))
        return [x for x in range(n) if col[x] == c]

    neighbours = [set(nbrs) for nbrs in adj]

    def automorphism(col):
        """The map from the first path's leaf to the discrete colouring
        col, if it is an automorphism."""
        at = [0] * n
        for x, c in enumerate(col):
            at[c] = x
        sigma = tuple(at[c] for c in leaf)
        if all(sigma[v] in neighbours[sigma[u]] for u, v in edges):
            return sigma
        return None

    def leaf_search(col, w, depth):
        """An automorphism taking the first path's node below `col` to the
        node that individualises w instead, or None.  Depth first over an
        explicit stack of (depth, colouring, vertices left to try)."""
        stack = [(depth, col, iter([w]))]
        while stack:
            d, col, todo = stack[-1]
            x = next(todo, None)
            if x is None:
                stack.pop()
                continue
            child, count = individualise(col, x)
            if sizes(child, count) != shapes[d]:
                continue
            if count == n:
                sigma = automorphism(child)
                if sigma is not None:
                    return sigma
                continue
            stack.append((d + 1, child, iter(target(child, count))))
        return None

    generators = []
    try:
        col, count = refine([tuple(sorted(row)) for row in dist])
        path = []  # (colouring, target colour's vertices) of each inner node
        shapes = []  # colour sizes of the first path's node at each depth + 1
        while count < n:
            cell = target(col, count)
            path.append((col, cell))
            col, count = individualise(col, cell[0])
            shapes.append(sizes(col, count))
        leaf = col
        orbit = list(range(n))
        for depth in reversed(range(len(path))):
            node, cell = path[depth]
            v = cell[0]
            for w in cell[1:]:
                if _find(orbit, w) == _find(orbit, v):
                    continue
                sigma = leaf_search(node, w, depth)
                if sigma is not None:
                    generators.append(sigma)
                    for x in range(n):
                        _union(orbit, x, sigma[x])
    except _WorkCapHit:
        pass
    return tuple(generators)


def orbit_minima(n: int, supports, generators) -> list:
    """The supports that are least in their orbit under the group the
    generators generate, in the given order.

    `supports` are sorted tuples of vertices in range(n), listed in
    increasing order, and with one k-tuple the list holds all C(n, k) of
    them, so it is closed under the group.  Walking the list, a support not
    yet seen is least in its orbit, since a smaller member would have been
    met first; its orbit, the closure under the generators, is then marked
    seen.  The marks of the k-tuples are one bytearray, indexed by
    lexicographic rank.  A scan over vertices passes them as 1-tuples."""
    if not generators:
        return list(supports)
    top = max(map(len, supports), default=0)
    # rows[k][i][x] == C(n - 1 - x, k - i), and the k-tuple t ranks
    # C(n, k) - 1 - sum_i rows[k][i][t[i]] among the k-tuples in
    # lexicographic order
    below = [[comb(n - 1 - x, j) for x in range(n)] for j in range(top + 1)]
    rows = [below[k:0:-1] for k in range(top + 1)]
    last = [comb(n, k) - 1 for k in range(top + 1)]
    seen = {k: bytearray(last[k] + 1) for k in set(map(len, supports))}

    def rank(t):
        return last[len(t)] - sum(map(getitem, rows[len(t)], t))

    kept = []
    for s in supports:
        mark = seen[len(s)]
        r = rank(s)
        if mark[r]:
            continue
        kept.append(s)
        mark[r] = 1
        orbit = [s]
        for t in orbit:
            for p in generators:
                image = sorted([p[x] for x in t])
                r = rank(image)
                if not mark[r]:
                    mark[r] = 1
                    orbit.append(image)
    return kept


# -- generators ---------------------------------------------------------------
#
# Vertex numbering is fixed so that identical parameters always produce an
# identical edge list:
#   cycle k       : v_i ~ v_{i+1 mod k}, k >= 3
#   path k        : 0-1-...-(k-1)
#   complete k    : all pairs
#   kmn m n       : left part 0..m-1, right part m..m+n-1
#   hypercube d   : vertices are d-bit numbers, edges flip one bit
#   bn n          : a_i = i-1, b_j = n+j-1; a_i ~ b_j iff i != j (n >= 3)
#   bhat n        : bn n plus a = 2n ~ all b_j and b = 2n+1 ~ all a_i, a ~ b
#   grid m n      : vertex (i,j) -> i*n+j, 4-neighbor lattice
#   tree p1,...   : vertex i+1 hangs below parent p_i (p_i <= i)


def cycle(k: int) -> Graph:
    if k < 3:
        raise InputError(f"cycle needs at least 3 vertices, got {k}")
    return Graph(k, ((i, (i + 1) % k) for i in range(k)))


def path(k: int) -> Graph:
    if k < 1:
        raise InputError(f"path needs at least 1 vertex, got {k}")
    return Graph(k, ((i, i + 1) for i in range(k - 1)))


def complete(k: int) -> Graph:
    if k < 1:
        raise InputError(f"complete graph needs at least 1 vertex, got {k}")
    return Graph(k, ((i, j) for i in range(k) for j in range(i + 1, k)))


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise InputError(f"complete bipartite needs positive parts, got {m},{n}")
    return Graph(m + n, ((i, m + j) for i in range(m) for j in range(n)))


def hypercube(d: int) -> Graph:
    if d < 1:
        raise InputError(f"hypercube dimension must be >= 1, got {d}")
    if d >= MAX_VERTICES.bit_length():  # 2^d is not computed for huge d
        raise InputError(f"2^{d} vertices exceed the cap of {MAX_VERTICES}")
    edges = [
        (v, v | (1 << b))
        for v in range(1 << d)
        for b in range(d)
        if not v & (1 << b)
    ]
    return Graph(1 << d, edges)


def bn(n: int) -> Graph:
    """K_{n,n} minus a perfect matching: a_i ~ b_j iff i != j."""
    if n < 3:
        raise InputError(f"bn needs n >= 3 to stay connected, got {n}")
    return Graph(
        2 * n,
        ((i, n + j) for i in range(n) for j in range(n) if i != j),
    )


def bhat(n: int) -> Graph:
    """bn(n) extended by two adjacent apexes covering the two sides."""
    if n < 3:
        raise InputError(f"bhat needs n >= 3, got {n}")
    a, b = 2 * n, 2 * n + 1
    edges = chain(
        ((i, n + j) for i in range(n) for j in range(n) if i != j),
        ((a, n + j) for j in range(n)),
        ((b, i) for i in range(n)),
        [(a, b)],
    )
    return Graph(2 * n + 2, edges)


def grid(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise InputError(f"grid needs positive sides, got {m},{n}")
    edges = chain(
        ((i * n + j, i * n + j + 1) for i in range(m) for j in range(n - 1)),
        ((i * n + j, (i + 1) * n + j) for i in range(m - 1) for j in range(n)),
    )
    return Graph(m * n, edges)


def tree_from_parent_list(parents: Iterable[int]) -> Graph:
    parents = list(parents)
    for i, p in enumerate(parents):
        if not 0 <= p <= i:
            raise InputError(f"parent of vertex {i + 1} must be in 0..{i}, got {p}")
    return Graph(len(parents) + 1, [(i + 1, p) for i, p in enumerate(parents)])


_GENERATORS = {
    "cycle": (cycle, 1),
    "path": (path, 1),
    "complete": (complete, 1),
    "kmn": (complete_bipartite, 2),
    "complete_bipartite": (complete_bipartite, 2),
    "hypercube": (hypercube, 1),
    "bn": (bn, 1),
    "bhat": (bhat, 1),
    "grid": (grid, 2),
    "tree": (tree_from_parent_list, None),
}


def generator_names() -> tuple[str, ...]:
    return tuple(sorted(_GENERATORS))


def generate(spec: str) -> Graph:
    """Build a named graph from a spec string such as 'cycle:6' or 'grid:3,4'."""
    name, sep, arg_text = spec.partition(":")
    name = name.strip().lower()
    if name not in _GENERATORS:
        raise InputError(f"unknown generator {name!r}; known: {', '.join(generator_names())}")
    fn, arity = _GENERATORS[name]
    if not sep:
        raise InputError(f"generator {name!r} needs parameters, e.g. '{name}:4'")
    try:
        args = [int(tok) for tok in arg_text.replace(",", " ").split()]
    except ValueError:
        raise InputError(f"non-integer parameter in {spec!r}") from None
    if arity is None:
        return fn(args)
    if len(args) != arity:
        raise InputError(f"generator {name!r} takes {arity} parameter(s), got {len(args)}")
    return fn(*args)
