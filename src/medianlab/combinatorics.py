"""Stable-set and clique enumeration over small graphs."""

from __future__ import annotations

from .errors import BudgetError

# default cap on the stable sets one enumeration produces
STABLE_SET_CAP = 1 << 20


def adjacency_sets(n, edges):
    """Neighbor sets of the simple graph on 0..n-1 with the given edge list."""
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def stable_sets(n, adj, exclude=(), cap=STABLE_SET_CAP):
    """Yield every nonempty stable set, lexicographically by element list,
    walking an explicit stack so that large sets cannot overflow.

    `adj` maps each vertex to a set of neighbors; vertices in `exclude`
    (typically looped ones) are never used.  Raises BudgetError once more
    than `cap` sets have been produced.
    """
    excluded = set(exclude)
    usable = [v for v in range(n) if v not in excluded]
    produced = 0
    # (current, candidates); siblings go under the extension: pre-order
    stack = [([], usable)]
    while stack:
        current, candidates = stack.pop()
        if not candidates:
            continue
        v, rest = candidates[0], candidates[1:]
        produced += 1
        if produced > cap:
            raise BudgetError(
                f"stable-set enumeration exceeded cap {cap}", count=produced
            )
        picked = current + [v]
        yield frozenset(picked)
        stack.append((current, rest))
        stack.append((picked, [w for w in rest if w not in adj[v]]))


def maximal_cliques(n, adj):
    """All maximal cliques (Bron-Kerbosch with pivoting, on an explicit
    stack), canonically sorted."""
    found = []
    stack = [(frozenset(), set(range(n)), set())]
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            found.append(r)
            continue
        for v in sorted(p - adj[_pivot(adj, p, x)]):
            stack.append((r | {v}, p & adj[v], x & adj[v]))
            p = p - {v}
            x = x | {v}
    return sorted(found, key=sorted)


def _pivot(adj, p, x):
    """A vertex of P | X with the most neighbours in P.  No vertex of P
    has more than |P| - 1 of them and no vertex of X more than |P|, so the
    scan stops at the first vertex that reaches its bound."""
    best, most = None, -1
    for v in p | x:
        k = len(adj[v] & p)
        if k > most:
            best, most = v, k
            if k == len(p) - (v in p):
                break
    return best


def maximal_stable_sets(n, adj):
    """Maximal stable sets, via maximal cliques of the complement."""
    comp = [set(range(n)) - adj[v] - {v} for v in range(n)]
    return maximal_cliques(n, comp)
