"""Profiles (vertex multisets), total-distance functions and median sets.

`Profile` is the one profile form of the package.  f-vectors over the
canonical profiles have one home, `profile_sweep`: the connected-median
verification here, `pairing.pairing_property_bounded_search` and check (d)
of `benzenoid.verify_benzenoid_properties` all run on it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, compress, product
from math import comb, inf

from .errors import BudgetError, FormatError, InputError
from .graph import Graph, orbit_minima
from .report import VerificationReport

# default cap on the profiles one bounded search may visit
PROFILE_CAP = 2_000_000


@dataclass(frozen=True)
class Profile:
    """Finite multiset of vertices, canonically a sorted (vertex, mult) list."""

    counts: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = -1
        for v, k in self.counts:
            if v < 0:
                raise InputError(f"profile vertex {v} is negative")
            if v <= prev:
                raise InputError("profile counts must be sorted by vertex")
            if k < 1:
                raise InputError("profile multiplicities must be positive")
            prev = v

    @classmethod
    def from_vertices(cls, vertices) -> "Profile":
        c = Counter(vertices)
        return cls(tuple(sorted(c.items())))

    @classmethod
    def from_counts(cls, mapping) -> "Profile":
        items = [(v, k) for v, k in sorted(dict(mapping).items()) if k != 0]
        if any(k < 0 for _, k in items):
            raise InputError("profile multiplicities must be nonnegative")
        return cls(tuple(items))

    @classmethod
    def parse(cls, text: str) -> "Profile":
        """Parse whitespace-separated tokens, each `v` or `v:k`."""
        counts: Counter = Counter()
        for tok in text.split():
            v, _, k = tok.partition(":")
            try:
                v, k = int(v), int(k) if k else 1
            except ValueError:
                raise FormatError(f"bad profile token {tok!r}") from None
            if k < 0:  # it would cancel another token's copies
                raise FormatError(f"bad profile token {tok!r}: negative multiplicity")
            counts[v] += k
        return cls.from_counts(counts)

    def format(self) -> str:
        return " ".join(f"{v}:{k}" if k > 1 else str(v) for v, k in self.counts)

    @property
    def total(self) -> int:
        return sum(k for _, k in self.counts)

    @property
    def is_even(self) -> bool:
        return self.total % 2 == 0

    def vertices(self):
        for v, k in self.counts:
            for _ in range(k):
                yield v

    def concat(self, other: "Profile") -> "Profile":
        c = Counter(dict(self.counts))
        c.update(dict(other.counts))
        return Profile.from_counts(c)

    def power(self, k: int) -> "Profile":
        if k < 1:
            raise InputError("profile power must be >= 1")
        return Profile(tuple((v, m * k) for v, m in self.counts))


def _check_in_graph(g: Graph, profile: Profile) -> None:
    """Profile vertices must lie in 0..n-1; counts are sorted by vertex, so
    checking the last one suffices."""
    if profile.counts and profile.counts[-1][0] >= g.n:
        raise InputError(
            f"profile vertex {profile.counts[-1][0]} outside the graph's "
            f"vertices 0..{g.n - 1}"
        )


def _distance_sum(dv: list[int], counts) -> int:
    """F(v), the sum of k * d(v, x) over the counts, from v's distances `dv`;
    every total distance of a single profile is this sum."""
    return sum(k * dv[x] for x, k in counts)


def total_distance(g: Graph, profile: Profile, v: int) -> int:
    _check_in_graph(g, profile)
    return _distance_sum(g.dist[v], profile.counts)


def f_vector(g: Graph, profile: Profile) -> list[int]:
    _check_in_graph(g, profile)
    return [_distance_sum(dv, profile.counts) for dv in g.dist]


def minimizers(f: list[int]) -> frozenset[int]:
    """Indices where f attains its minimum: the median set of an f-vector."""
    return frozenset(compress(range(len(f)), map(min(f).__eq__, f)))


def median_set(g: Graph, profile: Profile) -> frozenset[int]:
    """Vertices minimizing the total distance; all of V for the empty
    profile, whose f-vector is all zeros."""
    return minimizers(f_vector(g, profile))


def _unbeaten_within(g: Graph, f: list[int], v: int, p: int) -> bool:
    """No vertex within hop distance p has a smaller f-value than v."""
    dv = g.dist[v]
    return all(f[v] <= f[w] for w in range(g.n) if 0 < dv[w] <= p)


def is_local_median(g: Graph, profile: Profile, v: int, p: int) -> bool:
    """No vertex within hop distance p beats v."""
    if p < 1:
        raise InputError(f"power must be >= 1, got {p}")
    return _unbeaten_within(g, f_vector(g, profile), v, p)


# -- profile enumeration -------------------------------------------------------


def count_canonical_profiles(n: int, max_support: int, max_mult: int,
                             even_only: bool = False) -> int:
    """Closed-form count of the profiles canonical_profiles() yields."""
    total = 0
    s = min(max_support, n)
    for k in range(1, s + 1):
        if not even_only:
            total += comb(n, k) * max_mult ** k
        else:
            # multiplicity vectors in {1..m}^k with even sum
            evens = max_mult // 2
            odds = max_mult - evens
            even_sum = ((evens + odds) ** k + (evens - odds) ** k) // 2
            total += comb(n, k) * even_sum
    return total


def canonical_profiles(n: int, max_support: int, max_mult: int,
                       even_only: bool = False, cap: int = PROFILE_CAP,
                       group=None):
    """Yield nonempty profiles in canonical order: supports in lexicographic
    order of their sorted tuples, multiplicity vectors in lexicographic order.
    Raises BudgetError before the first profile when there are more than
    `cap` of them.

    `group`, when given, is called once the budget check has passed and
    returns a generating set of vertex permutations (`Graph.automorphisms`);
    only supports least in their orbit under it are visited
    (`orbit_minima`).  The budget check counts every profile, and without
    a group, or with the empty one, all of them are visited."""
    if max_support < 1 or max_mult < 1:
        raise InputError("budget must allow at least one vertex")
    count = count_canonical_profiles(n, max_support, max_mult, even_only)
    if count > cap:
        raise BudgetError(f"profile budget {count} exceeds cap {cap}", count=count)
    generators = group() if group else ()
    s = min(max_support, n)
    supports = sorted(
        (sup for k in range(1, s + 1) for sup in combinations(range(n), k))
    )
    for sup in orbit_minima(n, supports, generators):
        for mults in product(range(1, max_mult + 1), repeat=len(sup)):
            if even_only and sum(mults) % 2:
                continue
            yield Profile(tuple(zip(sup, mults)))


def profile_orbit(profile: Profile, group) -> set[tuple[tuple[int, int], ...]]:
    """The counts of every image of the profile under the group that the
    vertex permutations in `group` generate."""
    seen = {profile.counts}
    todo = [profile.counts]
    for counts in todo:
        for p in group:
            image = tuple(sorted([(p[v], k) for v, k in counts]))
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


def _canonical_key(counts):
    """Sort key of profile counts in canonical_profiles order: the support,
    then the multiplicity vector."""
    return tuple(v for v, _ in counts), tuple(k for _, k in counts)


def extend_f_vector(g: Graph, f: list[int], x: int, k: int = 1) -> list[int]:
    """The f-vector of a profile with k more copies of x, as a new list:
    the profile's own f-vector f plus k times the distance row of x, which
    is also its column since distances are symmetric.  This is the one
    place that rule is written."""
    return [a + k * b for a, b in zip(f, g.dist[x])]


def profile_sweep(g: Graph, max_support: int, max_mult: int,
                  even_only: bool = False, cap: int = PROFILE_CAP, group=None):
    """Yield (profile, f-vector) for every profile of
    canonical_profiles(g.n, ..., group), in its order and under its budget
    check.

    A profile's f is its prefix's (all pairs but the last), extended by the
    last pair (`extend_f_vector`).  `partial[j]` holds the f-vector of the current profile's
    first j pairs; the next profile keeps the entries of the pairs it shares
    with this one and adds the rest, so memory stays O(max_support * n).
    Each yielded f is a new list.
    """
    partial = [[0] * g.n]
    last = ()
    for profile in canonical_profiles(g.n, max_support, max_mult, even_only, cap, group):
        pairs = profile.counts
        top = len(pairs) - 1
        i = 0  # partial[0..i] hold prefixes of this profile
        while i < top and i + 1 < len(partial) and pairs[i] == last[i]:
            i += 1
        del partial[i + 1:]
        for x, k in pairs[i:top]:
            partial.append(extend_f_vector(g, partial[-1], x, k))
        x, k = pairs[top]
        yield profile, extend_f_vector(g, partial[top], x, k)
        last = pairs


# -- bounded verification of connected / unimodal medians ----------------------
#
# The per-profile helpers (`minimizers` above, `peak_failures`, `_unimodal`,
# `connected_in_power`) run once per profile of a sweep, so their
# inner loops are shaped to run in C: the first three read f through `map`,
# `compress` and `min`, and `connected_in_power` removes each layer of its
# search from the unvisited set with one set operation.  `benzenoid` uses
# them too, and `consensus` uses `minimizers`.


def connected_in_power(g: Graph, members: frozenset[int], p: int) -> bool:
    """The members induce a connected subgraph of the p-th power of g."""
    if len(members) < 2:
        return bool(members)
    left = set(members)
    reached = [left.pop()]
    for x in reached:  # breadth first; the list grows as it is walked
        dx = g.dist[x]
        near = [y for y in left if dx[y] <= p]
        left.difference_update(near)
        reached += near
    return not left


def peak_probes(g: Graph, lo: int, hi: int) -> list:
    """(u, v, interior of I(u, v)) for every pair u < v with lo <= d(u, v) <= hi,
    in lexicographic order; built once and reused for every f-vector."""
    return [
        (u, v, g.interval_interior(u, v))
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if lo <= g.dist[u][v] <= hi
    ]


def peak_failures(f: list[int], probes):
    """Yield the probed pairs (u, v) where f is not locally peakless: no
    interior vertex lies below max(f(u), f(v)) or on an f(u) = f(v) plateau.

    With `low` the least f-value inside, that is low > hi, or low == hi
    where f(u) != f(v); an empty interior always fails."""
    get = f.__getitem__
    for u, v, interior in probes:
        fu, fv = f[u], f[v]
        hi = fu if fu > fv else fv
        low = min(map(get, interior), default=inf)
        if low > hi or (low == hi and fu != fv):
            yield u, v


def _punctured_balls(g: Graph, p: int) -> list[list[int]]:
    """For each vertex v, the vertices w with 0 < d(v, w) <= p."""
    return [[w for w, d in enumerate(dv) if 0 < d <= p] for dv in g.dist]


def _unimodal(f: list[int], balls) -> bool:
    """Every local minimum of f is a global one: each vertex off the minimum
    has a smaller value in its punctured ball (`_punctured_balls`)."""
    best = min(f)
    get = f.__getitem__
    return all(fv == best or min(map(get, ball), default=fv) < fv
               for fv, ball in zip(f, balls))


@dataclass
class MedianVerificationReport(VerificationReport):
    power: int
    max_support: int
    max_mult: int
    profiles_checked: int
    failures: list = field(default_factory=list)
    note: str = "verified within budget only"


def check_unimodal_equals_connected(
    g: Graph,
    p: int,
    max_support: int,
    max_mult: int,
    cap: int = PROFILE_CAP,
) -> MedianVerificationReport:
    """Exhaustively check, over all budget profiles, that the total distance
    function is unimodal on the p-th power, that the median set is connected
    there, and that the local peaklessness criterion holds.

    Any profile for which the three verdicts are not all true is reported,
    in canonical order.  The verdicts are invariant under Aut(G), so only
    profiles on orbit-least supports are checked, and each failing one
    stands for its whole orbit (`profile_orbit`).  `profiles_checked` is
    the closed-form count of all the profiles, orbits included.
    """
    if p < 1:
        raise InputError(f"power must be >= 1, got {p}")
    probes = peak_probes(g, p + 1, 2 * p)
    balls = _punctured_balls(g, p)
    failures = {}
    sweep = profile_sweep(g, max_support, max_mult, cap=cap, group=g.automorphisms)
    for profile, f in sweep:
        med = minimizers(f)
        uni = _unimodal(f, balls)
        conn = connected_in_power(g, med, p)
        peak = next(peak_failures(f, probes), None) is None
        if not (uni and conn and peak):
            verdicts = {"unimodal": uni, "connected": conn, "peakless": peak}
            for counts in profile_orbit(profile, g.automorphisms()):
                failures[counts] = verdicts
    checked = count_canonical_profiles(g.n, max_support, max_mult)
    return MedianVerificationReport(p, max_support, max_mult, checked, [
        {"profile": Profile(counts), **failures[counts]}
        for counts in sorted(failures, key=_canonical_key)
    ])
