"""Profiles (vertex multisets), total-distance functions and median sets.

`Profile` is the one profile form of the package.  f-vectors over the
canonical profiles have one home, `profile_sweep`: the connected-median
verification here, `pairing.pairing_property_bounded_search` and checks
(c) and (d) of `benzenoid.verify_benzenoid_properties` all run on it.

The sweep computes each f-vector packed (`graph`'s packed-field home):
vertex 0 in the least significant field, and every distance row packed
the same way once per sweep, so a profile's f-vector is the int sum of
k * row[x] over its pairs (x, k).  The width is chosen once per sweep
(`sweep_bits`) from the bound max_support * max_mult * diam on every
f-value, so no sum carries and the field tests of the per-profile checks
are exact.  Under the default caps every f-value is below 2 * 10^6; a
raised cap can push the bound past 2^63.  Each profile's f-vector is
yielded as `bytes` at 8 bits (a bound up to 127) and as a list of ints in
any wider width.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, compress, product
from math import comb
from operator import itemgetter

from .errors import BudgetError, FormatError, InputError
from .graph import Graph, field_bits, field_masks, orbit_minima, pack_fields, unpack_fields
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
        """Parse whitespace-separated tokens, each `v` or `v:k`; a colon
        needs its multiplicity."""
        counts: Counter = Counter()
        for tok in text.split():
            v, colon, k = tok.partition(":")
            try:
                v, k = int(v), int(k) if colon else 1
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


# -- packed f-vectors ----------------------------------------------------------


def sweep_bits(g: Graph, max_support: int, max_mult: int) -> int:
    """The field width of `profile_sweep` under this budget: no f-value
    passes max_support * max_mult * diam."""
    return field_bits(max_support * max_mult * g.diameter)


def profile_sweep(g: Graph, max_support: int, max_mult: int,
                  even_only: bool = False, cap: int = PROFILE_CAP, group=None):
    """Yield (profile, f) for every profile of
    canonical_profiles(g.n, ..., group), in its order and under its budget
    check.  f is the profile's f-vector as `unpack_fields` gives it in the
    width `sweep_bits(g, max_support, max_mult)`: `bytes` at 8 bits, else
    a list, new for each profile.

    Each f-vector is the sum of k times the packed distance row of x
    (`pack_fields`) over the profile's pairs (x, k), a few int operations;
    the width keeps every field below half its range, so no sum carries
    into the next field.  No state is kept between profiles.  The rows are
    packed once the budget check has passed.
    """
    n, bits, rows = g.n, sweep_bits(g, max_support, max_mult), None
    for profile in canonical_profiles(n, max_support, max_mult, even_only, cap, group):
        if rows is None:
            rows = [pack_fields(row, bits) for row in g.dist]
        yield profile, unpack_fields(sum(k * rows[x] for x, k in profile.counts), bits, n)


# -- bounded verification of connected / unimodal medians ----------------------
#
# The per-profile checks run once per profile of a sweep, on the f-vector
# it yields, with C-level operations and no loop over the vertices:
#
# - the median set is read off that sequence with `min` and, on `bytes`,
#   one `translate` to the binary digits of its mask, or else `count` and
#   `index` (`median_mask`);
# - G^p-connectivity is a breadth-first search over bit masks of the
#   balls of radius p (`ball_masks`), one OR per member reached, and a
#   single median needs none;
# - the peak probes (`PeakProbes`) and the punctured balls of the
#   unimodality test (`_PuncturedBalls`) gather f at the vertices they
#   compare with one `itemgetter` call (`_Gather`).  The gather lists block
#   by block u, v, then the j-th interior vertex of every probe (or the
#   vertex, then its j-th ball member), a shorter interior or ball
#   repeating its members, so field i of every block belongs to probe (or
#   vertex) i.  The gathered values are packed in the sweep's width and
#   compared a block at a time by the exact field tests of `graph`'s
#   packed-field home; the failures are read off the set top bits lowest
#   first, which is probe order.  Repeating a member changes no verdict:
#   the interior test is an AND over the members and the ball test an OR.
#
# `benzenoid` uses these too, and `consensus` uses `minimizers`.


def median_mask(f) -> int:
    """The median set of an f-vector as a vertex bit mask: bit v set iff
    f[v] is least.  `bytes` are translated to the digits of the mask, a 1
    where f is least, and read in base 2 from the last vertex on."""
    best = min(f)
    if type(f) is bytes:
        return int(f.translate(_ZEROS[:best] + b"1" + _ZEROS[best + 1:])[::-1], 2)
    v = f.index(best)
    mask = 1 << v
    for _ in range(f.count(best) - 1):
        v = f.index(best, v + 1)
        mask |= 1 << v
    return mask


_ZEROS = b"0" * 256


def ball_masks(g: Graph, p: int) -> list[int]:
    """For each vertex v, the bit mask of the vertices w with d(v, w) <= p."""
    return [sum(1 << w for w, d in enumerate(dv) if d <= p) for dv in g.dist]


def connected_in_power(members: int, balls) -> bool:
    """The members (a vertex bit mask) induce a connected subgraph of the
    graph where y is a neighbour of x when bit y of balls[x] is set: of the
    p-th power of g when `balls` is `ball_masks(g, p)`."""
    if not members & members - 1:
        return bool(members)
    reached = frontier = members & -members
    while frontier:
        near = 0
        while frontier:
            low = frontier & -frontier
            near |= balls[low.bit_length() - 1]
            frontier ^= low
        frontier = near & members & ~reached
        reached |= frontier
    return reached == members


def peak_probes(g: Graph, lo: int, hi: int) -> list:
    """(u, v, interior of I(u, v)) for every pair u < v with lo <= d(u, v) <= hi,
    in lexicographic order; built once and reused for every f-vector."""
    return [
        (u, v, g.interval_interior(u, v))
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if lo <= g.dist[u][v] <= hi
    ]


class _Gather:
    """f gathered with one `itemgetter` call (`get`) at the columns of each
    block of `heads`, then at the j-th member of every one of the nonempty
    `groups` for j = 0, 1, ..., a shorter group repeating its members, so
    that field i of every block belongs to group i.  The values are packed
    in one field width, and block j is `packed >> shifts[j] & mask`; the
    group blocks start at `tails`.  Every gather below has two blocks or
    more, so `get` returns a tuple (an `itemgetter` of one column would
    return a scalar)."""

    def __init__(self, heads, groups, bits: int):
        columns = [c for head in heads for c in head]
        for j in range(max(map(len, groups))):
            columns += [group[j % len(group)] for group in groups]
        count = len(groups)
        self.get, self.bits = itemgetter(*columns), bits
        self.shifts = range(0, len(columns) * bits, count * bits)
        self.tails = self.shifts[len(heads):]
        self.mask = (1 << count * bits) - 1
        self.ones, self.high = field_masks(bits, count)


class PeakProbes(_Gather):
    """`peak_probes` compiled for f-vectors of one field width: f is
    gathered at every u (block 0), at every v (block 1), and at the j-th
    interior vertex of every probe (block j + 2), a shorter interior
    repeating its members."""

    def __init__(self, probes, bits: int):
        self.pairs, self.bits = [(u, v) for u, v, _ in probes], bits
        if not probes:
            return
        super().__init__([[u for u, _ in self.pairs], [v for _, v in self.pairs]],
                         [sorted(inside) or [u] for u, _, inside in probes], bits)
        # an empty interior fails whatever it is padded with
        self.always = sum(1 << i * bits + bits - 1
                          for i, (_, _, inside) in enumerate(probes) if not inside)

    def failing(self, f) -> int:
        """The top bit of field i is set iff probe i fails on f: every
        interior value w has w >= f(u) and w >= f(v), and not
        w = f(u) = f(v)."""
        if not self.pairs:
            return 0
        packed = pack_fields(self.get(f), self.bits)
        mask, high = self.mask, self.high
        low = high - self.ones
        fu, fv = packed & mask, packed >> self.shifts[1] & mask
        fail = high
        for shift in self.tails:
            w = packed >> shift & mask
            fail &= ((w | high) - fu) & ((w | high) - fv) & ((w ^ fu | w ^ fv) + low)
        return fail | self.always


def peak_failures(f, probes: PeakProbes) -> list:
    """The probed pairs (u, v) where f is not locally peakless, in probe
    order: no interior vertex lies below max(f(u), f(v)) or on an
    f(u) = f(v) plateau."""
    fail, pairs, bits = probes.failing(f), probes.pairs, probes.bits
    found = []
    while fail:
        low = fail & -fail
        found.append(pairs[(low.bit_length() - 1) // bits])
        fail ^= low
    return found


class _PuncturedBalls(_Gather):
    """f gathered at every vertex v (block 0) and at the j-th vertex w with
    0 < d(v, w) <= p (block j + 1), a smaller ball repeating its members
    and an empty one repeating v, which is never below f[v]."""

    def __init__(self, g: Graph, p: int, bits: int):
        balls = [[w for w, d in enumerate(dv) if 0 < d <= p] or [v]
                 for v, dv in enumerate(g.dist)]
        super().__init__([range(g.n)], balls, bits)


def _unimodal(f, balls: _PuncturedBalls) -> bool:
    """Every local minimum of f is a global one: each vertex off the minimum
    has a smaller value in its punctured ball."""
    packed = pack_fields(balls.get(f), balls.bits)
    mask, high = balls.mask, balls.high
    own = packed & mask
    good = ((min(f) * balls.ones | high) - own) & high  # f[v] <= min f
    for shift in balls.tails:
        good |= high ^ ((packed >> shift & mask | high) - own) & high  # below f[v]
    return good == high


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
    bits = sweep_bits(g, max_support, max_mult)
    probes = PeakProbes(peak_probes(g, p + 1, 2 * p), bits)
    around = _PuncturedBalls(g, p, bits)
    balls = ball_masks(g, p)
    failures = {}
    sweep = profile_sweep(g, max_support, max_mult, cap=cap, group=g.automorphisms)
    for profile, f in sweep:
        uni = _unimodal(f, around)
        conn = connected_in_power(median_mask(f), balls)
        peak = not probes.failing(f)
        if not (uni and conn and peak):
            verdicts = {"unimodal": uni, "connected": conn, "peakless": peak}
            for counts in profile_orbit(profile, g.automorphisms()):
                failures[counts] = verdicts
    checked = count_canonical_profiles(g.n, max_support, max_mult)
    return MedianVerificationReport(p, max_support, max_mult, checked, [
        {"profile": Profile(counts), **failures[counts]}
        for counts in sorted(failures, key=_canonical_key)
    ])
