"""Tabulated consensus functions, axiom checkers, and the alternate-profile
consensus rule on the 6-cycle that disagrees with the median function.

The 6-cycle rule has one home, `_alternate_value` on a count vector.
`l6_eval` is the only place it meets `median_set`; the rule's table is read
off the median table.  The text form of a table lives in `formats`, which
imports this module, so this module imports nothing from it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, combinations_with_replacement, islice
from math import comb
from operator import add

from .errors import BudgetError, InputError
from .graph import Graph, cycle
from .profiles import Profile, extend_f_vector, median_set, minimizers
from .report import Report, VerificationReport

AXIOMS = ("A", "B", "C", "T", "Tminus", "T2", "Ek")
# default cap on the entries of one tabulated consensus function
TABLE_CAP = 200_000


@dataclass
class TabulatedConsensus:
    """Extensional consensus function: every canonical profile of length
    1..max_len maps to a nonempty vertex set.

    Keys are sorted vertex tuples, which bakes anonymity into the
    representation.
    """

    graph: Graph
    max_len: int
    table: dict[tuple[int, ...], frozenset[int]]

    def __post_init__(self):
        if self.max_len < 1:
            raise InputError(f"profile length budget {self.max_len} must be >= 1")
        expected = table_size(self.graph.n, self.max_len)
        if len(self.table) != expected:
            raise InputError(
                f"table has {len(self.table)} entries, expected {expected}"
            )
        n = self.graph.n
        for key, value in self.table.items():
            if tuple(sorted(key)) != key or not 1 <= len(key) <= self.max_len:
                raise InputError(f"bad profile key {key}")
            if not value:
                raise InputError(f"empty value at {key}")
            if key[0] < 0 or key[-1] >= n or min(value) < 0 or max(value) >= n:
                raise InputError(f"vertex outside 0..{n - 1} at {key}")

    def value(self, vertices) -> frozenset[int]:
        return self.table[tuple(sorted(vertices))]


def table_size(n: int, max_len: int) -> int:
    """Multisets of size 1..max_len over n vertices: the sum of
    comb(n + k - 1, k) for k = 1..max_len, in closed form (hockey stick)."""
    return comb(n + max_len, n) - 1 if max_len > 0 else 0


def profile_keys(n: int, max_len: int):
    for k in range(1, max_len + 1):
        yield from combinations_with_replacement(range(n), k)


def _concatenation_pairs(n: int, max_len: int):
    """Every pair of profile keys (left, right) with left <= right whose
    concatenation has length at most max_len, both in key order.

    Keys of one length are sorted, so the rights of a given length that are
    >= left are a suffix of that length's keys, found by bisection.  This
    order, left first, then the right's length, then the right, decides
    axiom C's witness."""
    by_len = [list(combinations_with_replacement(range(n), k))
              for k in range(max_len)]
    for k in range(1, max_len):
        for left in by_len[k]:
            for keys in by_len[1:max_len - k + 1]:
                for right in islice(keys, bisect_left(keys, left), None):
                    yield left, right


def tabulate_function(g: Graph, max_len: int, fn, cap: int = TABLE_CAP) -> TabulatedConsensus:
    """Tabulate fn over every profile key of length 1..max_len.

    fn is called once per key, in `profile_keys` order: by length, then
    lexicographically (`tabulate_median` relies on this order)."""
    count = table_size(g.n, max_len)
    if count > cap:
        raise BudgetError(f"table would hold {count} profiles, cap {cap}", count=count)
    table = {key: frozenset(fn(key)) for key in profile_keys(g.n, max_len)}
    return TabulatedConsensus(g, max_len, table)


def tabulate_median(g: Graph, max_len: int, cap: int = TABLE_CAP) -> TabulatedConsensus:
    """The median function on every profile of length 1..max_len.

    Keys arrive in `profile_keys` order, and every key's prefix key[:-1] is
    a key of the previous length; so each key's f-vector is its prefix's
    extended by one vertex.  Only the f-vectors of the previous length and
    of the current one are kept, and none of length max_len, which no key
    extends."""
    done = {(): [0] * g.n}  # f-vectors of the previous length
    layer = {}  # f-vectors of the current length, when shorter than max_len

    def median(key):
        nonlocal done, layer
        if key[:-1] not in done:  # the first key of a new length
            done, layer = layer, {}
        f = extend_f_vector(g, done[key[:-1]], key[-1])
        if len(key) < max_len:
            layer[key] = f
        return minimizers(f)

    return tabulate_function(g, max_len, median, cap=cap)


# -- axiom checking --------------------------------------------------------------


@dataclass
class AxiomResult(Report):
    axiom: str
    holds: bool
    witness: tuple | None = None
    note: str | None = None


def equilateral_metric_triangles(g: Graph, k: int):
    """All vertex triples pairwise at distance k whose intervals meet only
    at the endpoints, in lexicographic order."""
    d = g.dist
    out = []
    for u, v, w in combinations(range(g.n), 3):
        if d[u][v] == d[u][w] == d[v][w] == k and g.is_metric_triangle(u, v, w):
            out.append((u, v, w))
    return out


# shortest profile each axiom reads
_MIN_LEN = {"B": 2, "C": 2, "T": 3, "Tminus": 3, "T2": 3, "Ek": 3}


def _splits(value, s) -> bool:
    """Meets the triple s without containing it."""
    return bool(value & s) and not value >= s


# triple axioms: metric-triangle size (None: the k of Ek) and violation test
_TRIPLE_AXIOMS = {
    "T": (1, lambda value, s: value != s),
    "Tminus": (1, _splits),
    "T2": (2, lambda value, s: not value >= s),
    "Ek": (None, _splits),
}


def check_axiom(f: TabulatedConsensus, axiom: str, k: int | None = None) -> AxiomResult:
    """Check one consensus axiom against the whole table.

    The witness is the first violating instance in canonical order.  Axioms
    that need profiles longer than the table supports are rejected.  The
    triple axioms walk equilateral metric triangles; those of size 1 are
    exactly the triangles of the graph.
    """
    g = f.graph
    if axiom == "A":
        return AxiomResult(
            "A", True, note="holds by construction: table keyed on sorted multisets"
        )
    if axiom == "Ek" and (k is None or k < 1):
        raise InputError("axiom Ek needs a positive size parameter k")
    if axiom not in _MIN_LEN:
        raise InputError(f"unknown axiom {axiom!r}; choose from {AXIOMS}")
    if f.max_len < _MIN_LEN[axiom]:
        raise BudgetError(f"axiom {axiom} needs profiles of length {_MIN_LEN[axiom]}")
    if axiom == "B":
        for u in range(g.n):
            for v in range(u, g.n):
                if f.value((u, v)) != g.interval(u, v):
                    return AxiomResult("B", False, ((u, v), f.value((u, v))))
        return AxiomResult("B", True)
    if axiom == "C":
        for left, right in _concatenation_pairs(g.n, f.max_len):
            meet = f.table[left] & f.table[right]
            if meet and (combined := f.value(left + right)) != meet:
                return AxiomResult("C", False, (left, right, combined, meet))
        return AxiomResult("C", True)
    size, fails = _TRIPLE_AXIOMS[axiom]
    note = f"k={k}" if axiom == "Ek" else None
    for triple in equilateral_metric_triangles(g, size or k):
        value = f.value(triple)
        if fails(value, set(triple)):
            return AxiomResult(axiom, False, (triple, value), note)
    return AxiomResult(axiom, True, note=note)


def compare_functions(f1: TabulatedConsensus, f2: TabulatedConsensus):
    """All canonical profiles where the two tables differ, in order."""
    if (f1.max_len, f1.graph.n, f1.graph.edges()) != (
        f2.max_len, f2.graph.n, f2.graph.edges()
    ):
        raise InputError("consensus functions live on different domains")
    return [
        (key, f1.table[key], f2.table[key])
        for key in profile_keys(f1.graph.n, f1.max_len)
        if f1.table[key] != f2.table[key]
    ]


# -- the six-cycle rule -------------------------------------------------------------


@cache
def c6_graph() -> Graph:
    return cycle(6)


def _c6_counts(profile: Profile) -> tuple[int, ...]:
    """The six multiplicities of a profile on the 6-cycle."""
    c = [0] * 6
    for v, k in profile.counts:
        if v > 5:
            raise InputError("profile does not live on the 6-cycle")
        c[v] = k
    return tuple(c)


def _reduced(c) -> tuple[int, ...]:
    """Cancel opposite vertices: entry i drops by min(c_i, c_{i+3}), so of
    two opposite entries the larger keeps the difference and the other is 0."""
    a, b, e = c[0] - c[3], c[1] - c[4], c[2] - c[5]
    return (
        a if a > 0 else 0, b if b > 0 else 0, e if e > 0 else 0,
        -a if a < 0 else 0, -b if b < 0 else 0, -e if e < 0 else 0,
    )


def _is_alternate(r) -> bool:
    """One parity class of the reduced vector r is all positive."""
    return all(r[0::2]) or all(r[1::2])


def _alternate_value(r) -> frozenset[int] | None:
    """The 6-cycle rule on the reduced count vector r of an alternate
    profile: the singleton of the smallest index carrying the maximum
    reduced multiplicity of the positive parity class.  None when r is not
    alternate, where the rule is the median function."""
    if not _is_alternate(r):
        return None
    cls = (0, 2, 4) if r[0] > 0 else (1, 3, 5)
    top = max(r[i] for i in cls)
    return frozenset({min(i for i in cls if r[i] == top)})


def _key_counts(key) -> tuple[int, ...]:
    """The six multiplicities of a sorted table key on the 6-cycle."""
    return tuple(map(key.count, range(6)))


def l6_eval(profile: Profile) -> frozenset[int]:
    """The alternate-profile consensus rule on the 6-cycle, from scratch.

    When the reduced profile has all three multiplicities of one parity
    class positive, answer the singleton of the smallest index carrying the
    maximum reduced multiplicity; otherwise fall back to the median set.
    """
    if not profile.counts:
        raise InputError("profile must be nonempty")
    return _alternate_value(_reduced(_c6_counts(profile))) or median_set(c6_graph(), profile)


def _reduced_keys(med: TabulatedConsensus) -> dict:
    """The reduced count vector of every key of a 6-cycle table."""
    return {key: _reduced(_key_counts(key)) for key in med.table}


def _l6_from_median(med: TabulatedConsensus, reduced: dict) -> TabulatedConsensus:
    """The 6-cycle rule's table read off the median table of the 6-cycle:
    each alternate key's value replaced, every other key's kept.  `reduced`
    maps each key to its reduced count vector."""
    return tabulate_function(
        med.graph, med.max_len,
        lambda key: _alternate_value(reduced[key]) or med.table[key],
    )


def tabulate_l6(max_len: int) -> TabulatedConsensus:
    """The 6-cycle rule on every profile of length 1..max_len."""
    med = tabulate_median(c6_graph(), max_len)
    return _l6_from_median(med, _reduced_keys(med))


@dataclass
class L6Report(VerificationReport):
    max_len: int
    axiom_a: bool
    axiom_b: bool
    axiom_c: bool
    reduction_identity: bool
    non_alternate_matches_median: bool
    divergence_witness: tuple
    profiles_checked: int
    failures: list = field(default_factory=list)
    note: str = "verified within budget only"


def verify_l6_is_abc(max_len: int = 6) -> L6Report:
    """Tabulate the 6-cycle rule up to max_len and run the anonymity,
    betweenness and consistency checks, the reduction identity over all
    concatenation pairs, and the agreement with the median function on
    non-alternate profiles; also report where the two functions part ways.

    Each check lists its failures, and each flag is true iff its list is
    empty; `failures` joins the lists in that order.  The median function
    is tabulated once and the rule's table is read off it, so no other
    median set is computed; each key's count vector is reduced once.
    """
    if max_len < 3:
        raise BudgetError(
            f"the divergence witness needs profiles of length 3, got {max_len}"
        )
    med = tabulate_median(c6_graph(), max_len)
    reduced = _reduced_keys(med)
    table = _l6_from_median(med, reduced)
    res_a, res_b, res_c = (check_axiom(table, axiom) for axiom in "ABC")
    reduction_fails = [
        {"reduction": [left, right]}
        for left, right in _concatenation_pairs(6, max_len)
        if reduced[tuple(sorted(left + right))]
        != _reduced(tuple(map(add, reduced[left], reduced[right])))
    ]
    non_alt_fails = [
        {"non_alternate_mismatch": key}
        for key, value in table.table.items()
        if not _is_alternate(reduced[key]) and value != med.table[key]
    ]

    witness_key = (0, 2, 4)
    divergence = (witness_key, table.value(witness_key), med.value(witness_key))
    return L6Report(
        max_len=max_len,
        axiom_a=res_a.holds,
        axiom_b=res_b.holds,
        axiom_c=res_c.holds,
        reduction_identity=not reduction_fails,
        non_alternate_matches_median=not non_alt_fails,
        divergence_witness=divergence,
        profiles_checked=len(table.table),
        failures=[res for res in (res_a, res_b, res_c) if not res.holds]
        + reduction_fails + non_alt_fails,
    )
