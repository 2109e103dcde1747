import random
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from medianlab.consensus import (
    _concatenation_pairs,
    profile_keys,
    tabulate_median,
)
from medianlab.errors import BudgetError, FormatError, InputError
from medianlab.pairing import has_perfect_pairing, pairing_property_bounded_search
from medianlab.profiles import (
    Profile,
    _punctured_balls,
    _unimodal,
    canonical_profiles,
    check_unimodal_equals_connected,
    connected_in_power,
    count_canonical_profiles,
    f_vector,
    is_local_median,
    median_set,
    minimizers,
    peak_failures,
    peak_probes,
    profile_sweep,
    total_distance,
)
from medianlab.graph import complete, cycle, hypercube

from conftest import nx_distance, random_connected_graph


def test_parse_and_format():
    p = Profile.parse("0 2:3 4")
    assert p.counts == ((0, 1), (2, 3), (4, 1))
    assert p.total == 5 and not p.is_even
    assert Profile.parse(p.format()) == p
    assert Profile.parse("") == Profile(())


def test_parse_rejects_negative_multiplicities():
    # a negative token is refused on its own and next to a token it could
    # cancel against; a zero multiplicity still adds nothing
    for text in ("0:-1", "1:-1 1:2", "1:2 1:-1", "0 1:-1 1:1"):
        with pytest.raises(FormatError, match="negative multiplicity"):
            Profile.parse(text)
    assert Profile.parse("1:0 1:2") == Profile(((1, 2),))


@given(st.lists(st.integers(0, 9), max_size=12))
def test_profile_roundtrip_and_canonical_form(vertices):
    p = Profile.from_vertices(vertices)
    assert sorted(p.vertices()) == sorted(vertices)
    assert Profile.parse(p.format()) == p
    assert p.concat(Profile(())) == p
    assert p.power(2).total == 2 * p.total


def test_total_distance_examples():
    k3 = complete(3)
    assert total_distance(k3, Profile.parse("0"), 0) == 0
    doubled = Profile.parse("0:2 1:2 2:2")
    assert total_distance(k3, doubled, 0) == 4  # 2k+2 with k=1
    c6 = cycle(6)
    p = Profile.parse("0 2 4")
    # independent distance oracle
    expected = sum(nx_distance(c6, 1, x) for x in (0, 2, 4))
    assert total_distance(c6, p, 1) == expected == 5


def test_median_set_examples():
    c6 = cycle(6)
    assert median_set(c6, Profile.parse("0 2 4")) == {0, 2, 4}
    assert median_set(c6, Profile.parse("0 3")) == c6.interval(0, 3)
    assert median_set(c6, Profile(())) == frozenset(range(6))
    q3 = hypercube(3)
    for u in range(8):
        for v in range(8):
            assert median_set(q3, Profile.from_vertices([u, v])) == q3.interval(u, v)


def test_median_consistency_and_powers(corpus):
    rng = random.Random(3)
    for g in corpus.values():
        for _ in range(30):
            pi = Profile.from_vertices(
                rng.choices(range(g.n), k=rng.randint(1, 4))
            )
            rho = Profile.from_vertices(
                rng.choices(range(g.n), k=rng.randint(1, 4))
            )
            meet = median_set(g, pi) & median_set(g, rho)
            if meet:
                assert median_set(g, pi.concat(rho)) == meet
            for k in (2, 3):
                assert median_set(g, pi.power(k)) == median_set(g, pi)


def test_local_median():
    c6 = cycle(6)
    p = Profile.parse("0 2 4")
    for v in median_set(c6, p):
        for power in (1, 2, 3):
            assert is_local_median(c6, p, v, power)
    # F(v1)=5 exceeds F(v0)=4, so v1 is not even a 1-local median
    assert not is_local_median(c6, p, 1, 1)
    k3 = complete(3)
    trip = Profile.parse("0 1 2")
    assert all(is_local_median(k3, trip, v, 1) for v in range(3))
    with pytest.raises(InputError):
        is_local_median(k3, trip, 0, 0)


def test_enumeration_order_and_count():
    got = list(canonical_profiles(3, 2, 2))
    assert len(got) == count_canonical_profiles(3, 2, 2) == 3 * 2 + 3 * 4
    assert got[0] == Profile.parse("0")
    assert got[1] == Profile.parse("0:2")
    assert got[2] == Profile.parse("0 1")
    even = list(canonical_profiles(3, 2, 2, even_only=True))
    assert len(even) == count_canonical_profiles(3, 2, 2, even_only=True)
    assert all(p.is_even for p in even)


def test_unimodal_connected_verification(corpus):
    report = check_unimodal_equals_connected(corpus["q3"], 1, 3, 2)
    assert report.ok and report.profiles_checked == count_canonical_profiles(8, 3, 2)
    report = check_unimodal_equals_connected(corpus["c6"], 2, 3, 2)
    assert report.ok
    # C6 medians are not connected at power 1: (0,2,4) is a witness
    report = check_unimodal_equals_connected(corpus["c6"], 1, 3, 1)
    assert not report.ok
    bad = {rec["profile"] for rec in report.failures}
    assert Profile.parse("0 2 4") in bad


def test_budget_rejection():
    with pytest.raises(BudgetError) as err:
        check_unimodal_equals_connected(hypercube(3), 1, 8, 4, cap=10)
    assert err.value.count == count_canonical_profiles(8, 8, 4)


def test_single_vertex_profiles_trivially_connected(corpus):
    for g in corpus.values():
        for v in range(g.n):
            assert median_set(g, Profile.from_vertices([v])) == {v}


def test_median_set_nonempty_with_constant_f(corpus):
    rng = random.Random(71)
    for g in corpus.values():
        for _ in range(25):
            p = Profile.from_vertices(rng.choices(range(g.n), k=rng.randint(0, 6)))
            med = median_set(g, p)
            assert med
            values = {total_distance(g, p, v) for v in med}
            assert len(values) == 1
            best = values.pop()
            assert all(total_distance(g, p, v) >= best for v in range(g.n))


# -- the incremental sweep and its scans against per-profile recomputation -----


def test_profile_sweep_matches_canonical_profiles_and_f_vector(corpus):
    for g in corpus.values():
        if g.n > 10:
            continue
        for support in (1, 2, 3):
            for mult in (1, 2, 3):
                for even_only in (False, True):
                    swept = list(profile_sweep(g, support, mult, even_only))
                    expected = list(canonical_profiles(g.n, support, mult, even_only))
                    assert [profile for profile, _ in swept] == expected
                    for profile, f in swept:
                        assert f == f_vector(g, profile), profile
    g = hypercube(3)
    for even_only in (False, True):
        sweep = profile_sweep(g, 8, 4, even_only, cap=10)
        with pytest.raises(BudgetError) as swept:
            next(sweep)
        with pytest.raises(BudgetError) as enumerated:
            next(canonical_profiles(g.n, 8, 4, even_only, cap=10))
        assert swept.value.count == enumerated.value.count
        assert swept.value.count == count_canonical_profiles(8, 8, 4, even_only)


# The scans as they were written before they ran in C: the references for the
# rewritten ones.

def reference_peak_failures(f, probes):
    for u, v, interior in probes:
        hi = max(f[u], f[v])
        if not any(f[w] < hi or f[u] == f[w] == f[v] for w in interior):
            yield u, v


def reference_unimodal(g, f, p):
    med = frozenset(v for v, fv in enumerate(f) if fv == min(f))
    return all(
        v in med or not all(f[v] <= f[w] for w in range(g.n) if 0 < g.dist[v][w] <= p)
        for v in range(g.n)
    )


def reference_connected_in_power(g, members, p):
    if not members:
        return False
    members = sorted(members)
    seen = {members[0]}
    queue = deque([members[0]])
    pool = set(members)
    while queue:
        x = queue.popleft()
        for y in pool - seen:
            if g.dist[x][y] <= p:
                seen.add(y)
                queue.append(y)
    return len(seen) == len(pool)


@st.composite
def graph_and_values(draw):
    """A small connected graph and an f-vector on it; values from 0..3, so
    plateaus f(u) = f(v) and ties at the minimum are common."""
    n = draw(st.integers(1, 8))
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = random_connected_graph(rng, n, draw(st.sampled_from((0.0, 0.3, 0.6))))
    return g, draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))


@given(graph_and_values(), st.integers(1, 3), st.data())
def test_rewritten_scans_match_their_reference_forms(gf, p, data):
    g, f = gf
    for lo, hi in ((p, 2 * p), (p + 1, 2 * p), (2, 2)):
        probes = peak_probes(g, lo, hi)  # lo = 1 gives empty interiors
        assert list(peak_failures(f, probes)) == list(reference_peak_failures(f, probes))
    assert _unimodal(f, _punctured_balls(g, p)) == reference_unimodal(g, f, p)
    members = data.draw(st.frozensets(st.integers(0, g.n - 1)))
    for chosen in (members, minimizers(f)):
        expected = reference_connected_in_power(g, chosen, p)
        assert connected_in_power(g, chosen, p) == expected


def test_sweep_users_match_per_profile_recomputation():
    rng = random.Random(2024)
    compared = searches_with_witness = 0
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 8), rng.choice((0.15, 0.35, 0.6)))
        for p in (1, 2):
            report = check_unimodal_equals_connected(g, p, 3, 2)
            probes = peak_probes(g, p + 1, 2 * p)
            expected = []
            for profile in canonical_profiles(g.n, 3, 2):
                f = f_vector(g, profile)
                med = median_set(g, profile)
                uni = reference_unimodal(g, f, p)
                conn = reference_connected_in_power(g, med, p)
                peak = next(reference_peak_failures(f, probes), None) is None
                if not (uni and conn and peak):
                    expected.append(
                        {"profile": profile, "unimodal": uni, "connected": conn,
                         "peakless": peak}
                    )
            assert report.failures == expected
            assert report.profiles_checked == count_canonical_profiles(g.n, 3, 2)
            compared += len(expected)
        expected = next(
            (profile for profile in canonical_profiles(g.n, 3, 2, even_only=True)
             if has_perfect_pairing(g, profile) is None),
            None,
        )
        assert pairing_property_bounded_search(g, 3, 2) == expected
        searches_with_witness += expected is not None
        table = tabulate_median(g, 3).table
        for key in profile_keys(g.n, 3):
            assert table[key] == median_set(g, Profile.from_vertices(key)), key
    assert compared > 1000 and searches_with_witness > 5

    # the order of the concatenation pairs decides axiom C's witness
    for n in range(3, 7):
        for max_len in range(2, 6):
            keys = list(profile_keys(n, max_len - 1))
            expected = [
                (left, right) for left in keys for right in keys
                if right >= left and len(left) + len(right) <= max_len
            ]
            assert list(_concatenation_pairs(n, max_len)) == expected
