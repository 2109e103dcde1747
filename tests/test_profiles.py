import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from medianlab.errors import BudgetError, FormatError, InputError
from medianlab.profiles import (
    Profile,
    canonical_profiles,
    check_unimodal_equals_connected,
    count_canonical_profiles,
    is_local_median,
    median_set,
    total_distance,
)
from medianlab.graph import complete, cycle, hypercube

from conftest import nx_distance


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
