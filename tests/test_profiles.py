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
from medianlab.pairing import (
    auxiliary_graph,
    has_perfect_pairing,
    has_perfect_pi_matching,
    pairing_property_bounded_search,
)
import medianlab.profiles as profiles_module
from medianlab.profiles import (
    PeakProbes,
    Profile,
    _PuncturedBalls,
    _unimodal,
    ball_masks,
    canonical_profiles,
    check_unimodal_equals_connected,
    connected_in_power,
    count_canonical_profiles,
    f_vector,
    is_local_median,
    median_mask,
    median_set,
    minimizers,
    peak_failures,
    peak_probes,
    profile_sweep,
    sweep_bits,
    total_distance,
)
from medianlab.graph import (
    complete,
    cycle,
    field_bits,
    generate,
    hypercube,
    pack_fields,
    path,
    unpack_fields,
)

from conftest import (
    list_connected_in_power,
    list_peak_failures,
    list_profile_sweep,
    list_punctured_balls,
    list_unimodal,
    nx_distance,
    random_connected_graph,
)


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
                        assert list(f) == f_vector(g, profile), profile
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
# list kernels (conftest) and the packed ones.

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


def mask_of(vertices) -> int:
    return sum(1 << v for v in vertices)


@given(graph_and_values(), st.integers(1, 3), st.sampled_from((8, 16, 32, 64, 128)),
       st.data())
def test_rewritten_scans_match_their_reference_forms(gf, p, bits, data):
    g, f = gf
    packed = unpack_fields(pack_fields(f, bits), bits, g.n)
    assert list(packed) == f
    for lo, hi in ((p, 2 * p), (p + 1, 2 * p), (2, 2)):
        probes = peak_probes(g, lo, hi)  # lo = 1 gives empty interiors
        expected = list(reference_peak_failures(f, probes))
        assert list(list_peak_failures(f, probes)) == expected
        assert list(peak_failures(packed, PeakProbes(probes, bits))) == expected
    expected = reference_unimodal(g, f, p)
    assert list_unimodal(f, list_punctured_balls(g, p)) == expected
    assert _unimodal(packed, _PuncturedBalls(g, p, bits)) == expected
    assert median_mask(packed) == mask_of(minimizers(f))
    members = data.draw(st.frozensets(st.integers(0, g.n - 1)))
    balls = ball_masks(g, p)
    for chosen in (members, minimizers(f)):
        expected = reference_connected_in_power(g, chosen, p)
        assert list_connected_in_power(g, chosen, p) == expected
        assert connected_in_power(mask_of(chosen), balls) == expected


# The packed sweep against the list kernels, profile by profile.

def kernel_check(g, p, bits):
    """A function of (packed f, list f) asserting that every packed kernel
    reads what its list kernel reads at power p; it returns whether the
    profile fails one of the three verdicts."""
    probes = peak_probes(g, p + 1, 2 * p)
    packed_probes = PeakProbes(probes, bits)
    around, balls = _PuncturedBalls(g, p, bits), ball_masks(g, p)
    list_balls = list_punctured_balls(g, p)

    def check(f, lf):
        assert list(f) == lf
        med = minimizers(lf)
        assert median_mask(f) == mask_of(med) and minimizers(f) == med
        assert f.index(min(f)) == lf.index(min(lf))  # the pairing search's median
        conn = list_connected_in_power(g, med, p)
        assert connected_in_power(median_mask(f), balls) == conn
        peaks = list(list_peak_failures(lf, probes))
        assert list(peak_failures(f, packed_probes)) == peaks
        assert (packed_probes.failing(f) == 0) == (peaks == [])
        uni = list_unimodal(lf, list_balls)
        assert _unimodal(f, around) == uni
        return not (uni and conn and not peaks)

    return check


def assert_sweeps_agree(g, p, max_support, max_mult, **options) -> int:
    """The packed and the list sweep yield the same profiles and f-vectors,
    and every kernel agrees on each; the number of failing profiles."""
    check = kernel_check(g, p, sweep_bits(g, max_support, max_mult))
    failing = 0
    for (profile, f), (expected, lf) in zip(
        profile_sweep(g, max_support, max_mult, **options),
        list_profile_sweep(g, max_support, max_mult, **options),
        strict=True,
    ):
        assert profile == expected
        failing += check(f, lf)
    return failing


# failing profiles at support 3 and multiplicity 2, per the list kernels
@pytest.mark.parametrize("spec, p, failing", [
    ("cycle:5", 1, 130), ("cycle:7", 1, 378), ("cycle:7", 2, 378), ("kmn:2,3", 1, 5),
    ("kmn:2,3", 2, 0), ("bn:4", 2, 0), ("bn:5", 1, 100),
])
def test_packed_sweep_matches_the_list_kernels(spec, p, failing):
    g = generate(spec)
    assert assert_sweeps_agree(g, p, 3, 2) == failing
    assert assert_sweeps_agree(g, p, 3, 2, group=g.automorphisms) <= failing
    assert_sweeps_agree(g, p, 2, 3, even_only=True)


def list_pairing_search(g, max_support, max_mult):
    """`pairing_property_bounded_search` on the list sweep."""
    aux = {}
    sweep = list_profile_sweep(g, max_support, max_mult, even_only=True, group=g.automorphisms)
    for profile, f in sweep:
        u = f.index(min(f))
        if u not in aux:
            aux[u] = auxiliary_graph(g, u)
        if has_perfect_pi_matching(aux[u], profile) is None:
            return profile
    return None


def test_pairing_search_witnesses_match_the_list_sweep():
    witnesses = 0
    for spec in ("cycle:5", "cycle:7", "kmn:2,3", "bn:4", "hypercube:3", "path:5"):
        g = generate(spec)
        for budget in ((2, 2), (3, 2)):
            expected = list_pairing_search(g, *budget)
            assert pairing_property_bounded_search(g, *budget) == expected
            witnesses += expected is not None
    assert witnesses > 0


def test_packed_kernels_at_the_edges():
    # one vertex: f is all zeros and the single vertex is the median
    g = path(1)
    assert assert_sweeps_agree(g, 1, 1, 4) == 0
    assert [bytes(f) for _, f in profile_sweep(g, 1, 2)] == [b"\0", b"\0"]
    # no probes: a complete graph has no pair at distance 2 or more
    assert peak_probes(complete(4), 2, 2) == []
    assert list(peak_failures(b"\1\0\1\1", PeakProbes([], 8))) == []
    assert assert_sweeps_agree(complete(4), 1, 3, 2) == 0
    # exactly one probe, (0, 2) on a path of three vertices
    assert [(u, v) for u, v, _ in peak_probes(path(3), 2, 2)] == [(0, 2)]
    assert assert_sweeps_agree(path(3), 1, 3, 3) == 0
    probes = PeakProbes(peak_probes(path(3), 2, 2), 8)
    assert list(peak_failures(b"\0\2\0", probes)) == [(0, 2)]  # a peak at 1
    assert list(peak_failures(b"\1\1\1", probes)) == []  # a plateau


def test_field_widths_at_their_boundaries():
    bounds = (0, 127, 128, 2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1, 2**63)
    assert [field_bits(b) for b in bounds] == [8, 8, 16, 16, 32, 32, 64, 64, 128]
    # a budget with a multiplicity below 1 is refused, not swept
    assert field_bits(-2) == 8
    for mult in (0, -2):
        with pytest.raises(InputError):
            next(profile_sweep(cycle(5), 2, mult))
        with pytest.raises(InputError):
            check_unimodal_equals_connected(cycle(5), 1, 2, mult)
    for bits in (8, 16, 32, 64, 128, 256):
        top = 2 ** (bits - 1) - 1
        values = [top, 0, 1, top - 1, top]
        assert list(unpack_fields(pack_fields(values, bits), bits, 5)) == values
    # a path of n vertices has diameter n - 1, the bound of support 1 and
    # multiplicity 1, and the profile of an end vertex reaches it
    for n, bits, form in ((128, 8, bytes), (129, 16, list)):
        g = path(n)
        assert sweep_bits(g, 1, 1) == bits
        assert max(max(f) for _, f in profile_sweep(g, 1, 1)) == n - 1
        assert {type(f) for _, f in profile_sweep(g, 1, 1)} == {form}
        for p in (1, 2):
            assert assert_sweeps_agree(g, p, 1, 1) == 0


# failing profiles per the list kernels: on cycle:300, 0:k for k = 1..219
@pytest.mark.parametrize("spec, budget, bits, failing", [
    ("hypercube:9", (2, 1), 8, 0), ("path:300", (1, 1), 16, 0),
    ("cycle:300", (1, 219), 32, 219),
])
def test_sweeps_of_graphs_with_array_rows(spec, budget, bits, failing):
    # past 256 vertices a distance row is an array('H'), two bytes an item,
    # so the sweep packs its values, not its buffer, in every width
    g = generate(spec)
    assert g.n > 256 and sweep_bits(g, *budget) == bits
    assert assert_sweeps_agree(g, 1, *budget, group=g.automorphisms) == failing


def test_packed_kernels_in_every_width():
    # scaling f by a constant c > 0 keeps every comparison, so the kernels
    # read c * f in a width whose fields hold c * bound as they read f; c is
    # the largest that fits, so the top fields sit just below half the range
    for spec, p in (("cycle:5", 1), ("cycle:7", 2), ("bn:5", 1)):
        g = generate(spec)
        bound = 3 * 2 * g.diameter
        for bits in (8, 16, 32, 64, 128, 256):
            scale = (2 ** (bits - 1) - 1) // bound
            check = kernel_check(g, p, bits)
            failing = 0
            for _, lf in list_profile_sweep(g, 3, 2):
                scaled = [scale * x for x in lf]
                failing += check(unpack_fields(pack_fields(scaled, bits), bits, g.n), scaled)
            assert failing > 0


@pytest.mark.parametrize("m, bits", [(2**14, 32), (2**30, 64), (2**62, 128)])
def test_sweeps_of_large_multiplicities_under_a_raised_cap(monkeypatch, m, bits):
    # support 2 and multiplicity m on the 7-cycle bound f by 6m, and each
    # profile here reaches about 5m; at m = 2^62 that passes 2^63, so the
    # fields are 128 bits wide; past 8 bits f is a list in every width.
    # The sweep is read on the last profiles of the canonical order, since
    # the whole budget has about 21 m^2 profiles
    g = generate("cycle:7")
    tail = [Profile(counts) for counts in (
        ((0, m), (5, m)), ((0, m - 1), (6, m)), ((0, m), (6, m - 1)), ((0, m), (6, m)),
        ((1, m), (2, m)),
    )]
    monkeypatch.setattr(profiles_module, "canonical_profiles", lambda *args: iter(tail))
    assert sweep_bits(g, 2, m) == bits
    swept = list(profile_sweep(g, 2, m, cap=2**200))
    assert [profile for profile, _ in swept] == tail
    for p in (1, 2):
        check = kernel_check(g, p, bits)
        for profile, f in swept:
            lf = f_vector(g, profile)
            assert max(lf) >= 5 * m - 3
            check(f, lf)
    assert type(f) is list and (max(f) > 2**63) == (bits > 64)


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
