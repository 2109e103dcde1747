import tracemalloc
from operator import sub
from pathlib import Path

import pytest

import medianlab.consensus as consensus_module
import medianlab.profiles as profiles_module

from medianlab.consensus import (
    AxiomResult,
    TabulatedConsensus,
    _c6_counts,
    _is_alternate,
    _reduced,
    c6_graph,
    check_axiom,
    compare_functions,
    equilateral_metric_triangles,
    l6_eval,
    profile_keys,
    tabulate_l6,
    table_size,
    tabulate_median,
    verify_l6_is_abc,
)
from medianlab.cli import main
from medianlab.errors import BudgetError, FormatError, InputError
from medianlab.formats import table_from_text, table_to_text
from medianlab.graph import complete, cycle, path
from medianlab.profiles import Profile, median_set

DATA = Path(__file__).parent / "data"


def test_tabulate_median_k2():
    g = path(2)
    table = tabulate_median(g, 2)
    assert table.table == {
        (0,): {0},
        (1,): {1},
        (0, 0): {0},
        (0, 1): {0, 1},
        (1, 1): {1},
    }


def test_tabulate_median_values(corpus):
    g = corpus["c6"]
    table = tabulate_median(g, 3)
    assert table.value((0, 2, 4)) == {0, 2, 4}
    for v in range(6):
        assert table.value((v,)) == {v}


def test_tabulation_cap():
    with pytest.raises(BudgetError):
        tabulate_median(cycle(6), 6, cap=100)


def test_axioms_of_median_small_corpus(corpus):
    for name in ("k3", "c4", "c6", "path5", "k23"):
        g = corpus[name]
        table = tabulate_median(g, 4)
        for axiom in ("A", "B", "C", "T", "Tminus", "T2"):
            assert check_axiom(table, axiom).holds, (name, axiom)
        for k in range(1, g.diameter + 1):
            assert check_axiom(table, "Ek", k=k).holds, (name, k)


@pytest.mark.parametrize("n, max_len", [(200, 1), (120, 2), (40, 3)])
def test_tabulate_median_keeps_no_f_vectors_of_the_last_length(n, max_len):
    """Besides the table it returns, tabulate_median holds at most the
    f-vectors of the keys of lengths max_len - 2 and max_len - 1: the bound
    is twice the second of these layers (n distances plus list and dict
    overhead per key) and a fixed slack, where the f-vectors of the keys of
    length max_len alone would need several times more."""
    g = path(n)
    tracemalloc.start()
    try:
        table = tabulate_median(g, max_len)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.table) == table_size(n, max_len)
    below = table_size(n, max_len - 1) - table_size(n, max_len - 2)
    assert peak - kept < 2 * below * (8 * n + 100) + 64 * 1024


def test_axiom_violation_is_caught():
    g = path(2)
    table = tabulate_median(g, 2)
    broken = dict(table.table)
    broken[(0, 1)] = frozenset({0})
    bad = TabulatedConsensus(g, 2, broken)
    res = check_axiom(bad, "B")
    assert not res.holds and res.witness[0] == (0, 1)


def test_axiom_budget_rejection():
    table = tabulate_median(path(2), 1)
    with pytest.raises(BudgetError):
        check_axiom(table, "B")
    with pytest.raises(BudgetError):
        check_axiom(tabulate_median(complete(3), 2), "T")
    with pytest.raises(InputError):
        check_axiom(tabulate_median(path(2), 2), "Ek")


def test_t_axioms_on_k3():
    table = tabulate_median(complete(3), 3)
    assert check_axiom(table, "T").holds
    assert check_axiom(table, "Tminus").holds


def test_equilateral_triangles_on_c6():
    g = c6_graph()
    assert equilateral_metric_triangles(g, 2) == [(0, 2, 4), (1, 3, 5)]
    assert equilateral_metric_triangles(g, 1) == []
    assert equilateral_metric_triangles(g, 3) == []


def test_c6_profile_reduction():
    r = _reduced((2, 0, 1, 1, 0, 3))
    assert r == (1, 0, 0, 0, 0, 2)
    assert all(r[i] * r[(i + 3) % 6] == 0 for i in range(6))
    assert not _is_alternate(r)
    assert _is_alternate(_reduced((1, 0, 2, 0, 1, 0)))
    assert _is_alternate(_reduced((0, 1, 0, 1, 0, 1)))
    assert _is_alternate(_reduced((1, 1, 1, 1, 1, 1))) is False  # reduces to zero
    assert _c6_counts(Profile.parse("0:2 2 3 5:3")) == (2, 0, 1, 1, 0, 3)
    with pytest.raises(InputError):
        _c6_counts(Profile.parse("6"))


def test_l6_examples():
    assert l6_eval(Profile.parse("0 2 4")) == {0}
    assert l6_eval(Profile.parse("0 3")) == frozenset(range(6))
    assert l6_eval(Profile.parse("1:2 2")) == {1}
    assert l6_eval(Profile.parse("0 2:2 4:2")) == {2}
    assert l6_eval(Profile.parse("1 3 5")) == {1}
    with pytest.raises(InputError):
        l6_eval(Profile(()))


def abc_case_value(r):
    """Oracle: the value any consistent betweenness-respecting consensus
    takes on a nonempty non-alternate reduced profile, per case analysis."""
    g = c6_graph()
    sup = [i for i in range(6) if r[i] > 0]
    if len(sup) == 1:
        return frozenset({sup[0]})
    if len(sup) == 2:
        i, j = sup
        if r[i] == r[j]:
            return g.interval(i, j)
        return frozenset({i if r[i] > r[j] else j})
    mid = next(i for i in sup if (i - 1) % 6 in sup and (i + 1) % 6 in sup)
    left, right = (mid - 1) % 6, (mid + 1) % 6
    e, a, b = r[left], r[mid], r[right]
    if e >= a + b:
        return g.interval(left, mid) if e == a + b else frozenset({left})
    if b >= a + e:
        return g.interval(mid, right) if b == a + e else frozenset({right})
    if a + e == b:
        return g.interval(mid, right)
    if a + b == e:
        return g.interval(mid, left)
    return frozenset({mid})


def test_l6_and_median_follow_case_table():
    g = c6_graph()
    for key in profile_keys(6, 5):
        profile = Profile.from_vertices(key)
        r = _reduced(_c6_counts(profile))
        if _is_alternate(r) or not any(r):
            continue
        expected = abc_case_value(r)
        assert median_set(g, profile) == expected, key
        assert l6_eval(profile) == expected, key


def test_reduction_commutes_with_concatenation():
    for key_a in profile_keys(6, 3):
        for key_b in profile_keys(6, 3):
            pa = _c6_counts(Profile.from_vertices(key_a))
            pb = _c6_counts(Profile.from_vertices(key_b))
            merged = _c6_counts(Profile.from_vertices(key_a + key_b))
            via_reduced = tuple(x + y for x, y in zip(_reduced(pa), _reduced(pb)))
            assert _reduced(merged) == _reduced(via_reduced)


def test_verify_l6_report():
    report = verify_l6_is_abc(5)
    assert report.ok
    assert report.axiom_a and report.axiom_b and report.axiom_c
    assert report.reduction_identity and report.non_alternate_matches_median
    key, l6_value, med_value = report.divergence_witness
    assert key == (0, 2, 4) and l6_value == {0} and med_value == {0, 2, 4}


def test_verify_l6_reduces_each_key_once(monkeypatch):
    # 923 keys up to length 6, each reduced once, and the 8,400
    # concatenation pairs, each merge reduced once
    calls = []
    reduce = consensus_module._reduced
    monkeypatch.setattr(consensus_module, "_reduced", lambda c: calls.append(c) or reduce(c))
    assert verify_l6_is_abc(6).ok
    assert len(calls) == 923 + 8400


def _axiom_b_fails(monkeypatch):
    check = consensus_module.check_axiom
    monkeypatch.setattr(
        consensus_module, "check_axiom",
        lambda table, axiom: AxiomResult("B", False) if axiom == "B" else check(table, axiom),
    )


def _reduction_fails(monkeypatch):
    # the identity compares the reduced merge with the reduced sum
    monkeypatch.setattr(consensus_module, "add", sub)


def _alternation_unseen_after_tabulation(monkeypatch):
    # the agreement check then takes every alternate key for a
    # non-alternate one, where the rule parts from the median function
    build = consensus_module._l6_from_median

    def blind(med, reduced):
        table = build(med, reduced)
        monkeypatch.setattr(consensus_module, "_is_alternate", lambda r: False)
        return table

    monkeypatch.setattr(consensus_module, "_l6_from_median", blind)


@pytest.mark.parametrize("broken, kind, flag", [
    (_axiom_b_fails, "B", "axiom_b"),
    (_reduction_fails, "reduction", "reduction_identity"),
    (_alternation_unseen_after_tabulation, "non_alternate_mismatch",
     "non_alternate_matches_median"),
])
def test_each_l6_failure_kind_turns_off_its_flag(monkeypatch, broken, kind, flag):
    flags = ("axiom_a", "axiom_b", "axiom_c", "reduction_identity",
             "non_alternate_matches_median")
    broken(monkeypatch)
    report = verify_l6_is_abc(3)
    assert report.failures and {
        f.axiom if isinstance(f, AxiomResult) else next(iter(f)) for f in report.failures
    } == {kind}
    assert [name for name in flags if not getattr(report, name)] == [flag]
    assert not report.ok and report.as_dict()["ok"] is False


@pytest.mark.parametrize("max_len", range(1, 7))
def test_tables_equal_the_from_scratch_evaluators(max_len):
    """The L6 table is read off the median table; both agree with the
    single-profile evaluators on every key."""
    g = c6_graph()
    l6 = tabulate_l6(max_len)
    med = tabulate_median(g, max_len)
    assert len(l6.table) == len(med.table) == table_size(6, max_len)
    for key in profile_keys(6, max_len):
        profile = Profile.from_vertices(key)
        assert l6.table[key] == l6_eval(profile), key
        assert med.table[key] == median_set(g, profile), key


def test_l6_tables_compute_no_median_sets(monkeypatch, capsys):
    """Building an L6 table reads the median table and calls
    neither median_set nor f_vector; only l6_eval does."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(consensus_module, "median_set",
                        counted("median_set", consensus_module.median_set))
    monkeypatch.setattr(profiles_module, "median_set",
                        counted("median_set", profiles_module.median_set))
    monkeypatch.setattr(profiles_module, "f_vector",
                        counted("f_vector", profiles_module.f_vector))
    tabulate_l6(5)
    verify_l6_is_abc(5)
    for argv in (
        ["consensus", "check", "cycle:6", "--axiom", "C", "--max-len", "4",
         "--function", "l6"],
        ["consensus", "compare", "cycle:6", "--max-len", "4",
         "--left", "med", "--right", "l6"],
        ["consensus", "verify-l6", "--max-len", "4"],
    ):
        assert main(argv) in (0, 1), argv
    capsys.readouterr()
    assert calls == []
    # the counters see the one place the rule meets median_set
    l6_eval(Profile.parse("0 1"))
    assert calls == ["median_set", "f_vector"]


@pytest.mark.parametrize("argv, code, name", [
    (["consensus", "verify-l6", "--max-len", "6"], 0, "verify_l6_max6.json"),
    (["consensus", "compare", "cycle:6", "--max-len", "5",
      "--left", "med", "--right", "l6"], 1, "compare_c6_med_l6_max5.json"),
])
def test_l6_stdout_is_pinned(capsys, argv, code, name):
    assert main(argv) == code
    assert capsys.readouterr().out == (DATA / name).read_text()


def test_l6_violates_the_triangle2_axioms():
    table = tabulate_l6(3)
    res = check_axiom(table, "T2")
    assert not res.holds and res.witness[0] == (0, 2, 4)
    res = check_axiom(table, "Ek", k=2)
    assert not res.holds


def test_membership_propagates_through_extension():
    # x' in F(pi, x) forces x' in F(pi, x') inside F(pi, x)
    g = c6_graph()
    for table in (tabulate_median(g, 4), tabulate_l6(4)):
        for key in profile_keys(6, 3):
            for x in range(6):
                value = table.value(key + (x,))
                for xp in value:
                    inner = table.value(key + (xp,))
                    assert xp in inner
                    assert inner <= value


def test_compare_functions():
    g = c6_graph()
    med = tabulate_median(g, 3)
    l6 = tabulate_l6(3)
    diffs = compare_functions(l6, med)
    assert ((0, 2, 4), frozenset({0}), frozenset({0, 2, 4})) in diffs
    assert compare_functions(med, med) == []
    flipped = dict(med.table)
    flipped[(1, 2)] = frozenset({1})
    diffs = compare_functions(med, TabulatedConsensus(g, 3, flipped))
    assert [key for key, _, _ in diffs] == [(1, 2)]
    with pytest.raises(InputError):
        compare_functions(med, tabulate_median(path(3), 3))


def test_table_serialization_roundtrip():
    g = cycle(4)
    table = tabulate_median(g, 3)
    text = table_to_text(table)
    again = table_from_text(g, text)
    assert again.table == table.table and again.max_len == table.max_len
    # a profile listed twice is refused, whatever its vertex order
    with pytest.raises(FormatError, match="twice"):
        table_from_text(g, text + "1 0 | 0\n")


def test_median_axioms_on_random_graphs():
    # the median function satisfies every axiom on arbitrary graphs
    import random

    from medianlab.graph import Graph, tree_from_parent_list

    rng = random.Random(83)
    for _ in range(20):
        n = rng.randint(2, 7)
        tree = tree_from_parent_list([rng.randint(0, i) for i in range(n - 1)])
        edges = set(tree.edges())
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.25:
                    edges.add((u, v))
        g = Graph(n, sorted(edges))
        table = tabulate_median(g, 3)
        for axiom in ("A", "B", "C", "T", "Tminus", "T2"):
            assert check_axiom(table, axiom).holds, (g.edges(), axiom)
        for k in range(1, g.diameter + 1):
            assert check_axiom(table, "Ek", k=k).holds


def test_table_size_closed_form():
    from math import comb

    from medianlab.consensus import table_size

    for n in range(12):
        for length in range(-2, 12):
            expected = sum(comb(n + k - 1, k) for k in range(1, length + 1))
            assert table_size(n, length) == expected, (n, length)
            if length <= 3:
                assert table_size(n, length) == len(list(profile_keys(n, length)))


def test_size_one_metric_triangles_are_the_triangles():
    # axioms T and Tminus walk equilateral_metric_triangles(g, 1)
    import random
    from itertools import combinations

    from medianlab.graph import Graph

    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(3, 9)
        edges = {(rng.randint(0, i), i + 1) for i in range(n - 1)}
        edges |= {(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.4}
        g = Graph(n, sorted(edges))
        triangles = [
            t for t in combinations(range(n), 3)
            if all(g.is_adjacent(a, b) for a, b in combinations(t, 2))
        ]
        assert equilateral_metric_triangles(g, 1) == triangles
