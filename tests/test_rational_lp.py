import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from medianlab import rational_lp
from medianlab.errors import InputError
from medianlab.rational_lp import (
    EQ,
    GE,
    LE,
    Constraint,
    RationalLinearSystem,
    _phase_one,
    _Tableau,
)


def make(num_vars, cons):
    system = RationalLinearSystem(num_vars)
    for coeffs, sense, rhs in cons:
        system.add(coeffs, sense, rhs)
    return system


def test_simple_optimum():
    # min -x - y  st  x + y <= 1
    res = make(2, [([1, 1], LE, 1)]).solve([-1, -1])
    assert res.status == "optimal"
    assert res.value == -1
    assert sum(res.point) == 1


def test_exact_fractions():
    # x = 1/3 forced by 3x = 1
    res = make(1, [([3], EQ, 1)]).solve()
    assert res.status == "optimal"
    assert res.point == (Fraction(1, 3),)
    assert res.value == 0  # no objective: the zero objective


def test_infeasible():
    res = make(1, [([1], LE, 1), ([1], GE, 2)]).solve()
    assert res.status == "infeasible"
    res = make(2, [([1, 1], EQ, -1)]).solve()
    assert res.status == "infeasible"


def test_unbounded():
    res = make(1, [([1], GE, 1)]).solve([-1])
    assert res.status == "unbounded"


def test_equalities_and_mixed():
    # min x + y st x + 2y = 4, x - y >= 1  ->  y = 1, x = 2
    res = make(2, [([1, 2], EQ, 4), ([1, -1], GE, 1)]).solve([1, 1])
    assert res.status == "optimal"
    assert res.point == (Fraction(2), Fraction(1))
    assert res.value == 3


def test_redundant_rows():
    res = make(2, [([1, 1], EQ, 2), ([2, 2], EQ, 4), ([1, -1], EQ, 0)]).solve()
    assert res.status == "optimal"
    assert res.point == (Fraction(1), Fraction(1))


def test_zero_row_handling():
    res = make(2, [([0, 0], GE, 0), ([1, 1], EQ, 1)]).solve([1, 0])
    assert res.status == "optimal"
    assert res.value == 0


def test_degenerate_instance_terminates():
    # classic example that cycles under naive pivoting
    res = make(
        4,
        [
            ([Fraction(1, 4), -60, Fraction(-1, 25), 9], LE, 0),
            ([Fraction(1, 2), -90, Fraction(-1, 50), 3], LE, 0),
            ([0, 0, 1, 0], LE, 1),
        ],
    ).solve([Fraction(-3, 4), 150, Fraction(-1, 50), 6])
    assert res.status == "optimal"
    assert res.value == Fraction(-1, 20)


def test_random_lps_against_scipy():
    rng = random.Random(13)
    for trial in range(150):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        cons = []
        for _ in range(m):
            coeffs = [rng.randint(-3, 3) for _ in range(n)]
            sense = rng.choice([LE, GE, EQ])
            cons.append((coeffs, sense, rng.randint(-4, 4)))
        objective = [rng.randint(-3, 3) for _ in range(n)]
        res = make(n, cons).solve(objective)

        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for coeffs, sense, rhs in cons:
            if sense == LE:
                a_ub.append(coeffs)
                b_ub.append(rhs)
            elif sense == GE:
                a_ub.append([-c for c in coeffs])
                b_ub.append(-rhs)
            else:
                a_eq.append(coeffs)
                b_eq.append(rhs)
        ref = linprog(
            objective,
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=[(0, None)] * n,
            method="highs",
        )
        if ref.status == 0:
            assert res.status == "optimal", trial
            assert abs(float(res.value) - ref.fun) < 1e-7, trial
        elif ref.status == 2:
            assert res.status == "infeasible", trial
        elif ref.status == 3:
            assert res.status == "unbounded", trial


def test_feasible_points_satisfy_constraints():
    rng = random.Random(29)
    for _ in range(80):
        n = rng.randint(1, 4)
        cons = []
        for _ in range(rng.randint(1, 4)):
            coeffs = [rng.randint(-2, 3) for _ in range(n)]
            cons.append((coeffs, rng.choice([LE, GE, EQ]), rng.randint(0, 5)))
        res = make(n, cons).solve()
        if res.status == "infeasible":
            continue
        x = res.point
        assert all(v >= 0 for v in x)
        for coeffs, sense, rhs in cons:
            lhs = sum(Fraction(c) * v for c, v in zip(coeffs, x))
            assert (
                (sense == LE and lhs <= rhs)
                or (sense == GE and lhs >= rhs)
                or (sense == EQ and lhs == rhs)
            )


def random_systems(seed, count):
    """(num_vars, constraints, objectives) with random small coefficients;
    about a third of the systems carry a multiple of one of their rows as a
    redundant equality."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        cons = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [rng.randint(-3, 3) for _ in range(n)]
            cons.append((coeffs, rng.choice([LE, GE, EQ]), rng.randint(-4, 4)))
        if rng.random() < 0.3:  # a multiple of some row, redundant as an equality
            coeffs, _, rhs = rng.choice(cons)
            k = rng.choice([-2, 2, 3])
            cons.append(([k * c for c in coeffs], EQ, k * rhs))
        objectives = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(2, 5))]
        yield n, cons, objectives


def assert_warm_matches_fresh(num_vars, cons, objectives):
    """Every status and value of minimize_warm equals a fresh solve's; a
    negative or unbounded minimum carries the fresh point, any other the
    point None.  The walk then takes the objectives again in reverse order:
    its re-solves still match, so no warm pivot has changed the phase-1
    tableau they start from.  Returns the fresh results."""
    fresh = [make(num_vars, cons).solve(obj) for obj in objectives]
    twice = fresh + fresh[::-1]
    warm = list(make(num_vars, cons).minimize_warm(objectives + objectives[::-1]))
    assert [(r.status, r.value) for r in warm] == [(r.status, r.value) for r in twice]
    for w, f in zip(warm, twice):
        resolved = f.status == "unbounded" or (f.status == "optimal" and f.value < 0)
        assert w.point == (f.point if resolved else None)
    return fresh


def test_minimize_warm_matches_fresh_solves_on_random_systems():
    seen = {
        "optimal": 0, "unbounded": 0, "infeasible": 0, "negative": 0,
        "rows dropped": 0, "degenerate": 0,
    }
    for n, cons, objectives in random_systems(31, 300):
        fresh = assert_warm_matches_fresh(n, cons, objectives)
        for result in fresh:
            seen[result.status] += 1
            seen["negative"] += result.status == "optimal" and result.value < 0
        # a caller stops at the first negative minimum: that hit carries
        # the fresh point
        hits = [k for k, r in enumerate(fresh) if r.status == "optimal" and r.value < 0]
        if hits:
            walk = make(n, cons).minimize_warm(objectives[:hits[0] + 1])
            assert list(walk)[-1] == fresh[hits[0]]
        # the draws cover phase-1 tableaux with redundant rows dropped and
        # with a degenerate basis
        start = _phase_one(n, make(n, cons).constraints)
        if start is not None:
            tab, _ = start
            seen["rows dropped"] += len(tab.rows) < len(cons)
            seen["degenerate"] += any(row[-1] == 0 for row in tab.rows)
    assert all(seen.values()), seen


def test_set_costs_updates_match_fresh_reduced_costs(monkeypatch):
    # set_costs adds only the change of the cost vector to the objective
    # row; after every objective of a warm walk, before and after its
    # pivots, the row equals the reduced costs computed from scratch
    warm_updates = 0

    def fresh_obj(tab):
        ref = FractionTableau(tab.rows, tab.basis, tab.ncols)
        ref.set_costs(tab.cost)
        return ref.obj

    def set_costs(tab, cost, set_costs=_Tableau.set_costs):
        nonlocal warm_updates
        warm_updates += any(tab.cost)
        set_costs(tab, cost)
        assert tab.obj == fresh_obj(tab)
        assert_exact_entries(tab)

    def run(tab, allowed, run=_Tableau.run):
        status = run(tab, allowed)
        assert tab.obj == fresh_obj(tab)  # pivots keep the row current
        return status

    monkeypatch.setattr(_Tableau, "set_costs", set_costs)
    monkeypatch.setattr(_Tableau, "run", run)
    for n, cons, objectives in random_systems(31, 300):
        assert_warm_matches_fresh(n, cons, objectives)
    assert warm_updates > 500, warm_updates


def test_minimize_warm_fixed_cases():
    # infeasible: every objective reports it
    got = assert_warm_matches_fresh(1, [([1], LE, 1), ([1], GE, 2)], [[1], [-1]])
    assert {r.status for r in got} == {"infeasible"}
    # unbounded first, and unbounded between two optima: the walk goes on
    # from a feasible basis
    got = assert_warm_matches_fresh(2, [([1, -1], GE, 1)], [[-1, 0], [1, 0], [0, 1]])
    assert [r.status for r in got] == ["unbounded", "optimal", "optimal"]
    got = assert_warm_matches_fresh(2, [([1, -1], GE, 1)], [[1, 0], [-1, 0], [0, 1], [1, 1]])
    assert [r.status for r in got] == ["optimal", "unbounded", "optimal", "optimal"]
    # redundant equality rows are dropped after phase 1
    cons = [([1, 1], EQ, 2), ([2, 2], EQ, 4), ([1, -1], EQ, 0)]
    tab, _ = _phase_one(2, make(2, cons).constraints)
    assert len(tab.rows) < len(cons)
    assert_warm_matches_fresh(2, cons, [[1, 0], [0, -1], [1, 1]])
    # the degenerate instance that cycles under naive pivoting, warm
    cons = [
        ([Fraction(1, 4), -60, Fraction(-1, 25), 9], LE, 0),
        ([Fraction(1, 2), -90, Fraction(-1, 50), 3], LE, 0),
        ([0, 0, 1, 0], LE, 1),
    ]
    got = assert_warm_matches_fresh(
        4, cons, [[1, 1, 1, 1], [Fraction(-3, 4), 150, Fraction(-1, 50), 6], [0, 0, -1, 0]]
    )
    assert got[1].value == Fraction(-1, 20)


def test_minimize_warm_reads_objectives_lazily():
    taken = []

    def objectives():
        for obj in ([1, 0], [0, 1], [1, 1]):
            taken.append(obj)
            yield obj

    results = make(2, [([1, 1], GE, 1)]).minimize_warm(objectives())
    first = next(results)
    assert first.status == "optimal" and first.value == 0
    assert taken == [[1, 0]]


def test_rows_are_exactly_num_vars_wide_and_stored_normalised():
    system = RationalLinearSystem(3)
    for coeffs in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(InputError, match="width"):
            system.add(coeffs, LE, 1)
    with pytest.raises(InputError, match="width"):
        system.solve([1, 2])
    with pytest.raises(InputError, match="width"):
        list(system.minimize_warm([[1, 2]]))
    assert system.constraints == []
    # a negative right-hand side is flipped once, when the row is added
    system = RationalLinearSystem(2)
    system.add([1, -1], GE, -2)
    assert system.constraints == [Constraint((-1, 1), LE, 2)]
    # rows are stored in the tableau's form: an int, or a Fraction whose
    # value is not an integer
    system.add([Fraction(4, 2), Fraction(1, 3)], LE, Fraction(-6, 3))
    for stored in system.constraints:
        for c in (*stored.coeffs, stored.rhs):
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c
    assert system.constraints[1] == Constraint((-2, Fraction(-1, 3)), GE, 2)
    # a float is refused: 0.1 would be read as 3602879701896397/2**55
    system = RationalLinearSystem(1)
    for coeffs, rhs in (([0.1], 3), ([1], 0.3), ([float("nan")], 3), ([np.float64(1)], 3)):
        with pytest.raises(InputError, match="float"):
            system.add(coeffs, LE, rhs)
    assert system.constraints == []
    system.add([1], LE, 3)
    with pytest.raises(InputError, match="float"):
        system.solve([-1.0])
    with pytest.raises(InputError, match="float"):
        list(system.minimize_warm([[-1], [0.5]]))
    assert system.solve([-1]).point == (3,)


class FractionTableau:
    """The all-Fraction tableau: every entry a Fraction, and the ratio
    test divides.  The reference for the differential tests below, which
    have `_phase_one` build it in place of `_Tableau`; it converts what it
    is given to Fraction on the way in."""

    def __init__(self, rows, basis, ncols):
        self.rows = [[Fraction(c) for c in row] for row in rows]
        self.basis = basis
        self.ncols = ncols
        self.obj = [Fraction(0)] * (ncols + 1)

    def copy(self):
        return FractionTableau(list(self.rows), list(self.basis), self.ncols)

    def set_costs(self, cost):
        obj = [Fraction(c) for c in cost] + [Fraction(0)]
        for i, b in enumerate(self.basis):
            cb = cost[b]
            if cb:
                for j, c in enumerate(self.rows[i]):
                    if c:
                        obj[j] -= cb * c
        self.obj = obj

    def pivot(self, r, j):
        row = self.rows[r]
        inv = Fraction(1) / row[j]
        self.rows[r] = row = [c * inv if c else c for c in row]
        support = [(k, c) for k, c in enumerate(row) if c]
        for i, other in enumerate(self.rows):
            if i != r and other[j]:
                self.rows[i] = reference_eliminate(other, other[j], support)
        if self.obj[j]:
            self.obj = reference_eliminate(self.obj, self.obj[j], support)
        self.basis[r] = j

    def run(self, allowed):
        while True:
            enter = next(
                (j for j in range(self.ncols) if allowed[j] and self.obj[j] < 0),
                None,
            )
            if enter is None:
                return "optimal"
            leave, best = None, None
            for i, row in enumerate(self.rows):
                if row[enter] > 0:
                    ratio = row[-1] / row[enter]
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[i] < self.basis[leave])
                    ):
                        leave, best = i, ratio
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)

    @property
    def value(self):
        return -self.obj[-1]

    def extract(self, num_vars):
        x = [Fraction(0)] * num_vars
        for i, b in enumerate(self.basis):
            if b < num_vars:
                x[b] = self.rows[i][-1]
        return tuple(x)


def reference_eliminate(row, f, support):
    row = list(row)
    for k, c in support:
        row[k] -= f * c
    return row


def assert_exact_entries(tab):
    """Every entry of the rows and of the objective row is an int, or a
    Fraction whose value is not an integer: never a float."""
    for row in (*tab.rows, tab.obj):
        for c in row:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def assert_same_as_reference(monkeypatch, num_vars, cons, objectives):
    """Fresh solves (the zero objective and each objective) and one warm
    walk give the same results, Fractions throughout, and the same (row,
    column) pivot sequence on `_Tableau` as on `FractionTableau`."""

    def work():
        results = [make(num_vars, cons).solve()]
        results += [make(num_vars, cons).solve(obj) for obj in objectives]
        results += make(num_vars, cons).minimize_warm(objectives)
        return results

    runs = []
    for cls in (_Tableau, FractionTableau):
        pivots = []

        def pivot(tab, r, j, pivot=cls.pivot, pivots=pivots):
            pivots.append((r, j))
            pivot(tab, r, j)
            if type(tab) is _Tableau:
                assert_exact_entries(tab)

        def run(tab, allowed, run=cls.run):
            if type(tab) is _Tableau:
                assert_exact_entries(tab)
            return run(tab, allowed)

        with monkeypatch.context() as m:
            m.setattr(cls, "pivot", pivot)
            m.setattr(cls, "run", run)
            m.setattr(rational_lp, "_Tableau", cls)
            runs.append((work(), pivots))
    (got, got_pivots), (want, want_pivots) = runs
    assert got == want
    assert got_pivots == want_pivots
    for r in got:
        assert {type(x) for x in (*(r.point or ()), r.value) if x is not None} <= {Fraction}
    return got, got_pivots


def test_int_tableau_matches_fraction_tableau_on_random_systems(monkeypatch):
    for n, cons, objectives in random_systems(31, 300):
        assert_same_as_reference(monkeypatch, n, cons, objectives)


def test_int_tableau_matches_fraction_tableau_on_non_integral_systems(monkeypatch):
    rng = random.Random(37)

    def q():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    fractional = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        cons = [
            ([q() for _ in range(n)], rng.choice([LE, GE, EQ]), q())
            for _ in range(rng.randint(1, 5))
        ]
        objectives = [[q() for _ in range(n)] for _ in range(rng.randint(2, 4))]
        results, _ = assert_same_as_reference(monkeypatch, n, cons, objectives)
        fractional += any(
            x.denominator != 1 for r in results for x in (*(r.point or ()), r.value or 0)
        )
    assert fractional > 50, fractional


def test_ratio_test_is_exact_above_two_to_the_53(monkeypatch):
    # x <= 2**53 + 1 and 2x <= 2**54 + 1: the ratios tie as floats, so a
    # float ratio test would leave on the first row (lower basic column)
    # and step to the infeasible x = 2**53 + 1
    assert (2**53 + 1) / 1 == (2**54 + 1) / 2
    cons = [([1], LE, 2**53 + 1), ([2], LE, 2**54 + 1)]
    results, pivots = assert_same_as_reference(monkeypatch, 1, cons, [[-1]])
    # the fresh solve, the warm walk, and its re-solve of the negative minimum
    assert pivots == [(1, 0)] * 3
    assert results[1].value == -Fraction(2**54 + 1, 2)
    assert results[1].point == (Fraction(2**54 + 1, 2),)
    # and in random systems whose ratios all lie within a float's spacing
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(1, 3)
        base = rng.choice([2**53, 3 * 2**53, 2**60])
        cons = []
        for _ in range(rng.randint(2, 5)):
            coeffs = [rng.randint(1, 4) for _ in range(n)]
            cons.append((coeffs, LE, coeffs[0] * base + rng.randint(-3, 3)))
        objectives = [[rng.randint(-3, 1) for _ in range(n)] for _ in range(3)]
        assert_same_as_reference(monkeypatch, n, cons, objectives)
