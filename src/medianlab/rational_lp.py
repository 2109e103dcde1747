"""Exact linear programming over rationals.

A small two-phase simplex in exact arithmetic with Bland's pivoting rule,
so feasibility and optimality verdicts are exact.  All variables are
implicitly nonnegative, which is the shape every caller in this package
needs (edge weights, vertex weights).  `RationalLinearSystem` has two ways
to minimize: `solve` minimizes one objective, and `minimize_warm` runs
phase 1 once, since it depends only on the constraints, and starts each
objective's phase 2 where the previous objective's ended.

The two may start from different bases.  `solve` takes the canonical start
of `_phase_one`: every LE row on its slack, every GE and EQ row on an
artificial column.  Its points are pinned by the goldens (the witnesses of
`pairing double` and `pairing local`), and a different starting basis can
end at a different optimal vertex, so that start stays.  `minimize_warm`
hands out values only, which do not depend on the basis, so it takes the
slack start: a GE row whose right-hand side is 0 is negated and starts on
its surplus, and only the other GE rows and the EQ rows get artificials
(in the Me(u) slice of `pairing`, the row sum b = 1 alone).  The canonical start is built lazily, at most once per walk, for
the first objective whose point is handed out.

Inside the tableau an entry is a Python `int` while its value is an
integer and a `Fraction` only when it is not (`_exact`): most entries and
most pivots of the pairing polytopes are integral, and int arithmetic is
far cheaper than `Fraction`'s.  Constraints and objectives are converted
to that form once, when they come in (`_entry`), and results are returned
as `Fraction`s.  The ratio test cross-multiplies instead of dividing,
so it stays exact on ints.  The values are the same either way, so the
pivot sequence is too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError

LE, GE, EQ = "<=", ">=", "=="


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[int | Fraction, ...]
    sense: str
    rhs: int | Fraction


@dataclass
class RationalLinearSystem:
    """Constraints over nonnegative rational variables, and the minima of
    linear objectives over them."""

    num_vars: int
    constraints: list[Constraint] = field(default_factory=list)

    def _dense(self, coeffs) -> tuple[int | Fraction, ...]:
        """The coefficients as a tuple of exactly `num_vars` entries in the
        tableau's form (`_entry`)."""
        if len(coeffs) != self.num_vars:
            raise InputError("constraint width does not match variable count")
        return tuple(_entry(coeffs[j]) for j in range(self.num_vars))

    def add(self, coeffs, sense: str, rhs) -> None:
        """Store the row with a negative right-hand side flipped (LE <-> GE)."""
        if sense not in (LE, GE, EQ):
            raise InputError(f"unknown constraint sense {sense!r}")
        coeffs, rhs = self._dense(coeffs), _entry(rhs)
        if rhs < 0:
            coeffs = tuple(-c for c in coeffs)
            rhs = -rhs
            sense = {LE: GE, GE: LE, EQ: EQ}[sense]
        self.constraints.append(Constraint(coeffs, sense, rhs))

    def solve(self, objective=None) -> "LPResult":
        """Minimize `objective` over these constraints; without one, any
        feasible point is the optimum of the zero objective."""
        objective = None if objective is None else self._dense(objective)
        return solve_lp(self.num_vars, self.constraints, objective)

    def minimize_warm(self, objectives):
        """Yield one LPResult per objective, minimized over these constraints.

        Phase 1 runs once, on the slack start (module docstring).  Each
        objective's phase 2 starts from the basis where the previous
        objective's phase 2 stopped, which is still feasible, and Bland's
        rule terminates from any feasible basis; so every status and value
        equals what `solve` gives for that objective alone.  The point a
        warm start reaches depends on the starting basis and on the
        objectives before it, so it is not handed out: the point is None,
        except for an objective whose minimum is negative or unbounded,
        which is solved again from the canonical phase-1 tableau and
        carries the point of a fresh solve.  That tableau is built on the
        first such objective and kept; when no GE row has right-hand side
        0 the two starts coincide, and the one tableau serves both.
        Objectives are read lazily.
        """
        slack = any(map(_on_surplus, self.constraints))
        start = _phase_one(self.num_vars, self.constraints, slack_start=slack)
        canonical = None if slack else start
        if start is not None:
            tab, allowed = start
            warm = tab.copy()
            padding = [0] * (tab.ncols - self.num_vars)
        for coeffs in objectives:
            coeffs = self._dense(coeffs)
            if start is None:
                yield LPResult("infeasible")
                continue
            warm.set_costs([*coeffs, *padding])
            if warm.run(allowed) == "optimal" and warm.value >= 0:
                yield LPResult("optimal", None, warm.value)
            else:
                if canonical is None:
                    canonical = _phase_one(self.num_vars, self.constraints)
                yield _phase_two(*canonical, self.num_vars, coeffs)


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    point: tuple[Fraction, ...] | None = None
    value: Fraction | None = None

    @property
    def feasible(self) -> bool:
        return self.status != "infeasible"


def _entry(x) -> int | Fraction:
    """`x` in the tableau's form: an int as it is, any other exact number
    as an int when its value is an integer and as a Fraction otherwise.  A
    float is refused, since its binary value is rarely the number that was
    meant (0.1 is 3602879701896397/2**55)."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise InputError(f"LP entries must be exact (int or Fraction), not float {x!r}")
    return _exact(Fraction(x))


def _exact(x):
    """`x` as an int when its value is an integer, else as it is."""
    return x.numerator if x.denominator == 1 else x


class _Tableau:
    """Rows, right-hand sides and reduced costs hold ints while integral
    and Fractions otherwise (see the module docstring)."""

    def __init__(self, rows, basis, ncols):
        self.rows = rows          # each row: ncols coefficients then rhs
        self.basis = basis        # basic column per row
        self.ncols = ncols
        self.obj = [0] * (ncols + 1)  # reduced costs then -value
        self.cost = [0] * ncols   # the cost vector `obj` is reduced from

    def copy(self):
        """A tableau to pivot apart from this one: `pivot` rebinds rows
        rather than mutating them, so the row list and basis are copied.
        The copy starts from the zero cost vector."""
        return _Tableau(list(self.rows), list(self.basis), self.ncols)

    def set_costs(self, cost):
        """Reduced costs of `cost`, whose entries are in the tableau's form.

        Pivots keep the objective row reduced for the last cost vector, so
        only the change is added: dc_j for each column j whose cost moved,
        less dc_j times row i when j is basic in row i.  The values equal a
        computation from scratch, so the pivot sequence does too.
        """
        row_of = {b: i for i, b in enumerate(self.basis)}
        obj = self.obj
        for j, (old, new) in enumerate(zip(self.cost, cost)):
            if old != new:
                dc = new - old
                i = row_of.get(j)
                if i is None:
                    obj[j] = _exact(obj[j] + dc)
                else:
                    # the basic column's own entry nets to zero
                    for k, c in enumerate(self.rows[i]):
                        if c and k != j:
                            obj[k] = _exact(obj[k] - dc * c)
        self.cost = list(cost)

    def pivot(self, r, j):
        row = self.rows[r]
        p = row[j]
        if p != 1:
            inv = Fraction(1) / p
            self.rows[r] = row = [_exact(c * inv) if c else c for c in row]
        # slack columns keep rows sparse: eliminate on the nonzeros only
        support = [(k, c) for k, c in enumerate(row) if c]
        for i, other in enumerate(self.rows):
            if i != r and other[j]:
                self.rows[i] = _eliminate(other, other[j], support)
        if self.obj[j]:
            self.obj = _eliminate(self.obj, self.obj[j], support)
        self.basis[r] = j

    def run(self, allowed):
        """Minimize with Bland's rule; returns 'optimal' or 'unbounded'."""
        while True:
            enter = next(
                (j for j in range(self.ncols) if allowed[j] and self.obj[j] < 0),
                None,
            )
            if enter is None:
                return "optimal"
            # least ratio rhs / a over the rows with a > 0, compared by
            # cross-multiplication: rhs_i * a_best against rhs_best * a_i
            leave = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    if leave is None:
                        leave, rhs_best, a_best = i, row[-1], a
                        continue
                    lhs, rhs = row[-1] * a_best, rhs_best * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave, rhs_best, a_best = i, row[-1], a
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)

    @property
    def value(self) -> Fraction:
        return -Fraction(self.obj[-1])

    def extract(self, num_vars) -> tuple[Fraction, ...]:
        x = [Fraction(0)] * num_vars
        for i, b in enumerate(self.basis):
            if b < num_vars:
                x[b] = Fraction(self.rows[i][-1])
        return tuple(x)


def _eliminate(row, f, support):
    """row - f * pivot row, given the pivot row's nonzeros as (column,
    value) pairs; a new list, so tableaux sharing `row` keep it."""
    row = list(row)
    for k, c in support:
        row[k] = _exact(row[k] - f * c)
    return row


def _on_surplus(con) -> bool:
    """A GE row whose right-hand side is 0: the slack start puts it on its
    surplus."""
    return con.sense == GE and not con.rhs


def _phase_one(num_vars, constraints, slack_start=False):
    """Build the tableau from constraints as `RationalLinearSystem.add`
    stores them (exactly num_vars wide, in the tableau's form, right-hand
    side nonnegative) and drive it to a feasible basis with the artificial
    columns gone.

    The canonical start puts every GE and EQ row on an artificial column.
    With `slack_start`, a GE row whose right-hand side is 0 is negated
    instead, -a x + s = 0, and starts on its surplus s, which is already
    feasible at value 0 (module docstring).

    Returns (tableau, allowed columns), or None when infeasible.  The
    tableau is only read afterwards: phase two works on a copy.
    """
    on_slack = [con.sense == LE or (slack_start and _on_surplus(con)) for con in constraints]
    n_slack = sum(1 for con in constraints if con.sense != EQ)
    n_art = on_slack.count(False)
    ncols = num_vars + n_slack + n_art
    padding = [0] * (n_slack + n_art)

    rows, basis, art_cols = [], [], []
    slack_at, art_at = num_vars, num_vars + n_slack
    for con, slack in zip(constraints, on_slack):
        if slack and con.sense == GE:
            row = [*(-c for c in con.coeffs), *padding, 0]
        else:
            row = [*con.coeffs, *padding, con.rhs]
        if slack:
            row[slack_at] = 1
            basis.append(slack_at)
            slack_at += 1
        else:
            if con.sense == GE:
                row[slack_at] = -1
                slack_at += 1
            row[art_at] = 1
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        rows.append(row)

    tab = _Tableau(rows, basis, ncols)
    art_set = set(art_cols)
    allowed = [True] * ncols

    if art_cols:
        cost1 = [0] * ncols
        for j in art_cols:
            cost1[j] = 1
        tab.set_costs(cost1)
        tab.run(allowed)
        if tab.value != 0:
            return None
        # drive leftover artificials out of the basis, dropping redundant rows
        for i in reversed(range(len(tab.basis))):
            if tab.basis[i] in art_set:
                row = tab.rows[i]
                piv = next(
                    (j for j in range(ncols) if j not in art_set and row[j]),
                    None,
                )
                if piv is None:
                    del tab.rows[i]
                    del tab.basis[i]
                else:
                    tab.pivot(i, piv)
        for j in art_cols:
            allowed[j] = False
    return tab, allowed


def _phase_two(start, allowed, num_vars, objective) -> LPResult:
    """Minimize `objective` (None: the zero objective) from the feasible
    tableau `start`, on a copy, so `start` stays as it is."""
    tab = start.copy()
    padding = [0] * (tab.ncols - num_vars)
    tab.set_costs([*(objective or [0] * num_vars), *padding])
    status = tab.run(allowed)
    value = tab.value if status == "optimal" else None
    return LPResult(status, tab.extract(num_vars), value)


def solve_lp(num_vars, constraints, objective=None) -> LPResult:
    """Two-phase simplex minimizing `objective`; None is the zero objective."""
    feasible = _phase_one(num_vars, constraints)
    if feasible is None:
        return LPResult("infeasible")
    return _phase_two(*feasible, num_vars, objective)
