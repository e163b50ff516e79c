"""Exact-rational node LP: Dantzig's closed form and a bounded-variable simplex.

Maximizes a linear objective over {0 <= x <= 1, rows A x <= rhs}, where the
rows are the instance's knapsack row plus any cut rows and the variables
forced to zero are left out.  The bounds x <= 1 are never written as rows.

Every weight and every row's right-hand side must be nonnegative
(:class:`LpProblem` checks this), so x = 0 is feasible.  Every LP the solver
builds meets this: normalized instances have nonnegative weights and
capacity, and the origin lies in S, so every inequality valid for S has a
nonnegative right-hand side.

* **Knapsack row alone.**  The LP is a fractional knapsack, solved exactly
  by Dantzig's ratio rule (:func:`fill_knapsack`): nonpositive profits are
  dropped, weight-zero items are taken outright, and the rest are taken
  whole by ratio c/a, descending, until one item fills the capacity
  fractionally.  Equal ratios are taken in variable order.  The duals are
  closed-form: the knapsack multiplier is the critical ratio (that of the
  first item not taken whole), or 0 when every item fits, and the bound
  multiplier of x_j is max(0, c_j - ratio * a_j).
* **With cut rows.**  A bounded-variable simplex runs on a tableau that
  holds the problem rows only, starting from the slack basis (x = 0).
  Upper bounds are handled by bound flips: a variable at its upper bound is
  complemented (x' = 1 - x), so every nonbasic variable sits at zero.
  Bland's rule (smallest eligible index, both for entering and leaving, the
  entering variable's own bound flip included) guarantees termination.  The
  bound multipliers are the positive reduced costs.

The duals hold one multiplier y_r per problem row, in order, then one
bound multiplier u_j per variable not forced to zero, in
``Instance.refs()`` order.  They certify optimality exactly: y, u >= 0,
y A_j + u_j >= c_j for every such variable, and y . rhs + sum(u) = c . x*.
``pivots`` counts the simplex's basis changes; bound flips are not
pivots, and the closed form reports 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .errors import CkpError, ValidationError
from .model import Instance, Point, knapsack_row

_F0 = Fraction(0)
_F1 = Fraction(1)
_ratio_key = itemgetter(0)


@dataclass(frozen=True)
class LpProblem:
    """LP relaxation data: instance variables, rows (knapsack first), objective.

    ``rows`` must contain the instance's knapsack row exactly once, and
    every weight and every row's right-hand side must be nonnegative, so
    that x = 0 is feasible; bounds 0 <= x <= 1 are implicit and handled by
    the solver.
    """

    instance: Instance
    rows: tuple
    objective: tuple  # sorted ((VarRef, Fraction), ...)

    def __post_init__(self):
        knap = knapsack_row(self.instance)
        if sum(1 for row in self.rows if row == knap) != 1:
            raise ValidationError("rows must include the knapsack row exactly once")
        if (any(a < 0 for _, a in knap.terms)
                or any(row.rhs < 0 for row in self.rows)):
            raise ValidationError(
                "LP needs nonnegative weights and right-hand sides")

    @classmethod
    def build(cls, instance: Instance, objective, extra_rows=()) -> "LpProblem":
        items = objective.items() if hasattr(objective, "items") else objective
        cleaned = []
        for ref, value in items:
            instance.check_ref(ref)
            cleaned.append((ref, Fraction(value) if not isinstance(value, Fraction) else value))
        cleaned.sort()
        return cls(instance, (knapsack_row(instance),) + tuple(extra_rows),
                   tuple(cleaned))

    def objective_map(self):
        return dict(self.objective)


@dataclass(frozen=True)
class LpSolution:
    value: Fraction
    point: Point
    duals: tuple  # problem rows, then one bound per unforced variable
    pivots: int


def fill_knapsack(items, capacity):
    """Dantzig's ratio rule for max c.x s.t. a.x <= capacity, 0 <= x <= 1.

    ``items`` are ``(ref, a, c)`` triples with a >= 0, in variable order.
    Returns ``(value, entries, ratio)``: the optimum, the positive
    ``(ref, x)`` entries of the filled point, and the critical ratio c/a of
    the first item not taken whole, or None when every item with a
    positive profit was taken whole.  A capacity that is not positive takes
    only the weight-zero items.
    """
    value = _F0
    entries = []
    pool = []
    for ref, a, c in items:
        if c <= 0:
            continue
        if a == 0:
            value += c
            entries.append((ref, _F1))
        else:
            pool.append((c / a, ref, a, c))
    # A stable sort keeps equal ratios in variable order.
    pool.sort(key=_ratio_key, reverse=True)
    remaining = capacity
    for ratio, ref, a, c in pool:
        if a <= remaining:
            entries.append((ref, _F1))
            value += c
            remaining -= a
        else:
            if remaining > 0:
                frac = remaining / a
                entries.append((ref, frac))
                value += c * frac
            return value, entries, ratio
    return value, entries, None


def _solve_knapsack(problem: LpProblem, refs) -> LpSolution:
    """The closed form for a knapsack row alone."""
    instance = problem.instance
    objective = problem.objective_map()
    items = []
    for ref in refs:
        a = instance.groups[ref.group - 1].weights[ref.slot - 1]
        items.append((ref, a, objective.get(ref, _F0)))
    value, entries, ratio = fill_knapsack(items, instance.capacity)
    y = _F0 if ratio is None else ratio
    whole = {ref for ref, x in entries if x == 1}
    bounds = tuple(c - y * a if ref in whole else _F0 for ref, a, c in items)
    return LpSolution(value, Point(entries), (y,) + bounds, 0)


class _BoundedTableau:
    """Simplex tableau over Fractions with implicit bounds 0 <= x_j <= 1 on
    the first ``nbounded`` columns and Bland's rule.

    Each row reads ``basic + sum(T[c] * x_c) = rhs`` (rhs in the last
    column), ``zrow`` holds the reduced costs, and ``flipped[c]`` records
    that column c stands for 1 - x_c.  The start is the slack basis: the
    slack of row r is column ``nbounded + r``, and the slacks cost nothing,
    so the reduced costs start as the costs.
    """

    def __init__(self, matrix, cost, nbounded):
        self.matrix = matrix
        self.basis = list(range(nbounded, nbounded + len(matrix)))
        self.nbounded = nbounded
        self.flipped = [False] * nbounded
        self.zrow = list(cost) + [_F0]
        self.pivots = 0

    def pivot(self, row, col):
        m = self.matrix
        prow = m[row]
        inv = prow[col]
        if inv != 1:
            m[row] = prow = [entry / inv if entry else entry for entry in prow]
        for r, other in enumerate(m):
            factor = other[col]
            if r != row and factor:
                m[r] = [entry - factor * p if p else entry
                        for entry, p in zip(other, prow)]
        factor = self.zrow[col]
        if factor:
            self.zrow = [z - factor * p if p else z
                         for z, p in zip(self.zrow, prow)]
        self.basis[row] = col
        self.pivots += 1

    def flip_column(self, col):
        """Complement nonbasic x_col, moving it to the bound it was not at."""
        for line in self.matrix:
            t = line[col]
            if t:
                line[-1] -= t
                line[col] = -t
        self.zrow[col] = -self.zrow[col]
        self.flipped[col] = not self.flipped[col]

    def flip_row(self, row):
        """Complement the basic variable of ``row``."""
        bcol = self.basis[row]
        line = [-t if t else t for t in self.matrix[row]]
        line[bcol] = _F1
        line[-1] += 1
        self.matrix[row] = line
        self.flipped[bcol] = not self.flipped[bcol]

    def run(self):
        """Maximize: Bland iterations until no reduced cost is positive."""
        m = self.matrix
        basis = self.basis
        nbounded = self.nbounded
        ncols = len(self.zrow) - 1
        while True:
            zrow = self.zrow
            entering = next((c for c in range(ncols) if zrow[c] > 0), None)
            if entering is None:
                return
            # Candidates: the entering variable's own bound (step 1), a
            # basic variable falling to 0 or a bounded one rising to 1.
            if entering < nbounded:
                best, leaving, leaving_col = _F1, None, entering
            else:
                best = leaving = leaving_col = None
            for r, line in enumerate(m):
                a = line[entering]
                if a > 0:
                    step = line[-1] / a
                elif a < 0 and basis[r] < nbounded:
                    step = (line[-1] - 1) / a
                else:
                    continue
                if best is None or step < best or (
                        step == best and basis[r] < leaving_col):
                    best, leaving, leaving_col = step, r, basis[r]
            if best is None:
                raise CkpError("LP is unbounded")
            if leaving is None:
                self.flip_column(entering)
                continue
            if m[leaving][entering] < 0:
                self.flip_row(leaving)
            self.pivot(leaving, entering)


def _solve_bounded(problem: LpProblem, refs) -> LpSolution:
    """Bounded-variable simplex over the problem rows, from the slack basis."""
    col_of = {ref: idx for idx, ref in enumerate(refs)}
    nvars = len(refs)
    rows = problem.rows
    nrows = len(rows)
    # columns: structural vars, slacks, rhs
    matrix = []
    for r, row in enumerate(rows):
        line = [_F0] * (nvars + nrows + 1)
        for ref, coeff in row.terms:
            c = col_of.get(ref)
            if c is not None:
                line[c] = coeff
        line[nvars + r] = _F1
        line[-1] = row.rhs
        matrix.append(line)
    objective = problem.objective_map()
    cost = [objective.get(ref, _F0) for ref in refs] + [_F0] * nrows
    tab = _BoundedTableau(matrix, cost, nvars)
    tab.run()

    xs = [_F0] * nvars
    for r, bcol in enumerate(tab.basis):
        if bcol < nvars:
            xs[bcol] = tab.matrix[r][-1]
    zrow = tab.zrow
    value = _F0
    bounds = []
    for c, ref in enumerate(refs):
        reduced = zrow[c]
        if tab.flipped[c]:
            xs[c] = 1 - xs[c]
            reduced = -reduced
        bounds.append(reduced if reduced > 0 else _F0)
        if xs[c]:
            value += objective.get(ref, _F0) * xs[c]
    point = Point(zip(refs, xs))
    # Multiplier of row r is the negated reduced cost of its slack.
    duals = tuple(-zrow[nvars + r] for r in range(nrows)) + tuple(bounds)
    return LpSolution(value, point, duals, tab.pivots)


def solve_lp(problem: LpProblem, forced_zero=frozenset()) -> LpSolution:
    """Exact optimum of the boxed LP, minus any forced-to-zero variables."""
    refs = [r for r in problem.instance.refs() if r not in forced_zero]
    if len(problem.rows) == 1:
        return _solve_knapsack(problem, refs)
    return _solve_bounded(problem, refs)


def verify_certificate(problem: LpProblem, solution: LpSolution,
                       forced_zero=frozenset()) -> bool:
    """Exact optimality check from the problem and the solution alone:
    primal feasible, dual feasible, and primal value = dual value = the
    reported value."""
    instance = problem.instance
    refs = [r for r in instance.refs() if r not in forced_zero]
    rows = problem.rows
    duals = solution.duals
    if len(duals) != len(rows) + len(refs):
        return False
    if any(y < 0 for y in duals):
        return False
    entries = solution.point.entries
    for ref, x in entries:
        if ref in forced_zero or not instance.contains(ref) or x > 1:
            return False
    objective = problem.objective_map()
    primal_value = sum((objective.get(ref, _F0) * x for ref, x in entries), _F0)
    dual_value = _F0
    y_a = {}
    for y, row in zip(duals, rows):
        lhs = _F0
        for ref, x in entries:
            coeff = row.coeff(ref)
            if coeff:
                lhs += coeff * x
        if lhs > row.rhs:
            return False
        if y:
            dual_value += y * row.rhs
            for ref, coeff in row.terms:
                term = y * coeff
                y_a[ref] = y_a[ref] + term if ref in y_a else term
    for ref, u in zip(refs, duals[len(rows):]):
        priced = y_a.get(ref, _F0)
        if u:
            priced += u
            dual_value += u
        if priced < objective.get(ref, _F0):
            return False
    return primal_value == solution.value == dual_value
