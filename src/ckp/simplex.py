"""Exact node LP on integer-scaled data: Dantzig's closed form and a
fraction-free bounded-variable simplex.

Maximizes a linear objective over {0 <= x <= 1, rows A x <= rhs}, where the
rows are the instance's knapsack row plus any cut rows and the variables
forced to zero are left out.  The bounds x <= 1 are never written as rows.

Every weight and every row's right-hand side must be nonnegative
(:class:`LpProblem` checks this), so x = 0 is feasible.  Every LP the solver
builds meets this: normalized instances have nonnegative weights and
capacity, and the origin lies in S, so every inequality valid for S has a
nonnegative right-hand side.

:class:`LpProblem` scales its data to integers once, when it is built:
the knapsack row is ``Instance.units``, and each cut row and the objective
go through ``Instance.integer_row``, each times the LCM of its own
denominators.  The solver and the certificate check work on these
integers; only :class:`LpSolution` holds Fractions.

* **Knapsack row alone.**  The LP is a fractional knapsack, solved exactly
  by Dantzig's ratio rule (:func:`fill_knapsack`).  The objective never
  changes and a node only forces variables to zero, so the problem fixes
  the ratio order once, and a node scans it once, skipping its forced
  variables.  The duals are closed-form: the knapsack multiplier is the
  critical ratio (that of the first item not taken whole), or 0 when
  every item fits, and the bound multiplier of x_j is
  max(0, c_j - ratio * a_j).
* **With cut rows.**  A bounded-variable simplex runs on a tableau that
  holds the problem rows only, starting from the slack basis (x = 0).  The
  tableau is fraction-free: each row is a list of integers whose
  denominator is its basic variable's entry, and after a pivot every
  changed row is divided by its gcd.  Upper bounds are handled by bound
  flips: a variable at its upper bound is complemented (x' = 1 - x), so
  every nonbasic variable sits at zero.  Bland's rule (smallest eligible
  index, both for entering and leaving, the entering variable's own bound
  flip included) guarantees termination; ratio tests compare by
  cross-multiplication.  The bound multipliers are the positive reduced
  costs.

The duals hold one multiplier y_r per problem row, in order, then one
bound multiplier u_j per variable not forced to zero, in
``Instance.refs()`` order.  They certify optimality exactly: y, u >= 0,
y A_j + u_j >= c_j for every such variable, and y . rhs + sum(u) = c . x*.
:func:`verify_certificate` checks this in integers from the problem's
scaled data and the solution alone.  ``pivots`` counts the simplex's basis
changes; bound flips are not pivots, and the closed form reports 0.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm

from .errors import CkpError, ValidationError
from .model import Instance, Point, clean_terms, knapsack_row
from .numeric import integer_form

_F0 = Fraction(0)
_F1 = Fraction(1)


def _ratio_cmp(s, t):
    # Negative when c_s/a_s > c_t/a_t; a weight of zero ranks as infinite.
    return t[2] * s[1] - s[2] * t[1]


_ALL_FIT = (None, 1, 0)  # the critical item when every item fits: ratio 0


def fill_knapsack(order, capacity):
    """Dantzig's ratio rule for max c.x s.t. a.x <= capacity, 0 <= x <= 1.

    ``order`` yields ``(key, a, c)`` integer triples in Dantzig's order
    (see :class:`LpProblem`), and ``capacity`` is a nonnegative integer.
    Returns ``(total, whole, critical, room)``: the profit of the items
    taken whole, their keys, the first item ``(k, a_k, c_k)`` not taken
    whole and the capacity left for it.  The optimum takes x_k = room / a_k
    and is ``(total * a_k + c_k * room) / a_k``; c_k / a_k is the critical
    ratio.  When every item fits, the critical item is ``(None, 1, 0)``
    with no room.
    """
    total = 0
    whole = []
    for item in order:
        a = item[1]
        if a > capacity:
            return total, whole, item, capacity
        whole.append(item[0])
        total += item[2]
        capacity -= a
    return total, whole, _ALL_FIT, 0


class LpProblem:
    """LP relaxation data: instance variables, rows, objective, and their
    integer scaling.

    ``objective`` is cleaned by ``model.clean_terms``, every reference
    checked, and kept as its sorted ``((VarRef, Fraction), ...)`` terms.
    ``rows`` is the knapsack row, then ``extra_rows``, each added as by
    :meth:`with_row`, which checks every reference of the row
    (``ValidationError`` on one outside the instance).  Weights and
    right-hand sides must be nonnegative, so that x = 0 is feasible; bounds
    0 <= x <= 1 are implicit and handled by the solver.

    Built once per problem: ``refs`` (the columns), ``costs`` (the
    objective times ``cost_scale``), ``scaled_rows`` (one ``(coefficients,
    rhs, scale)`` per row, see ``Instance.integer_row``), ``scale`` (the
    LCM of all these scales) and Dantzig's ``order``: the ``(ref, weight,
    cost)`` triples with a positive cost, by ratio cost/weight descending.
    Ratios compare by integer cross-multiplication, so weight 0 ranks
    first, and the stable sort keeps equal ratios in variable order.
    """

    __slots__ = ("instance", "rows", "objective", "refs", "costs",
                 "cost_scale", "scaled_rows", "scale", "order")

    def __init__(self, instance: Instance, objective, extra_rows=()):
        self.objective, _ = clean_terms(objective, instance)
        weight_scale, units, capacity = instance.units
        weights = [a for row in units for a in row]
        if min(weights) < 0 or capacity < 0:
            raise ValidationError(
                "LP needs nonnegative weights and right-hand sides")
        self.instance = instance
        self.rows = (knapsack_row(instance),)
        self.refs = refs = tuple(instance.refs())
        self.costs, _, self.cost_scale = instance.integer_row(self.objective)
        self.scaled_rows = [(weights, capacity, weight_scale)]
        self.scale = lcm(self.cost_scale, weight_scale)
        self.order = sorted(
            (t for t in zip(refs, weights, self.costs) if t[2] > 0),
            key=cmp_to_key(_ratio_cmp))
        for row in extra_rows:
            self._add_row(row)

    def _add_row(self, row) -> None:
        if row.rhs < 0:
            raise ValidationError(
                "LP needs nonnegative weights and right-hand sides")
        if row == self.rows[0]:
            raise ValidationError("rows must include the knapsack row exactly once")
        scaled = self.instance.integer_row(row.terms, row.rhs)
        self.rows += (row,)
        self.scaled_rows = self.scaled_rows + [scaled]
        self.scale = lcm(self.scale, scaled[2])

    def with_row(self, row) -> "LpProblem":
        """This problem plus the cut row ``row``: the scaled data is shared
        and only the new row is scaled."""
        new = copy(self)
        new._add_row(row)
        return new


@dataclass(frozen=True)
class LpSolution:
    value: Fraction
    point: Point
    duals: tuple  # problem rows, then one bound per unforced variable
    pivots: int


def _solve_knapsack(problem: LpProblem, free, forced_zero) -> LpSolution:
    """The closed form for a knapsack row alone."""
    order = problem.order
    if forced_zero:
        order = (t for t in order if t[0] not in forced_zero)
    weights, capacity, weight_scale = problem.scaled_rows[0]
    total, whole, (k, a, c), room = fill_knapsack(order, capacity)
    den = a * problem.cost_scale
    entries = [(ref, _F1) for ref in whole]
    if room > 0:
        entries.append((k, Fraction(room, a)))
    col, costs = problem.instance.columns, problem.costs
    bounds = [_F0] * len(col)
    for ref in whole:
        j = col[ref]
        bounds[j] = Fraction(costs[j] * a - c * weights[j], den)
    duals = (Fraction(c * weight_scale, den),) + tuple(bounds[j] for j in free)
    return LpSolution(Fraction(total * a + c * room, den), Point(entries),
                      duals, 0)


def _reduced(line):
    """The integer list divided by the gcd of its entries."""
    divisor = gcd(*line)
    return [x // divisor for x in line] if divisor > 1 else line


class _BoundedTableau:
    """Fraction-free simplex tableau with implicit bounds 0 <= x_j <= 1 on
    the first ``nbounded`` columns and Bland's rule.

    Row r is a list of integers N whose positive denominator is the entry
    of its basic variable b: it reads ``x_b + sum(N[c] / N[b] * x_c) =
    N[-1] / N[b]``.  The reduced costs are ``zrow[c] / zden`` with zden > 0.
    ``flipped[c]`` records that column c stands for 1 - x_c.  The start is
    the slack basis: the slack of row r is column ``nbounded + r``, and the
    slacks cost nothing, so the reduced costs start as the costs.
    """

    def __init__(self, matrix, cost, cost_scale, nbounded):
        self.matrix = matrix
        self.basis = list(range(nbounded, nbounded + len(matrix)))
        self.nbounded = nbounded
        self.flipped = [False] * nbounded
        self.zrow = list(cost) + [0]
        self.zden = cost_scale
        self.pivots = 0

    def pivot(self, row, col):
        """Make ``col`` basic in ``row``; its entry there must be positive.

        The pivot row keeps its integers (its new denominator is the
        entry at ``col``); every other row with an entry at ``col`` is
        cross-multiplied with it and divided by its gcd.
        """
        m = self.matrix
        prow = m[row]
        p = prow[col]
        for r, other in enumerate(m):
            factor = other[col]
            if r != row and factor:
                m[r] = _reduced([x * p - factor * y
                                 for x, y in zip(other, prow)])
        factor = self.zrow[col]
        if factor:
            *self.zrow, self.zden = _reduced(
                [x * p - factor * y for x, y in zip(self.zrow, prow)]
                + [self.zden * p])
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
        den = self.matrix[row][bcol]
        line = [-t for t in self.matrix[row]]
        line[bcol] = den
        line[-1] += den
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
            # A step is num / den with den > 0.
            if entering < nbounded:
                num, den, leaving, leaving_col = 1, 1, None, entering
            else:
                num = den = leaving = leaving_col = None
            for r, line in enumerate(m):
                a = line[entering]
                if a > 0:
                    step_num, step_den = line[-1], a
                elif a < 0 and basis[r] < nbounded:
                    step_num, step_den = line[basis[r]] - line[-1], -a
                else:
                    continue
                if num is None or step_num * den < num * step_den or (
                        step_num * den == num * step_den
                        and basis[r] < leaving_col):
                    num, den, leaving, leaving_col = (step_num, step_den, r,
                                                      basis[r])
            if num is None:
                raise CkpError("LP is unbounded")
            if leaving is None:
                self.flip_column(entering)
                continue
            if m[leaving][entering] < 0:
                self.flip_row(leaving)
            self.pivot(leaving, entering)


def _solve_bounded(problem: LpProblem, free) -> LpSolution:
    """Bounded-variable simplex over the problem rows, from the slack basis,
    on the columns ``free`` (indices into ``problem.refs``)."""
    nvars = len(free)
    nrows = len(problem.rows)
    # columns: structural vars, slacks, rhs; the slack of row r carries the
    # row's scale, so the row's denominator sits at its basic column
    matrix = []
    for r, (dense, rhs, scale) in enumerate(problem.scaled_rows):
        line = [dense[j] for j in free] + [0] * nrows + [rhs]
        line[nvars + r] = scale
        matrix.append(line)
    costs = [problem.costs[j] for j in free]
    tab = _BoundedTableau(matrix, costs + [0] * nrows, problem.cost_scale,
                          nvars)
    tab.run()

    xs = [_F0] * nvars
    for line, bcol in zip(tab.matrix, tab.basis):
        if bcol < nvars:
            xs[bcol] = Fraction(line[-1], line[bcol])
    zrow, zden = tab.zrow, tab.zden
    total = _F0
    bounds = []
    for c in range(nvars):
        reduced = zrow[c]
        if tab.flipped[c]:
            xs[c] = 1 - xs[c]
            reduced = -reduced
        bounds.append(Fraction(reduced, zden) if reduced > 0 else _F0)
        if xs[c]:
            total += costs[c] * xs[c]
    refs = problem.refs
    point = Point(zip([refs[j] for j in free], xs))
    # Multiplier of row r is the negated reduced cost of its slack.
    duals = (tuple(Fraction(-zrow[nvars + r], zden) for r in range(nrows))
             + tuple(bounds))
    return LpSolution(total / problem.cost_scale, point, duals, tab.pivots)


def _free_columns(problem: LpProblem, forced_zero):
    """Indices into ``problem.refs`` of the variables not forced to zero."""
    if not forced_zero:
        return range(len(problem.refs))
    return [j for j, ref in enumerate(problem.refs) if ref not in forced_zero]


def solve_lp(problem: LpProblem, forced_zero=frozenset()) -> LpSolution:
    """Exact optimum of the boxed LP, minus any forced-to-zero variables."""
    free = _free_columns(problem, forced_zero)
    if len(problem.rows) == 1:
        return _solve_knapsack(problem, free, forced_zero)
    return _solve_bounded(problem, free)


def verify_certificate(problem: LpProblem, solution: LpSolution,
                       forced_zero=frozenset()) -> bool:
    """Exact optimality check from the problem and the solution alone:
    primal feasible, dual feasible, and primal value = dual value = the
    reported value.

    The check runs in integers (``numeric.integer_form``): the duals times
    Y, the LCM of their denominators; the point's entries times Q; and each
    row and the objective times the problem's ``scale`` L, through their
    scaled data.  So y A_j + u_j >= c_j becomes an integer inequality
    times Y L, row feasibility one times Q, and the values compare by
    cross-multiplication.
    """
    free = _free_columns(problem, forced_zero)
    scaled_rows = problem.scaled_rows
    nrows = len(scaled_rows)
    duals = solution.duals
    if len(duals) != nrows + len(free):
        return False
    dual_scale, ys = integer_form(duals)
    if min(ys) < 0:
        return False
    entries = solution.point.entries
    point_scale, scaled = integer_form(x for _, x in entries)
    col = problem.instance.columns
    xs = []
    for (ref, _), x in zip(entries, scaled):
        j = col.get(ref)
        if j is None or ref in forced_zero or x > point_scale:
            return False
        xs.append((j, x))
    scale = problem.scale
    priced = [0] * len(problem.refs)  # (y A_j) * Y * L
    dual_value = 0                    # (y . rhs + sum(u)) * Y * L
    for (dense, rhs, row_scale), y in zip(scaled_rows, ys):
        if sum(dense[j] * x for j, x in xs) > rhs * point_scale:
            return False
        if y:
            y *= scale // row_scale
            dual_value += y * rhs
            priced = [p + y * a for p, a in zip(priced, dense)]
    costs = problem.costs
    cost_factor = scale // problem.cost_scale * dual_scale
    for j, u in zip(free, ys[nrows:]):
        if u:
            u *= scale
            dual_value += u
        if priced[j] + u < costs[j] * cost_factor:
            return False
    primal_value = sum(costs[j] * x for j, x in xs)
    num, den = solution.value.as_integer_ratio()
    return (primal_value * den == num * problem.cost_scale * point_scale
            and dual_value * den == num * dual_scale * scale)
