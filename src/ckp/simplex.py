"""Exact node LP on integer-scaled data: the multiple-choice knapsack closed
form and a fraction-free bounded-variable simplex.

Maximizes the instance's profit over {0 <= x <= 1, rows A x <= rhs}, where
the rows are the instance's knapsack row, one group row sum_j x_ij <= 1 per
group of two or more slots, and any cut rows (the root's only), over a
node's column spans (one ``(lo, hi)`` range per group, nested in
``LpProblem.spans``, the root's), the other columns held at zero.  The
group rows hold on all of S, since a point of S keeps at most one slot
per group positive, each at most 1.  The bounds x <= 1 are never written
as rows, nor are group rows for one-slot groups, whose bound is their row.

Every weight and every row's right-hand side is nonnegative, so x = 0 is
feasible: an ``Instance`` refuses negative weights and capacity, and
:meth:`LpProblem.with_row` a cut row with a negative right-hand side,
which no inequality valid for S has, since the origin lies in S.

:class:`LpProblem` takes its data in integers, with no Fraction round
trip: the knapsack row is ``Instance.units``, a group row is its span of
columns (``LpProblem.spans``), the costs are ``Instance.profit_units``,
scaled once per instance, and each cut row is its own integer form
(``LinearInequality.scaled``, which a builder's cut keeps), filled dense
by ``Instance.integer_row`` as :meth:`LpProblem.with_row` adds it.  The
solver and the certificate check work on these integers, and so does the
solution: :class:`LpSolution` holds the point as ``(D, ((VarRef, X),
...))`` and the duals as ``(Y, ints)``, which the separators, the
branch-and-cut loop and the certificate check read as they are.  Only its
value is a Fraction; its ``point`` (through ``Point.from_scaled``, which
keeps the integer form) is made on each read, for a caller that shows it.

* **No cut rows.**  The LP is the relaxation of the multiple-choice
  knapsack problem, solved greedily (Sinha and Zoltners, Operations
  Research 1979; Kellerer, Pferschy and Pisinger, *Knapsack Problems*,
  2004, ch. 11).  Per group, the upper concave hull of the origin and the
  span's slots with a positive cost gives increments (weight step, cost
  step) of falling efficiency; all groups' increments are taken by
  Dantzig's ratio rule, whole while they fit, then one part of the first
  that does not.  A one-column span (of a one-slot group, or a node's) is
  its own increment, with no hull; with every group a singleton this is
  Dantzig's rule on the slots.  The duals are closed-form: the knapsack
  multiplier is the critical efficiency (the first increment's not taken
  whole), or 0 when all fits; a group row's multiplier is max(0, max_j c_j
  - ratio * a_j) over the group's span, and the bound multipliers are 0,
  except on one-slot groups, whose bound multiplier is that maximum.
* **With cut rows** (the root only).  A bounded-variable simplex runs on a
  tableau that holds the knapsack row, the group rows and the cut rows,
  over every column, starting from the slack basis (x = 0).  The tableau
  is fraction-free: each row is a list of integers whose denominator is
  its basic variable's entry, and after a pivot every changed row is
  divided by its gcd.  Upper bounds are handled by bound flips: a
  variable at its upper bound is complemented (x' = 1 - x), so every
  nonbasic variable sits at zero.  Bland's rule (smallest eligible index,
  both for entering and leaving, the entering variable's own bound flip
  included) guarantees termination; ratio tests compare by
  cross-multiplication.  The bound multipliers are the positive reduced
  costs.

The duals hold one multiplier y_r per row, in order (the knapsack row, the
group rows in ``LpProblem.spans`` order, the cut rows), then one bound
multiplier u_j per column of the spans, in ``Instance.columns``
order.  They bound the node LP by its value: y, u >= 0, y A_j + u_j >= c_j
for every such variable, and y . rhs + sum(u) = the value, which
:func:`verify_certificate` checks in integers without reading the point.
``pivots`` counts the simplex's basis changes; bound flips are not
pivots, and the closed form reports 0.
"""

from __future__ import annotations

from copy import copy
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate
from math import gcd, lcm
from typing import NamedTuple

from .errors import CkpError, ValidationError
from .model import Instance, Point, knapsack_row
from .numeric import integer_form


def _ratio_cmp(s, t):
    # Negative when c_s/a_s > c_t/a_t; a weight of zero ranks as infinite.
    return t[2] * s[1] - s[2] * t[1]


class LpProblem:
    """The node LP's data, scaled to integers: the instance's profits as the
    objective, its knapsack row, its group rows and the cut rows.

    ``LpProblem(instance)`` is the LP relaxation of the instance itself; its
    objective is the instance's profits, so the problem takes no terms to
    clean.  The knapsack row is implicit, as ``Instance.units``, and so are
    the group rows, as ``spans`` (each group's ``(start, end)`` columns,
    whose sum is at most 1 when the group has two or more).  The problem
    stores only the cut rows that :meth:`with_row` adds, as ``cut_rows``;
    ``rows`` makes the knapsack row (``model.knapsack_row``) on each read
    and puts it before them, for a caller that shows or counts them.
    The instance's weights and capacity are nonnegative, and so is each
    cut row's rhs, so x = 0 is feasible; bounds 0 <= x <= 1 are implicit
    and handled by the solver.

    Built once per problem: ``refs`` (the columns, in ``Instance.columns``
    order), ``costs`` and ``cost_scale`` (``Instance.profit_units``, shared
    with the instance), ``scaled_rows`` (``(coefficients, rhs,
    scale)`` for the knapsack row, from ``Instance.units``, then for each
    cut row, its ``LinearInequality.scaled`` through
    ``Instance.integer_row``) and ``scale``, the LCM of all these scales.
    """

    __slots__ = ("instance", "cut_rows", "refs", "costs", "cost_scale",
                 "scaled_rows", "spans", "scale")

    def __init__(self, instance: Instance):
        weight_scale, units, capacity = instance.units
        weights = [a for row in units for a in row]
        self.instance = instance
        self.cut_rows = ()
        self.refs = tuple(instance.columns)
        self.cost_scale, self.costs = instance.profit_units
        self.scaled_rows = [(weights, capacity, weight_scale)]
        ends = tuple(accumulate(map(len, units)))
        self.spans = tuple(zip((0,) + ends, ends))
        self.scale = lcm(self.cost_scale, weight_scale)

    @property
    def rows(self) -> tuple:
        """The knapsack row, made on this read, then the cut rows."""
        return (knapsack_row(self.instance),) + self.cut_rows

    def with_row(self, row) -> "LpProblem":
        """This problem plus the cut row ``row``: the scaled data is shared
        and only the new row is checked and filled dense
        (``Instance.integer_row``).  A negative rhs, a reference outside the
        instance and a row the problem has already, the knapsack row or a
        cut row in any equal form (its dense integer form is compared with
        theirs), raise ``ValidationError``."""
        if row.scaled[1] < 0:
            raise ValidationError("a cut row needs a nonnegative rhs")
        scaled = self.instance.integer_row(row)
        if scaled in self.scaled_rows:
            raise ValidationError("the LP has this row already in the pool")
        new = copy(self)
        new.cut_rows = self.cut_rows + (row,)
        new.scaled_rows = self.scaled_rows + [scaled]
        new.scale = lcm(self.scale, scaled[2])
        return new


class LpSolution(NamedTuple):
    """An exact node LP optimum, in integer form.

    ``scaled`` is the point as ``(D, ((VarRef, X), ...))``: refs sorted and
    unique, each X > 0, and x = X / D.  ``scaled_duals`` is ``(Y, ints)``,
    ints a tuple: y = ints / Y, one multiplier per problem row, then one
    bound multiplier per column of the node's spans.  ``value`` is the
    optimal value and ``pivots`` the simplex's basis changes.  ``point`` (a
    :class:`model.Point`, ``Point.from_scaled(*scaled)``) is made on each
    read; equality and hashing are those of the tuple of the four fields,
    the integer forms as they are.
    """

    value: Fraction
    scaled: tuple
    scaled_duals: tuple
    pivots: int

    @property
    def point(self) -> Point:
        return Point.from_scaled(*self.scaled)


def _solve_groups(problem: LpProblem, spans) -> LpSolution:
    """The closed form without cut rows, over the columns of ``spans``."""
    weights, capacity, weight_scale = problem.scaled_rows[0]
    costs, refs = problem.costs, problem.refs
    increments = []   # (column, weight step, cost step) along each hull
    for lo, hi in spans:
        # the upper concave hull of the origin and the span's slots with a
        # positive cost, lightest slot first, kept as its steps, which end
        # at (a0, c0): a slot no dearer than that point is dominated, and
        # a point on or below the segment from its predecessor to the new
        # slot is dropped.  A one-column span is its own increment.
        base, a0, c0 = len(increments), 0, 0
        for j in range(hi - 1, lo - 1, -1):
            c = costs[j]
            if c <= c0:
                continue
            a = weights[j]
            while len(increments) > base:
                _, step, gain = increments[-1]
                if gain * (a - a0) > (c - c0) * step:
                    break
                increments.pop()
                a0 -= step
                c0 -= gain
            increments.append((j, a - a0, c - c0))
            a0, c0 = a, c
    # Dantzig's ratio rule: take the increments whole, by efficiency, while
    # they fit; the first that does not is the critical one, (k, a, c), and
    # gets the room left.  When all fit, it is (None, 1, 0) with no room.
    # Each group sits at the end of its last whole increment, x = 1 (``at``
    # maps it there); the critical one moves its group room / a on, times D.
    increments.sort(key=cmp_to_key(_ratio_cmp))
    total, at, room = 0, {}, capacity
    k, a, c = None, 1, 0
    for j, step, gain in increments:
        if step > room:
            k, a, c = j, step, gain
            break
        at[refs[j].group] = j
        total += gain
        room -= step
    else:
        room = 0
    g = gcd(a, room)
    scale = a // g
    xs = dict.fromkeys(at.values(), scale)
    if room > 0:
        part = room // g
        j = at.get(refs[k].group)
        if j is not None:
            xs[j] = scale - part
        xs[k] = part
    entries = tuple((refs[j], xs[j]) for j in sorted(xs))
    # Times the dual scale: the knapsack multiplier is the critical
    # efficiency c / a, a group row's multiplier the most any slot of its
    # span earns past the knapsack's price of its weight, and a one-slot
    # group's bound multiplier takes that role, its group having no row.
    den = a * problem.cost_scale
    duals = [c * weight_scale]
    bounds = []
    for (start, end), (lo, hi) in zip(problem.spans, spans):
        best = 0
        for j in range(lo, hi):
            earns = costs[j] * a - c * weights[j]
            if earns > best:
                best = earns
        if end - start > 1:
            duals.append(best)
            best = 0
        bounds += [best] * (hi - lo)
    duals += bounds
    return LpSolution(Fraction(total * a + c * room, den),
                      (scale, entries), (den, tuple(duals)), 0)


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


def _solve_bounded(problem: LpProblem) -> LpSolution:
    """Bounded-variable simplex over the knapsack row, a 0/1 group row per
    span of two or more columns and the cut rows, from the slack basis, on
    every column."""
    nvars = len(problem.refs)
    lines = problem.scaled_rows[:1] + [
        ([int(start <= j < end) for j in range(nvars)], 1, 1)
        for start, end in problem.spans if end - start > 1
    ] + problem.scaled_rows[1:]
    nrows = len(lines)
    # columns: structural vars, slacks, rhs; the slack of row r carries the
    # row's scale, so the row's denominator sits at its basic column
    matrix = []
    for r, (dense, rhs, scale) in enumerate(lines):
        line = [*dense] + [0] * nrows + [rhs]
        line[nvars + r] = scale
        matrix.append(line)
    costs = problem.costs
    tab = _BoundedTableau(matrix, costs + (0,) * nrows, problem.cost_scale,
                          nvars)
    tab.run()

    # x_c is 1 when column c is flipped and nonbasic, and a basic column's
    # value is its row's rhs over its entry, complemented when flipped
    xs = [int(f) for f in tab.flipped]
    for line, bcol in zip(tab.matrix, tab.basis):
        if bcol < nvars:
            num, den = line[-1], line[bcol]
            if tab.flipped[bcol]:
                num = den - num
            xs[bcol] = Fraction(num, den)
    scale, ints = integer_form(xs)
    entries = tuple((ref, x) for ref, x in zip(problem.refs, ints) if x)
    zrow, zden = tab.zrow, tab.zden
    # Multiplier of row r is the negated reduced cost of its slack; the
    # bound multipliers are the positive reduced costs.
    duals = [-zrow[nvars + r] for r in range(nrows)]
    for c in range(nvars):
        reduced = -zrow[c] if tab.flipped[c] else zrow[c]
        duals.append(max(reduced, 0))
    total = sum(costs[c] * x for c, x in enumerate(ints) if x)
    return LpSolution(Fraction(total, scale * problem.cost_scale),
                      (scale, entries), (zden, tuple(duals)), tab.pivots)


def solve_lp(problem: LpProblem, *, spans=None) -> LpSolution:
    """Exact optimum of the boxed LP with its group rows, read from
    ``problem.spans``, over the columns of ``spans`` (``problem.spans`` by
    default): the closed form without cut rows, the simplex with them."""
    if spans is None:
        spans = problem.spans
    if not problem.cut_rows:
        return _solve_groups(problem, spans)
    if spans != problem.spans:
        raise ValidationError("cut rows are solved at the root's spans only")
    return _solve_bounded(problem)


def verify_certificate(problem: LpProblem, solution: LpSolution, *,
                       spans=None) -> bool:
    """Weak-duality check of ``solution.value``, in integers, from the
    problem's scaled data and the duals ``(Y, ints)`` alone, not the point:
    Y >= 1, the right count, no negative int, y A_j + u_j >= c_j on each
    column of ``spans`` (``problem.spans`` by default), and y . rhs +
    sum(u) = the value.  Each side is compared times Y and the problem's
    ``scale`` L, a group row read from its span.
    """
    if spans is None:
        spans = problem.spans
    ngroups = sum(end - start > 1 for start, end in problem.spans)
    nrows = len(problem.scaled_rows) + ngroups
    dual_scale, ys = solution.scaled_duals
    nfree = sum(hi - lo for lo, hi in spans)
    if dual_scale < 1 or len(ys) != nrows + nfree or min(ys) < 0:
        return False
    scale = problem.scale
    priced = [0] * len(problem.refs)  # (y A_j) * Y * L, stored rows only
    dual_value = 0                    # (y . rhs + sum(u)) * Y * L
    for (dense, rhs, row_scale), y in zip(problem.scaled_rows,
                                          ys[:1] + ys[1 + ngroups:]):
        if y:
            y *= scale // row_scale
            dual_value += y * rhs
            priced = [p + y * a for p, a in zip(priced, dense)]
    # span by span: the group row's multiplier (a one-slot group has none)
    # prices each free column of its span along with the column's bound
    costs = problem.costs
    cost_factor = scale // problem.cost_scale * dual_scale
    group_ys, bounds = iter(ys[1:]), iter(ys[nrows:])
    for (start, end), (lo, hi) in zip(problem.spans, spans):
        y = next(group_ys) * scale if end - start > 1 else 0
        dual_value += y
        for j, u in zip(range(lo, hi), bounds):
            if u:
                u *= scale
                dual_value += u
            if priced[j] + y + u < costs[j] * cost_factor:
                return False
    num, den = solution.value.as_integer_ratio()
    return dual_value * den == num * dual_scale * scale
