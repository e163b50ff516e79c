"""Exact node LP on integer-scaled data: the multiple-choice knapsack closed
form and a fraction-free simplex.

Maximizes the instance's profit over {x >= 0, rows A x <= rhs}, where the
rows are the instance's knapsack row, one group row sum_j x_ij <= 1 per
group, one-slot groups included, and any cut rows (the root's only), over
a node's column spans (one ``(lo, hi)`` range per group, nested in
``LpProblem.spans``, the root's), the other columns held at zero.  The
group rows hold on all of S, since a point of S keeps at most one slot
per group positive, each at most 1; with x >= 0 they imply x <= 1, so
the LP has no bounds beside them.

Every weight and every row's right-hand side is nonnegative, so x = 0 is
feasible: an ``Instance`` refuses negative weights and capacity, and
:meth:`LpProblem.with_row` a cut row with a negative right-hand side,
which no inequality valid for S has, since the origin lies in S.

:class:`LpProblem` takes its data in integers, with no Fraction round
trip: the knapsack row is ``Instance.units``, a group row is its span of
columns (``LpProblem.spans``, read with the column refs off
``Instance.layout``, made once per tuple of group sizes and shared by
every instance of it), the costs are ``Instance.profit_units``, scaled
once per instance, and each cut row is its own integer form
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
  Dantzig's rule on the slots.  The duals are read off the hulls: the
  knapsack multiplier is the critical efficiency (the first increment's
  not taken whole), or 0 when all fits, and a group row's multiplier is
  c_j - ratio * a_j at the end j of its last whole increment, or 0 when
  it took none, which is max(0, max_j c_j - ratio * a_j) over its span.
* **With cut rows** (the root only).  The simplex runs on a tableau that
  holds the knapsack row, the group rows and the cut rows, over every
  column, starting from the slack basis (x = 0).  The tableau is
  fraction-free: each row is a list of integers whose denominator is its
  basic variable's entry, and after a pivot every changed row is divided
  by its gcd.  Bland's rule (smallest eligible index, both for entering
  and leaving) guarantees termination (Bland, Mathematics of Operations
  Research 1977); ratio tests compare by cross-multiplication.

The duals hold one multiplier y_r per row, in order: the knapsack row, the
group rows in ``LpProblem.spans`` order, the cut rows.  They bound the
node LP by its value: y >= 0, y A_j >= c_j for every column of the
node's spans, and y . rhs = the value, which :func:`verify_certificate`
checks in integers without reading the point.  ``pivots`` counts the
simplex's basis changes; the closed form reports 0.
"""

from __future__ import annotations

from copy import copy
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import CkpError, ValidationError
from .model import Instance, Point, knapsack_row
from .numeric import integer_form


class LpProblem:
    """The node LP's data, scaled to integers: the instance's profits as the
    objective, its knapsack row, its group rows and the cut rows.

    ``LpProblem(instance)`` is the LP relaxation of the instance itself; its
    objective is the instance's profits, so the problem takes no terms to
    clean.  The knapsack row is implicit, as ``Instance.units``, and so are
    the group rows, as ``spans`` (each group's ``(start, end)`` columns,
    whose sum is at most 1).  The problem stores only the cut rows that
    :meth:`with_row` adds, as ``cut_rows``; ``rows`` makes the knapsack
    row (``model.knapsack_row``) on each read and puts it before them, for
    a caller that shows or counts them.  The instance's weights and
    capacity are nonnegative, and so is each cut row's rhs, so x = 0 is
    feasible; x >= 0 is implicit.

    Shared with every instance of the group sizes: ``refs`` (the columns,
    in ``Instance.columns`` order) and ``spans``, read off
    ``Instance.layout``.  Shared with the instance: ``costs`` and
    ``cost_scale`` (``Instance.profit_units``).  Built once per problem:
    ``scaled_rows`` (``(coefficients, rhs, scale)`` for the knapsack row,
    from ``Instance.units``, then for each cut row, its
    ``LinearInequality.scaled`` through ``Instance.integer_row``) and
    ``scale``, the LCM of all these scales.
    """

    __slots__ = ("instance", "cut_rows", "refs", "costs", "cost_scale",
                 "scaled_rows", "spans", "scale")

    def __init__(self, instance: Instance):
        weight_scale, units, capacity = instance.units
        weights = [a for row in units for a in row]
        self.instance = instance
        self.cut_rows = ()
        layout = instance.layout
        self.refs, self.spans = layout.refs, layout.spans
        self.cost_scale, self.costs = instance.profit_units
        self.scaled_rows = [(weights, capacity, weight_scale)]
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
    ints a tuple: y = ints / Y, one multiplier per row, 1 + m + k in all
    (the knapsack row, the m group rows, the k cut rows), whatever the
    node's spans.  ``value`` is the optimal value and ``pivots`` the
    simplex's basis changes.  ``point`` (a :class:`model.Point`,
    ``Point.from_scaled(*scaled)``) is made on each read; equality and
    hashing are those of the tuple of the four fields, the integer forms
    as they are.
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
    # By floor(W^2 c / a), W the heaviest weight: ratios of steps up to W
    # differ by 1 / W^2 or more, so ties stay tied; weightless steps first.
    square = max(weights) ** 2
    increments.sort(key=lambda t: -(square * t[2] // t[1]) if t[1]
                    else float("-inf"))
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
    # efficiency c / a, and a group row's multiplier what the end of its
    # last whole increment earns past that price of its weight: the steps
    # up to it are no less efficient, the next no more, so none earns more.
    den = a * problem.cost_scale
    duals = [c * weight_scale]
    for i in range(1, len(spans) + 1):
        j = at.get(i)
        duals.append(0 if j is None else costs[j] * a - c * weights[j])
    return LpSolution(Fraction(total * a + c * room, den),
                      (scale, entries), (den, tuple(duals)), 0)


def _reduced(line):
    """The integer list divided by the gcd of its entries."""
    divisor = gcd(*line)
    return [x // divisor for x in line] if divisor > 1 else line


def _solve_tableau(problem: LpProblem) -> LpSolution:
    """Bland's simplex over the knapsack row, a 0/1 group row per span and
    the cut rows, from the slack basis, on every column.

    Row r is a list of integers N whose positive denominator is the entry
    of its basic variable b: it reads ``x_b + sum(N[c] / N[b] * x_c) =
    N[-1] / N[b]``.  The reduced costs are ``zrow[c] / zden`` with zden >
    0.  The slack of row r is column ``nvars + r`` and carries the row's
    scale, so the row's denominator sits at its basic column; the slacks
    cost nothing, so the reduced costs start as the costs.
    """
    nvars = len(problem.refs)
    lines = problem.scaled_rows[:1] + [
        ([int(start <= j < end) for j in range(nvars)], 1, 1)
        for start, end in problem.spans
    ] + problem.scaled_rows[1:]
    nrows = len(lines)
    matrix = []
    for r, (dense, rhs, scale) in enumerate(lines):
        line = [*dense] + [0] * nrows + [rhs]
        line[nvars + r] = scale
        matrix.append(line)
    basis = list(range(nvars, nvars + nrows))
    costs = problem.costs
    zrow, zden = list(costs) + [0] * (nrows + 1), problem.cost_scale
    pivots = 0
    while True:
        entering = next((c for c in range(nvars + nrows) if zrow[c] > 0),
                        None)
        if entering is None:
            break
        # the least step rhs / entry over the positive entries, ties to the
        # smallest basic index
        leaving = None
        for r, line in enumerate(matrix):
            a = line[entering]
            if a > 0 and (leaving is None or line[-1] * p < step * a or (
                    line[-1] * p == step * a and basis[r] < basis[leaving])):
                leaving, step, p = r, line[-1], a
        if leaving is None:
            raise CkpError("LP is unbounded")
        # the pivot row keeps its integers (its new denominator is p); every
        # other row with an entry at ``entering`` is cross-multiplied with
        # it and divided by its gcd
        prow = matrix[leaving]
        for r, other in enumerate(matrix):
            factor = other[entering]
            if r != leaving and factor:
                matrix[r] = _reduced([x * p - factor * y
                                      for x, y in zip(other, prow)])
        factor = zrow[entering]
        *zrow, zden = _reduced([x * p - factor * y
                                for x, y in zip(zrow, prow)] + [zden * p])
        basis[leaving] = entering
        pivots += 1

    # a basic column's value is its row's rhs over its entry
    xs = [0] * nvars
    for line, bcol in zip(matrix, basis):
        if bcol < nvars:
            xs[bcol] = Fraction(line[-1], line[bcol])
    scale, ints = integer_form(xs)
    entries = tuple((ref, x) for ref, x in zip(problem.refs, ints) if x)
    # Multiplier of row r is the negated reduced cost of its slack.
    duals = tuple(-zrow[nvars + r] for r in range(nrows))
    total = sum(costs[c] * x for c, x in enumerate(ints) if x)
    return LpSolution(Fraction(total, scale * problem.cost_scale),
                      (scale, entries), (zden, duals), pivots)


def solve_lp(problem: LpProblem, *, spans) -> LpSolution:
    """Exact optimum of the node LP over the columns of ``spans``: the
    closed form without cut rows, the simplex with them, at the root's
    spans (``problem.spans``) only."""
    if not problem.cut_rows:
        return _solve_groups(problem, spans)
    if spans != problem.spans:
        raise ValidationError("cut rows are solved at the root's spans only")
    return _solve_tableau(problem)


def verify_certificate(problem: LpProblem, solution: LpSolution, *,
                       spans) -> bool:
    """Weak-duality check of ``solution.value``, in integers, from the
    problem's scaled data and the duals ``(Y, ints)`` alone, not the point:
    Y >= 1, one int per row (the knapsack row, the group rows, the cut
    rows), no negative int, y A_j >= c_j on each column of ``spans``, and
    y . rhs = the value.  Each side is compared times Y and the problem's
    ``scale`` L, a group row read from its span.
    """
    ngroups = len(problem.spans)
    dual_scale, ys = solution.scaled_duals
    if (dual_scale < 1 or len(ys) != len(problem.scaled_rows) + ngroups
            or min(ys) < 0):
        return False
    scale = problem.scale
    priced = [0] * len(problem.refs)  # (y A_j) * Y * L, stored rows only
    dual_value = 0                    # (y . rhs) * Y * L
    for (dense, rhs, row_scale), y in zip(problem.scaled_rows,
                                          ys[:1] + ys[1 + ngroups:]):
        if y:
            y *= scale // row_scale
            dual_value += y * rhs
            priced = [p + y * a for p, a in zip(priced, dense)]
    # span by span: the group row's multiplier prices each free column of
    # its span
    costs = problem.costs
    cost_factor = scale // problem.cost_scale * dual_scale
    for (lo, hi), y in zip(spans, ys[1:1 + ngroups]):
        y *= scale
        dual_value += y
        for j in range(lo, hi):
            if priced[j] + y < costs[j] * cost_factor:
                return False
    num, den = solution.value.as_integer_ratio()
    return dual_value * den == num * dual_scale * scale
