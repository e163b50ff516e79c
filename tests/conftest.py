"""Shared fixtures: the worked examples used throughout the docs plus corpus helpers."""

import random
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from itertools import product
from math import gcd
from operator import itemgetter

import pytest
from hypothesis import Phase, settings

from ckp import cuts, oracle, solver
from ckp.cuts import (lifted_cover_inequality_1, lifted_cover_inequality_2,
                      pack_inequality_1, pack_inequality_2, pack_inequality_3)
from ckp.errors import CkpError, PreconditionError, ResourceLimitError
from ckp.model import (Instance, LinearInequality, Point, VarRef, lhs_at,
                       weight_units)
from ckp.numeric import integer_form
from ckp.simplex import LpProblem, LpSolution

# Hypothesis's built-in "ci" profile (derandomized, no deadline), which it
# loads by itself on CI: every run of a @given test draws the same cases
settings.load_profile("ci")
# "ci" without the shrink phase, which tests/test_mutants.py passes to its
# runs as --hypothesis-profile (applied after the line above): the same
# draws, and a failing one is reported as drawn, unshrunk
settings.register_profile("mutants", settings.get_profile("ci"),
                          phases=[p for p in Phase if p is not Phase.shrink])


def make_instance(weights_by_group, capacity):
    """Build an instance with profits equal to weights (the usual fixture choice)."""
    groups = [(tuple(ws), tuple(ws)) for ws in weights_by_group]
    return Instance.build(groups, capacity)


# Three hand-checked instances that most of the suite leans on.  Weights double
# as profits so that optimal values stay easy to verify on paper.

@pytest.fixture
def ex_a():
    # d=7, capacity 21; two multi-slot groups
    return make_instance([(2,), (4,), (8,), (10, 6), (8, 4)], 21)


@pytest.fixture
def ex_b():
    # d=7, capacity 22; the instance whose second pack cut is *not* a facet
    return make_instance([(2,), (14, 10), (13, 9), (9, 6)], 22)


@pytest.fixture
def ex_c():
    # d=8, capacity 36; fractional-coefficient pack cuts live here
    return make_instance([(1,), (6,), (14, 10), (13, 9), (12, 8)], 36)


def with_profits(instance, objective):
    """The instance's weights and capacity with ``objective`` (a ``{ref:
    value}`` mapping; a ref left out earns 0, and a negative value is
    refused, as in any instance) as its profits: the way a test gives
    ``LpProblem``, which maximizes its instance's profit, an objective of
    its own."""
    return Instance.build(
        [(g.weights, tuple(objective.get(VarRef(i, j), 0)
                           for j in range(1, g.size + 1)))
         for i, g in enumerate(instance.groups, start=1)],
        instance.capacity)


def random_instance(rng, max_groups=5, max_slots=3, max_weight=20, profits="weights"):
    """Random normalized instance satisfying the standing assumptions.

    Weights are positive integers <= max_weight, groups sorted
    weight-descending, and the capacity splits the extremes: at least one
    multi-slot group (so complementarity matters) and the heaviest
    single-item-per-group selection overflows the knapsack.  With
    profits="random" the objective is drawn independently of the weights,
    which makes branching far more likely.
    """
    while True:
        m = rng.randint(2, max_groups)
        sizes = [rng.randint(1, max_slots) for _ in range(m)]
        if all(s == 1 for s in sizes):
            sizes[rng.randrange(m)] = rng.randint(2, max_slots)
        groups = []
        for size in sizes:
            pairs = [(rng.randint(1, max_weight), rng.randint(1, max_weight))
                     for _ in range(size)]
            pairs.sort(key=lambda t: (-t[0], -t[1]))
            ws = tuple(p[0] for p in pairs)
            cs = tuple(p[1] for p in pairs) if profits == "random" else ws
            groups.append((ws, cs))
        heaviest = sum(g[0][0] for g in groups)
        if heaviest < 2:
            continue
        b = rng.randint(1, heaviest - 1)
        inst = Instance.build(groups, Fraction(b))
        return inst


def rational_instance(rng):
    """Small instance with rational and zero weights and repeated ratios."""
    groups = []
    for _ in range(rng.randint(2, 4)):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            a = rng.choice((Fraction(0), Fraction(rng.randint(1, 12)),
                            Fraction(rng.randint(1, 30), rng.randint(2, 5))))
            c = (a * rng.choice((1, 2)) if rng.random() < 0.4
                 else Fraction(rng.randint(0, 20), rng.randint(1, 3)))
            pairs.append((a, c))
        pairs.sort(key=lambda t: (-t[0], -t[1]))
        groups.append((tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)))
    heaviest = sum(max(g[0]) for g in groups)
    capacity = heaviest * Fraction(rng.randint(0, 12), 12)
    return Instance.build(groups, capacity)


def correlated_instance(rng):
    """Small strongly correlated instance (profit = weight + k, one k per
    instance; Pisinger 2005) with rational and zero weights and two or
    three slots per group.  Every group's hull steps after the first earn
    one per unit of weight, so the LP relaxation with group rows still
    leaves groups split between two slots, and branch-and-cut still
    branches."""
    k = Fraction(rng.randint(1, 10), rng.randint(1, 3))
    groups = []
    for _ in range(rng.randint(2, 4)):
        weights = sorted((rng.choice((Fraction(0), Fraction(rng.randint(1, 20)),
                                      Fraction(rng.randint(1, 40), rng.randint(2, 5))))
                          for _ in range(rng.randint(2, 3))), reverse=True)
        groups.append((tuple(weights), tuple(a + k for a in weights)))
    heaviest = sum(g[0][0] for g in groups)
    capacity = heaviest * Fraction(rng.randint(1, 11), 12)
    return Instance.build(groups, capacity)


def weight_of(instance: Instance, point) -> Fraction:
    """Exact weight of ``point`` (anything with an integer form ``scaled``),
    summed in :attr:`Instance.units`, every reference checked."""
    total, point_scale = weight_units(instance, point)
    return Fraction(total, instance.units[0] * point_scale)


def itemset_weight(instance, itemset):
    """The weight s of an item set (any iterable of VarRefs), summed in
    Fractions: the reference for the integer sums the cut builders weigh
    their item sets by."""
    return sum((instance.weight(ref) for ref in itemset), Fraction(0))


def tilt_pack_inequality(instance, cut, tilt_group):
    """Apply the tilting steps to a pack2 cut, independent of the library's
    pack3 closed form: shrink the singleton's coefficient, grow the other
    non-singleton pack items, scale the rhs slack.  The reference that
    ``pack_inequality_3`` is checked against."""
    if cut.family != "pack2":
        raise PreconditionError("tilting starts from a pack2 cut")
    m0 = instance.m0
    if tilt_group not in m0 or tilt_group not in {r.group for r in cut.items}:
        raise PreconditionError(
            "tilt group %d is not a singleton pack group" % tilt_group)
    b = instance.capacity
    s = itemset_weight(instance, cut.items)
    slack = b - s
    group = cut.key[2][0]  # the pivot's
    denom = instance.weight(VarRef(group, dict(cut.items)[group])) + slack
    tilt_ref = VarRef(tilt_group, 1)
    factor = instance.weight(tilt_ref) / denom
    coeffs = dict(cut.inequality.terms)
    coeffs[tilt_ref] = coeffs.get(tilt_ref, Fraction(0)) - slack * factor
    for ref in cut.items:
        if ref.group not in m0 and ref.group != group:
            coeffs[ref] += slack * factor
    free = [r.group for r in cut.items if r.group not in m0]
    rhs = cut.inequality.rhs + (len(free) - 2) * slack * factor
    return LinearInequality(coeffs, rhs)


def reference_is_maximal_switching_pack(instance, itemset):
    """The maximal-switching test in Fractions, independent of the
    library's integer one: a pack (s < b) of last-slot items where moving
    any non-singleton item to its next-heavier slot gives s' > b."""
    b = instance.capacity
    s = itemset_weight(instance, itemset)
    if s >= b:
        return False
    for ref in itemset:
        weights = instance.groups[ref.group - 1].weights
        if ref.slot != len(weights):
            return False
        if len(weights) > 1 and s - weights[-1] + weights[-2] <= b:
            return False
    return True


def family_cuts(instance: Instance, itemset, families):
    """Every member of ``families`` that one item set (a sorted VarRef
    tuple) gives, in order.

    Pass pack families for a pack and cover families for a cover.  Per
    family: ``pack1`` once; ``pack2`` once per non-singleton last-slot
    pivot and ``pack3`` once per such pivot and singleton tilt group, both
    only when the pack has two non-singleton groups; ``lcover1`` once and
    ``lcover2`` once per in-cover item above its group's last slot, each
    skipped when its lifting condition fails.  The build-every-member
    reference that ``cuts.family_members``, the library's member list, is
    checked against.
    """
    if "pack1" in families:
        yield pack_inequality_1(instance, itemset)
    if "pack2" in families or "pack3" in families:
        m0 = instance.m0
        groups = [ref.group for ref in itemset]
        if len([i for i in groups if i not in m0]) >= 2:
            singles = sorted(i for i in groups if i in m0)
            for pivot in itemset:
                if (pivot.group in m0
                        or pivot.slot != instance.groups[pivot.group - 1].size):
                    continue
                if "pack2" in families:
                    yield pack_inequality_2(instance, itemset, pivot)
                if "pack3" in families:
                    for tilt in singles:
                        yield pack_inequality_3(instance, itemset, pivot, tilt)
    if "lcover1" in families:
        try:
            cut = lifted_cover_inequality_1(instance, itemset)
        except PreconditionError:
            pass
        else:
            yield cut
    if "lcover2" in families:
        for special in itemset:
            if special.slot >= instance.groups[special.group - 1].size:
                continue
            try:
                cut = lifted_cover_inequality_2(instance, itemset, special)
            except PreconditionError:
                continue
            yield cut


def is_cover(instance, itemset):
    """s > b, the item set's references checked."""
    for ref in itemset:
        instance.check_ref(ref)
    return itemset_weight(instance, itemset) > instance.capacity


def is_pack(instance, itemset):
    """s < b, the item set's references checked."""
    for ref in itemset:
        instance.check_ref(ref)
    return itemset_weight(instance, itemset) < instance.capacity


# --- the Fraction oracle ------------------------------------------------------
# The library's oracle walks the patterns in integer units and ranks integer
# rows.  Below are Fraction versions, independent of it, as references.

def check_enum_limit(instance, limit=None):
    """The enumeration guard's rule: a pattern space above the limit raises."""
    estimate = oracle.pattern_count(instance)
    allowed = oracle.resolve_enum_limit(limit)
    if estimate > allowed:
        raise ResourceLimitError(
            "pattern space %d exceeds enumeration limit %d" % (estimate, allowed),
            estimate=estimate)


def iter_patterns(instance):
    """All support patterns, lexicographically, 0 meaning 'no slot chosen':
    the order of ``oracle.walk_patterns``, which leaves out the first, empty,
    pattern."""
    return product(*(range(g.size + 1) for g in instance.groups))


def reference_candidate_vertices(instance, limit=None):
    """Deduplicated candidate vertices, summed in Fractions per pattern, in
    walk order: per pattern the all-ones point, then the fractional ones,
    last item first.  The reference that
    ``oracle.enumerate_candidate_vertices`` is checked against."""
    check_enum_limit(instance, limit)
    b = instance.capacity
    weights = [g.weights for g in instance.groups]
    seen = {}  # insertion-ordered
    for pattern in iter_patterns(instance):
        chosen = [(VarRef(i, j), weights[i - 1][j - 1])
                  for i, j in enumerate(pattern, start=1) if j]
        total = sum((w for _, w in chosen), Fraction(0))
        if total <= b:
            seen[tuple((ref, Fraction(1)) for ref, _ in chosen)] = None
        for k, (ref, a) in reversed(list(enumerate(chosen))):
            if a == 0:
                continue
            frac = (b - (total - a)) / a
            if 0 < frac < 1:
                seen[tuple((r, frac if idx == k else Fraction(1))
                           for idx, (r, _) in enumerate(chosen))] = None
    return tuple(map(Point, seen))


def fraction_affine_rank(vectors, cap=None):
    """Plain Gaussian elimination in Fractions on the differences from the
    first vector: the reference the integer elimination is checked against."""
    vectors = list(vectors)
    if not vectors:
        return -1
    rows = [[x - y for x, y in zip(v, vectors[0])] for v in vectors[1:]]
    rank = 0
    for col in range(len(vectors[0])):
        pivot = next((r for r in rows[rank:] if r[col] != 0), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for k in range(rank + 1, len(rows)):
            factor = rows[k][col] / pivot[col]
            rows[k] = [x - factor * y for x, y in zip(rows[k], pivot)]
        rank += 1
    return rank if cap is None else min(rank, cap)


def reference_face_dimension(instance, inequality, limit=None):
    """Face dimension by one maximization over S and one enumeration per
    inequality: validity from ``oracle.check_validity``, then the affine
    rank of the tight reference candidates as Fraction vectors, by Fraction
    elimination.  The reference that ``oracle.VertexSet.face_dimension`` is
    checked against."""
    result = oracle.check_validity(instance, inequality, limit)
    if not result.valid:
        raise PreconditionError(
            "inequality is not valid (max %s > rhs %s)"
            % (result.max_value, inequality.rhs),
            witness=result.witness)
    candidates = reference_candidate_vertices(instance, limit)
    rhs = inequality.rhs
    tight = (p for p in candidates if lhs_at(inequality, p) == rhs)
    refs = list(instance.columns)
    cap = instance.dimension - 1 if inequality.terms else instance.dimension
    vectors = (tuple(dict(p.entries).get(r, _F0) for r in refs)
               for p in tight)
    return fraction_affine_rank(vectors, cap)


# --- the Fraction node LP and oracle fill ------------------------------------
# The library's node LP, its certificate check and the oracle's per-pattern
# fill work on integer-scaled data.  Below are Fraction versions of each, as
# references for them.

_F0 = Fraction(0)
_F1 = Fraction(1)
_ratio_key = itemgetter(0)


def lp_solution(value, point, duals, pivots):
    """The ``LpSolution`` of a Fraction ``value``, a ``point`` (its
    ``entries`` read as they are, unchecked) and Fraction ``duals``: the
    point and the duals each put in integer form by
    ``numeric.integer_form``.  The one way tests make a solution from
    Fractions, as the references below and the forged solutions do."""
    scale, xs = integer_form(x for _, x in point.entries)
    refs = [ref for ref, _ in point.entries]
    return LpSolution(value, (scale, tuple(zip(refs, xs))),
                      integer_form(duals), pivots)


def forged_solve(instance, forge, config=None):
    """``branch_and_cut`` with each node LP solution passed through
    ``forge(solution, problem, spans)``, which returns it or a forgery:
    the report, or the ``CkpError`` that the solve raised."""
    real = solver.solve_lp

    def forging(problem, *, spans):
        return forge(real(problem, spans=spans), problem, spans)

    solver.solve_lp = forging
    try:
        return solver.branch_and_cut(instance, config)
    except CkpError as exc:
        return exc
    finally:
        solver.solve_lp = real


def fraction_duals(solution):
    """An ``LpSolution``'s duals as Fractions, y = ints / Y, from its
    integer form ``scaled_duals = (Y, ints)``."""
    scale, ints = solution.scaled_duals
    return tuple(Fraction(y, scale) for y in ints)


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


def profits(instance):
    """``{ref: profit}`` over every variable of the instance: the objective
    of its LP."""
    return {ref: instance.profit(ref) for ref in instance.columns}


def group_rows(instance):
    """The rows sum_j x_ij <= 1 of every group, one-slot groups included,
    in group order, as ``(terms, rhs)``."""
    return [([(VarRef(i, j), _F1) for j in range(1, g.size + 1)], _F1)
            for i, g in enumerate(instance.groups, start=1)]


def _above(p, q, r):
    """Whether hull point q lies strictly above the segment from p to r,
    each a ``(ref, a, c)`` triple with a_p <= a_q <= a_r."""
    (_, a0, c0), (_, a1, c1), (_, a2, c2) = p, q, r
    if a2 == a0:
        return False
    return c1 > c0 + (c2 - c0) * (a1 - a0) / (a2 - a0)


def _solve_groups(problem: LpProblem, refs) -> LpSolution:
    """The closed form without cut rows, the multiple-choice knapsack LP,
    in Fractions: per group, the upper concave hull of the origin and the
    free slots with a positive profit, lightest first; the hull steps,
    group by group, filled by :func:`fill_knapsack` above; the critical
    ratio prices the knapsack row, and each group row the most any of its
    free slots earns past that price."""
    instance = problem.instance
    objective = profits(instance)
    free = set(refs)
    steps = []
    for i, g in enumerate(instance.groups, start=1):
        hull = [(None, _F0, _F0)]
        for j in range(g.size, 0, -1):
            ref = VarRef(i, j)
            point = (ref, g.weights[j - 1], objective.get(ref, _F0))
            if ref not in free or point[2] <= hull[-1][2]:
                continue
            while len(hull) > 1 and not _above(hull[-2], hull[-1], point):
                hull.pop()
            hull.append(point)
        steps += [((p[0], q[0]), q[1] - p[1], q[2] - p[2])
                  for p, q in zip(hull, hull[1:])]
    value, filled, ratio = fill_knapsack(steps, instance.capacity)
    x = {}
    for (start, end), t in filled:
        if t == 1:
            x.pop(start, None)
            x[end] = _F1
        else:
            if start is not None:
                x[start] = 1 - t
            x[end] = t
    y = _F0 if ratio is None else ratio
    rows = [max([objective.get(VarRef(i, j), _F0) - y * a
                 for j, a in enumerate(g.weights, start=1)
                 if VarRef(i, j) in free] + [_F0])
            for i, g in enumerate(instance.groups, start=1)]
    return lp_solution(value, Point(x), (y, *rows), 0)


def _solve_tableau(problem: LpProblem, refs) -> LpSolution:
    """Simplex over Fractions by Bland's rule, on the knapsack row, the
    group rows and the cut rows, over the columns ``refs``, from the slack
    basis.

    Each row reads ``basic + sum(T[c] * x_c) = rhs`` (rhs in the last
    column) and ``zrow`` holds the reduced costs.  The slack of row r is
    column ``nvars + r``, and the slacks cost nothing, so the reduced costs
    start as the costs.
    """
    col_of = {ref: idx for idx, ref in enumerate(refs)}
    nvars = len(refs)
    knapsack, *cuts = problem.rows
    rows = ([(knapsack.terms, knapsack.rhs)] + group_rows(problem.instance)
            + [(row.terms, row.rhs) for row in cuts])
    nrows = len(rows)
    # columns: structural vars, slacks, rhs
    matrix = []
    for r, (terms, rhs) in enumerate(rows):
        line = [_F0] * (nvars + nrows + 1)
        for ref, coeff in terms:
            c = col_of.get(ref)
            if c is not None:
                line[c] = coeff
        line[nvars + r] = _F1
        line[-1] = rhs
        matrix.append(line)
    objective = profits(problem.instance)
    zrow = [objective[ref] for ref in refs] + [_F0] * (nrows + 1)
    basis = list(range(nvars, nvars + nrows))
    pivots = 0
    while True:
        entering = next((c for c in range(nvars + nrows) if zrow[c] > 0),
                        None)
        if entering is None:
            break
        # the least step rhs / entry, ties to the smallest basic index
        best = leaving = None
        for r, line in enumerate(matrix):
            a = line[entering]
            if a > 0:
                step = line[-1] / a
                if best is None or step < best or (
                        step == best and basis[r] < basis[leaving]):
                    best, leaving = step, r
        if leaving is None:
            raise CkpError("LP is unbounded")
        inv = matrix[leaving][entering]
        prow = [entry / inv if entry else entry for entry in matrix[leaving]]
        matrix[leaving] = prow
        for r, other in enumerate(matrix):
            factor = other[entering]
            if r != leaving and factor:
                matrix[r] = [entry - factor * p if p else entry
                             for entry, p in zip(other, prow)]
        factor = zrow[entering]
        zrow = [z - factor * p if p else z for z, p in zip(zrow, prow)]
        basis[leaving] = entering
        pivots += 1

    xs = [_F0] * nvars
    for r, bcol in enumerate(basis):
        if bcol < nvars:
            xs[bcol] = matrix[r][-1]
    value = sum((objective[ref] * x for ref, x in zip(refs, xs)), _F0)
    # Multiplier of row r is the negated reduced cost of its slack.
    duals = tuple(-zrow[nvars + r] for r in range(nrows))
    return lp_solution(value, Point(zip(refs, xs)), duals, pivots)


# --- the integer closed form by comparator and column scan --------------------
# ``simplex._solve_groups`` once ordered the hull steps with the comparator
# below and found each group multiplier by scanning its span's columns.
# Both are kept here, their bodies unchanged, as the reference that the
# integer sort key and the multipliers read off the hull are checked
# against: the same value, point, duals and pivots.

def _ratio_cmp(s, t):
    # Negative when c_s/a_s > c_t/a_t; a weight of zero ranks as infinite.
    return t[2] * s[1] - s[2] * t[1]


def comparator_solve_groups(problem: LpProblem, spans) -> LpSolution:
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
    # efficiency c / a, and a group row's multiplier the most any slot of
    # its span earns past the knapsack's price of its weight.
    den = a * problem.cost_scale
    duals = [c * weight_scale]
    for lo, hi in spans:
        best = 0
        for j in range(lo, hi):
            earns = costs[j] * a - c * weights[j]
            if earns > best:
                best = earns
        duals.append(best)
    return LpSolution(Fraction(total * a + c * room, den),
                      (scale, entries), (den, tuple(duals)), 0)


def random_spans(rng, instance, rate):
    """Random node column spans: each column of the instance is dropped
    with probability ``rate``, one draw per column in column order, and each
    group keeps the range from its first to its last column not dropped,
    empty (at the group's first column) when all are.  So the spans nest in
    ``LpProblem(instance).spans``, as a branch-and-cut node's do."""
    spans, start = [], 0
    for group in instance.groups:
        kept = [j for j in range(start, start + group.size)
                if rng.random() >= rate]
        spans.append((kept[0], kept[-1] + 1) if kept else (start, start))
        start += group.size
    return tuple(spans)


def span_refs(problem, spans):
    """The refs of the columns inside ``spans``, in column order: the
    variables the node leaves free."""
    return [problem.refs[j] for lo, hi in spans for j in range(lo, hi)]


def reference_solve_lp(problem, *, spans):
    """Exact optimum of the node LP over the columns of the node's
    ``spans``, in Fractions.  The reference that ``simplex.solve_lp`` is
    checked against: the same value, point, duals and pivots."""
    refs = span_refs(problem, spans)
    if not problem.cut_rows:
        return _solve_groups(problem, refs)
    return _solve_tableau(problem, refs)


def reference_maximize_over_S(instance, objective, limit=None):
    """Exact maximum of a linear objective over S, with a maximizing point.

    Per support pattern this is a fractional knapsack, filled by the
    Fraction :func:`fill_knapsack` above (ties by variable order).  Across
    patterns, ties keep the lexicographically smallest pattern.  The
    reference that ``oracle.maximize_over_S`` is checked against.
    """
    check_enum_limit(instance, limit)
    coeffs = {}
    for ref, value in (objective.items() if hasattr(objective, "items") else objective):
        if not isinstance(ref, VarRef):
            ref = VarRef(*ref)
        instance.check_ref(ref)
        coeffs[ref] = Fraction(value) if not isinstance(value, Fraction) else value
    b = instance.capacity
    table = [[(VarRef(i, j), a, coeffs.get(VarRef(i, j), _F0))
              for j, a in enumerate(g.weights, start=1)]
             for i, g in enumerate(instance.groups, start=1)]
    best_value = None
    best_entries = None
    for pattern in iter_patterns(instance):
        value, entries, _ = fill_knapsack(
            [slots[j - 1] for slots, j in zip(table, pattern) if j], b)
        if best_value is None or value > best_value:
            best_value = value
            best_entries = entries
    return best_value, Point(best_entries)


# --- integer forms ------------------------------------------------------------
# The library scales rationals to integers in one routine,
# ``numeric.integer_form``.  Below is the same scaling in Fractions, as the
# reference for it, for ``Instance.integer_row`` and for LpProblem's data.

LARGE_PRIMES = (7919, 104729, 999983, 2 ** 31 - 1, 2 ** 61 - 1)


def reference_integer_form(values):
    """The least positive L that makes every value an integer, grown one
    value at a time by the denominator of value * L, and the values times
    L."""
    values = [Fraction(v) for v in values]
    scale = 1
    for v in values:
        scale *= (v * scale).denominator
    return scale, [int(v * scale) for v in values]


def reference_integer_row(instance, terms, rhs=0):
    """``(coefficients, rhs, scale)`` of a sparse row: its Fraction
    coefficients, dense over ``instance.columns``, and its rhs, scaled by
    :func:`reference_integer_form`."""
    coeffs = dict(terms)
    scale, ints = reference_integer_form(
        [coeffs.get(ref, _F0) for ref in instance.columns] + [rhs])
    return ints[:-1], ints[-1], scale


def reference_lp_data(instance, rows=()):
    """``(costs, cost_scale, scaled_rows, scale)`` of ``LpProblem(instance)``,
    the costs a tuple, as ``Instance.profit_units`` keeps them,
    with each of ``rows`` added by ``with_row``, scaled in Fractions: the
    costs are the instance's profits, the knapsack row comes first, then
    the cut rows, and the scale is the LCM of every row's and the costs'
    scales.  The group rows are not among them: their scale is 1, and the
    problem keeps them as spans."""
    refs = list(instance.columns)
    costs, _, cost_scale = reference_integer_row(
        instance, profits(instance).items())
    knapsack = [(ref, instance.weight(ref)) for ref in refs]
    sparse = [(knapsack, instance.capacity)] + [(r.terms, r.rhs) for r in rows]
    scaled_rows = [reference_integer_row(instance, terms, rhs)
                   for terms, rhs in sparse]
    # the LCM of the scales is the least L making every 1 / scale * L whole
    scale, _ = reference_integer_form(
        [Fraction(1, s) for s in [cost_scale] + [r[2] for r in scaled_rows]])
    return tuple(costs), cost_scale, scaled_rows, scale


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def small_corpus(rng):
    """A couple dozen random instances for cheap property checks."""
    return [random_instance(rng) for _ in range(25)]


CUT_BUILDERS = ("pack_inequality_1", "pack_inequality_2", "pack_inequality_3",
                "lifted_cover_inequality_1", "lifted_cover_inequality_2")


def build_member(instance, key):
    """The cut whose provenance key is ``key``, built by its family's public
    builder from the key's item tuple: the reference that a listed member's
    cut, made by ``cuts.member_cut`` from its form, is compared against.
    The builder is looked up by its ``ckp.cuts`` name, so the ``built``
    fixture counts these calls."""
    items, rank, aux = key
    args = ()
    if aux:  # the pivot or special item, by its group, then any tilt group
        args = ((aux[0], dict(items).get(aux[0])),) + aux[1:]
    return getattr(cuts, CUT_BUILDERS[rank])(instance, items, *args)


@pytest.fixture
def built(monkeypatch):
    """Successful calls per public cut builder, counted through ``ckp.cuts``'
    module names (where the benchmark's tracer wraps them as
    ``cuts.build``); the calls that raised are counted per builder in
    ``built.raised``.  Separation and ``ckp cuts`` call none of them: they
    make each cut from its listed form through ``cuts.member_cut``, so
    only a direct call counts."""
    counts = Counter()
    counts.raised = Counter()

    def counting(name, builder):
        def wrapper(*args, **kwargs):
            try:
                cut = builder(*args, **kwargs)
            except Exception:
                counts.raised[name] += 1
                raise
            counts[name] += 1
            return cut
        return wrapper

    for name in CUT_BUILDERS:
        monkeypatch.setattr(cuts, name, counting(name, getattr(cuts, name)))
    return counts
