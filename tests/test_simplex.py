import importlib
import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from ckp import cuts, simplex, solver
from ckp.errors import CkpError, PreconditionError, ValidationError
from ckp.model import (
    Instance,
    LinearInequality,
    Point,
    VarRef,
    knapsack_row,
)
from ckp.simplex import LpProblem, LpSolution, solve_lp, verify_certificate
from ckp.solver import SolveConfig, branch_and_cut
from ckp import oracle

from conftest import (LARGE_PRIMES, _solve_tableau as reference_solve_tableau,
                      comparator_solve_groups, correlated_instance,
                      forged_solve, fraction_duals, group_rows, lp_solution,
                      make_instance, profits, random_instance, random_spans,
                      rational_instance, reference_lp_data,
                      reference_maximize_over_S, reference_solve_lp,
                      span_refs, weight_of, with_profits)

ROOT = Path(__file__).resolve().parent.parent


def lp_for(inst, extra_rows=()):
    """``LpProblem(inst)`` with each of ``extra_rows`` added by
    ``with_row``, as the solver adds its cuts."""
    problem = LpProblem(inst)
    for row in extra_rows:
        problem = problem.with_row(row)
    return problem


def test_single_variable_bound_binds():
    inst = with_profits(make_instance([(2,)], 21), {VarRef(1, 1): 1})
    problem = LpProblem(inst)
    sol = solve_lp(problem, spans=problem.spans)
    assert sol.value == 1
    assert sol.point.entries == ((VarRef(1, 1), 1),)


def test_zero_capacity():
    problem = lp_for(make_instance([(2,)], 0))
    sol = solve_lp(problem, spans=problem.spans)
    assert sol.value == 0
    assert sol.point.entries == ()


def test_fractional_optimum():
    problem = LpProblem(Instance.build([((2,), (3,))], 1))
    sol = solve_lp(problem, spans=problem.spans)
    assert sol.value == Fraction(3, 2)
    assert sol.point.entries == ((VarRef(1, 1), Fraction(1, 2)),)


def test_zero_objective(ex_a):
    problem = LpProblem(with_profits(ex_a, {}))
    sol = solve_lp(problem, spans=problem.spans)
    assert sol.value == 0


def test_example_relaxation(ex_a):
    problem = lp_for(ex_a)
    sol = solve_lp(problem, spans=problem.spans)
    assert sol.value == 21
    assert verify_certificate(problem, sol, spans=problem.spans)
    # the knapsack row is the one stored row; the rows of the five groups,
    # the three one-slot groups too, are their spans; the duals price all
    # six rows
    assert len(problem.scaled_rows) == len(problem.rows) == 1
    assert problem.cut_rows == ()
    assert problem.spans == ((0, 1), (1, 2), (2, 3), (3, 5), (5, 7))
    assert len(sol.scaled_duals[1]) == 1 + 5
    assert all(y >= 0 for y in sol.scaled_duals[1])


@pytest.mark.parametrize("groups, capacity, extra_rows, message", [
    # x11 >= 1/2: a cut row with a negative right-hand side, which no
    # inequality valid for S has, since 0 is in S
    ([((2,), (2,)), ((3,), (3,))], 4,
     (LinearInequality([(VarRef(1, 1), -1)], Fraction(-1, 2)),),
     "nonnegative"),
    # negative data: the instance is refused when it is built
    ([((2,), (2,)), ((3,), (3,))], -1, (), "^negative capacity: -1$"),
    ([((-2,), (1,)), ((3,), (1,))], 1, (),
     "^negative weight at group 1 slot 1$"),
], ids=["negative-rhs-cut", "negative-capacity", "negative-weight"])
def test_lp_requires_the_origin_feasible(groups, capacity, extra_rows,
                                         message):
    with pytest.raises(ValidationError, match=message):
        lp_for(Instance.build(groups, capacity), extra_rows)


def test_forced_zero_columns(ex_a):
    # the node's spans leave out x31, x41 and x51: group 3's span is empty,
    # and groups 4 and 5 keep their second slot
    problem = lp_for(ex_a)
    spans = ((0, 1), (1, 2), (2, 2), (4, 5), (6, 7))
    banned = {VarRef(3, 1), VarRef(4, 1), VarRef(5, 1)}
    assert set(problem.refs) - set(span_refs(problem, spans)) == banned
    sol = solve_lp(problem, spans=spans)
    assert not {ref for ref, _ in sol.point.entries} & banned
    assert verify_certificate(problem, sol, spans=spans)
    # remaining variables weigh 2+4+6+4 = 16 < 21, so everything packs
    assert sol.value == 16
    # the duals price the knapsack row and the five group rows, group 3's
    # too, whose span the node empties: one per row, whatever the spans
    assert len(sol.scaled_duals[1]) == 1 + 5


def test_cut_rows_are_solved_at_the_root_spans_only(ex_a):
    # cut rows meet only the root: a problem with one is refused at a
    # node's spans, narrowed or with an empty span, which the cut-free
    # problem solves, and solved at the root's spans
    plain = lp_for(ex_a)
    problem = lp_for(ex_a, [LinearInequality({VarRef(4, 1): 1,
                                              VarRef(5, 1): 1}, 1)])
    for spans in (((0, 1), (1, 2), (2, 3), (3, 4), (5, 7)),
                  ((0, 1), (1, 2), (2, 2), (4, 5), (6, 7))):
        assert verify_certificate(plain, solve_lp(plain, spans=spans),
                                  spans=spans)
        with pytest.raises(ValidationError, match="root's spans only"):
            solve_lp(problem, spans=spans)
    sol = solve_lp(problem, spans=problem.spans)
    assert sol.pivots > 0
    assert verify_certificate(problem, sol, spans=problem.spans)


def test_rows_must_include_knapsack(ex_a):
    # the knapsack row always comes first, and only once
    problem = LpProblem(ex_a)
    assert problem.rows == (knapsack_row(ex_a),)
    with pytest.raises(ValidationError, match="has this row"):
        problem.with_row(knapsack_row(ex_a))


def test_knapsack_row_is_implicit(ex_a):
    # the problem stores no knapsack row: its data is Instance.units, and
    # rows makes the row knapsack_row builds on each read, then the cut rows
    problem = LpProblem(ex_a)
    scale, units, capacity = ex_a.units
    assert problem.scaled_rows == [
        ([a for row in units for a in row], capacity, scale)]
    assert problem.rows == (knapsack_row(ex_a),)
    cut = LinearInequality({(4, 1): 1, (5, 1): 1}, 1)
    assert problem.with_row(cut).rows == (knapsack_row(ex_a), cut)


def _knapsack_forms(inst):
    """The knapsack row of ``inst`` in equal forms: as built, its terms
    reversed, and each value as an unreduced ``"p/q"`` string."""
    row = knapsack_row(inst)
    reversed_terms = LinearInequality(row.terms[::-1], row.rhs)
    strings = LinearInequality(
        [(tuple(ref), _unreduced(a)) for ref, a in row.terms],
        _unreduced(row.rhs))
    return row, reversed_terms, strings


def _unreduced(value):
    # "6/2" for 3: the value's numerator and denominator times 2
    return "%d/%d" % (2 * value.numerator, 2 * value.denominator)


def test_with_row_refuses_the_knapsack_row_in_any_form(ex_a):
    """The knapsack row is compared in integer form: refused however it
    is written, also after cut rows, while the row times 2 and the row
    with its rhs raised by 1 are other rows and are taken."""
    rng = random.Random(2718)
    seen_rational = 0
    for inst in [ex_a] + [rational_instance(rng) for _ in range(40)]:
        base = LpProblem(inst)
        grown = base.with_row(LinearInequality({}, 1))
        row = knapsack_row(inst)
        for form in _knapsack_forms(inst):
            assert form == row
            for problem in (base, grown):
                with pytest.raises(ValidationError, match="has this row"):
                    problem.with_row(form)
        double = LinearInequality([(r, 2 * a) for r, a in row.terms],
                                  2 * row.rhs)
        looser = LinearInequality(row.terms, row.rhs + 1)
        for other in (double, looser):
            assert base.with_row(other).cut_rows == (other,)
        seen_rational += any(a.denominator > 1 for _, a in row.terms)
    assert seen_rational >= 10, seen_rational


def test_with_row_refuses_a_cut_row_twice(ex_a):
    cut = LinearInequality({(4, 1): 1, (5, 1): 1}, 1)
    grown = LpProblem(ex_a).with_row(cut)
    for form in (cut, LinearInequality({(5, 1): "2/2", (4, 1): 1}, 1)):
        with pytest.raises(ValidationError, match="has this row"):
            grown.with_row(form)


def test_with_row_refuses_a_pooled_builder_cut_in_any_form(ex_a, ex_b, ex_c):
    """A builder's cut keeps its integer form, and the pool compares that
    form: the cut is refused when it comes back with its terms reversed,
    as unreduced ``"6/2"`` strings or as its form doubled through
    ``LinearInequality.from_scaled``, while the cut with its Fractions
    doubled and the cut with its rhs raised by 1 are other rows."""
    rng = random.Random(3131)
    pooled = rational = 0
    for inst in [ex_a, ex_b, ex_c] + [rational_instance(rng) for _ in range(60)]:
        for cut in list(cuts.theorem_cuts(inst, cuts.FAMILIES, None))[:4]:
            row = cut.inequality
            unit, rhs, terms = row.scaled
            grown = LpProblem(inst).with_row(row)
            forms = (LinearInequality(row.terms[::-1], row.rhs),
                     LinearInequality([(tuple(r), _unreduced(c))
                                       for r, c in row.terms],
                                      _unreduced(row.rhs)),
                     LinearInequality.from_scaled(
                         2 * unit, 2 * rhs,
                         tuple((r, 2 * c) for r, c in terms)))
            for form in forms:
                assert form == row
                with pytest.raises(ValidationError, match="has this row"):
                    grown.with_row(form)
            double = LinearInequality([(r, 2 * c) for r, c in row.terms],
                                      2 * row.rhs)
            looser = LinearInequality(row.terms, row.rhs + 1)
            for other in (double, looser):
                if other == row:  # the cut 0 <= 0 of an all-zero cover
                    continue
                assert grown.with_row(other).cut_rows == (row, other)
            pooled += 1
            rational += unit > 1
    assert pooled >= 150 and rational >= 50, (pooled, rational)


def test_with_row_matches_building_the_rows(ex_b):
    # the solver's add-a-cut step: the data of the knapsack row and the cut
    # built in Fractions, the problem it grew from left alone, and the
    # checks on the new row
    cut = cuts.pack_inequality_1(
        ex_b, cuts.enumerate_maximal_switching_packs(ex_b)[0]).inequality
    base = lp_for(ex_b)
    grown = base.with_row(cut)
    assert grown.rows == (knapsack_row(ex_b), cut)
    assert base.rows == (knapsack_row(ex_b),)
    assert (grown.costs, grown.cost_scale, grown.scaled_rows, grown.scale) == (
        reference_lp_data(ex_b, (cut,)))
    assert verify_certificate(grown, solve_lp(grown, spans=grown.spans),
                              spans=grown.spans)
    with pytest.raises(ValidationError, match="has this row"):
        grown.with_row(knapsack_row(ex_b))
    with pytest.raises(ValidationError, match="nonnegative"):
        grown.with_row(LinearInequality([(VarRef(1, 1), -1)], Fraction(-1, 2)))


def test_objective_is_exact_and_given_once(ex_a):
    # cleaned as LinearInequality and Point terms are: a float would be
    # taken at its binary value (0.1 as 3602879701896397/2^55), a decimal
    # string is outside the file grammar, and a repeated variable would
    # keep only its last nonzero value
    for objective in ({(1, 1): 0.1}, {(1, 1): "0.5"},
                      [((1, 1), 5), ((1, 1), 1)], [((1, 1), 0), ((1, 1), 5)]):
        for build in (lambda t: LinearInequality(t, 1),
                      lambda t: oracle.maximize_over_S(ex_a, t)):
            with pytest.raises(ValidationError):
                build(objective)
    # a zero-valued term is dropped, but its reference is still checked
    with pytest.raises(ValidationError, match=r"x\(6,1\)"):
        oracle.maximize_over_S(ex_a, {VarRef(1, 1): 1, VarRef(6, 1): 0})


def test_row_refs_checked():
    # a row's term on a variable outside the instance is refused, not
    # dropped: dropping (9,9) would solve x(1,1) <= 0 instead
    inst = make_instance([(4, 2), (3,)], 5)
    row = LinearInequality({(1, 1): 1, (9, 9): 7}, 0)
    with pytest.raises(ValidationError, match=r"x\(9,9\)"):
        LpProblem(inst).with_row(row)


def test_relaxation_bounds_the_oracle(small_corpus):
    """LP value >= best value over S, with equality iff the LP point is in S."""
    for inst in small_corpus:
        problem = lp_for(inst)
        sol = solve_lp(problem, spans=problem.spans)
        assert verify_certificate(problem, sol, spans=problem.spans)
        assert weight_of(inst, sol.point) <= inst.capacity
        best, _ = oracle.maximize_over_S(inst, profits(inst))
        assert sol.value >= best


def test_duals_price_the_optimum(small_corpus):
    for inst in small_corpus[:8]:
        problem = lp_for(inst)
        sol = solve_lp(problem, spans=problem.spans)
        # the knapsack row's rhs, then 1 for each group row
        duals = fraction_duals(sol)
        rhs = [inst.capacity] + [Fraction(1)] * (len(duals) - 1)
        assert len(duals) == len(problem.scaled_rows) + len(group_rows(inst))
        assert sum(y * r for y, r in zip(duals, rhs)) == sol.value


def test_certificate_rejects_tampering(ex_a):
    problem = lp_for(ex_a)
    sol = solve_lp(problem, spans=problem.spans)
    forged = LpSolution(sol.value + 1, sol.scaled, sol.scaled_duals,
                        sol.pivots)
    assert not verify_certificate(problem, forged, spans=problem.spans)


# --- differential checks against brute force, and certificate forgeries ----

def _builder_cuts(inst):
    """Every pack1 and lcover1 cut the builders give on the instance."""
    found = []
    for pack in cuts.enumerate_maximal_switching_packs(inst):
        found.append(cuts.pack_inequality_1(inst, pack).inequality)
    for refs in product(*([VarRef(i, j) for j in range(1, g.size + 1)]
                          for i, g in enumerate(inst.groups, start=1))):
        try:
            cut = cuts.lifted_cover_inequality_1(inst, refs)
        except PreconditionError:
            continue
        found.append(cut.inequality)
    return sorted(set(found), key=repr)


def _group_lp_optimum(inst, objective, forced):
    """Max of the objective over the knapsack row, the group rows, x >= 0
    and x_forced = 0, by enumerating the vertices that can be optimal.  The
    group rows and x >= 0 make a product of simplices, one per group, whose
    vertices put each group at zero or at one free slot whole; the knapsack
    row adds the points where one group moves along an edge of its simplex
    until the row binds."""
    b = inst.capacity
    choices = [[None] + [VarRef(i, j) for j in range(1, g.size + 1)
                         if VarRef(i, j) not in forced]
               for i, g in enumerate(inst.groups, start=1)]

    def weight(ref):
        return inst.weight(ref) if ref else Fraction(0)

    def value(ref):
        return objective.get(ref, 0) if ref else Fraction(0)

    best = None
    for pattern in product(*choices):
        w = sum(map(weight, pattern), Fraction(0))
        v = sum(map(value, pattern), Fraction(0))
        candidates = [v] if w <= b else []
        for ref, group in zip(pattern, choices):
            for other in group:
                step = weight(other) - weight(ref)
                if step and 0 < (b - w) / step < 1:
                    candidates.append(
                        v + (value(other) - value(ref)) * (b - w) / step)
        for v in candidates:
            if best is None or v > best:
                best = v
    return best


def test_differential_against_brute_force():
    rng = random.Random(31337)
    one_row = with_cuts = empty = 0
    for _ in range(150):
        inst = rational_instance(rng)
        objective = {r: inst.profit(r) for r in inst.columns}
        for r in inst.columns:
            if rng.random() < 0.15:
                objective[r] = 0
        spans = random_spans(rng, inst, 0.25)
        pool = _builder_cuts(inst)
        rows = tuple(rng.sample(pool, min(len(pool), rng.randint(0, 3))))
        plain = lp_for(with_profits(inst, objective))
        # a node's spans take the cut-free LP: the closed form
        forced = set(plain.refs) - set(span_refs(plain, spans))
        sol = solve_lp(plain, spans=spans)
        assert verify_certificate(plain, sol, spans=spans)
        assert not {ref for ref, _ in sol.point.entries} & forced
        assert sol.value == _group_lp_optimum(inst, objective, forced)
        assert sol.pivots == 0
        if rows:
            with_cuts += 1
            # Cut rows meet only the root.  Valid cuts keep every point of
            # S: the LP lies between the maximum over S and the LP without
            # cut rows.
            problem = lp_for(plain.instance, rows)
            sol = solve_lp(problem, spans=problem.spans)
            assert verify_certificate(problem, sol, spans=problem.spans)
            best, _ = oracle.maximize_over_S(inst, objective)
            assert best <= sol.value <= _group_lp_optimum(inst, objective,
                                                          set())
        else:
            one_row += 1
        empty += any(lo == hi for lo, hi in spans)
    assert one_row >= 20 and with_cuts >= 20 and empty >= 20


def _per_column_layout(problem, spans, scaled_duals):
    """Cut-free duals ``(Y, ints)`` in a bounded-variable LP's layout: the
    knapsack multiplier, the rows of the groups of two or more slots, then
    one bound multiplier per column of ``spans``, a one-slot group's row
    multiplier moved onto its column's bound.  A valid certificate of the
    boxed LP, but not one per row."""
    scale, (knapsack, *groups) = scaled_duals
    sizes = [end - start for start, end in problem.spans]
    rows = [y for y, size in zip(groups, sizes) if size > 1]
    bounds = [0 if size > 1 else y
              for y, size, (lo, hi) in zip(groups, sizes, spans)
              for _ in range(lo, hi)]
    return scale, (knapsack, *rows, *bounds)


def test_closed_form_matches_the_tableau_with_group_rows():
    """Without cut rows, the closed form and the simplex, which takes the
    group rows as tableau rows, give the same value at the root, and both
    certificates verify: on rational and random data with zero weights,
    tied ratios, singleton groups and zero costs; so does the simplex with
    a redundant cut row x <= 1.  At random nested node spans, empty ones
    included, where only the closed form solves, its value is its Fraction
    reference's and its certificate verifies.  The duals are one per row,
    1 + m + k of them, at the root and at every node's spans, and the
    certificate refuses them in the per-column layout of a boxed LP
    whenever the spans make that length differ."""
    rng = random.Random(4242)
    seen = {"zero weight": 0, "tied ratio": 0, "singleton": 0, "forced": 0,
            "empty span": 0, "pivots": 0, "per-column layout": 0}
    for n in range(200):
        inst = (rational_instance(rng) if n % 2 else
                random_instance(rng, max_groups=4, profits="random"))
        objective = {r: inst.profit(r) for r in inst.columns}
        for r in inst.columns:
            roll = rng.random()
            if roll < 0.1:
                objective[r] = 0
            elif roll < 0.2:
                objective[r] = inst.weight(r) * 2  # ties the ratio at 2
        spans = random_spans(rng, inst, 0.25)
        problem = LpProblem(with_profits(inst, objective))
        grown = problem.with_row(LinearInequality({problem.refs[0]: 1}, 1))
        m = len(inst.groups)
        closed = solve_lp(problem, spans=problem.spans)
        tableau = simplex._solve_tableau(problem)
        cut = solve_lp(grown, spans=grown.spans)
        assert closed.value == tableau.value == cut.value
        assert verify_certificate(problem, closed, spans=problem.spans)
        assert verify_certificate(problem, tableau, spans=problem.spans)
        assert verify_certificate(grown, cut, spans=grown.spans)
        node = solve_lp(problem, spans=spans)
        assert node.value == reference_solve_lp(problem, spans=spans).value
        assert verify_certificate(problem, node, spans=spans)
        lengths = [len(sol.scaled_duals[1])
                   for sol in (closed, tableau, node, cut)]
        assert lengths == [1 + m, 1 + m, 1 + m, 2 + m]
        for at, sol in ((problem.spans, closed), (spans, node)):
            old = _per_column_layout(problem, at, sol.scaled_duals)
            if len(old[1]) != 1 + m:
                assert not verify_certificate(problem, sol._replace(
                    scaled_duals=old), spans=at)
                seen["per-column layout"] += 1
        ratios = [objective[r] / inst.weight(r) for r in inst.columns
                  if inst.weight(r) and objective[r] > 0]
        seen["zero weight"] += any(inst.weight(r) == 0 for r in inst.columns)
        seen["tied ratio"] += len(set(ratios)) < len(ratios)
        seen["singleton"] += bool(inst.m0)
        seen["forced"] += spans != problem.spans
        seen["empty span"] += any(lo == hi for lo, hi in spans)
        seen["pivots"] += tableau.pivots > 0
    assert min(seen.values()) >= 30, seen


def test_group_row_facets():
    """The face of sum_j x_ij <= 1 has dimension n - 1 exactly when every
    slot of group i weighs at most b and either its lightest slot weighs
    less than b or every variable outside the group weighs nothing (then
    each e_ij + e_kl stays in S)."""
    rng = random.Random(5150)
    # the lightest slot weighs b: a facet only while x21 weighs nothing
    corpus = [Instance.build([((2, 2), (1, 1)), ((a,), (1,))], 2)
              for a in (0, 1)]
    corpus += [rational_instance(rng) if n % 2 else random_instance(rng)
               for n in range(160)]
    facets = others = zero_rescue = 0
    for inst in corpus:
        vertices = oracle.enumerate_candidate_vertices(inst)
        b = inst.capacity
        for i, g in enumerate(inst.groups, start=1):
            if g.size < 2:
                continue
            row = LinearInequality(
                {VarRef(i, j): 1 for j in range(1, g.size + 1)}, 1)
            weightless = not any(a for k, h in enumerate(inst.groups, start=1)
                                 if k != i for a in h.weights)
            facet = max(g.weights) <= b and (min(g.weights) < b or weightless)
            assert (vertices.face_dimension(row) == inst.dimension - 1) == facet
            facets += facet
            others += not facet
            zero_rescue += facet and min(g.weights) == b
    assert facets >= 50 and others >= 50 and zero_rescue >= 1, (
        facets, others, zero_rescue)


def _forgery_problem():
    # ratios 3, 2, 1/2 and a weightless, profitless x41; capacity 1, so the
    # closed form takes x11 whole, the critical ratio is 2, and the four
    # one-slot groups' row multipliers are (1, 0, 0, 0).
    inst = Instance.build([((1,), (3,)), ((1,), (2,)), ((2,), (1,)),
                           ((0,), (0,))], 1)
    return lp_for(inst)


def test_closed_form_duals():
    problem = _forgery_problem()
    sol = solve_lp(problem, spans=problem.spans)
    assert sol.value == 3
    assert fraction_duals(sol) == (2, 1, 0, 0, 0)
    assert verify_certificate(problem, sol, spans=problem.spans)


@pytest.mark.parametrize("duals, why", [
    ((2, 2, 0, -1, 0), "negative row multiplier, sum kept"),
    ((2, 1, 0, 0), "duals tuple one bound short"),
    ((2, 0, 0, 1, 0), "x11's group row lowered, sum kept"),
])
def test_certificate_rejects_forged_duals(duals, why):
    # every group is one slot, so each group row is its slot's bound
    problem = _forgery_problem()
    sol = solve_lp(problem, spans=problem.spans)
    forged = lp_solution(sol.value, sol.point,
                         tuple(Fraction(y) for y in duals), sol.pivots)
    assert not verify_certificate(problem, forged, spans=problem.spans), why


def test_certificate_rejects_point_on_forced_variable():
    # Strongly correlated data (profit = weight + 5): the root branches on
    # group 1, so its descendants' spans force columns of it to zero.  At
    # each node LP in turn, an entry of a group is moved onto the column
    # just left, or just right, of the node's span of the group.  The
    # certificate does not read the point, so the forgery, with the node's
    # true duals and value, passes it; the solve that meets it must raise a
    # ``CkpError`` or report the unforged value, best bound and proof.
    inst = Instance.build([((14, 10), (19, 15)), ((13, 9), (18, 14))], 20)
    moved = 0
    for config in (SolveConfig(families=()), SolveConfig()):
        calls = []
        true = forged_solve(inst, lambda sol, problem, spans:
                            calls.append(1) or sol, config)
        for at, side in product(range(len(calls)), (0, 1)):
            count, done = [0], []

            def forge(sol, problem, spans):
                count[0] += 1
                if count[0] != at + 1:
                    return sol
                d, entries = sol.scaled
                for k, (ref, x) in enumerate(entries):
                    start, end = problem.spans[ref.group - 1]
                    lo, hi = spans[ref.group - 1]
                    j = (lo - 1, hi)[side]
                    if start <= j < end:
                        forged = sol._replace(scaled=(d, tuple(sorted(
                            entries[:k] + ((problem.refs[j], x),)
                            + entries[k + 1:]))))
                        assert verify_certificate(problem, forged,
                                                  spans=spans)
                        done.append(problem.refs[j])
                        return forged
                return sol

            got = forged_solve(inst, forge, config)
            if not done:
                continue
            moved += 1
            assert isinstance(got, CkpError) or (
                (got.value, got.best_bound, got.proven_optimal)
                == (true.value, true.best_bound, true.proven_optimal)), done
    assert moved >= 4, moved


_LARGE_PRIME = 2 ** 61 - 1


def test_certificate_handles_dual_denominators_foreign_to_the_data():
    # The data are integers (every scale is 1), and the duals carry a
    # denominator coprime to all of them.  Lowering y below the critical
    # ratio and raising the row multiplier of x11's group to keep the sum
    # leaves x21 underpriced; the shift the other way is a valid,
    # degenerate certificate.
    problem = _forgery_problem()
    sol = solve_lp(problem, spans=problem.spans)
    eps = Fraction(1, _LARGE_PRIME)
    forged = lp_solution(sol.value, sol.point,
                         tuple(map(Fraction, (2 - eps, 1 + eps, 0, 0, 0))),
                         sol.pivots)
    assert not verify_certificate(problem, forged, spans=problem.spans)
    shifted = lp_solution(sol.value, sol.point,
                          tuple(map(Fraction, (2 + eps, 1 - eps, 0, 0, 0))),
                          sol.pivots)
    assert verify_certificate(problem, shifted, spans=problem.spans)


def test_certificate_rejects_entry_just_above_one():
    # x41 weighs and earns nothing, so only its group row x41 <= 1 rules out
    # an entry on it a hair above one.  The certificate does not read the
    # point, so the forgery, with the root's true duals and value, passes
    # it; the solve that meets it at its root must raise a ``CkpError`` or
    # report the true optimum.
    problem = _forgery_problem()
    d, entries = solve_lp(problem, spans=problem.spans).scaled
    p = _LARGE_PRIME
    point = (d * p, tuple((ref, x * p) for ref, x in entries)
             + ((VarRef(4, 1), d * p + d),))
    forged = solve_lp(problem, spans=problem.spans)._replace(scaled=point)
    assert verify_certificate(problem, forged, spans=problem.spans)
    for root, got in _solves_with_root_forged(
            problem.instance, lambda sol: sol._replace(scaled=point)):
        assert root.value == 3
        assert isinstance(got, CkpError) or (
            got.value == 3 and got.proven_optimal)


def test_certificate_rejects_value_off_by_a_tiny_fraction():
    problem = _forgery_problem()
    sol = solve_lp(problem, spans=problem.spans)
    for off in (Fraction(1, _LARGE_PRIME), -Fraction(1, _LARGE_PRIME)):
        forged = LpSolution(sol.value + off, sol.scaled, sol.scaled_duals,
                            sol.pivots)
        assert not verify_certificate(problem, forged, spans=problem.spans)


_X11, _X41 = VarRef(1, 1), VarRef(4, 1)


@pytest.mark.parametrize("value, point, duals, forced, why", [
    (3, (1, ((_X11, 1), (_X41, 0))), None, (), "X = 0"),
    (3, (1, ((_X11, 1), (_X41, -1))), None, (), "X < 0"),
    (3, (2, ((_X11, 2), (_X41, 3))), None, (), "X > D"),
    (3, (1, ((_X11, 1), (_X41, 1), (_X41, 1))), None, (), "ref repeated"),
    (3, (1, ((_X41, 1), (_X11, 1))), None, (), "refs out of order"),
    (3, (1, ((_X11, 1), (VarRef(4, 2), 1))), None, (), "ref outside"),
    (3, (1, ((_X11, 1), (VarRef(5, 1), 1))), None, (), "group outside"),
    (3, (1, ((_X11, 1), (_X41, 1))), (1, [2, 1, 0, 0, 0]), (4,),
     "ref forced to zero"),
    (3, (0, ()), None, (), "D = 0"),
    (3, None, (1, [2, 2, 0, -1, 0]), (), "negative y"),
    (3, None, (1, [2, 1, 0, 0]), (), "dual count one short"),
    (3, None, (1, [2, 1, 0, 0, 0, 0]), (), "dual count one over"),
    (3, None, (0, [0, 0, 0, 0, 0]), (), "Y = 0"),
    (0, (1, ()), (-1, [0, 0, 0, 0, 0]), (), "Y < 0, claiming 0"),
    (3, (1, ()), None, (), "point short of the value"),
    (3, None, (1, [2, 2, 0, 0, 0]), (), "duals above the value"),
    (3 + Fraction(1, _LARGE_PRIME), None, None, (), "value a hair high"),
    (3 - Fraction(1, _LARGE_PRIME), None, None, (), "value a hair low"),
    (4, None, None, (), "value one high"),
    (2, None, None, (), "value one low"),
])
def test_certificate_rejects_forged_integer_forms(value, point, duals,
                                                  forced, why):
    # x41 weighs and earns nothing; the true optimum is x11 = 1, value 3,
    # duals (2, 1, 0, 0, 0), and each forgery replaces one part of it.
    # ``forced`` names the groups whose span the node empties; the node's
    # true duals are still one per row, the emptied group's 0, and the
    # forgery keeps them.  The certificate reads only the duals
    # and the value, and rejects each forgery of them.  It does not read
    # the point: a forged point, with the node's true duals and value,
    # passes it, and the solve that meets it at its root must raise a
    # ``CkpError`` or report the true optimum.
    problem = _forgery_problem()
    spans = tuple((lo, lo if i in forced else hi)
                  for i, (lo, hi) in enumerate(problem.spans, start=1))
    true = LpSolution(Fraction(3), (1, ((_X11, 1),)), (1, (2, 1, 0, 0, 0)), 0)
    assert verify_certificate(problem, true, spans=problem.spans)
    assert true == solve_lp(problem, spans=problem.spans)
    forged = LpSolution(Fraction(value), point or true.scaled,
                        duals or true.scaled_duals, 0)
    if not (point and value == 3 and (duals is None or forced)):
        assert not verify_certificate(problem, forged, spans=spans), why
        return
    assert verify_certificate(problem, forged, spans=spans), why
    for root, got in _solves_with_root_forged(
            problem.instance, lambda sol: sol._replace(scaled=point)):
        assert root == true, why
        assert isinstance(got, CkpError) or (
            got.value == 3 and got.proven_optimal), why


def _solves_with_root_forged(instance, forge):
    """For a solve without cuts and one with them, the true root LP
    solution and the outcome (report or ``CkpError``) of the solve whose
    root LP solution is replaced by ``forge(solution)``."""
    outcomes = []
    for config in (SolveConfig(families=()), SolveConfig()):
        at_root = []

        def at_the_root(sol, lp, spans):
            if at_root:
                return sol
            at_root.append(sol)
            return forge(sol)

        got = forged_solve(instance, at_the_root, config)
        outcomes.append((at_root[0], got))
    return outcomes


def test_certificate_reads_only_the_duals_and_the_value():
    # the point is checked where the solver uses it, not here
    problem = _forgery_problem()
    sol = solve_lp(problem, spans=problem.spans)
    assert verify_certificate(problem, sol._replace(scaled=None),
                              spans=problem.spans)


def _group_forgery_problem():
    # x11 and x12 weigh nothing and earn 2 and 1, and x21 fills the
    # capacity, so the closed form takes x11 and x21 whole: the knapsack
    # multiplier is 0, group 1's row multiplier 2 and group 2's 1.
    inst = Instance.build([((0, 0), (2, 1)), ((1,), (1,))], 1)
    return lp_for(inst)


def test_group_row_certificate_is_accepted():
    problem = _group_forgery_problem()
    sol = solve_lp(problem, spans=problem.spans)
    assert sol.value == 3
    assert fraction_duals(sol) == (0, 2, 1)
    assert verify_certificate(problem, sol, spans=problem.spans)


def test_certificate_rejects_point_breaking_only_the_group_row():
    # x11 = x12 = x21 = 1 weighs 1 and earns 4, and the duals, group 1's
    # row multiplier raised to 3, price it at 4 and stay dual feasible:
    # only the group row x11 + x12 <= 1 rules it out.  The certificate reads
    # the duals alone, and they bound the LP by 4, which weak duality allows;
    # the solve that meets the point at its root must raise a ``CkpError``
    # or report the true optimum, 3, as proven.
    problem = _group_forgery_problem()
    forged = LpSolution(Fraction(4), (1, ((VarRef(1, 1), 1), (VarRef(1, 2), 1),
                                          (VarRef(2, 1), 1))),
                        (1, [0, 3, 1]), 0)
    assert verify_certificate(problem, forged, spans=problem.spans)
    for root, got in _solves_with_root_forged(problem.instance,
                                              lambda sol: forged):
        assert root.value == 3
        assert isinstance(got, CkpError) or (
            got.value == 3 and got.proven_optimal)


@pytest.mark.parametrize("duals, why", [
    ((0, 1, 2), "from group 1 to group 2"),
    ((0, 3, 0), "x21's bound moved to the group row, which skips x21"),
])
def test_certificate_rejects_group_multiplier_moved(duals, why):
    # each shift keeps the dual value at 3 but leaves one slot underpriced,
    # x11 at 1 or x21 at 0; x21's bound is the row x21 <= 1 of its one-slot
    # group
    problem = _group_forgery_problem()
    sol = solve_lp(problem, spans=problem.spans)
    forged = lp_solution(sol.value, sol.point, tuple(map(Fraction, duals)),
                         sol.pivots)
    assert not verify_certificate(problem, forged, spans=problem.spans), why


def test_certificate_rejects_each_mutation_on_nested_spans():
    """From the certified closed-form solution over random nested node
    spans, on rational and integral data, each of these is rejected:
    lowering one positive group-row multiplier, of a group of two or more
    slots or of a one-slot group, by one unit of the duals' integer
    form."""
    rng = random.Random(3939)
    seen = {"group row": 0, "one-slot group row": 0}
    for n in range(200):
        inst = (rational_instance(rng) if n % 2 else
                random_instance(rng, max_groups=4, profits="random"))
        spans = random_spans(rng, inst, 0.25)
        problem = LpProblem(inst)
        sol = solve_lp(problem, spans=spans)
        assert verify_certificate(problem, sol, spans=spans)
        dual_scale, ys = sol.scaled_duals
        for r, y in enumerate(ys):
            if r == 0 or not y:  # the knapsack multiplier is not mutated
                continue
            lowered = ys[:r] + (y - 1,) + ys[r + 1:]
            forged = sol._replace(scaled_duals=(dual_scale, lowered))
            assert not verify_certificate(problem, forged, spans=spans), r
            seen["group row" if inst.groups[r - 1].size > 1
                 else "one-slot group row"] += 1
    assert min(seen.values()) >= 30, seen


def _check_record(sol):
    """The solution is a plain record of its four integer-form fields: it
    hashes, rebuilds from them, keeps its duals' ints as a tuple, and makes
    its point afresh on each read."""
    assert hash(sol) == hash(LpSolution(*sol))
    assert LpSolution(*sol) == sol
    assert type(sol.scaled_duals[1]) is tuple
    assert sol.point is not sol.point
    for _ in range(2):
        assert sol.point == Point.from_scaled(*sol.scaled)


def test_integer_node_lp_matches_fraction_reference():
    """Value, point, duals and pivots equal those of the Fraction node LP,
    on rational and zero weights and equal ratios: without cut rows at
    random nested node spans, empty ones included, and with 0-3 builder
    cut rows at the root's spans; the tableau alone matches its reference
    on cut-free LPs too.  Closed-form and simplex solutions alike are
    plain records (:func:`_check_record`)."""
    rng = random.Random(90210)
    seen = {"cuts": 0, "closed form": 0, "pivots": 0, "forced": 0,
            "empty span": 0, "zero weight": 0, "tied ratio": 0}
    for _ in range(150):
        inst = rational_instance(rng)
        objective = {r: inst.profit(r) for r in inst.columns}
        for r in inst.columns:
            if rng.random() < 0.15:
                objective[r] = 0
        spans = random_spans(rng, inst, 0.25)
        pool = _builder_cuts(inst)
        rows = tuple(rng.sample(pool, min(len(pool), rng.randint(0, 3))))
        plain = lp_for(with_profits(inst, objective))
        problem = lp_for(plain.instance, rows)
        # a node's spans take the cut-free LP; cut rows meet only the root
        for lp, at in ((plain, spans), (problem, problem.spans)):
            got = solve_lp(lp, spans=at)
            want = reference_solve_lp(lp, spans=at)
            assert (got.value, got.point, fraction_duals(got),
                    got.pivots) == (want.value, want.point,
                                    fraction_duals(want), want.pivots)
            assert verify_certificate(lp, got, spans=at)
            _check_record(got)
        got = simplex._solve_tableau(problem)
        want = reference_solve_tableau(problem, problem.refs)
        assert (got.value, got.point, fraction_duals(got), got.pivots) == (
            want.value, want.point, fraction_duals(want), want.pivots)
        _check_record(got)
        ratios = [objective[r] / inst.weight(r) for r in inst.columns
                  if inst.weight(r) and objective[r] > 0]
        seen["cuts"] += bool(rows)
        seen["closed form"] += not rows
        seen["pivots"] += got.pivots > 0
        seen["forced"] += spans != plain.spans
        seen["empty span"] += any(lo == hi for lo, hi in spans)
        seen["zero weight"] += any(inst.weight(r) == 0 for r in inst.columns)
        seen["tied ratio"] += len(set(ratios)) < len(ratios)
    assert min(seen.values()) >= 20, seen


def test_scaled_data_matches_fraction_reference():
    """costs, cost_scale, scaled_rows and scale equal the data scaled in
    Fractions, and the spans give the Fraction group rows, on rational and
    zero weights, zero objective values, large coprime objective
    denominators and 0-3 builder cut rows, added one at a time by
    with_row, whose copies share their spans."""
    rng = random.Random(7411)
    seen = {"cuts": 0, "zero profit": 0, "zero weight": 0, "large": 0}
    for _ in range(150):
        inst = rational_instance(rng)
        objective = {}
        for r in inst.columns:
            q = rng.choice(LARGE_PRIMES) if rng.random() < 0.3 else 1
            objective[r] = (max(0, Fraction(rng.randint(-3 * q, 5 * q), q))
                            if rng.random() < 0.6 else inst.profit(r))
        pool = _builder_cuts(inst)
        rows = tuple(rng.sample(pool, min(len(pool), rng.randint(0, 3))))
        inst = with_profits(inst, objective)
        problem = chained = LpProblem(inst)
        for row in rows:
            grown = chained.with_row(row)
            assert grown.spans is chained.spans
            chained = grown
        want = reference_lp_data(inst, rows)
        assert (chained.costs, chained.cost_scale, chained.scaled_rows,
                chained.scale) == want
        assert len(chained.scaled_rows) == len(chained.rows)
        assert chained.cut_rows == rows
        assert len(problem.rows) == 1  # with_row left the problem alone
        # one span per group, its columns in order, and the spans are the
        # group rows
        assert [problem.refs[start:end] for start, end in problem.spans] == [
            tuple(VarRef(i, j) for j in range(1, g.size + 1))
            for i, g in enumerate(inst.groups, start=1)]
        assert [([(ref, 1) for ref in problem.refs[start:end]], 1)
                for start, end in problem.spans] == group_rows(inst)
        seen["cuts"] += bool(rows)
        seen["zero profit"] += any(c == 0 for c in objective.values())
        seen["zero weight"] += any(inst.weight(r) == 0 for r in inst.columns)
        seen["large"] += problem.cost_scale > 7000
    assert min(seen.values()) >= 20, seen


def test_maximize_over_S_matches_fraction_fill():
    rng = random.Random(1729)
    for n in range(120):
        inst = (rational_instance(rng) if n % 3 else
                random_instance(rng, max_groups=4, profits="random"))
        objective = {r: inst.profit(r) for r in inst.columns}
        for r in inst.columns:
            roll = rng.random()
            if roll < 0.1:
                objective[r] = -objective[r]
            elif roll < 0.2:
                objective[r] = inst.weight(r) * 2  # ties the ratio at 2
        assert (oracle.maximize_over_S(inst, objective)
                == reference_maximize_over_S(inst, objective))


def test_closed_form_matches_the_comparator_on_the_solve_corpora(monkeypatch):
    """Every cut-free node LP that ``branch_and_cut`` solves over the
    seed-1 corpora of ``bench/``'s two solve workloads, as many tasks as a
    benchmark run of ``run_seconds`` measures, equals the comparator
    closed form (``conftest.comparator_solve_groups``) in every field:
    value, point, duals and pivots."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    corpus = importlib.import_module("corpus")
    workloads = importlib.import_module("workloads")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    real, lps = solver.solve_lp, []

    def recording(problem, *, spans):
        if not problem.cut_rows:
            lps.append((problem, spans))
        return real(problem, spans=spans)

    monkeypatch.setattr(solver, "solve_lp", recording)
    for name in ("solve-default", "solve-exactsep"):
        workload = workloads.WORKLOADS[name]
        config = SolveConfig(exact_fallback=workload.exact_fallback)
        for groups, capacity in corpus.instance_stream(
                random.Random(1), workload.shapes, workload.max_weight,
                workload.tasks(seconds)):
            branch_and_cut(Instance.build(groups, capacity), config)
    assert len(lps) >= 2000
    for problem, spans in lps:
        assert solve_lp(problem, spans=spans) == comparator_solve_groups(
            problem, spans)


def test_closed_form_matches_the_comparator_on_random_data():
    """The closed form equals the comparator closed form in every field,
    at the root's spans and at random nested node spans, empty ones
    included: on rational and strongly correlated instances with zero
    weights, b = 0, zero profits and ratios tied within and across
    groups."""
    rng = random.Random(5602)
    seen = {"zero weight": 0, "weightless profit": 0, "b = 0": 0,
            "rational": 0, "tied ratio": 0, "empty span": 0}
    for n in range(900):
        inst = correlated_instance(rng) if n % 3 == 0 else rational_instance(rng)
        objective = {}
        for r in inst.columns:
            roll = rng.random()
            objective[r] = (0 if roll < 0.15 else inst.weight(r) * 2
                            if roll < 0.35 else inst.profit(r))
        problem = LpProblem(with_profits(inst, objective))
        spans = random_spans(rng, inst, 0.25)
        for at in (problem.spans, spans):
            assert solve_lp(problem, spans=at) == comparator_solve_groups(
                problem, at)
        ratios = [objective[r] / inst.weight(r) for r in inst.columns
                  if inst.weight(r) and objective[r] > 0]
        seen["zero weight"] += any(inst.weight(r) == 0 for r in inst.columns)
        seen["weightless profit"] += any(
            inst.weight(r) == 0 and objective[r] > 0 for r in inst.columns)
        seen["b = 0"] += inst.capacity == 0
        seen["rational"] += problem.scaled_rows[0][2] > 1
        seen["tied ratio"] += len(set(ratios)) < len(ratios)
        seen["empty span"] += any(lo == hi for lo, hi in spans)
    assert min(seen.values()) >= 40, seen


# Group 1's ratio 333331/999994 and group 2's 333332/999997 are adjacent
# fractions (their cross products differ by 1) that floor(W r) does not
# tell apart at W = 10^6, group 3's heavy slot; group 4's hull step from
# its weightless slot ties group 2's ratio; groups 3 and 4 each have a
# weightless slot with a positive profit.
_NEAR_TIES = [((999994,), (333331,)), ((999997,), (333332,)),
              ((10 ** 6, 0), (400000, 2)), ((999997, 0), (333333, 1))]


@pytest.mark.parametrize("capacity", [
    0, 1, 999994, 999997, 10 ** 6, 1999991, 1999994, 2999994, 4 * 10 ** 6])
def test_closed_form_keeps_near_ties_apart(capacity):
    """On adjacent fractions at W = 10^6, ratios tied across groups and two
    groups with weightless positive-profit slots, the closed form equals
    the comparator closed form in every field at every capacity, at the
    root and at every node's spans that drops one slot: the integer key
    orders the steps as the exact ratios do, ties kept in group order and
    weightless steps first."""
    problem = LpProblem(Instance.build(_NEAR_TIES, capacity))
    nodes = [problem.spans] + [
        problem.spans[:i] + ((lo + 1, hi),) + problem.spans[i + 1:]
        for i, (lo, hi) in enumerate(problem.spans) if hi - lo > 1] + [
        problem.spans[:i] + ((lo, hi - 1),) + problem.spans[i + 1:]
        for i, (lo, hi) in enumerate(problem.spans)]
    for spans in nodes:
        assert solve_lp(problem, spans=spans) == comparator_solve_groups(
            problem, spans)
