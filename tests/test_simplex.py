import random
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

from ckp import cuts, simplex
from ckp.errors import PreconditionError, ValidationError
from ckp.model import (
    Instance,
    LinearInequality,
    Point,
    VarRef,
    knapsack_row,
)
from ckp.simplex import LpProblem, LpSolution, solve_lp, verify_certificate
from ckp import oracle

from conftest import (LARGE_PRIMES, _solve_bounded as reference_solve_bounded,
                      fraction_duals, group_rows, lp_solution, make_instance,
                      profits, random_instance, random_spans, rational_instance,
                      reference_lp_data, reference_maximize_over_S,
                      reference_solve_lp, span_refs, weight_of,
                      with_profits)


def lp_for(inst, extra_rows=()):
    """``LpProblem(inst)`` with each of ``extra_rows`` added by
    ``with_row``, as the solver adds its cuts."""
    problem = LpProblem(inst)
    for row in extra_rows:
        problem = problem.with_row(row)
    return problem


def test_single_variable_bound_binds():
    inst = with_profits(make_instance([(2,)], 21), {VarRef(1, 1): 1})
    sol = solve_lp(LpProblem(inst))
    assert sol.value == 1
    assert sol.point.entries == ((VarRef(1, 1), 1),)


def test_zero_capacity():
    inst = make_instance([(2,)], 0)
    sol = solve_lp(lp_for(inst))
    assert sol.value == 0
    assert sol.point.entries == ()


def test_fractional_optimum():
    inst = Instance.build([((2,), (3,))], 1)
    sol = solve_lp(LpProblem(inst))
    assert sol.value == Fraction(3, 2)
    assert sol.point.entries == ((VarRef(1, 1), Fraction(1, 2)),)


def test_zero_objective(ex_a):
    sol = solve_lp(LpProblem(with_profits(ex_a, {})))
    assert sol.value == 0


def test_example_relaxation(ex_a):
    problem = lp_for(ex_a)
    sol = solve_lp(problem)
    assert sol.value == 21
    assert verify_certificate(problem, sol)
    # the knapsack row is the one stored row; the rows of groups 4 and 5
    # are their spans; the duals price all three rows, then the bounds
    assert len(problem.scaled_rows) == len(problem.rows) == 1
    assert problem.cut_rows == ()
    assert problem.spans == ((0, 1), (1, 2), (2, 3), (3, 5), (5, 7))
    assert len(sol.scaled_duals[1]) == 3 + ex_a.dimension
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
    # the duals price the knapsack row, the rows of groups 4 and 5 (their
    # problem spans have two columns), then one bound per free column
    assert len(sol.scaled_duals[1]) == 3 + 4


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
    assert verify_certificate(grown, solve_lp(grown))
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
        sol = solve_lp(problem)
        assert verify_certificate(problem, sol)
        assert weight_of(inst, sol.point) <= inst.capacity
        best, _ = oracle.maximize_over_S(inst, profits(inst))
        assert sol.value >= best


def test_duals_price_the_optimum(small_corpus):
    for inst in small_corpus[:8]:
        problem = lp_for(inst)
        sol = solve_lp(problem)
        # the knapsack row's rhs, then 1 for each group row and bound
        duals = fraction_duals(sol)
        rhs = [inst.capacity] + [Fraction(1)] * (len(duals) - 1)
        assert len(duals) == (len(problem.scaled_rows)
                              + len(group_rows(inst)) + inst.dimension)
        assert sum(y * r for y, r in zip(duals, rhs)) == sol.value


def test_certificate_rejects_tampering(ex_a):
    problem = lp_for(ex_a)
    sol = solve_lp(problem)
    forged = LpSolution(sol.value + 1, sol.scaled, sol.scaled_duals,
                        sol.pivots)
    assert not verify_certificate(problem, forged)


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
    """Max of the objective over the knapsack row, the group rows, the box
    and x_forced = 0, by enumerating the vertices that can be optimal.  The
    box and group rows make a product of simplices, one per group, whose
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
        problem = lp_for(with_profits(inst, objective), rows)
        forced = set(problem.refs) - set(span_refs(problem, spans))
        sol = solve_lp(problem, spans=spans)
        assert verify_certificate(problem, sol, spans=spans)
        assert not {ref for ref, _ in sol.point.entries} & forced
        no_cuts = _group_lp_optimum(inst, objective, forced)
        if rows:
            with_cuts += 1
            # Valid cuts keep every point of S: the LP lies between the
            # maximum over S (forced variables priced out) and the LP
            # without cut rows.
            priced = {r: (-1 if r in forced else c) for r, c in objective.items()}
            best, _ = oracle.maximize_over_S(inst, priced)
            assert best <= sol.value <= no_cuts
        else:
            one_row += 1
            assert sol.value == no_cuts
            assert sol.pivots == 0
        empty += any(lo == hi for lo, hi in spans)
    assert one_row >= 20 and with_cuts >= 20 and empty >= 20


def test_closed_form_matches_the_tableau_with_group_rows():
    """Without cut rows, the closed form and the bounded simplex, which
    takes the group rows as tableau rows, give the same value, and both
    certificates verify: on rational and random data with zero weights,
    tied ratios, singleton groups, zero costs and random nested node
    spans, empty ones included."""
    rng = random.Random(4242)
    seen = {"zero weight": 0, "tied ratio": 0, "singleton": 0, "forced": 0,
            "empty span": 0, "pivots": 0}
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
        closed = solve_lp(problem, spans=spans)
        tableau = simplex._solve_bounded(problem, spans)
        assert closed.value == tableau.value
        assert verify_certificate(problem, closed, spans=spans)
        assert verify_certificate(problem, tableau, spans=spans)
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
    # closed form takes x11 whole, the critical ratio is 2, and the bound
    # multipliers are (1, 0, 0, 0).
    inst = Instance.build([((1,), (3,)), ((1,), (2,)), ((2,), (1,)),
                           ((0,), (0,))], 1)
    return lp_for(inst)


def test_closed_form_duals():
    problem = _forgery_problem()
    sol = solve_lp(problem)
    assert sol.value == 3
    assert fraction_duals(sol) == (2, 1, 0, 0, 0)
    assert verify_certificate(problem, sol)


@pytest.mark.parametrize("duals, why", [
    ((2, 2, 0, -1, 0), "negative bound multiplier, all else balanced"),
    ((2, 1, 0, 0), "duals tuple one bound short"),
    ((2, 0, 0, 1, 0), "bound multiplier of x11 lowered, sum kept"),
])
def test_certificate_rejects_forged_duals(duals, why):
    problem = _forgery_problem()
    sol = solve_lp(problem)
    forged = lp_solution(sol.value, sol.point,
                         tuple(Fraction(y) for y in duals), sol.pivots)
    assert not verify_certificate(problem, forged), why


def test_certificate_rejects_point_on_forced_variable():
    # group 4's slots weigh and earn nothing, so only the node's span of
    # group 4 rules out an entry on x41 or x42: with the span empty, and
    # with the entry left and right of a one-column span
    for slots, span, ref in [(1, (3, 3), VarRef(4, 1)),
                             (2, (4, 5), VarRef(4, 1)),
                             (2, (3, 4), VarRef(4, 2))]:
        inst = Instance.build([((1,), (3,)), ((1,), (2,)), ((2,), (1,)),
                               ((0,) * slots, (0,) * slots)], 1)
        problem = lp_for(inst)
        spans = problem.spans[:3] + (span,)
        sol = solve_lp(problem, spans=spans)
        assert verify_certificate(problem, sol, spans=spans)
        entries = sol.point.entries + ((ref, Fraction(1)),)
        forged = lp_solution(sol.value, Point(entries), fraction_duals(sol),
                             sol.pivots)
        assert not verify_certificate(problem, forged, spans=spans), ref


def _unchecked_point(entries):
    """An object holding ``entries`` as given, past ``Point``'s [0, 1]
    check, as a forged solution might: all ``lp_solution`` reads."""
    return SimpleNamespace(entries=tuple(entries))


_LARGE_PRIME = 2 ** 61 - 1


def test_certificate_handles_dual_denominators_foreign_to_the_data():
    # The data are integers (every scale is 1), and the duals carry a
    # denominator coprime to all of them.  Lowering y below the critical
    # ratio and raising u11 to keep the sum leaves x21 underpriced; the
    # shift the other way is a valid, degenerate certificate.
    problem = _forgery_problem()
    sol = solve_lp(problem)
    eps = Fraction(1, _LARGE_PRIME)
    forged = lp_solution(sol.value, sol.point,
                         tuple(map(Fraction, (2 - eps, 1 + eps, 0, 0, 0))),
                         sol.pivots)
    assert not verify_certificate(problem, forged)
    shifted = lp_solution(sol.value, sol.point,
                          tuple(map(Fraction, (2 + eps, 1 - eps, 0, 0, 0))),
                          sol.pivots)
    assert verify_certificate(problem, shifted)


def test_certificate_rejects_entry_just_above_one():
    # x41 weighs and earns nothing, so only the bound x <= 1 rules it out
    problem = _forgery_problem()
    sol = solve_lp(problem)
    entries = sol.point.entries + (
        (VarRef(4, 1), 1 + Fraction(1, _LARGE_PRIME)),)
    forged = lp_solution(sol.value, _unchecked_point(entries),
                         fraction_duals(sol), sol.pivots)
    assert not verify_certificate(problem, forged)


def test_certificate_rejects_value_off_by_a_tiny_fraction():
    problem = _forgery_problem()
    sol = solve_lp(problem)
    for off in (Fraction(1, _LARGE_PRIME), -Fraction(1, _LARGE_PRIME)):
        forged = LpSolution(sol.value + off, sol.scaled, sol.scaled_duals,
                            sol.pivots)
        assert not verify_certificate(problem, forged)


_X11, _X41 = VarRef(1, 1), VarRef(4, 1)


@pytest.mark.parametrize("value, point, duals, forced, why", [
    (3, (1, ((_X11, 1), (_X41, 0))), None, (), "X = 0"),
    (3, (1, ((_X11, 1), (_X41, -1))), None, (), "X < 0"),
    (3, (2, ((_X11, 2), (_X41, 3))), None, (), "X > D"),
    (3, (1, ((_X11, 1), (_X41, 1), (_X41, 1))), None, (), "ref repeated"),
    (3, (1, ((_X41, 1), (_X11, 1))), None, (), "refs out of order"),
    (3, (1, ((_X11, 1), (VarRef(4, 2), 1))), None, (), "ref outside"),
    (3, (1, ((_X11, 1), (VarRef(5, 1), 1))), None, (), "group outside"),
    (3, (1, ((_X11, 1), (_X41, 1))), (1, [2, 1, 0, 0]), (4,),
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
    # x41 weighs and earns nothing, so only the form's own checks see an
    # entry on it; the true optimum is x11 = 1, value 3, duals (2, 1, 0, 0,
    # 0), and each forgery replaces one part of it.  ``forced`` names the
    # groups whose span the node empties.
    problem = _forgery_problem()
    spans = tuple((lo, lo if i in forced else hi)
                  for i, (lo, hi) in enumerate(problem.spans, start=1))
    true = LpSolution(Fraction(3), (1, ((_X11, 1),)), (1, (2, 1, 0, 0, 0)), 0)
    assert verify_certificate(problem, true)
    assert true == solve_lp(problem)
    forged = LpSolution(Fraction(value), point or true.scaled,
                        duals or true.scaled_duals, 0)
    assert not verify_certificate(problem, forged, spans=spans), why


def _group_forgery_problem():
    # x11 and x12 weigh nothing and earn 2 and 1, and x21 fills the
    # capacity, so the closed form takes x11 and x21 whole: the knapsack
    # multiplier is 0, the group row's is 2 and x21's bound multiplier 1.
    inst = Instance.build([((0, 0), (2, 1)), ((1,), (1,))], 1)
    return lp_for(inst)


def test_group_row_certificate_is_accepted():
    problem = _group_forgery_problem()
    sol = solve_lp(problem)
    assert sol.value == 3
    assert fraction_duals(sol) == (0, 2, 0, 0, 1)
    assert verify_certificate(problem, sol)


def test_certificate_rejects_point_breaking_only_the_group_row():
    # x11 = x12 = x21 = 1 weighs 1 and earns 4, and the duals, x12's bound
    # multiplier raised to 1, price it at 4 and stay dual feasible: only
    # the group row x11 + x12 <= 1 rules it out
    problem = _group_forgery_problem()
    forged = LpSolution(Fraction(4), (1, ((VarRef(1, 1), 1), (VarRef(1, 2), 1),
                                          (VarRef(2, 1), 1))),
                        (1, [0, 2, 0, 1, 1]), 0)
    assert not verify_certificate(problem, forged)


@pytest.mark.parametrize("duals, why", [
    ((0, 1, 0, 1, 1), "group multiplier moved to x12's bound: x11 priced 1"),
    ((0, 3, 0, 0, 0), "x21's bound moved to the group row, which skips x21"),
])
def test_certificate_rejects_group_multiplier_moved(duals, why):
    # each shift keeps the dual value at 3 but leaves one slot underpriced
    problem = _group_forgery_problem()
    sol = solve_lp(problem)
    forged = lp_solution(sol.value, sol.point, tuple(map(Fraction, duals)),
                         sol.pivots)
    assert not verify_certificate(problem, forged), why


def test_certificate_rejects_each_mutation_on_nested_spans():
    """From the certified closed-form solution over random nested node
    spans, on rational and integral data, each of these is rejected:
    lowering one positive group-row multiplier, or one positive bound
    multiplier, by one unit of the duals' integer form, and moving one
    point entry to its group's column just outside its node span."""
    rng = random.Random(3939)
    seen = {"group row": 0, "bound": 0, "moved": 0}
    for n in range(200):
        inst = (rational_instance(rng) if n % 2 else
                random_instance(rng, max_groups=4, profits="random"))
        spans = random_spans(rng, inst, 0.25)
        problem = LpProblem(inst)
        sol = solve_lp(problem, spans=spans)
        assert verify_certificate(problem, sol, spans=spans)
        dual_scale, ys = sol.scaled_duals
        ngroups = sum(end - start > 1 for start, end in problem.spans)
        for r, y in enumerate(ys):
            if r == 0 or not y:  # the knapsack multiplier is not mutated
                continue
            lowered = ys[:r] + (y - 1,) + ys[r + 1:]
            forged = sol._replace(scaled_duals=(dual_scale, lowered))
            assert not verify_certificate(problem, forged, spans=spans), r
            seen["group row" if r <= ngroups else "bound"] += 1
        point_scale, entries = sol.scaled
        for k, (ref, x) in enumerate(entries):
            start, end = problem.spans[ref.group - 1]
            lo, hi = spans[ref.group - 1]
            for j in (lo - 1, hi):
                if start <= j < end:
                    moved = sorted(entries[:k] + ((problem.refs[j], x),)
                                   + entries[k + 1:])
                    forged = sol._replace(scaled=(point_scale, tuple(moved)))
                    assert not verify_certificate(problem, forged,
                                                  spans=spans), (ref, j)
                    seen["moved"] += 1
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
    on rational and zero weights, equal ratios, 0-3 builder cut rows and
    random nested node spans, empty ones included; the tableau alone
    matches its reference on one-row LPs too.  Closed-form and simplex solutions alike are plain records
    (:func:`_check_record`)."""
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
        problem = lp_for(with_profits(inst, objective), rows)
        got = solve_lp(problem, spans=spans)
        want = reference_solve_lp(problem, spans=spans)
        assert (got.value, got.point, fraction_duals(got), got.pivots) == (
            want.value, want.point, fraction_duals(want), want.pivots)
        assert verify_certificate(problem, got, spans=spans)
        _check_record(got)
        got = simplex._solve_bounded(problem, spans)
        want = reference_solve_bounded(problem, span_refs(problem, spans))
        assert (got.value, got.point, fraction_duals(got), got.pivots) == (
            want.value, want.point, fraction_duals(want), want.pivots)
        _check_record(got)
        ratios = [objective[r] / inst.weight(r) for r in inst.columns
                  if inst.weight(r) and objective[r] > 0]
        seen["cuts"] += bool(rows)
        seen["closed form"] += not rows
        seen["pivots"] += got.pivots > 0
        seen["forced"] += spans != problem.spans
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
        # one span per group, its columns in order, and the spans of two or
        # more columns are the group rows
        assert [problem.refs[start:end] for start, end in problem.spans] == [
            tuple(VarRef(i, j) for j in range(1, g.size + 1))
            for i, g in enumerate(inst.groups, start=1)]
        assert [([(ref, 1) for ref in problem.refs[start:end]], 1)
                for start, end in problem.spans
                if end - start > 1] == group_rows(inst)
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
