import random
from fractions import Fraction
from itertools import product

import pytest

from ckp import cuts, simplex
from ckp.errors import PreconditionError, ValidationError
from ckp.model import (
    Instance,
    LinearInequality,
    Point,
    VarRef,
    is_lp_feasible,
    knapsack_row,
)
from ckp.simplex import LpProblem, LpSolution, solve_lp, verify_certificate
from ckp import oracle

from conftest import (LARGE_PRIMES, _solve_bounded as reference_solve_bounded,
                      group_rows, lp_solution, make_instance, random_instance,
                      rational_instance, reference_lp_data,
                      reference_maximize_over_S, reference_solve_lp)


def lp_for(inst, extra_rows=()):
    return LpProblem(inst, {r: inst.profit(r) for r in inst.refs()}, extra_rows)


def test_single_variable_bound_binds():
    inst = make_instance([(2,)], 21)
    sol = solve_lp(LpProblem(inst, {VarRef(1, 1): Fraction(1)}))
    assert sol.value == 1
    assert sol.point.value(VarRef(1, 1)) == 1


def test_zero_capacity():
    inst = make_instance([(2,)], 0)
    sol = solve_lp(lp_for(inst))
    assert sol.value == 0
    assert sol.point.entries == ()


def test_fractional_optimum():
    inst = Instance.build([((2,), (3,))], 1)
    sol = solve_lp(LpProblem(inst, {VarRef(1, 1): Fraction(3)}))
    assert sol.value == Fraction(3, 2)
    assert sol.point.value(VarRef(1, 1)) == Fraction(1, 2)


def test_zero_objective(ex_a):
    sol = solve_lp(LpProblem(ex_a, {}))
    assert sol.value == 0


def test_example_relaxation(ex_a):
    problem = lp_for(ex_a)
    sol = solve_lp(problem)
    assert sol.value == 21
    assert verify_certificate(problem, sol)
    # the knapsack row is the one stored row; the rows of groups 4 and 5
    # are their spans; the duals price all three rows, then the bounds
    assert len(problem.scaled_rows) == len(problem.rows) == 1
    assert problem.spans == ((0, 1), (1, 2), (2, 3), (3, 5), (5, 7))
    assert len(sol.duals) == 3 + ex_a.dimension
    assert all(y >= 0 for y in sol.duals)


@pytest.mark.parametrize("groups, capacity, extra_rows", [
    # x11 >= 1/2: a cut row with a negative right-hand side, which no
    # inequality valid for S has, since 0 is in S
    ([((2,), (2,)), ((3,), (3,))], 4,
     (LinearInequality([(VarRef(1, 1), -1)], Fraction(-1, 2)),)),
    ([((2,), (2,)), ((3,), (3,))], -1, ()),   # negative capacity
    ([((-2,), (1,)), ((3,), (1,))], 1, ()),   # negative weight
], ids=["negative-rhs-cut", "negative-capacity", "negative-weight"])
def test_lp_requires_the_origin_feasible(groups, capacity, extra_rows):
    inst = Instance.build(groups, capacity)
    with pytest.raises(ValidationError, match="nonnegative"):
        lp_for(inst, extra_rows)


def test_forced_zero_columns(ex_a):
    problem = lp_for(ex_a)
    banned = frozenset({VarRef(3, 1), VarRef(4, 1), VarRef(5, 1)})
    sol = solve_lp(problem, forced_zero=banned)
    for ref in banned:
        assert sol.point.value(ref) == 0
    assert verify_certificate(problem, sol, forced_zero=banned)
    # remaining variables weigh 2+4+6+4 = 16 < 21, so everything packs
    assert sol.value == 16


def test_rows_must_include_knapsack(ex_a):
    # the knapsack row always comes first, and only once
    problem = LpProblem(ex_a, ())
    assert problem.rows == (knapsack_row(ex_a),)
    with pytest.raises(ValidationError, match="exactly once"):
        LpProblem(ex_a, (), (knapsack_row(ex_a),))


def test_knapsack_row_built_once_per_instance(ex_a):
    # every LP on one instance has the same knapsack row, the pool's first
    # member in the solver, and a problem's cut rows share it; it is the
    # row knapsack_row builds
    first, second = LpProblem(ex_a, {}), lp_for(ex_a)
    assert first.rows[0] == second.rows[0]
    assert first.with_row(LinearInequality({}, 1)).rows[0] is first.rows[0]
    fresh = knapsack_row(ex_a)
    assert fresh is not first.rows[0] and fresh == first.rows[0]


def test_with_row_matches_building_the_rows(ex_b):
    # the solver's add-a-cut step: the same LP as building all rows at
    # once, and the same checks on the new row
    cut = cuts.pack_inequality_1(
        ex_b, cuts.enumerate_maximal_switching_packs(ex_b)[0]).inequality
    grown = lp_for(ex_b).with_row(cut)
    built = lp_for(ex_b, (cut,))
    assert grown.rows == built.rows
    assert solve_lp(grown) == solve_lp(built)
    assert verify_certificate(grown, solve_lp(built))
    with pytest.raises(ValidationError, match="exactly once"):
        grown.with_row(knapsack_row(ex_b))
    with pytest.raises(ValidationError, match="nonnegative"):
        grown.with_row(LinearInequality([(VarRef(1, 1), -1)], Fraction(-1, 2)))


def test_objective_refs_checked(ex_a):
    with pytest.raises(ValidationError):
        LpProblem(ex_a, {VarRef(6, 1): Fraction(1)})


def test_objective_is_exact_and_given_once(ex_a):
    # cleaned as LinearInequality and Point terms are: a float would be
    # taken at its binary value (0.1 as 3602879701896397/2^55), a decimal
    # string is outside the file grammar, and a repeated variable would
    # keep only its last nonzero value
    for objective in ({(1, 1): 0.1}, {(1, 1): "0.5"},
                      [((1, 1), 5), ((1, 1), 1)], [((1, 1), 0), ((1, 1), 5)]):
        for build in (lambda t: LinearInequality(t, 1),
                      lambda t: LpProblem(ex_a, t),
                      lambda t: oracle.maximize_over_S(ex_a, t)):
            with pytest.raises(ValidationError):
                build(objective)
    # a zero-valued term is dropped, but its reference is still checked
    with pytest.raises(ValidationError, match=r"x\(6,1\)"):
        LpProblem(ex_a, {VarRef(1, 1): 1, VarRef(6, 1): 0})


def test_row_refs_checked():
    # a row's term on a variable outside the instance is refused, not
    # dropped: dropping (9,9) would solve x(1,1) <= 0 instead
    inst = make_instance([(4, 2), (3,)], 5)
    objective = {r: inst.profit(r) for r in inst.refs()}
    row = LinearInequality({(1, 1): 1, (9, 9): 7}, 0)
    with pytest.raises(ValidationError, match=r"x\(9,9\)"):
        LpProblem(inst, objective, [row])
    with pytest.raises(ValidationError, match=r"x\(9,9\)"):
        LpProblem(inst, objective).with_row(row)


def test_relaxation_bounds_the_oracle(small_corpus):
    """LP value >= best value over S, with equality iff the LP point is in S."""
    for inst in small_corpus:
        problem = lp_for(inst)
        sol = solve_lp(problem)
        assert verify_certificate(problem, sol)
        assert is_lp_feasible(inst, sol.point)
        best, _ = oracle.maximize_over_S(inst, dict(problem.objective))
        assert sol.value >= best


def test_duals_price_the_optimum(small_corpus):
    for inst in small_corpus[:8]:
        problem = lp_for(inst)
        sol = solve_lp(problem)
        # the knapsack row's rhs, then 1 for each group row and bound
        rhs = [problem.rows[0].rhs] + [Fraction(1)] * (len(sol.duals) - 1)
        assert len(sol.duals) == (len(problem.scaled_rows)
                                  + len(group_rows(inst)) + inst.dimension)
        assert sum(y * r for y, r in zip(sol.duals, rhs)) == sol.value


def test_certificate_rejects_tampering(ex_a):
    problem = lp_for(ex_a)
    sol = solve_lp(problem)
    forged = lp_solution(sol.value + 1, sol.point, sol.duals, sol.pivots)
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
    one_row = with_cuts = 0
    for _ in range(150):
        inst = rational_instance(rng)
        objective = {r: inst.profit(r) for r in inst.refs()}
        for r in inst.refs():
            if rng.random() < 0.15:
                objective[r] = -objective[r] - 1
        forced = frozenset(r for r in inst.refs() if rng.random() < 0.25)
        pool = _builder_cuts(inst)
        rows = tuple(rng.sample(pool, min(len(pool), rng.randint(0, 3))))
        problem = LpProblem(inst, objective, rows)
        sol = solve_lp(problem, forced)
        assert verify_certificate(problem, sol, forced)
        assert not set(sol.point.support()) & forced
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
    assert one_row >= 20 and with_cuts >= 20


def test_closed_form_matches_the_tableau_with_group_rows():
    """Without cut rows, the closed form and the bounded simplex, which
    takes the group rows as tableau rows, give the same value, and both
    certificates verify: on rational and random data with zero weights,
    tied ratios, singleton groups, negative costs and forced sets."""
    rng = random.Random(4242)
    seen = {"zero weight": 0, "tied ratio": 0, "singleton": 0, "forced": 0,
            "pivots": 0}
    for n in range(200):
        inst = (rational_instance(rng) if n % 2 else
                random_instance(rng, max_groups=4, profits="random"))
        objective = {r: inst.profit(r) for r in inst.refs()}
        for r in inst.refs():
            roll = rng.random()
            if roll < 0.1:
                objective[r] = -objective[r] - 1
            elif roll < 0.2:
                objective[r] = inst.weight(r) * 2  # ties the ratio at 2
        forced = frozenset(r for r in inst.refs() if rng.random() < 0.25)
        problem = LpProblem(inst, objective)
        closed = solve_lp(problem, forced)
        free = [j for j, r in enumerate(problem.refs) if r not in forced]
        tableau = simplex._solve_bounded(problem, free)
        assert closed.value == tableau.value
        assert verify_certificate(problem, closed, forced)
        assert verify_certificate(problem, tableau, forced)
        ratios = [objective[r] / inst.weight(r) for r in inst.refs()
                  if inst.weight(r) and objective[r] > 0]
        seen["zero weight"] += any(inst.weight(r) == 0 for r in inst.refs())
        seen["tied ratio"] += len(set(ratios)) < len(ratios)
        seen["singleton"] += bool(inst.singleton_groups())
        seen["forced"] += bool(forced)
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
    assert sol.duals == (2, 1, 0, 0, 0)
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
    problem = _forgery_problem()
    forced = frozenset({VarRef(4, 1)})
    sol = solve_lp(problem, forced)
    assert verify_certificate(problem, sol, forced)
    # x41 weighs and earns nothing, so only the forced set rules it out
    entries = sol.point.entries + ((VarRef(4, 1), Fraction(1)),)
    forged = lp_solution(sol.value, Point(entries), sol.duals, sol.pivots)
    assert not verify_certificate(problem, forged, forced)


def _unchecked_point(entries):
    """A Point holding ``entries`` as given, past the constructor's [0, 1]
    check, as a forged solution might."""
    point = object.__new__(Point)
    point.entries = tuple(entries)
    return point


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
    forged = lp_solution(sol.value, _unchecked_point(entries), sol.duals,
                         sol.pivots)
    assert not verify_certificate(problem, forged)


def test_certificate_rejects_value_off_by_a_tiny_fraction():
    problem = _forgery_problem()
    sol = solve_lp(problem)
    for off in (Fraction(1, _LARGE_PRIME), -Fraction(1, _LARGE_PRIME)):
        forged = lp_solution(sol.value + off, sol.point, sol.duals, sol.pivots)
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
    (3, (1, ((_X11, 1), (_X41, 1))), (1, [2, 1, 0, 0]), (_X41,),
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
    # 0), and each forgery replaces one part of it
    problem = _forgery_problem()
    true = LpSolution(Fraction(3), (1, ((_X11, 1),)), (1, [2, 1, 0, 0, 0]), 0)
    assert verify_certificate(problem, true)
    assert true == solve_lp(problem)
    forged = LpSolution(Fraction(value), point or true.scaled,
                        duals or true.scaled_duals, 0)
    assert not verify_certificate(problem, forged, frozenset(forced)), why


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
    assert sol.duals == (0, 2, 0, 0, 1)
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


def test_integer_node_lp_matches_fraction_reference():
    """Value, point, duals and pivots equal those of the Fraction node LP,
    on rational and zero weights, equal ratios, 0-3 builder cut rows and
    forced sets; the tableau alone matches its reference on one-row LPs
    too."""
    rng = random.Random(90210)
    seen = {"cuts": 0, "pivots": 0, "forced": 0, "zero weight": 0,
            "tied ratio": 0}
    for _ in range(150):
        inst = rational_instance(rng)
        objective = {r: inst.profit(r) for r in inst.refs()}
        for r in inst.refs():
            if rng.random() < 0.15:
                objective[r] = -objective[r] - 1
        forced = frozenset(r for r in inst.refs() if rng.random() < 0.25)
        pool = _builder_cuts(inst)
        rows = tuple(rng.sample(pool, min(len(pool), rng.randint(0, 3))))
        problem = LpProblem(inst, objective, rows)
        got = solve_lp(problem, forced)
        want = reference_solve_lp(problem, forced)
        assert (got.value, got.point, got.duals, got.pivots) == (
            want.value, want.point, want.duals, want.pivots)
        assert verify_certificate(problem, got, forced)
        free = [j for j, r in enumerate(problem.refs) if r not in forced]
        got = simplex._solve_bounded(problem, free)
        want = reference_solve_bounded(
            problem, [r for r in inst.refs() if r not in forced])
        assert (got.value, got.point, got.duals, got.pivots) == (
            want.value, want.point, want.duals, want.pivots)
        ratios = [objective[r] / inst.weight(r) for r in inst.refs()
                  if inst.weight(r) and objective[r] > 0]
        seen["cuts"] += bool(rows)
        seen["pivots"] += got.pivots > 0
        seen["forced"] += bool(forced)
        seen["zero weight"] += any(inst.weight(r) == 0 for r in inst.refs())
        seen["tied ratio"] += len(set(ratios)) < len(ratios)
    assert min(seen.values()) >= 20, seen


def test_scaled_data_matches_fraction_reference():
    """costs, cost_scale, scaled_rows and scale equal the data scaled in
    Fractions, and the spans give the Fraction group rows, on rational and
    zero weights, negative objective values, large coprime objective
    denominators and 0-3 builder cut rows; the same holds for the rows
    added one at a time by with_row, whose copies share their spans."""
    rng = random.Random(7411)
    seen = {"cuts": 0, "negative": 0, "zero weight": 0, "large": 0}
    for _ in range(150):
        inst = rational_instance(rng)
        objective = {}
        for r in inst.refs():
            q = rng.choice(LARGE_PRIMES) if rng.random() < 0.3 else 1
            objective[r] = (Fraction(rng.randint(-3 * q, 5 * q), q)
                            if rng.random() < 0.6 else inst.profit(r))
        pool = _builder_cuts(inst)
        rows = tuple(rng.sample(pool, min(len(pool), rng.randint(0, 3))))
        problem = LpProblem(inst, objective, rows)
        chained = LpProblem(inst, objective)
        for row in rows:
            grown = chained.with_row(row)
            assert grown.spans is chained.spans
            chained = grown
        want = reference_lp_data(inst, objective, rows)
        for built in (problem, chained):
            assert (built.costs, built.cost_scale, built.scaled_rows,
                    built.scale) == want
            assert len(built.scaled_rows) == len(built.rows)
        # one span per group, its columns in order, and the spans of two or
        # more columns are the group rows
        assert [problem.refs[start:end] for start, end in problem.spans] == [
            tuple(VarRef(i, j) for j in range(1, g.size + 1))
            for i, g in enumerate(inst.groups, start=1)]
        assert [([(ref, 1) for ref in problem.refs[start:end]], 1)
                for start, end in problem.spans
                if end - start > 1] == group_rows(inst)
        seen["cuts"] += bool(rows)
        seen["negative"] += any(c < 0 for c in objective.values())
        seen["zero weight"] += any(inst.weight(r) == 0 for r in inst.refs())
        seen["large"] += problem.cost_scale > 7000
    assert min(seen.values()) >= 20, seen


def test_maximize_over_S_matches_fraction_fill():
    rng = random.Random(1729)
    for n in range(120):
        inst = (rational_instance(rng) if n % 3 else
                random_instance(rng, max_groups=4, profits="random"))
        objective = {r: inst.profit(r) for r in inst.refs()}
        for r in inst.refs():
            roll = rng.random()
            if roll < 0.1:
                objective[r] = -objective[r]
            elif roll < 0.2:
                objective[r] = inst.weight(r) * 2  # ties the ratio at 2
        assert (oracle.maximize_over_S(inst, objective)
                == reference_maximize_over_S(inst, objective))
