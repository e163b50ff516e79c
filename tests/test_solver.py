import copy
import hashlib
import heapq
import importlib
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path
from types import SimpleNamespace

import pytest

import ckp
from ckp import model, simplex, solver
from ckp.errors import CkpError, PreconditionError, ValidationError
from ckp.cuts import (FAMILIES, FAMILY_RANK, GeneratedCut, pack_inequality_1,
                      resolve_families)
from ckp.model import (
    Instance,
    LinearInequality,
    Point,
    VarRef,
    is_feasible,
    knapsack_row,
    profit_of,
    validate_assumptions,
)
from ckp.separation import SeparationResult, SeparationStats, separate_exact
from ckp.solver import SolveConfig, branch_and_cut
from ckp import oracle

from conftest import (correlated_instance, make_instance, random_instance,
                      random_spans, rational_instance)

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402  (bench/reference.py imports nothing from ckp)


def oracle_value(inst):
    value, _ = oracle.maximize_over_S(inst, {r: inst.profit(r) for r in inst.columns})
    return value


def test_example_values(ex_a, ex_b, ex_c):
    for inst, expected in ((ex_a, 21), (ex_b, 22), (ex_c, 36)):
        rep = branch_and_cut(inst)
        assert rep.value == expected
        assert rep.proven_optimal
        assert rep.best_bound == rep.value
        assert oracle_value(inst) == expected


def test_report_point_is_certified(ex_b):
    rep = branch_and_cut(ex_b)
    assert is_feasible(ex_b, rep.point)
    assert profit_of(ex_b, rep.point) == rep.value


def test_cut_configurations_agree(ex_a, ex_b, ex_c):
    for inst in (ex_a, ex_b, ex_c):
        plain = branch_and_cut(inst, SolveConfig(families=()))
        cutty = branch_and_cut(inst)
        exact = branch_and_cut(inst, SolveConfig(exact_fallback=True))
        assert plain.value == cutty.value == exact.value


def test_matches_oracle_on_corpus(rng):
    for _ in range(30):
        inst = random_instance(rng, max_groups=4, profits="random")
        expected = oracle_value(inst)
        for config in (None, SolveConfig(families=()),
                       SolveConfig(families=("pack1", "lcover1"))):
            rep = branch_and_cut(inst, config)
            assert rep.value == expected
            assert rep.proven_optimal
            assert is_feasible(inst, rep.point)
            assert profit_of(inst, rep.point) == rep.value


def test_deterministic(rng):
    inst = random_instance(rng, profits="random")
    a = branch_and_cut(inst)
    b = branch_and_cut(inst)
    assert (a.value, a.nodes, a.lp_pivots, a.point, a.cuts_per_family) \
        == (b.value, b.nodes, b.lp_pivots, b.point, b.cuts_per_family)


def test_trivial_when_capacity_is_loose():
    # heaviest picks weigh 5 <= 10, so the best-profit-per-group point wins;
    # it is the root LP's point, so one node proves it
    inst = make_instance([(2,), (3, 1)], 10)
    rep = branch_and_cut(inst)
    assert rep.value == 5 and rep.nodes == 1 and rep.proven_optimal
    assert not validate_assumptions(inst).assumption2


def test_fractional_knapsack_when_all_singletons():
    inst = Instance.build([((2,), (5,)), ((3,), (4,))], 4)
    rep = branch_and_cut(inst)
    # continuous knapsack: item 1 whole (profit 5), 2/3 of item 2
    assert rep.value == Fraction(23, 3)
    assert rep.nodes == 1 and rep.proven_optimal
    assert is_feasible(inst, rep.point)


def test_degenerate_instances_close_at_the_root():
    """Seeded rational data with zero weights: when the capacity admits
    every group's heaviest slot the root LP point is optimal with the
    value of the all-best-slots point, and when every group is a singleton
    the root LP is the problem; either way one node proves it."""
    rng = random.Random(6061)
    loose = singletons = 0
    for n in range(200):
        inst = rational_instance(rng)
        groups = [(g.weights, g.profits) for g in inst.groups]
        if n % 2:
            heaviest = sum(max(g.weights) for g in inst.groups)
            inst = Instance.build(groups, heaviest + rng.randint(0, 3))
        else:
            inst = Instance.build([((a,), (c,)) for ws, cs in groups
                                   for a, c in zip(ws, cs)], inst.capacity)
        rep = branch_and_cut(inst)
        assert rep.nodes == 1 and rep.proven_optimal
        assert rep.value == oracle_value(inst)
        assert is_feasible(inst, rep.point)
        report = validate_assumptions(inst)
        if not report.assumption2:
            loose += 1
            assert rep.value == report.trivial_value
        singletons += not report.assumption1
    assert loose >= 100 and singletons >= 50, (loose, singletons)


def test_rejects_unnormalized():
    inst = Instance.build([((1, 5), (1, 5)), ((2,), (2,))], 4)
    with pytest.raises(PreconditionError):
        branch_and_cut(inst)


@pytest.mark.parametrize("choice, want", [
    ("pack1", ("pack1",)),
    (["pack1"], ("pack1",)),
    ("pack1, lcover2", ("pack1", "lcover2")),
    (["lcover1", "pack2"], ("lcover1", "pack2")),
    ("all", FAMILIES),
    (None, FAMILIES),
    ("none", ()),
    ([], ()),
])
def test_config_reads_families_by_the_one_rule(choice, want):
    # SolveConfig reads a family choice as cuts.resolve_families does, for
    # the separators and the CLI, and stores it as a tuple, so the frozen
    # config hashes
    config = SolveConfig(families=choice)
    assert config.families == want == resolve_families(choice)
    assert type(config.families) is tuple
    assert hash(config) == hash(SolveConfig(families=want))


@pytest.mark.parametrize("choice", ["", ",", " , "])
def test_a_family_list_naming_none_is_refused(choice):
    # a string must name a family or be "none"; an empty sequence is none
    with pytest.raises(ValidationError, match="no cut family named"):
        resolve_families(choice)
    with pytest.raises(ValidationError, match="no cut family named"):
        SolveConfig(families=choice)
    assert resolve_families(()) == ()


def test_rejects_negative_capacity():
    # refused when the instance is built, so neither the assumption checks
    # nor the node LP of branch_and_cut ever meet it
    with pytest.raises(ValidationError, match="^negative capacity: -1$"):
        Instance.build([((3, 2), (3, 2)), ((4,), (4,))], -1)


def test_config_validation():
    with pytest.raises(ValidationError, match="unknown cut family: 'bogus'"):
        SolveConfig(families=("bogus",))
    with pytest.raises(ValidationError, match="unknown cut family: 'bogus'"):
        SolveConfig(families="pack1,bogus")
    with pytest.raises(ValidationError):
        SolveConfig(node_limit=0)
    for value in (1.5, True):
        with pytest.raises(ValidationError, match="node_limit must be an integer"):
            SolveConfig(node_limit=value)
    # an explicit enumeration limit is checked as oracle.resolve_enum_limit
    # checks it, with exact separation on or off
    for exact in (False, True):
        for value in (2.5, True, "10"):
            with pytest.raises(ValidationError,
                               match="enumeration limit must be an integer"):
                SolveConfig(exact_fallback=exact, enum_limit=value)
        for value in (0, -5):
            with pytest.raises(ValidationError,
                               match="enumeration limit must be positive, "
                                     "got %d" % value):
                SolveConfig(exact_fallback=exact, enum_limit=value)
        assert SolveConfig(exact_fallback=exact, enum_limit=1).enum_limit == 1
    # no limit stores the default, with exact separation on or off
    assert (SolveConfig().enum_limit
            == SolveConfig(exact_fallback=True).enum_limit
            == oracle.DEFAULT_ENUM_LIMIT)


@pytest.mark.parametrize("value", ["no", 1, 0, None])
def test_config_refuses_a_non_bool_exact_fallback(value):
    # a truthy "no" would switch exact separation on
    with pytest.raises(ValidationError, match="exact_fallback must be a bool"):
        SolveConfig(exact_fallback=value)


def test_records_refuse_attribute_assignment(ex_a):
    # each record of the library is a value: no field is reassigned and no
    # attribute is added
    cut = pack_inequality_1(ex_a, [(1, 1), (3, 1), (4, 2), (5, 2)])
    sep = separate_exact(ex_a, Point())
    records = [(cut, "facet_guaranteed"), (validate_assumptions(ex_a), "m0"),
               (oracle.check_validity(ex_a, cut.inequality), "valid"),
               (sep, "cut"), (sep.stats, "examined"),
               (SolveConfig(), "node_limit"), (branch_and_cut(ex_a), "value")]
    assert sorted(type(record).__name__ for record, _ in records) == [
        "AssumptionReport", "GeneratedCut", "SeparationResult",
        "SeparationStats", "SolveConfig", "SolveReport", "ValidityResult"]
    for record, name in records:
        value = getattr(record, name)
        for attribute in (name, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, attribute, None)
        assert getattr(record, name) is value


@pytest.mark.parametrize("change, match", [
    ({"node_limit": 0}, "node_limit must be at least 1"),
    ({"exact_fallback": 1}, "exact_fallback must be a bool, got 1"),
    ({"families": "bogus"}, "unknown cut family: 'bogus'"),
])
def test_a_replaced_config_is_checked(change, match):
    # _replace makes its config through the same checks as a call
    with pytest.raises(ValidationError, match=match):
        SolveConfig()._replace(**change)


def test_a_replaced_config_resolves_its_families():
    config = SolveConfig()._replace(families="pack1")
    assert config.families == ("pack1",)
    assert config == SolveConfig(families="pack1")
    assert config.node_limit == SolveConfig().node_limit == solver.NODE_LIMIT


def test_a_config_survives_pickle_and_copy():
    for config in (SolveConfig(),
                   SolveConfig(families="pack1,lcover2", node_limit=7,
                               exact_fallback=True, enum_limit=50)):
        for again in (pickle.loads(pickle.dumps(config)), copy.copy(config),
                      copy.deepcopy(config)):
            assert again == config and type(again) is SolveConfig


def test_a_family_choice_neither_string_nor_iterable_is_refused(ex_c):
    with pytest.raises(ValidationError, match="must be a string or names"):
        SolveConfig(families=5)
    with pytest.raises(ValidationError, match="must be a string or names"):
        separate_exact(ex_c, Point(), families=5)


def test_exact_separation_stops_at_the_enumeration_limit(monkeypatch):
    """A pattern space over the enumeration limit stops exact separation
    for the rest of the solve at its first refusal, and the report says
    so; greedy separation and branching still prove the optimum."""
    # strongly correlated (profit = weight + 5): greedy finds no cut at the
    # root, and the pattern space is 3^3 = 27
    inst = Instance.build([((9, 4), (14, 9)), ((5, 1), (10, 6)),
                           ((2, 1), (7, 6))], 8)
    calls = []
    real = solver.separate_exact

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "separate_exact", counting)
    limited = branch_and_cut(inst, SolveConfig(exact_fallback=True,
                                               enum_limit=26))
    assert len(calls) == 1
    assert limited.exact_sep_stopped and limited.proven_optimal
    assert limited.nodes > 1
    del calls[:]
    full = branch_and_cut(inst, SolveConfig(exact_fallback=True,
                                            enum_limit=27))
    assert calls and not full.exact_sep_stopped
    assert full.value == limited.value == 22
    assert not branch_and_cut(inst).exact_sep_stopped


def find_branching_instance(rng, config=None):
    while True:
        inst = random_instance(rng, max_groups=4, profits="random")
        rep = branch_and_cut(inst, config)
        if rep.nodes >= 3:
            return inst, rep


def test_node_limit_reports_honest_bounds(rng):
    inst, full = find_branching_instance(rng)
    limited = branch_and_cut(inst, SolveConfig(node_limit=1))
    assert not limited.proven_optimal
    assert limited.nodes == 1
    # the incumbent is feasible and the bound brackets the true optimum
    assert is_feasible(inst, limited.point)
    assert limited.value <= full.value <= limited.best_bound


def test_cut_pool_members_are_valid(rng):
    seen = 0
    for _ in range(40):
        inst = random_instance(rng, max_groups=3, profits="random")
        rep = branch_and_cut(inst, SolveConfig(exact_fallback=True))
        for cut in rep.cut_pool:
            seen += 1
            assert oracle.check_validity(inst, cut.inequality).valid
        assert sum(rep.cuts_per_family.values()) == len(rep.cut_pool)
    assert seen > 0  # the corpus must actually exercise the pool


def test_cuts_never_worsen_aggregate_nodes(rng):
    with_cuts = without = 0
    for _ in range(20):
        inst = random_instance(rng, max_groups=4, profits="random")
        with_cuts += branch_and_cut(inst).nodes
        without += branch_and_cut(inst, SolveConfig(families=())).nodes
    assert with_cuts <= without


def test_bounds_monotone_under_families(ex_c):
    # more families can only tighten (or keep) the root relaxation; the
    # final value is the same exact optimum either way
    values = set()
    for families in ((), ("pack1",), ("pack1", "pack2", "pack3"),
                     ("lcover1", "lcover2")):
        values.add(branch_and_cut(ex_c, SolveConfig(families=families)).value)
    assert values == {36}


@pytest.mark.parametrize("config", [SolveConfig(),
                                    SolveConfig(exact_fallback=True)],
                         ids=["default", "exact-fallback"])
def test_fuzz_against_the_oracle(config):
    """Seeded rational data with zero weights and equal ratios, every other
    instance strongly correlated so that the tree still branches: every
    solve is proven optimal, its value is the oracle's maximum over S, and
    its point lies in S and earns that value."""
    rng = random.Random(8080)
    branched = cut = 0
    for n in range(80):
        inst = rational_instance(rng) if n % 2 else correlated_instance(rng)
        report = branch_and_cut(inst, config)
        assert report.proven_optimal
        assert report.value == report.best_bound == oracle_value(inst)
        assert is_feasible(inst, report.point)
        assert profit_of(inst, report.point) == report.value
        branched += report.nodes > 1
        cut += bool(report.cut_pool)
    assert branched >= 10 and cut >= 5, (branched, cut)


@pytest.mark.parametrize("families", [(), FAMILIES], ids=["none", "default"])
def test_points_are_made_for_incumbents_and_the_report(monkeypatch, families):
    """The node LP's solution stays in integer form, the incumbent's too:
    one Point is made per solve, for the incumbent check and the report,
    however often the incumbent improves and whether or not cuts are
    separated.  An incumbent update is a node LP solution found
    complementarity-free; the corpus must have solves with several."""
    made = []
    init, from_scaled = Point.__init__, Point.from_scaled

    def counting_init(self, values=()):
        made.append(1)
        init(self, values)

    def counting_from_scaled(scale, entries):
        made.append(1)
        return from_scaled(scale, entries)

    tested = []  # (point or solution, violated groups); kept alive for id
    violations = solver.complementarity_violations

    def recording(point):
        violated = violations(point)
        tested.append((point, violated))
        return violated

    monkeypatch.setattr(Point, "__init__", counting_init)
    monkeypatch.setattr(Point, "from_scaled", counting_from_scaled)
    monkeypatch.setattr(solver, "complementarity_violations", recording)
    rng = random.Random(8080)
    updated = 0
    for _ in range(80):
        inst = rational_instance(rng)
        del made[:], tested[:]
        branch_and_cut(inst, SolveConfig(families=families))
        updates = len({id(p) for p, violated in tested if not violated})
        assert len(made) == 1
        updated += updates >= 2
    assert updated >= 5


def test_profit_of_matches_a_fraction_sum():
    """The integer profit_of equals the Fraction sum of profit times value,
    on rational data with zero and non-integer profits, for Points and for
    node LP solutions of the closed form and the simplex, over random
    nested node spans."""
    rng = random.Random(2424)
    seen = {"zero profit": 0, "rational profit": 0, "cut rows": 0,
            "rational point": 0}
    for n in range(120):
        inst = rational_instance(rng)
        refs = list(inst.columns)
        entries = [(r, Fraction(rng.randint(0, 7), rng.randint(1, 7)))
                   for r in refs if rng.random() < 0.6]
        point = Point([(r, min(x, 1)) for r, x in entries])
        spans = random_spans(rng, inst, 0.2)
        problem = simplex.LpProblem(inst)
        if n % 2:  # a cut row, so the simplex solves, not the closed form
            problem = problem.with_row(LinearInequality({refs[0]: 1}, 1))
        solution = simplex.solve_lp(problem, spans=spans)
        for p in (point, solution, solution.point):
            scale, xs = p.scaled
            want = sum((inst.profit(r) * Fraction(x, scale) for r, x in xs),
                       Fraction(0))
            assert profit_of(inst, p) == want
        profits = [inst.profit(r) for r in refs]
        seen["zero profit"] += 0 in profits
        seen["rational profit"] += any(c.denominator > 1 for c in profits)
        seen["cut rows"] += bool(problem.cut_rows)
        seen["rational point"] += point.scaled[0] > 1
    assert min(seen.values()) >= 20, seen


def test_profit_of_checks_every_reference(ex_a):
    with pytest.raises(ValidationError, match=r"x\(6,1\)"):
        profit_of(ex_a, Point({(1, 1): 1, (6, 1): 1}))


def test_one_solve_builds_its_lp_from_integer_data(monkeypatch, ex_b):
    """The fixed cost of a solve: LpProblem(instance) cleans no terms and
    scales no sparse row, and branch_and_cut builds no knapsack row and
    cleans no terms, on ex_b and on a corpus instance whose root adds a
    cut: the cut keeps its builder's integer form, which the pool's one
    check, inside ``LpProblem.with_row``, fills dense once
    (``Instance.integer_row``)."""
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for module in (model, simplex, solver):
        for name in ("clean_terms", "knapsack_row"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
    monkeypatch.setattr(Instance, "integer_row",
                        counting("integer_row", Instance.integer_row))
    scaled = _correlated_at_scale(79)
    for inst in (ex_b, scaled):
        del calls[:]
        simplex.LpProblem(inst)
        assert calls == []
        report = branch_and_cut(inst)
        assert "knapsack_row" not in calls and "clean_terms" not in calls
    # the corpus solve adds one pack1 cut, so the pool's check ran once
    assert report.cuts_per_family == dict.fromkeys(FAMILIES, 0) | {"pack1": 1}
    assert calls.count("integer_row") == 1


def _forged_solve_lp(problem, *, spans=None):
    """The true node LP with its value raised by one."""
    sol = simplex.solve_lp(problem, spans=spans)
    return simplex.LpSolution(sol.value + 1, sol.scaled, sol.scaled_duals,
                              sol.pivots)


def test_forged_lp_solution_is_rejected(monkeypatch, ex_b):
    monkeypatch.setattr(solver, "solve_lp", _forged_solve_lp)
    with pytest.raises(CkpError, match="certificate"):
        branch_and_cut(ex_b)


def test_wrong_incumbent_value_is_rejected(monkeypatch, ex_b):
    # With the certificate check bypassed, the forged value reaches the
    # incumbent and the final profit check must catch it.
    monkeypatch.setattr(solver, "solve_lp", _forged_solve_lp)
    monkeypatch.setattr(solver, "verify_certificate",
                        lambda *args, **kwargs: True)
    with pytest.raises(CkpError, match="incumbent"):
        branch_and_cut(ex_b)


def _solve_with_incumbent(monkeypatch, entries, value=None, instance=None):
    """Run ``branch_and_cut`` on ``instance`` (ex_b by default) with every
    node LP replaced by the point ``entries`` (x = X / D from ``(D, ((ref,
    X), ...))``) and its value by ``value`` (by default the LP's), its
    certificate and the loop's complementarity test passed, so that the
    point is taken as the incumbent and only the final check sees it."""
    scale, terms = entries
    if instance is None:
        instance = make_instance([(2,), (14, 10), (13, 9), (9, 6)], 22)

    def forged(problem, *, spans=None):
        sol = simplex.solve_lp(problem, spans=spans)
        return simplex.LpSolution(sol.value if value is None else value,
                                  (scale, terms), sol.scaled_duals,
                                  sol.pivots)

    monkeypatch.setattr(solver, "solve_lp", forged)
    monkeypatch.setattr(solver, "verify_certificate",
                        lambda *args, **kwargs: True)
    monkeypatch.setattr(solver, "complementarity_violations",
                        lambda *args: [])
    return branch_and_cut(instance)


@pytest.mark.parametrize("entries, why", [
    ((2, ((VarRef(2, 1), 1), (VarRef(2, 2), 1))),
     "x21 = x22 = 1/2: weight 12 of 22, two slots of group 2"),
    ((1, ((VarRef(1, 1), 1), (VarRef(2, 1), 1), (VarRef(3, 1), 1))),
     "one slot per group, weight 29 of 22"),
    ((13, ((VarRef(1, 1), 13), (VarRef(2, 1), 13), (VarRef(3, 1), 7))),
     "weight 22 + 1/13 of 22"),
])
def test_infeasible_incumbent_is_rejected(monkeypatch, entries, why):
    with pytest.raises(CkpError, match="incumbent point is not feasible"):
        _solve_with_incumbent(monkeypatch, entries)


def test_incumbent_outside_the_instance_is_rejected(monkeypatch):
    # group 5 of the 4 of ex_b: the reference check raises, as it always has
    with pytest.raises(ValidationError, match=r"x\(5,1\)"):
        _solve_with_incumbent(
            monkeypatch, (1, ((VarRef(1, 1), 1), (VarRef(5, 1), 1))))


# ex_b with the profit of x11 at 4/3, so the profits' scale L is 3
_THIRDS = Instance.build([((2,), (Fraction(4, 3),)), ((14, 10), (14, 10)),
                          ((13, 9), (13, 9)), ((9, 6), (9, 6))], 22)
_ROOT = (13, ((VarRef(1, 1), 13), (VarRef(2, 1), 13), (VarRef(3, 1), 6)))


@pytest.mark.parametrize("instance, worth", [
    (None, Fraction(22)), (_THIRDS, Fraction(64, 3))], ids=["L=1", "L=3"])
@pytest.mark.parametrize("sign", [1, -1], ids=["above", "below"])
def test_incumbent_profit_off_by_one_step_is_rejected(
        monkeypatch, instance, worth, sign):
    # the point x11 = x21 = 1, x31 = 6/13 lies in S and earns ``worth``; a
    # reported value one step 1 / (D * L) away from it must be caught
    scale = instance.profit_units[0] if instance else 1
    step = Fraction(1, _ROOT[0] * scale)
    assert _solve_with_incumbent(monkeypatch, _ROOT, worth,
                                 instance).value == worth
    with pytest.raises(CkpError, match="incumbent profit differs"):
        _solve_with_incumbent(monkeypatch, _ROOT, worth + sign * step,
                              instance)


def test_forged_incumbent_in_S_is_taken(monkeypatch, ex_b):
    # the control: x11 = x21 = 1 and x31 = 6/13 is ex_b's root LP point, in
    # S and worth the root value 22, so both checks pass it
    report = _solve_with_incumbent(monkeypatch, _ROOT)
    assert report.value == 22 and report.point.scaled == _ROOT
    assert is_feasible(ex_b, report.point)


def test_forged_incumbent_not_in_lowest_terms_is_reduced(monkeypatch):
    # the same point with D and every X doubled is taken, and the report's
    # point keeps its form in lowest terms
    scale, terms = _ROOT
    report = _solve_with_incumbent(
        monkeypatch, (2 * scale, tuple((r, 2 * x) for r, x in terms)))
    assert report.value == 22 and report.point.scaled == _ROOT


def test_pooled_cut_separated_again_is_rejected(monkeypatch):
    # Every pooled row holds at the certified node LP point, so a separator
    # that returns one as violated is at fault and must not end the loop
    # quietly.  The knapsack row is pooled from the start.  The instance is
    # strongly correlated (profit = weight + 5), so its root LP point splits
    # group 1 and the separator runs.
    inst = Instance.build([((14, 10), (19, 15)), ((13, 9), (18, 14))], 20)
    def forged(instance, point, families):
        key = (tuple(list(instance.columns)[:1]), FAMILY_RANK["pack1"], ())
        cut = GeneratedCut(key, knapsack_row(instance), False)
        return SeparationResult(cut, Fraction(1), SeparationStats(1, 1))

    monkeypatch.setattr(solver, "separate_greedy", forged)
    with pytest.raises(CkpError, match="already in the pool"):
        branch_and_cut(inst)


_OPTIMIZED_SCRIPT = """
import sys
from ckp import simplex, solver
from ckp.errors import CkpError
from ckp.model import Instance

def forged(problem, *, spans=None):
    sol = simplex.solve_lp(problem, spans=spans)
    return simplex.LpSolution(sol.value + 1, sol.scaled, sol.scaled_duals,
                              sol.pivots)

solver.solve_lp = forged
ex_b = Instance.build([((2,), (2,)), ((14, 10), (14, 10)),
                       ((13, 9), (13, 9)), ((9, 6), (9, 6))], 22)
for bypass in (False, True):
    if bypass:
        solver.verify_certificate = lambda *args, **kwargs: True
    try:
        solver.branch_and_cut(ex_b)
        print("accepted")
    except CkpError as exc:
        print("rejected:", exc)
print("optimize:", sys.flags.optimize)
"""


def test_checks_survive_python_O():
    package_root = str(Path(ckp.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "rejected: node LP solution fails its optimality certificate",
        "rejected: incumbent profit differs from the reported value",
        "optimize: 1"], proc.stderr


@pytest.mark.parametrize("name, digest", [
    ("solve-default", "c2357f1170ffb412"),
    ("solve-exactsep", "5f1ba6e67051277a"),
])
def test_benchmark_solves_are_pinned(monkeypatch, name, digest):
    """The first 64 seed-1 tasks of a solve workload of ``bench/``, built
    from its corpus and shapes, keep their recorded value, nodes, pivots,
    cuts per family and report point: a speedup that moves a value, a
    tie-break or a count fails here, not only in a benchmark run."""
    monkeypatch.syspath_prepend(str(BENCH))
    corpus = importlib.import_module("corpus")
    workload = importlib.import_module("workloads").WORKLOADS[name]
    config = SolveConfig(exact_fallback=workload.exact_fallback)
    rows = []
    for groups, capacity in corpus.instance_stream(
            random.Random(1), workload.shapes, workload.max_weight, 64):
        report = branch_and_cut(Instance.build(groups, capacity), config)
        rows.append((report.value, report.nodes, report.lp_pivots,
                     sorted(report.cuts_per_family.items()),
                     report.point.scaled))
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == digest


def _correlated_at_scale(seed):
    """Strongly correlated data at scale (profit = weight + 100, weights
    1-1000; Pisinger 2005): 16-24 groups of one to four slots, and the
    capacity half the weight of every group's heaviest slot."""
    rng = random.Random(seed)
    groups = []
    for _ in range(rng.randint(16, 24)):
        weights = sorted((rng.randint(1, 1000)
                          for _ in range(rng.randint(1, 4))), reverse=True)
        groups.append((tuple(weights), tuple(a + 100 for a in weights)))
    return Instance.build(groups, max(1, sum(g[0][0] for g in groups) // 2))


@pytest.mark.parametrize("seed, plain, default", [
    # (value, nodes, lp_pivots) without cuts and with the default families
    (11, (Fraction(2162981, 217), 215, 0), (Fraction(2162981, 217), 215, 0)),
    (55, (7556, 295, 0), (7556, 295, 0)),
    (79, (Fraction(275227, 37), 55, 0), (Fraction(275227, 37), 1, 48)),
    (245, (7993, 59, 0), (7993, 1, 44)),
])
def test_solves_at_scale_are_pinned(seed, plain, default):
    """Solves of 45-51 variables keep their recorded value, nodes and
    pivots: the closed form over 55-295 nodes without cuts, and the
    tableau, its group rows written out from their spans, where the
    default families close the tree at the root with one cut.  The value
    is the maximum over S of the benchmark's reference DP
    (``reference.max_over_S``, which shares no code with ckp), far past
    10^4 patterns, and each report point lies in S and earns it."""
    inst = _correlated_at_scale(seed)
    weights = [tuple(map(int, g.weights)) for g in inst.groups]
    profits = [tuple(map(int, g.profits)) for g in inst.groups]
    capacity = int(inst.capacity)
    assert reference.max_over_S(weights, profits, capacity) == plain[0]
    for config, want in ((SolveConfig(families=()), plain),
                         (SolveConfig(), default)):
        report = branch_and_cut(inst, config)
        assert (report.value, report.nodes, report.lp_pivots) == want
        assert report.proven_optimal
        entries = [(ref.group, ref.slot, x) for ref, x in report.point.entries]
        assert reference.point_problems(weights, profits, capacity, entries,
                                        report.value) == []


# exact separation adds 21 cuts over 9 nodes here, so children carry cut
# rows; greedy separation alone finds none
_EXACT_CUTS = Instance.build(
    [((6, 0), (12, 6)), ((5, 0), (11, 6)),
     ((Fraction(17, 2), 7, 0), (Fraction(29, 2), 13, 6)),
     ((18, 11, 0), (24, 17, 6))], Fraction(75, 4))


def test_nodes_are_nested_column_spans(monkeypatch):
    """A node is one column range per group: the root's are
    ``problem.spans``, every node's nest in them and are nonempty, and
    each pair of children splits its parent's branched span into two
    disjoint halves that cover it, at the column after the group's first
    positive entry.  On two correlated solves at scale and one with
    exact separation, whose nodes carry cut rows."""
    lps = []      # (problem, spans, solution) per node LP, in order
    popped = []   # spans per node, in order
    pairs = []    # [parent's last node LP, child spans...] per branching

    def recording_solve(problem, *, spans=None):
        solution = simplex.solve_lp(problem, spans=spans)
        lps.append((problem, spans, solution))
        return solution

    def recording_push(heap, entry):
        if not pairs or len(pairs[-1]) == 3:
            pairs.append([lps[-1]])
        pairs[-1].append(entry[2])
        heapq.heappush(heap, entry)

    def recording_pop(heap):
        entry = heapq.heappop(heap)
        popped.append(entry[2])
        return entry

    monkeypatch.setattr(solver, "solve_lp", recording_solve)
    monkeypatch.setattr(solver, "heapq", SimpleNamespace(
        heappush=recording_push, heappop=recording_pop))
    for inst, config, cuts in ((_correlated_at_scale(11), SolveConfig(), 0),
                               (_correlated_at_scale(55), SolveConfig(), 0),
                               (_EXACT_CUTS, SolveConfig(exact_fallback=True),
                                21)):
        del lps[:], popped[:], pairs[:]
        report = branch_and_cut(inst, config)
        assert report.proven_optimal and report.nodes > 5
        assert sum(report.cuts_per_family.values()) == cuts
        assert len(popped) == report.nodes
        root = lps[0][0].spans
        assert popped[0] == lps[0][1] == root
        children = set()
        for (problem, parent, solution), high, low in pairs:
            assert parent in popped and problem.spans == root
            group = next(i for i, (a, b) in enumerate(zip(parent, high))
                         if a != b)
            assert (high[:group] == low[:group] == parent[:group]
                    and high[group + 1:] == low[group + 1:]
                    == parent[group + 1:])
            (lo, hi), (split, high_end), (low_start, low_end) = (
                parent[group], high[group], low[group])
            assert (low_start, low_end, high_end) == (lo, split, hi)
            assert lo < split < hi
            assert split - 1 == min(inst.columns[ref]
                                    for ref, _ in solution.scaled[1]
                                    if ref.group == group + 1)
            children |= {high, low}
        assert set(popped[1:]) <= children
        for problem, spans, _ in lps:
            assert spans in popped
            assert all(start <= lo < hi <= end for (start, end), (lo, hi)
                       in zip(root, spans))
        assert any(problem.cut_rows for problem, spans, _ in lps
                   if spans != root) == bool(cuts)


def _rational_at_scale(seed):
    """Strongly correlated rational data at scale: 16-24 groups of one to
    four slots, weights 1-300 over 1, 2 or 3 and profit = weight + 100/3,
    and the capacity half the weight of every group's heaviest slot."""
    rng = random.Random(seed)
    groups = []
    for _ in range(rng.randint(16, 24)):
        weights = sorted((Fraction(rng.randint(1, 300), rng.choice((1, 2, 3)))
                          for _ in range(rng.randint(1, 4))), reverse=True)
        groups.append((tuple(weights),
                       tuple(a + Fraction(100, 3) for a in weights)))
    return Instance.build(groups, sum(g[0][0] for g in groups) / 2)


@pytest.mark.parametrize("seed, value, nodes", [
    (3, Fraction(11495, 6), 121),
    (5, Fraction(13279, 6), 662),
    (6, Fraction(4802, 3), 105),
])
def test_rational_solves_at_scale_match_the_reference(seed, value, nodes):
    """Solves of 37-54 variables with rational weights and profits, far
    past 10^4 patterns, without cuts and with the default families, reach
    the maximum over S of the benchmark's reference DP.  The reference
    takes integer weights, so it gets the weights and capacity times their
    LCM, which leaves S unchanged; each report point lies in S and earns
    the value."""
    inst = _rational_at_scale(seed)
    weights = [g.weights for g in inst.groups]
    profits = [g.profits for g in inst.groups]
    unit = lcm(inst.capacity.denominator,
               *(a.denominator for ws in weights for a in ws))
    assert reference.max_over_S(
        [tuple(int(a * unit) for a in ws) for ws in weights], profits,
        int(inst.capacity * unit)) == value
    for config in (SolveConfig(families=()), SolveConfig()):
        report = branch_and_cut(inst, config)
        assert (report.value, report.nodes) == (value, nodes)
        assert report.proven_optimal
        entries = [(ref.group, ref.slot, x) for ref, x in report.point.entries]
        assert reference.point_problems(weights, profits, inst.capacity,
                                        entries, report.value) == []
