import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ckp
from ckp import simplex, solver
from ckp.errors import CkpError, PreconditionError, ValidationError
from ckp.cuts import FAMILIES, GeneratedCut
from ckp.model import (
    Instance,
    Point,
    is_feasible,
    knapsack_row,
    profit_of,
    validate_assumptions,
)
from ckp.separation import SeparationResult, SeparationStats
from ckp.solver import SolveConfig, branch_and_cut
from ckp import oracle

from conftest import (correlated_instance, lp_solution, make_instance,
                      random_instance, rational_instance)


def oracle_value(inst):
    value, _ = oracle.maximize_over_S(inst, {r: inst.profit(r) for r in inst.refs()})
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


def test_rejects_negative_capacity():
    # Normalized and past the assumption checks, so the node LP must reject
    # it rather than the final incumbent check.
    inst = Instance.build([((3, 2), (3, 2)), ((4,), (4,))], -1)
    with pytest.raises(ValidationError):
        branch_and_cut(inst)


def test_config_validation():
    with pytest.raises(ValidationError):
        SolveConfig(families=("bogus",))
    with pytest.raises(ValidationError):
        SolveConfig(node_limit=0)
    with pytest.raises(ValidationError):
        SolveConfig(max_cuts_per_node=-1)


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
    init = Point.__init__

    def counting_init(self, values=()):
        made.append(1)
        init(self, values)

    tested = []  # (point or solution, violated groups); kept alive for id
    violations = solver.complementarity_violations

    def recording(instance, point):
        violated = violations(instance, point)
        tested.append((point, violated))
        return violated

    monkeypatch.setattr(Point, "__init__", counting_init)
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


def _forged_solve_lp(problem, forced_zero=frozenset()):
    """The true node LP with its value raised by one."""
    sol = simplex.solve_lp(problem, forced_zero)
    return lp_solution(sol.value + 1, sol.point, sol.duals, sol.pivots)


def test_forged_lp_solution_is_rejected(monkeypatch, ex_b):
    monkeypatch.setattr(solver, "solve_lp", _forged_solve_lp)
    with pytest.raises(CkpError, match="certificate"):
        branch_and_cut(ex_b)


def test_wrong_incumbent_value_is_rejected(monkeypatch, ex_b):
    # With the certificate check bypassed, the forged value reaches the
    # incumbent and the final profit check must catch it.
    monkeypatch.setattr(solver, "solve_lp", _forged_solve_lp)
    monkeypatch.setattr(solver, "verify_certificate", lambda *args: True)
    with pytest.raises(CkpError, match="incumbent"):
        branch_and_cut(ex_b)


def test_pooled_cut_separated_again_is_rejected(monkeypatch):
    # Every pooled row holds at the certified node LP point, so a separator
    # that returns one as violated is at fault and must not end the loop
    # quietly.  The knapsack row is pooled from the start.  The instance is
    # strongly correlated (profit = weight + 5), so its root LP point splits
    # group 1 and the separator runs.
    inst = Instance.build([((14, 10), (19, 15)), ((13, 9), (18, 14))], 20)
    def forged(instance, point, families):
        cut = GeneratedCut("pack1", knapsack_row(instance),
                           tuple(instance.refs()[:1]))
        return SeparationResult(cut, Fraction(1), SeparationStats(1, 1))

    monkeypatch.setattr(solver, "separate_greedy", forged)
    with pytest.raises(CkpError, match="already in the pool"):
        branch_and_cut(inst)


_OPTIMIZED_SCRIPT = """
import sys
from ckp import simplex, solver
from ckp.errors import CkpError
from ckp.model import Instance

def forged(problem, forced_zero=frozenset()):
    sol = simplex.solve_lp(problem, forced_zero)
    return simplex.LpSolution(sol.value + 1, sol.scaled, sol.scaled_duals,
                              sol.pivots)

solver.solve_lp = forged
ex_b = Instance.build([((2,), (2,)), ((14, 10), (14, 10)),
                       ((13, 9), (13, 9)), ((9, 6), (9, 6))], 22)
for bypass in (False, True):
    if bypass:
        solver.verify_certificate = lambda *args: True
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
    default families close the tree at the root with one cut."""
    inst = _correlated_at_scale(seed)
    for config, want in ((SolveConfig(families=()), plain),
                         (SolveConfig(), default)):
        report = branch_and_cut(inst, config)
        assert (report.value, report.nodes, report.lp_pivots) == want
        assert report.proven_optimal
