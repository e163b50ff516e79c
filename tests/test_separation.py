from fractions import Fraction

import pytest

from ckp.errors import PreconditionError, ResourceLimitError, ValidationError
from ckp.model import (
    Instance,
    Point,
    VarRef,
    complementarity_violations,
    is_lp_feasible,
    weight_of,
)
from ckp.separation import (
    PartitionInput,
    build_partition_reduction,
    separate_exact,
    separate_greedy,
)
from ckp.simplex import LpProblem, solve_lp
from ckp import oracle

from conftest import random_instance


@pytest.fixture
def frac_point(ex_c):
    # LP-feasible, violates complementarity in group 3
    return Point([
        (VarRef(1, 1), 1), (VarRef(2, 1), 1), (VarRef(3, 1), Fraction(1, 7)),
        (VarRef(3, 2), 1), (VarRef(4, 2), 1), (VarRef(5, 2), 1),
    ])


def test_point_fixture_is_lp_feasible(ex_c, frac_point):
    assert is_lp_feasible(ex_c, frac_point)
    assert complementarity_violations(ex_c, frac_point) == [3]


def test_exact_most_violated_over_all_families(ex_c, frac_point):
    r = separate_exact(ex_c, frac_point)
    assert r.found and r.violation == 2
    # three families tie at violation 2; the lexicographically smallest
    # item set wins, which is the five-group cover
    assert r.cut.family == "lcover1"
    assert r.cut.items.items == (VarRef(1, 1), VarRef(2, 1), VarRef(3, 1),
                                 VarRef(4, 2), VarRef(5, 2))


def test_exact_single_family(ex_c, frac_point):
    r = separate_exact(ex_c, frac_point, "pack2")
    assert r.found and r.violation == 2
    assert r.cut.family == "pack2"
    assert r.cut.pivot == VarRef(4, 2)
    assert r.cut.items.items == (VarRef(1, 1), VarRef(2, 1),
                                 VarRef(3, 2), VarRef(4, 2))
    assert r.stats.examined == 75

    r = separate_exact(ex_c, frac_point, "pack1")
    assert r.violation == 2
    assert r.cut.items.items == (VarRef(1, 1), VarRef(2, 1), VarRef(3, 2))


@pytest.mark.parametrize("family, examined", [("all", 245), ("pack2", 75)])
def test_examined_counts_every_built_cut(ex_c, frac_point, built, family,
                                         examined):
    # every cut is built through the public builder names, once per offer
    r = separate_exact(ex_c, frac_point, family)
    assert r.stats.examined == examined
    assert sum(built.values()) == examined


def test_exact_family_list(ex_c, frac_point):
    r = separate_exact(ex_c, frac_point, ("pack1", "pack2"))
    assert r.found and r.cut.family in ("pack1", "pack2")


def test_exact_rejects_unknown_family(ex_c, frac_point):
    with pytest.raises(ValidationError):
        separate_exact(ex_c, frac_point, "pack9")


def test_exact_rejects_knapsack_violation(ex_c):
    heavy = Point([(VarRef(3, 1), 1), (VarRef(4, 1), 1), (VarRef(5, 1), 1)])
    with pytest.raises(PreconditionError):
        separate_exact(ex_c, heavy)


def test_exact_honors_enum_limit(ex_c, frac_point):
    with pytest.raises(ResourceLimitError):
        separate_exact(ex_c, frac_point, limit=10)


def test_greedy_finds_the_big_pack_cut(ex_c, frac_point):
    r = separate_greedy(ex_c, frac_point)
    assert r.found and r.violation == 2
    assert r.cut.family == "pack1"
    assert r.cut.items.items == (VarRef(1, 1), VarRef(2, 1), VarRef(3, 2),
                                 VarRef(4, 2), VarRef(5, 2))


def test_nothing_violated_at_feasible_points(ex_a):
    assert not separate_exact(ex_a, Point([])).found
    good = Point([(VarRef(3, 1), 1), (VarRef(4, 1), 1)])
    assert not separate_exact(ex_a, good).found
    assert not separate_greedy(ex_a, good).found


def test_feasible_points_never_separated(small_corpus):
    # the optimum over S lies in the polytope, so no valid family cuts it off
    for inst in small_corpus[:10]:
        _, point = oracle.maximize_over_S(inst, {r: inst.profit(r) for r in inst.refs()})
        assert not separate_exact(inst, point).found


def test_greedy_dominated_by_exact(small_corpus):
    """Whatever the heuristic separates, exhaustive separation matches or beats."""
    for inst in small_corpus:
        problem = LpProblem.build(inst, {r: inst.profit(r) for r in inst.refs()})
        sol = solve_lp(problem)
        assert sol.optimal
        g = separate_greedy(inst, sol.point)
        if g.found:
            e = separate_exact(inst, sol.point)
            assert e.found and e.violation >= g.violation


# --- the partition reduction ---

def test_reduction_shape():
    inst, x = build_partition_reduction((1, 1, 2), 2)
    assert inst.capacity == 4
    assert inst.m == 4
    assert inst.group(4).weights == (3, 1, 1)
    assert inst.group(4).profits == (3, 1, 1)
    assert [inst.group(i).weights for i in (1, 2, 3)] == [(1,), (1,), (2,)]
    assert x.entries == (
        (VarRef(1, 1), Fraction(1, 12)),
        (VarRef(2, 1), Fraction(1, 12)),
        (VarRef(3, 1), Fraction(1, 12)),
        (VarRef(4, 1), Fraction(1)),
        (VarRef(4, 2), Fraction(1, 3)),
        (VarRef(4, 3), Fraction(1, 3)),
    )
    # knapsack-tight, LP-feasible, but clearly outside S
    assert weight_of(inst, x) == inst.capacity
    assert is_lp_feasible(inst, x)
    assert complementarity_violations(inst, x) == [4]


def test_reduction_yes_instance_separates():
    inst, x = build_partition_reduction((1, 1, 2), 2)
    r1 = separate_exact(inst, x, "lcover1")
    assert r1.found and r1.violation == Fraction(1, 2)
    assert r1.cut.items.items == (VarRef(1, 1), VarRef(2, 1), VarRef(4, 1))
    r2 = separate_exact(inst, x, "lcover2")
    assert r2.found and r2.violation == Fraction(1, 2)


def test_reduction_no_instance_gives_nothing():
    # {1, 3} cannot split into two halves of weight 2
    inst, x = build_partition_reduction((1, 3), 2)
    r = separate_exact(inst, x, ("lcover1", "lcover2"))
    assert not r.found
    assert r.cut is None and r.violation is None


def test_reduction_greedy_declines():
    # the greedy pack fails the switching condition here, so it offers nothing
    inst, x = build_partition_reduction((1, 1, 2), 2)
    assert not separate_greedy(inst, x).found


def has_balanced_subset(alphas, beta):
    reachable = {0}
    for a in alphas:
        reachable |= {r + a for r in reachable}
    return beta in reachable


def test_reduction_matches_subset_sum(rng):
    checked = 0
    while checked < 15:
        k = rng.randint(2, 8)
        alphas = [rng.randint(1, 6) for _ in range(k)]
        if sum(alphas) % 2:
            alphas[0] += 1
        beta = sum(alphas) // 2
        if beta < 2:
            continue
        checked += 1
        inst, x = build_partition_reduction(tuple(alphas), beta)
        expected = has_balanced_subset(alphas, beta)
        r = separate_exact(inst, x, "lcover1")
        assert r.found == expected
        if expected:
            assert r.violation == Fraction(1, 2)


def test_partition_input_validation():
    with pytest.raises(ValidationError):
        PartitionInput((), 2)
    with pytest.raises(ValidationError):
        PartitionInput((1, -1, 4), 2)
    with pytest.raises(ValidationError):
        PartitionInput((1, 1), 2)  # sums to 2, needs 4
    with pytest.raises(ValidationError):
        build_partition_reduction(PartitionInput((1, 3), 2), beta=2)
    with pytest.raises(PreconditionError):
        build_partition_reduction((1, 1), 1)  # beta too small


def test_reduction_accepts_partition_input():
    inst_a, x_a = build_partition_reduction(PartitionInput((1, 1, 2), 2))
    inst_b, x_b = build_partition_reduction((1, 1, 2), 2)
    assert inst_a == inst_b and x_a == x_b
