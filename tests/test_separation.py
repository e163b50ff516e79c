import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ckp.errors import (CkpError, PreconditionError, ResourceLimitError,
                        ValidationError)
from ckp.model import (
    Point,
    VarRef,
    complementarity_violations,
    lhs_at,
)
from ckp.separation import (
    build_partition_reduction,
    separate_exact,
    separate_greedy,
)
from ckp.simplex import LpProblem, solve_lp
from ckp import cuts, oracle, separation

from conftest import (correlated_instance, family_cuts, iter_patterns,
                      make_instance, random_instance, random_spans,
                      rational_instance, reference_is_maximal_switching_pack,
                      weight_of, with_profits)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import reference  # noqa: E402  (bench/reference.py imports nothing from ckp)


@pytest.fixture
def frac_point(ex_c):
    # LP-feasible, violates complementarity in group 3
    return Point([
        (VarRef(1, 1), 1), (VarRef(2, 1), 1), (VarRef(3, 1), Fraction(1, 7)),
        (VarRef(3, 2), 1), (VarRef(4, 2), 1), (VarRef(5, 2), 1),
    ])


def test_point_fixture_is_lp_feasible(ex_c, frac_point):
    assert weight_of(ex_c, frac_point) <= ex_c.capacity
    assert complementarity_violations(frac_point) == [3]


def test_exact_most_violated_over_all_families(ex_c, frac_point):
    r = separate_exact(ex_c, frac_point)
    assert r.found and r.violation == 2
    # three families tie at violation 2; the lexicographically smallest
    # item set wins, which is the five-group cover
    assert r.cut.family == "lcover1"
    assert r.cut.items == (VarRef(1, 1), VarRef(2, 1), VarRef(3, 1),
                                 VarRef(4, 2), VarRef(5, 2))


def test_exact_single_family(ex_c, frac_point):
    r = separate_exact(ex_c, frac_point, "pack2")
    assert r.found and r.violation == 2
    assert r.cut.family == "pack2"
    assert r.cut.key[1:] == (cuts.FAMILY_RANK["pack2"], (4,))  # pivot (4,2)
    assert r.cut.items == (VarRef(1, 1), VarRef(2, 1),
                                 VarRef(3, 2), VarRef(4, 2))
    assert r.stats.examined == 75

    r = separate_exact(ex_c, frac_point, "pack1")
    assert r.violation == 2
    assert r.cut.items == (VarRef(1, 1), VarRef(2, 1), VarRef(3, 2))


@pytest.fixture
def made(monkeypatch):
    """The keys ``cuts.member_cut`` is called with, at its two lookup sites:
    the ``cuts`` module (the public builders and ``theorem_cuts``) and
    ``separation``, which imports it."""
    keys = []
    real = cuts.member_cut

    def counting(instance, key, form):
        keys.append(key)
        return real(instance, key, form)

    monkeypatch.setattr(cuts, "member_cut", counting)
    monkeypatch.setattr(separation, "member_cut", counting)
    return keys


@pytest.mark.parametrize("family, examined", [("all", 245), ("pack2", 75)])
def test_examined_counts_every_built_cut(ex_c, frac_point, built, made,
                                         family, examined):
    # every member is scored and counted; only the winner is built, once,
    # from the form it was scored under, and no public builder runs
    exact = separate_exact(ex_c, frac_point, family)
    assert exact.stats.examined == examined
    greedy = separate_greedy(ex_c, frac_point, family)
    assert greedy.found
    assert made == [exact.cut.key, greedy.cut.key] and not built


def test_nothing_built_when_nothing_is_violated(ex_a, built, made):
    r = separate_exact(ex_a, Point([]))
    assert not r.found and r.stats.examined > 0
    r = separate_greedy(ex_a, Point([]))
    assert not r.found and r.stats.examined > 0
    assert made == [] and sum(built.values()) == 0


def test_patterns_counted(ex_c, frac_point):
    # ex_c has group sizes 1, 1, 2, 2, 2: 2*2*3*3*3 patterns, one empty
    assert separate_exact(ex_c, frac_point).stats.patterns == 107
    # greedy tries its pack of all five last slots and the two packs that
    # drop one singleton
    assert separate_greedy(ex_c, frac_point).stats.patterns == 3
    assert separate_greedy(ex_c, Point([])).stats.patterns == 3


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


@pytest.mark.parametrize("separate", [separate_exact, separate_greedy])
@pytest.mark.parametrize("ref", [VarRef(1, 0), VarRef(1, -1), VarRef(0, 1),
                                 VarRef(6, 1)], ids=str)
def test_out_of_range_references_rejected(ex_c, separate, ref):
    # slot and group indices are checked before any integer list is indexed
    # by them: slot - 1 = -1 or group - 1 = -1 would silently wrap around
    point = Point([(VarRef(3, 1), Fraction(1, 2)), (ref, Fraction(1, 3))])
    with pytest.raises(ValidationError, match="variable out of range"):
        separate(ex_c, point)


@pytest.mark.parametrize("separate", [separate_exact, separate_greedy])
def test_unsorted_groups_rejected(separate):
    # the cuts are valid only on slots by non-increasing weight
    inst = make_instance([(4, 9), (11, 4, 3), (4, 15, 7)], 20)
    point = Point([(VarRef(1, 1), 1), (VarRef(1, 2), 1),
                   (VarRef(2, 1), Fraction(7, 11))])  # the LP optimum
    with pytest.raises(PreconditionError, match="instance is not normalized"):
        separate(inst, point)


def test_greedy_rejects_knapsack_violation(ex_c):
    heavy = Point([(VarRef(3, 1), 1), (VarRef(4, 1), 1), (VarRef(5, 1), 1)])
    with pytest.raises(PreconditionError):
        separate_greedy(ex_c, heavy)


@pytest.mark.parametrize("separate", [separate_exact, separate_greedy])
def test_tight_knapsack_row_accepted(ex_c, separate):
    # 14 + 13 + 12 * 3/4 = 36 = b exactly; one part in 2^31 - 1 more is over
    tight = Point([(VarRef(3, 1), 1), (VarRef(4, 1), 1),
                   (VarRef(5, 1), Fraction(3, 4))])
    assert weight_of(ex_c, tight) == ex_c.capacity
    separate(ex_c, tight)
    over = Point([(VarRef(3, 1), 1), (VarRef(4, 1), 1),
                  (VarRef(5, 1), Fraction(3, 4) + Fraction(1, 2 ** 31 - 1))])
    with pytest.raises(PreconditionError):
        separate(ex_c, over)
    inst, x = build_partition_reduction((1, 1, 2), 2)  # tight by construction
    separate(inst, x)


def test_exact_honors_enum_limit(ex_c, frac_point):
    with pytest.raises(ResourceLimitError):
        separate_exact(ex_c, frac_point, limit=10)


def test_greedy_finds_the_big_pack_cut(ex_c, frac_point):
    r = separate_greedy(ex_c, frac_point)
    assert r.found and r.violation == 2
    assert r.cut.family == "pack1"
    assert r.cut.items == (VarRef(1, 1), VarRef(2, 1), VarRef(3, 2),
                                 VarRef(4, 2), VarRef(5, 2))


def test_nothing_violated_at_feasible_points(ex_a):
    assert not separate_exact(ex_a, Point([])).found
    good = Point([(VarRef(3, 1), 1), (VarRef(4, 1), 1)])
    assert not separate_exact(ex_a, good).found
    assert not separate_greedy(ex_a, good).found


def test_feasible_points_never_separated(small_corpus):
    # the optimum over S lies in the polytope, so no valid family cuts it off
    for inst in small_corpus[:10]:
        _, point = oracle.maximize_over_S(inst, {r: inst.profit(r) for r in inst.columns})
        assert not separate_exact(inst, point).found


def test_greedy_dominated_by_exact(small_corpus):
    """Whatever the heuristic separates, exhaustive separation matches or beats."""
    for inst in small_corpus:
        problem = LpProblem(inst)
        sol = solve_lp(problem, spans=problem.spans)
        g = separate_greedy(inst, sol.point)
        if g.found:
            e = separate_exact(inst, sol.point)
            assert e.found and e.violation >= g.violation


# --- the partition reduction ---

def test_reduction_shape():
    inst, x = build_partition_reduction((1, 1, 2), 2)
    assert inst.capacity == 4
    assert inst.m == 4
    assert inst.groups[3].weights == (3, 1, 1)
    assert inst.groups[3].profits == (3, 1, 1)
    assert [inst.groups[i - 1].weights for i in (1, 2, 3)] == [(1,), (1,), (2,)]
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
    assert complementarity_violations(x) == [4]


def _fraction_reduction_point(alphas, beta):
    """The reduction point built in Fractions: (2 beta - 3) / (6 beta) on
    each singleton, 1 on the 3 and 1/3 on each trailing one."""
    k = len(alphas)
    low = Fraction(2 * beta - 3, 6 * beta)
    entries = [(VarRef(i, 1), low) for i in range(1, k + 1)]
    entries.append((VarRef(k + 1, 1), Fraction(1)))
    entries += [(VarRef(k + 1, j), Fraction(1, 3)) for j in range(2, beta + 2)]
    return Point(entries)


@pytest.mark.parametrize("alphas, beta", [
    ((1, 1, 2), 2), ((1, 3), 2), ((1, 2, 3), 3), ((2, 4, 6), 6),
    ((1,) * 9 + (3,), 6), ((5, 7, 9, 3), 12), ((4,) * 5 + (5, 7), 16),
    ((9,) * 8, 36)])
def test_reduction_point_equals_the_fraction_point(alphas, beta):
    # built in its integer form over 6 beta, reduced by 3 when 3 divides beta
    _, x = build_partition_reduction(alphas, beta)
    want = _fraction_reduction_point(alphas, beta)
    assert x == want and hash(x) == hash(want)
    assert x.entries == want.entries and x.scaled == want.scaled
    assert x.scaled[0] == (2 * beta if beta % 3 == 0 else 6 * beta)


def test_reduction_yes_instance_separates():
    inst, x = build_partition_reduction((1, 1, 2), 2)
    r1 = separate_exact(inst, x, "lcover1")
    assert r1.found and r1.violation == Fraction(1, 2)
    assert r1.cut.items == (VarRef(1, 1), VarRef(2, 1), VarRef(4, 1))
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
    with pytest.raises(ValidationError, match="nonempty"):
        build_partition_reduction((), 2)
    with pytest.raises(ValidationError, match="alphas must be positive integers"):
        build_partition_reduction((1, -1, 4), 2)
    # a bool is no integer here, though Python counts it as one
    with pytest.raises(ValidationError, match="each alpha must be an integer"):
        build_partition_reduction((True, True, 2), 2)
    with pytest.raises(ValidationError, match="beta must be an integer"):
        build_partition_reduction((1, 1), True)
    with pytest.raises(ValidationError, match="expected 2\\*beta = 4"):
        build_partition_reduction((1, 1), 2)  # sums to 2, needs 4
    with pytest.raises(PreconditionError):
        build_partition_reduction((1, 1), 1)  # beta too small


# --- differential: closed-form scoring against building every member ---

def build_every_member(point, members):
    """Evaluate each built cut of ``members`` with ``lhs_at`` and keep the
    most violated, ties to the smallest provenance key.  Returns the cut,
    its violation and the number of members built."""
    best = None
    examined = 0
    for cut in members:
        examined += 1
        violation = lhs_at(cut.inequality, point) - cut.inequality.rhs
        if violation > 0 and (
                best is None or violation > best[1]
                or (violation == best[1]
                    and cut.key < best[0].key)):
            best = (cut, violation)
    cut, violation = best or (None, None)
    return cut, violation, examined


def reference_separate(instance, point, families):
    """The build-every-member walk that exact separation replaced: build
    each member of every pattern and keep the most violated."""
    packs = tuple(f for f in families if f.startswith("pack"))
    covers = tuple(f for f in families if f not in packs)
    b = instance.capacity

    def members():
        for pattern in iter_patterns(instance):
            refs = [VarRef(i, j) for i, j in enumerate(pattern, start=1) if j]
            if not refs:
                continue
            s = sum((instance.weight(ref) for ref in refs), Fraction(0))
            chosen = packs if s < b else covers if s > b else ()
            yield from family_cuts(instance, tuple(refs), chosen)
    return build_every_member(point, members())


def reference_greedy(instance, point, families):
    """The greedy loop that builds every pack-family member of its packs
    and keeps the most violated.  Returns the cut, its violation, the
    number of members built and the number of packs tried."""
    b = instance.capacity
    mass = {}
    for ref, x in point.entries:
        mass[ref.group] = (mass.get(ref.group, Fraction(0))
                           + instance.weight(ref) * x)
    order = sorted(range(1, instance.m + 1),
                   key=lambda i: (-(mass.get(i, Fraction(0))), i))
    total = Fraction(0)
    chosen = []
    for i in order:
        last = VarRef(i, instance.groups[i - 1].size)
        if total + instance.weight(last) < b:
            chosen.append(last)
            total += instance.weight(last)
    packs = []
    pack = tuple(sorted(chosen)) if chosen else None
    if pack is not None and reference_is_maximal_switching_pack(instance, pack):
        packs.append(pack)
        if len(pack) >= 2:
            for i in sorted({r.group for r in pack} & instance.m0):
                packs.append(tuple(r for r in pack if r.group != i))
    families = tuple(f for f in families if f.startswith("pack"))
    members = (cut for itemset in packs
               for cut in family_cuts(instance, itemset, families))
    return build_every_member(point, members) + (len(packs),)


def _points(rng, instance):
    """An LP optimum over random nested node spans, and a random point
    scaled into the knapsack row."""
    objective = {r: instance.profit(r) + rng.randint(0, 3) for r in instance.columns}
    spans = random_spans(rng, instance, 0.2)
    yield solve_lp(LpProblem(with_profits(instance, objective)),
                   spans=spans).point
    values = {r: Fraction(rng.randint(0, 6), 6) for r in instance.columns}
    weight = sum((instance.weight(r) * x for r, x in values.items()), Fraction(0))
    if weight > instance.capacity:
        values = {r: x * instance.capacity / weight for r, x in values.items()}
    yield Point(values)


def _agree(instance, point, family):
    families = cuts.FAMILIES if family == "all" else (family,)
    cut, violation, examined = reference_separate(instance, point, families)
    r = separate_exact(instance, point, family)
    assert r.cut == cut and r.violation == violation
    assert r.stats.examined == examined
    assert r.stats.patterns == oracle.pattern_count(instance) - 1
    return r


def test_exact_matches_building_every_member():
    rng = random.Random(6021)
    won = set()
    for _ in range(30):
        instance = rational_instance(rng)
        for point in _points(rng, instance):
            for family in cuts.FAMILIES + ("all",):
                r = _agree(instance, point, family)
                if r.found:
                    won.add(r.cut.family)
    assert won == set(cuts.FAMILIES)


def test_exact_matches_building_every_member_on_reductions():
    """Yes and no partition answers, on short rows and on the benchmark's
    shapes (5 to 7 alphas of 1 to 8, so the last group has up to 29
    slots): the walk skips patterns, and exact separation still gives the
    cut, violation, members and patterns of building every member."""
    rng = random.Random(6022)
    cases = []
    for fewest, most, top in [(2, 5, 6)] * 12 + [(5, 7, 8)] * 12:
        alphas = [rng.randint(1, top) for _ in range(rng.randint(fewest, most))]
        if sum(alphas) % 2:
            alphas[0] += 1
        if sum(alphas) < 4:
            alphas[0] += 4
        cases.append(alphas)
    cases += [[8] * 7, [8, 8, 8, 8, 8, 7, 1]]  # the longest rows, no and yes
    found = 0
    answers = set()
    longest = 0
    for alphas in cases:
        beta = sum(alphas) // 2
        instance, point = build_partition_reduction(tuple(alphas), beta)
        longest = max(longest, instance.groups[-1].size)
        answer = has_balanced_subset(alphas, beta)
        answers.add(answer)
        for family in ("lcover1", "lcover2", "all"):
            r = _agree(instance, point, family)
            assert r.stats.pruned > 0
            if family == "lcover1":
                assert r.found == answer
            found += r.found
    assert found >= 5 and answers == {True, False} and longest == 29


def test_reduction_cover_separation_answers_partition():
    """Seeded partitions of 2 to 8 alphas in 1 to 8, even sums of at least
    4, and the longest row, eight 8s (a last group of 33 slots): the lcover
    families separate the reduction's point exactly on yes answers, by an
    lcover1 cut at violation 1/2, and score every member listed over the
    unpruned walk."""
    rng = random.Random(5911)
    cases = [[8] * 8]
    while len(cases) < 40:
        alphas = [rng.randint(1, 8) for _ in range(rng.randint(2, 8))]
        if sum(alphas) % 2 == 0 and sum(alphas) >= 4:
            cases.append(alphas)
    covers = ("lcover1", "lcover2")
    answers = set()
    longest = 0
    for alphas in cases:
        beta = sum(alphas) // 2
        instance, point = build_partition_reduction(tuple(alphas), beta)
        _, rows, b = instance.units
        longest = max(longest, len(rows[-1]))
        answer = reference.has_partition(alphas, beta)
        answers.add(answer)
        r = separate_exact(instance, point, covers)
        assert r.found == answer, alphas
        if answer:
            assert r.cut.family == "lcover1" and r.violation == Fraction(1, 2)
        assert r.stats.examined == sum(
            len(list(cuts.family_members(rows, b, items, units, covers)))
            for items, units in oracle.walk_patterns(instance))
    assert answers == {True, False} and longest == 33


def test_reduction_forms_hold_one_rule_per_group():
    """Every form that ``family_members`` lists on a reduction with beta =
    30, whose last group has 31 slots, holds one rule per group of its
    item set, all of one size: a form that copies a group's row, one entry
    per slot, fails."""
    instance, _ = build_partition_reduction((8,) * 7 + (4,), 30)
    _, rows, b = instance.units
    sizes = set()
    long_rows = 0
    for items, units in oracle.walk_patterns(instance, None, cuts.FAMILIES):
        for _, (_, _, rules) in cuts.family_members(rows, b, items, units,
                                                    cuts.FAMILIES):
            assert list(rules) == [i for i, _ in items]
            sizes.update(map(len, rules.values()))
            long_rows += instance.m in rules
    assert len(rows[-1]) == 31 and long_rows > 100
    assert len(sizes) == 1 and sizes.pop() < len(rows[-1])


def test_reduction_guard_raises_before_the_first_pattern(monkeypatch):
    instance, point = build_partition_reduction((2, 3, 5, 4), 7)
    count = oracle.pattern_count(instance)
    scored = []
    monkeypatch.setattr(separation, "family_members",
                        lambda *args: scored.append(args) or ())
    with pytest.raises(ResourceLimitError) as err:
        separate_exact(instance, point, ("lcover1", "lcover2"), count - 1)
    assert err.value.estimate == count and not scored
    separate_exact(instance, point, ("lcover1", "lcover2"), count)
    assert scored


def test_greedy_matches_building_every_member():
    """Greedy separation scores its packs' members and builds only the
    winner; cut, violation, members and packs equal those of building
    every member."""
    rng = random.Random(6024)
    won = set()
    for n in range(200):
        instance = rational_instance(rng) if n % 2 else random_instance(rng)
        for point in _points(rng, instance):
            for family in cuts.FAMILIES + ("all",):
                families = cuts.FAMILIES if family == "all" else (family,)
                r = separate_greedy(instance, point, family)
                assert (r.cut, r.violation, r.stats.examined,
                        r.stats.patterns) == reference_greedy(instance, point,
                                                              families)
                if r.found:
                    won.add(r.cut.family)
    assert won == {"pack1", "pack2", "pack3"}


def scores_equal_builds(instance, point):
    """Assert that every member family_members lists, scored at ``point``,
    is the member family_cuts builds, in the same order, with the built
    cut's violation; returns the number of members."""
    b = instance.capacity
    support = separation.PointSupport(instance, point)
    rows, capacity = support.units, support.capacity_units
    packs = tuple(f for f in cuts.FAMILIES if f.startswith("pack"))
    covers = tuple(f for f in cuts.FAMILIES if f not in packs)
    members = 0
    for pattern in iter_patterns(instance):
        refs = tuple(VarRef(i, j) for i, j in enumerate(pattern, start=1) if j)
        if not refs:
            continue
        s = sum((instance.weight(ref) for ref in refs), Fraction(0))
        chosen = packs if s < b else covers if s > b else ()
        built = [(lhs_at(c.inequality, point) - c.inequality.rhs,
                  c.key)
                 for c in family_cuts(instance, tuple(refs), chosen)]
        units = s * support.scale
        assert units.denominator == 1
        scored = [(Fraction(*separation._score(support, form)), key)
                  for key, form in cuts.family_members(
                      rows, capacity, refs, int(units), cuts.FAMILIES)]
        assert scored == built
        members += len(built)
    return members


def test_scores_equal_built_violations():
    """Every member family_members lists, scored, is the member
    family_cuts builds, in the same order, with the built cut's
    violation."""
    rng = random.Random(6023)
    members = 0
    for _ in range(40):
        instance = rational_instance(rng)
        for point in _points(rng, instance):
            members += scores_equal_builds(instance, point)
    assert members > 5000


COPRIME = (2 ** 31 - 1, 3, 7, 11, 13, 2 ** 61 - 1, 5, 17)


def _coprime_point(rng, instance):
    """A point whose entries have pairwise coprime denominators, one prime
    per variable; entries are dropped, never rescaled, until the point
    meets the knapsack row."""
    entries = [(ref, Fraction(rng.randint(1, q - 1), q))
               for ref, q in zip(instance.columns, COPRIME)]
    rng.shuffle(entries)
    while sum(instance.weight(r) * x for r, x in entries) > instance.capacity:
        entries.pop()
    return Point(entries)


def _node_points(rng, instance):
    """LP optima of node LPs with one to three builder cut rows: each row
    is the most violated member at the previous optimum."""
    objective = {r: instance.profit(r) + rng.randint(0, 3)
                 for r in instance.columns}
    problem = LpProblem(with_profits(instance, objective))
    point = solve_lp(problem, spans=problem.spans).point
    for _ in range(3):
        cut = separate_exact(instance, point).cut
        if cut is None:
            return
        problem = problem.with_row(cut.inequality)
        point = solve_lp(problem, spans=problem.spans).point
        yield point


def test_large_coprime_denominators_match_building_every_member():
    """On node-LP points with cut rows and on points with large pairwise
    coprime denominators, every score equals the built violation, and
    both separators equal their build-every-member references in cut,
    violation, examined and patterns.  Every other instance is strongly
    correlated, whose node LPs still take cuts under the group rows."""
    rng = random.Random(6025)
    rows = coprime = found = 0
    largest = 1
    for n in range(45):
        instance = (rational_instance(rng) if n % 2
                    else correlated_instance(rng))
        points = list(_node_points(rng, instance))
        rows += len(points)
        points.append(_coprime_point(rng, instance))
        coprime += len(points[-1].entries) >= 3
        for point in points:
            largest = max([largest] + [x.denominator for _, x in point.entries])
            scores_equal_builds(instance, point)
            found += _agree(instance, point, "all").found
            r = separate_greedy(instance, point)
            assert (r.cut, r.violation, r.stats.examined,
                    r.stats.patterns) == reference_greedy(instance, point,
                                                          cuts.FAMILIES)
    assert rows >= 40 and coprime >= 15 and found >= 35
    assert largest >= 2 ** 61 - 1


def test_winner_checked_against_its_score(ex_c, frac_point, monkeypatch):
    # a score that disagrees with the builder is caught at the build
    real = separation._score

    def skewed(*args):
        num, den = real(*args)
        return 7 * num + den, 7 * den

    monkeypatch.setattr(separation, "_score", skewed)
    with pytest.raises(CkpError, match="scored"):
        separate_exact(ex_c, frac_point, "pack1")


def test_winner_checked_against_its_kept_form(ex_c, frac_point, monkeypatch):
    # the check reads the built cut's own integer form: a builder whose
    # kept form disagrees with the scored one is caught at the build
    real = cuts._inequality

    def loosened(layout, scale, rows, form):
        den, rhs, rules = form
        return real(layout, scale, rows, (den, rhs + 1, rules))

    assert separate_exact(ex_c, frac_point, "pack1").found
    monkeypatch.setattr(cuts, "_inequality", loosened)
    with pytest.raises(CkpError, match="scored"):
        separate_exact(ex_c, frac_point, "pack1")
