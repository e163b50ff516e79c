"""Vertex-oracle tests.

The candidate enumeration is the ground truth everything else leans on, so it
gets an independent re-implementation here (recursive, with its own dedup) and
the two are required to agree on the fixed examples and a random corpus.
"""

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from ckp.errors import PreconditionError, ResourceLimitError, ValidationError
from ckp.model import (
    LinearInequality,
    Point,
    VarRef,
    is_feasible,
    knapsack_row,
    lhs_at,
    normalize,
    profit_of,
)
from ckp import oracle
from ckp.numeric import affine_rank, format_rational
from ckp.cli import main
from ckp.cuts import (FAMILIES, enumerate_maximal_switching_packs,
                      family_members, resolve_families, theorem_cuts)
from ckp.fileio import serialize_inequality, serialize_instance
from ckp.separation import separate_exact

from conftest import (family_cuts, fraction_affine_rank, itemset_weight,
                      iter_patterns, make_instance, random_instance,
                      rational_instance,
                      reference_candidate_vertices, reference_face_dimension,
                      reference_maximize_over_S, weight_of)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import reference  # noqa: E402  (bench/reference.py imports nothing from ckp)


# --- independent enumeration (recursion instead of itertools, own dedup) ---

def slow_candidates(inst):
    """All 0/1-per-group points that are either integral-feasible or have one
    fractional coordinate making the knapsack exactly tight, in walk order:
    per pattern the all-ones point, then the fractional ones, last item
    first."""
    found = {}

    def walk(i, picks):
        if i > inst.m:
            finish(picks)
            return
        walk(i + 1, picks)  # skip group i
        for j in range(1, inst.groups[i - 1].size + 1):
            walk(i + 1, picks + [VarRef(i, j)])

    def finish(picks):
        total = sum(inst.weight(r) for r in picks)
        if total <= inst.capacity:
            add({r: Fraction(1) for r in picks})
        for r in reversed(picks):
            rest = total - inst.weight(r)
            if inst.weight(r) == 0:
                continue
            frac = (inst.capacity - rest) / inst.weight(r)
            if 0 < frac < 1:
                vals = {q: Fraction(1) for q in picks if q != r}
                vals[r] = frac
                add(vals)

    def add(vals):
        key = tuple(sorted(vals.items()))
        found[key] = Point(vals.items())

    walk(1, [])
    return list(found.values())


def exhaustive_max(inst, objective):
    best = Fraction(0)
    for p in slow_candidates(inst):
        v = sum(objective.get(r, Fraction(0)) * x for r, x in p.entries)
        if v > best:
            best = v
    return best


# --- agreement ---

def test_enumerators_agree_on_examples(ex_a, ex_b, ex_c):
    for inst in (ex_a, ex_b, ex_c):
        fast = oracle.enumerate_candidate_vertices(inst).points
        slow = slow_candidates(inst)
        assert list(fast) == slow


def test_enumerators_agree_on_corpus(small_corpus):
    for inst in small_corpus:
        fast = oracle.enumerate_candidate_vertices(inst).points
        assert list(fast) == slow_candidates(inst)


def test_candidate_counts_frozen(ex_a, ex_b, ex_c):
    # counts confirmed by the independent enumerator above
    assert len(oracle.enumerate_candidate_vertices(ex_a).points) == 105
    assert len(oracle.enumerate_candidate_vertices(ex_b).points) == 73
    assert len(oracle.enumerate_candidate_vertices(ex_c).points) == 149


def test_candidates_in_walk_order(ex_a, ex_c, small_corpus):
    # the key of a candidate is its slot per group (0 for none), then its
    # fractional item, last first (the all-ones point before them all):
    # walk order, in which the keys increase strictly, so none repeats
    for inst in [ex_a, ex_c] + small_corpus:
        keys = []
        for p in oracle.enumerate_candidate_vertices(inst).points:
            slots = dict(ref for ref, _ in p.entries)
            fractional = [r.group for r, v in p.entries if v != 1]
            keys.append((tuple(slots.get(i, 0) for i in range(1, inst.m + 1)),
                         -fractional[0] if fractional else -inst.m - 1))
        assert all(a < b for a, b in zip(keys, keys[1:]))


# --- the integer walk against the Fraction references ---

def _seeded_instances(count, seed):
    """Rational instances, which carry zero weights and equal ratios, next
    to integer ones and hand-made zero-weight and tied-ratio ones."""
    rng = random.Random(seed)
    out = [make_instance([(0,), (4, 0), (6, 3)], 5),
           make_instance([(4, 2), (6, 3), (2,)], 7)]
    for n in range(count):
        out.append(rational_instance(rng) if n % 3 else
                   random_instance(rng, max_groups=4, profits="random"))
    return out


def test_walk_matches_product_order():
    for inst in _seeded_instances(60, 4242):
        scale, _, _ = inst.units
        expected = []
        for pattern in iter_patterns(inst):
            items = tuple(VarRef(i, j) for i, j in enumerate(pattern, start=1) if j)
            if items:
                expected.append((items, sum(inst.weight(r) for r in items) * scale))
        assert list(oracle.walk_patterns(inst)) == expected


def test_pruned_walk_keeps_every_item_set_with_a_member():
    """For every non-empty family subset, the walk for those families is
    an ordered sub-list of the full walk (same items, same units) that
    keeps each item set ``family_members`` lists a member of, and the
    patterns it skips are the rest of the non-empty pattern space."""
    subsets = [s for k in range(1, len(FAMILIES) + 1)
               for s in combinations(FAMILIES, k)]
    pruned = {"packs only": 0, "covers only": 0, "both": 0}
    # the last two test the root before the walk: nothing is a member at
    # capacity 0, and nothing but a pack at zero weights
    instances = _seeded_instances(45, 7117) + [
        make_instance([(3, 1), (2,)], 0), make_instance([(0, 0), (0,)], 3)]
    for inst in instances:
        _, rows, b = inst.units
        full = list(oracle.walk_patterns(inst))
        assert len(full) == oracle.pattern_count(inst) - 1
        listed = {items: {FAMILIES[key[1]] for key, _ in
                          family_members(rows, b, items, units, FAMILIES)}
                  for items, units in full}
        for families in subsets:
            walked = list(oracle.walk_patterns(inst, families=families))
            rest = iter(full)
            assert all(pattern in rest for pattern in walked)
            assert ([p for p in walked if listed[p[0]] & set(families)]
                    == [p for p in full if listed[p[0]] & set(families)])
            packs = any(f.startswith("pack") for f in families)
            covers = any(f.startswith("lcover") for f in families)
            # each pattern given is a pack or a cover that a family asks for
            assert all(u < b and packs or u > b and covers for _, u in walked)
            kind = ("both" if packs and covers else
                    "packs only" if packs else "covers only")
            pruned[kind] += oracle.pattern_count(inst) - 1 - len(walked)
    assert min(pruned.values()) > 0, pruned
    # rational and zero weights and singleton groups are all in the corpus
    assert any(a == 0 for inst in instances for g in inst.groups for a in g.weights)
    assert any(a.denominator > 1 for inst in instances for g in inst.groups
               for a in g.weights)
    assert any(inst.m0 for inst in instances)


def test_pruned_walk_needs_sorted_groups():
    # the cover window stops at a group's first light slot, which is sound
    # only on non-increasing weights; the unpruned walk takes any order
    unsorted = make_instance([(1, 4), (2,)], 3)
    for families in (("lcover1",), FAMILIES, ()):
        with pytest.raises(PreconditionError,
                           match="^instance is not normalized$"):
            oracle.walk_patterns(unsorted, families=families)
    assert [units for _, units in oracle.walk_patterns(unsorted)] == [
        2, 1, 3, 4, 6]


def test_walk_never_meets_negative_weights():
    # the prune rules need weights that never lower a prefix's sum, and an
    # instance with a negative weight is refused when it is built
    with pytest.raises(ValidationError,
                       match="^negative weight at group 1 slot 2$"):
        make_instance([(5, -1), (3,), (2, 1)], 4)


def test_integer_oracle_matches_fraction_references():
    rng = random.Random(5150)
    seen = {"zero weight": 0, "tied ratio": 0, "fractional": 0}
    for inst in _seeded_instances(150, 9090):
        vertices = oracle.enumerate_candidate_vertices(inst)
        assert vertices.points == reference_candidate_vertices(inst)
        refs = list(inst.columns)
        assert len(vertices.columns) == len(refs)
        for k, (point, den) in enumerate(zip(vertices.points, vertices.dens)):
            row = [column[k] for column in vertices.columns]
            values = dict(point.entries)
            assert [Fraction(x, den) for x in row] == [values.get(r, 0)
                                                       for r in refs]
        objective = {r: inst.profit(r) for r in refs}
        for r in refs:
            roll = rng.random()
            if roll < 0.1:
                objective[r] = -objective[r]
            elif roll < 0.3:
                objective[r] = inst.weight(r) * 3  # ties the ratio at 3
        assert (oracle.maximize_over_S(inst, objective)
                == reference_maximize_over_S(inst, objective))
        weights = [inst.weight(r) for r in refs]
        ratios = [objective[r] / a for r, a in zip(refs, weights) if a]
        seen["zero weight"] += 0 in weights
        seen["tied ratio"] += len(set(ratios)) < len(ratios)
        seen["fractional"] += any(a.denominator > 1 for a in weights)
    assert min(seen.values()) >= 20, seen


def _cuts_lcover1(inst, limit, tmp_path):
    path = tmp_path / "inst.ckp"
    path.write_text(serialize_instance(inst))
    code = main(["cuts", str(path), "--family", "lcover1",
                 "--enumerate-limit", str(limit)])
    if code == 3:
        raise ResourceLimitError("exit code 3")
    assert code == 0


WALK_CONSUMERS = {
    "enumerate_candidate_vertices": lambda inst, limit, _:
        oracle.enumerate_candidate_vertices(inst, limit),
    "maximize_over_S": lambda inst, limit, _: oracle.maximize_over_S(
        inst, {r: inst.profit(r) for r in inst.columns}, limit),
    "separate_exact": lambda inst, limit, _: separate_exact(
        inst, Point(), "all", limit),
    "ckp cuts --family lcover1": _cuts_lcover1,
}


@pytest.mark.parametrize("consumer", list(WALK_CONSUMERS))
def test_walk_consumers_guard_the_pattern_space(ex_c, tmp_path, capsys, consumer):
    # the pattern space counts the empty pattern, which the walk leaves out
    run = WALK_CONSUMERS[consumer]
    count = oracle.pattern_count(ex_c)
    assert count == 2 * 2 * 3 * 3 * 3
    with pytest.raises(ResourceLimitError):
        run(ex_c, count - 1, tmp_path)
    run(ex_c, count, tmp_path)
    if consumer.startswith("ckp"):
        assert ("pattern space %d exceeds enumeration limit %d" % (count, count - 1)
                in capsys.readouterr().err)


# --- the structural fact that makes enumeration finite ---

def test_candidates_single_fractional_and_tight(small_corpus, ex_a):
    for inst in [ex_a] + small_corpus:
        for p in oracle.enumerate_candidate_vertices(inst).points:
            assert is_feasible(inst, p)
            fractional = [r for r, v in p.entries if v != 1]
            assert len(fractional) <= 1
            if fractional:
                assert weight_of(inst, p) == inst.capacity


# --- tiny hand-checked cases ---

def test_two_point_polytope():
    inst = make_instance([(2,)], 1)
    pts = oracle.enumerate_candidate_vertices(inst).points
    assert [p.entries for p in pts] == [(), ((VarRef(1, 1), Fraction(1, 2)),)]


def test_maximize_trivia():
    inst = make_instance([(2,)], 1)
    value, point = oracle.maximize_over_S(inst, {VarRef(1, 1): Fraction(3)})
    assert (value, point.entries) == (Fraction(3, 2), ((VarRef(1, 1), Fraction(1, 2)),))
    value, point = oracle.maximize_over_S(inst, {})
    assert value == 0 and point.entries == ()


def test_maximize_ignores_negative_coefficients(ex_a):
    value, point = oracle.maximize_over_S(ex_a, {VarRef(1, 1): Fraction(-5)})
    assert value == 0 and point.entries == ()


def test_maximize_matches_exhaustive(small_corpus):
    for inst in small_corpus:
        objective = {r: inst.profit(r) for r in inst.columns}
        value, point = oracle.maximize_over_S(inst, objective)
        assert value == exhaustive_max(inst, objective)
        assert is_feasible(inst, point)
        assert profit_of(inst, point) == value


def test_example_a_maximum(ex_a):
    objective = {r: ex_a.profit(r) for r in ex_a.columns}
    value, point = oracle.maximize_over_S(ex_a, objective)
    assert value == 21
    assert weight_of(ex_a, point) <= 21


# --- validity checking ---

def test_knapsack_row_always_valid(ex_a, small_corpus):
    for inst in [ex_a] + small_corpus:
        res = oracle.check_validity(inst, knapsack_row(inst))
        assert res.valid and bool(res)
        assert res.witness is None


def test_invalid_inequality_reports_witness(ex_a):
    bad = LinearInequality([(VarRef(1, 1), Fraction(2))], Fraction(1))
    res = oracle.check_validity(ex_a, bad)
    assert not res.valid
    assert res.max_value == 2
    assert dict(res.witness.entries)[VarRef(1, 1)] == 1


def test_validity_rejects_unknown_refs(ex_a):
    with pytest.raises(ValidationError):
        oracle.check_validity(ex_a, LinearInequality([(VarRef(8, 1), 1)], 0))


@pytest.mark.parametrize("weights,capacity", [([(3, -1), (2,)], 4),
                                              ([(3, 1), (2,)], -1)],
                         ids=["negative weight", "negative capacity"])
@pytest.mark.parametrize("query", [
    lambda inst, limit: oracle.maximize_over_S(inst, {VarRef(1, 1): 1}, limit),
    lambda inst, limit: oracle.check_validity(
        inst, LinearInequality([(VarRef(1, 1), 1)], 1), limit),
], ids=["maximize_over_S", "check_validity"])
def test_oracle_needs_nonnegative_data(weights, capacity, query):
    # the origin must lie in S: negative data is refused when the instance
    # is built, so no query meets it; the same data made nonnegative is
    # answered, and the enumeration guard still applies
    with pytest.raises(ValidationError,
                       match="^negative (weight at group 1 slot 2|capacity: -1)$"):
        make_instance(weights, capacity)
    inst = make_instance([tuple(map(abs, ws)) for ws in weights], abs(capacity))
    assert query(inst, None)
    with pytest.raises(ResourceLimitError):
        query(inst, oracle.pattern_count(inst) - 1)


# --- face dimensions ---

def test_knapsack_row_is_a_facet_here(ex_a, ex_b, ex_c):
    assert oracle.face_dimension(ex_a, knapsack_row(ex_a)) == 6
    assert oracle.face_dimension(ex_b, knapsack_row(ex_b)) == 6
    assert oracle.face_dimension(ex_c, knapsack_row(ex_c)) == 7


def test_slack_inequality_has_empty_face(ex_a):
    q = LinearInequality(knapsack_row(ex_a).terms, ex_a.capacity + 1)
    assert oracle.face_dimension(ex_a, q) == -1


def test_trivial_faces(ex_a):
    assert oracle.face_dimension(ex_a, LinearInequality([], 0)) == ex_a.dimension
    assert oracle.face_dimension(ex_a, LinearInequality([], 1)) == -1


def test_face_dimension_requires_validity(ex_a):
    bad = LinearInequality([(VarRef(1, 1), Fraction(2))], Fraction(1))
    with pytest.raises(PreconditionError) as err:
        oracle.face_dimension(ex_a, bad)
    assert err.value.witness is not None


def test_face_never_full_dimensional_for_real_inequalities(small_corpus):
    for inst in small_corpus:
        dim = oracle.face_dimension(inst, knapsack_row(inst))
        assert -1 <= dim <= inst.dimension - 1


def _cuts_of(inst):
    """Every family's cuts: packs from the maximal switching packs, covers
    from the patterns heavier than the capacity."""
    packs = tuple(f for f in FAMILIES if f.startswith("pack"))
    covers = tuple(f for f in FAMILIES if f not in packs)
    itemsets = [(pack, packs) for pack in enumerate_maximal_switching_packs(inst)]
    for pattern in iter_patterns(inst):
        cover = tuple(VarRef(i, j) for i, j in enumerate(pattern, start=1) if j)
        if itemset_weight(inst, cover) > inst.capacity:
            itemsets.append((cover, covers))
    for itemset, families in itemsets:
        try:
            yield from (cut.inequality for cut in family_cuts(inst, itemset, families))
        except PreconditionError:
            continue


def _around_the_maximum(rng, inst):
    """Random rational objectives, each with the rhs at its maximum over S
    (a valid inequality with a non-empty face), above it, and below it."""
    refs = list(inst.columns)
    for _ in range(4):
        coeffs = {r: Fraction(rng.randint(-6, 12), rng.randint(1, 4))
                  for r in rng.sample(refs, rng.randint(1, len(refs)))}
        top, _ = oracle.maximize_over_S(inst, coeffs)
        for delta in (0, Fraction(1, 3), Fraction(-1, 5)):
            yield LinearInequality(coeffs, top + delta)


def test_face_dimension_matches_reference_on_seeded_corpora():
    # rational and zero weights and equal ratios, next to integer corpora;
    # every inequality is answered from one enumeration per instance
    rng = random.Random(8080)
    faces = set()
    invalid = 0
    for n in range(24):
        inst = rational_instance(rng) if n % 2 else random_instance(rng, max_groups=4)
        vertices = oracle.enumerate_candidate_vertices(inst)
        inequalities = [knapsack_row(inst), LinearInequality([], 0)]
        inequalities += list(_cuts_of(inst)) + list(_around_the_maximum(rng, inst))
        for inequality in inequalities:
            try:
                expected = reference_face_dimension(inst, inequality)
            except PreconditionError as reference_error:
                with pytest.raises(PreconditionError) as err:
                    vertices.face_dimension(inequality)
                assert str(err.value) == str(reference_error)  # same maximum
                witness = err.value.witness
                assert is_feasible(inst, witness)
                assert lhs_at(inequality, witness) > inequality.rhs
                invalid += 1
                continue
            assert vertices.face_dimension(inequality) == expected
            faces.add(max(expected - inst.dimension, -2) if expected >= 0
                      else "empty")
    assert invalid > 0
    assert {0, -1, -2, "empty"} <= faces  # full, facets, lower faces, empty


def test_long_tight_sets_match_the_reference(monkeypatch):
    """On a seeded 5-group x 3-slot instance (over a thousand candidates),
    the knapsack row, every ``x_ij >= 0`` and ``x_ij <= 1`` row and every
    theorem cut of ``--family all`` have the face dimension of
    ``reference.face_dimension``, capped at d - 1.  Many of their tight
    sets are longer than 2 * (cap + 1) rows, with ranks at and below the
    cap."""
    rng = random.Random(5502)
    inst = make_instance([sorted((rng.randint(1, 20) for _ in range(3)),
                                 reverse=True) for _ in range(5)], 70)
    assert normalize(inst)[0] is inst
    vertices = oracle.enumerate_candidate_vertices(inst)
    assert len(vertices) > 1000
    _, units, capacity = inst.units
    weights = [tuple(row) for row in units]
    points = reference.candidate_points(weights, capacity)
    most = inst.dimension - 1  # the cap of a row with terms
    seen = Counter()

    def recording(dens, columns, rows, cap):
        rank = affine_rank(dens, columns, rows, cap)
        if len(rows) > 2 * (cap + 1):
            seen["long at the cap" if rank == cap else "long below it"] += 1
        return rank

    monkeypatch.setattr(oracle, "affine_rank", recording)
    queries = [knapsack_row(inst)]
    for ref in inst.columns:
        queries += [LinearInequality({ref: -1}, 0),
                    LinearInequality({ref: 1}, 1)]
    queries += [cut.inequality for cut in theorem_cuts(
        inst, resolve_families("all"), None)]
    expected = {}
    for inequality in queries:
        key = inequality.scaled
        if key not in expected:
            expected[key] = min(most, reference.face_dimension(
                weights, points, dict(inequality.terms), inequality.rhs))
        assert vertices.face_dimension(inequality) == expected[key]
    assert len(queries) > 100 and min(seen.values()) > 10, seen


def test_invalid_witness_is_the_first_largest_candidate():
    """The witness is the first candidate (in walk order) of largest
    lhs, and the message names that lhs: the lhs of every candidate,
    summed in Fractions, is the reference.  An empty inequality with a
    negative rhs ties every candidate at lhs 0."""
    rng = random.Random(9091)
    for n in range(40):
        inst = rational_instance(rng) if n % 2 else random_instance(rng, max_groups=4)
        vertices = oracle.enumerate_candidate_vertices(inst)
        refs = list(inst.columns)
        inequalities = [LinearInequality([], -1)]
        for _ in range(3):
            coeffs = {r: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for r in refs if rng.random() < 0.6}
            inequalities.append(LinearInequality(coeffs, Fraction(-1, 7)))
        for inequality in inequalities:
            values = [lhs_at(inequality, p) for p in vertices.points]
            best = max(values)
            if best <= inequality.rhs:
                continue
            with pytest.raises(PreconditionError) as err:
                vertices.face_dimension(inequality)
            assert err.value.witness == vertices.points[values.index(best)]
            assert str(err.value) == ("inequality is not valid (max %s > rhs %s)"
                                      % (best, inequality.rhs))


def test_one_witness_rule(tmp_path, capsys):
    """For each invalid inequality, ``VertexSet.face_dimension`` names the
    witness that ``check_validity`` names and ``ckp verify`` prints: the
    first maximizer of the lhs in walk order.  Small integer coefficients
    tie many candidates at the maximum; on ex_a, x41 + x51 <= 1 is broken
    first by the pattern {x41, x51} alone."""
    rng = random.Random(4545)
    ex_a = make_instance([(2,), (4,), (8,), (10, 6), (8, 4)], 21)
    pinned = LinearInequality({VarRef(4, 1): 1, VarRef(5, 1): 1}, 1)
    checked = tied = 0
    for n, inst in enumerate(
            [ex_a] + [normalize(i)[0] for i in _seeded_instances(30, 6161)]):
        vertices = oracle.enumerate_candidate_vertices(inst)
        # new files each time, each removed at once (see the byte mutations
        # test of test_cli.py)
        instance_path = tmp_path / ("inst%d.ckp" % n)
        instance_path.write_text(serialize_instance(inst))
        inequalities = [pinned] if inst is ex_a else []
        for _ in range(4):
            coeffs = {r: rng.randint(-1, 2) for r in inst.columns}
            top, _ = oracle.maximize_over_S(inst, coeffs)
            inequalities.append(LinearInequality(coeffs, top - Fraction(1, 2)))
        for inequality in inequalities:
            with pytest.raises(PreconditionError) as err:
                vertices.face_dimension(inequality)
            witness = oracle.check_validity(inst, inequality).witness
            assert err.value.witness == witness
            if inequality is pinned:
                assert witness == Point({VarRef(4, 1): 1, VarRef(5, 1): 1})
            inequality_path = tmp_path / ("bad%d.ineq" % checked)
            inequality_path.write_text(serialize_inequality(inequality))
            assert main(["verify", str(instance_path), str(inequality_path)]) == 0
            assert capsys.readouterr().out == "valid: no\nwitness:\n" + "".join(
                "val %d %d %s\n" % (r.group, r.slot, format_rational(x))
                for r, x in witness.entries)
            inequality_path.unlink()
            values = [lhs_at(inequality, p) for p in vertices.points]
            tied += values.count(max(values)) > 1
            checked += 1
        instance_path.unlink()
    assert checked == 4 * 33 + 1 and tied > checked // 3, (checked, tied)


def test_kept_ranks_answer_as_a_fresh_enumeration():
    """One VertexSet per instance, asked twice over in a shuffled order
    about every family cut, the knapsack row, the two empty inequalities
    and one invalid inequality, answers each as the reference does from a
    fresh enumeration.  The invalid one raises with the first candidate of
    largest lhs as witness and keeps no rank."""
    rng = random.Random(6363)
    seen = {"rational": 0, "zero weight": 0}
    for inst in _seeded_instances(18, 2727):
        seen["rational"] += inst.units[0] > 1
        seen["zero weight"] += any(a == 0 for row in inst.units[1] for a in row)
        vertices = oracle.enumerate_candidate_vertices(inst)
        profits = {r: inst.profit(r) for r in inst.columns}
        top, _ = oracle.maximize_over_S(inst, profits)
        bad = LinearInequality(profits, top - Fraction(1, 3))
        queries = [knapsack_row(inst), LinearInequality([], 0),
                   LinearInequality([], 1)] + list(_cuts_of(inst))
        expected = [reference_face_dimension(inst, q) for q in queries]
        order = [k for k in range(len(queries)) for _ in range(2)] + [None] * 2
        rng.shuffle(order)
        for k in order:
            if k is not None:
                assert vertices.face_dimension(queries[k]) == expected[k]
                continue
            kept = dict(vertices._ranks)
            with pytest.raises(PreconditionError) as err:
                vertices.face_dimension(bad)
            assert vertices._ranks == kept
            values = [lhs_at(bad, p) for p in vertices.points]
            assert err.value.witness == vertices.points[values.index(max(values))]
    assert min(seen.values()) > 0, seen


def test_face_dimension_is_the_fraction_rank_of_the_tight_candidates():
    """The face dimension equals ``fraction_affine_rank`` of the tight
    candidates as Fraction vectors, capped at d - 1 (d with no terms), on
    rational and zero-weight draws: the empty inequalities (every
    candidate tight, or none), rhs 0 (the origin tight), x <= 1 (a face
    of lower dimension, whose tight set is often longer than
    2 * (cap + 1) rows with a rank below the cap), the family cuts and
    rows at, above and below a maximum.  An invalid inequality raises
    with the first candidate of largest lhs as witness, as before, and
    keeps no rank."""
    rng = random.Random(5050)
    seen = Counter()
    for inst in _seeded_instances(24, 5151):
        seen["rational"] += inst.units[0] > 1
        seen["zero weight"] += any(a == 0 for row in inst.units[1] for a in row)
        vertices = oracle.enumerate_candidate_vertices(inst)
        points, refs = vertices.points, list(inst.columns)
        vectors = [[dict(p.entries).get(r, Fraction(0)) for r in refs]
                   for p in points]
        queries = [LinearInequality([], 0), LinearInequality([], 1),
                   knapsack_row(inst)]
        for ref in refs:
            queries += [LinearInequality({ref: -1}, 0),
                        LinearInequality({ref: 1}, 1)]
        queries += list(_cuts_of(inst)) + list(_around_the_maximum(rng, inst))
        for inequality in queries:
            values = [lhs_at(inequality, p) for p in points]
            if max(values) > inequality.rhs:
                kept = dict(vertices._ranks)
                with pytest.raises(PreconditionError) as err:
                    vertices.face_dimension(inequality)
                assert err.value.witness == points[values.index(max(values))]
                assert str(err.value) == (
                    "inequality is not valid (max %s > rhs %s)"
                    % (max(values), inequality.rhs))
                assert vertices._ranks == kept
                seen["invalid"] += 1
                continue
            tight = [v for v, x in zip(vectors, values) if x == inequality.rhs]
            cap = len(refs) - 1 if inequality.terms else len(refs)
            expected = fraction_affine_rank(tight, cap)
            assert vertices.face_dimension(inequality) == expected
            seen["origin tight"] += inequality.rhs == 0 and values[0] == 0
            seen["empty"] += not tight
            seen["long below the cap"] += (len(tight) > 2 * (cap + 1)
                                           and expected < cap)
    assert min(seen.values()) > 0, seen


def test_face_dimension_makes_no_point_and_ranks_each_tight_set_once(
        ex_c, monkeypatch):
    """Enumerating and answering valid cuts makes no Point.  Each distinct
    inequality form is summed on the lanes and ranked once: asked about
    again, it runs neither ``_lanes`` nor ``affine_rank``.  An invalid
    row, its witness included, and a maximum each sum their row on the
    lanes once too, and rank nothing.  On this corpus the distinct forms
    are also the distinct tight sets."""
    made = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            made[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracle, "affine_rank",
                        counting("affine_rank", oracle.affine_rank))
    monkeypatch.setattr(oracle.VertexSet, "_lanes",
                        counting("_lanes", oracle.VertexSet._lanes))
    for name in ("__init__", "from_scaled"):  # both Point constructors
        monkeypatch.setattr(oracle.Point, name,
                            counting("Point", getattr(oracle.Point, name)))
    vertices = oracle.enumerate_candidate_vertices(ex_c)
    for inequality in _cuts_of(ex_c):
        vertices.face_dimension(inequality)
    assert made["Point"] == 0
    queries = forms = tight_sets = ranks = invalid = 0
    for inst in _seeded_instances(30, 2727):
        vertices = oracle.enumerate_candidate_vertices(inst)
        cuts = list(_cuts_of(inst))
        distinct = len({c.scaled for c in cuts})
        made.clear()
        answers = [vertices.face_dimension(c) for c in cuts]
        assert made["_lanes"] == made["affine_rank"] == distinct
        queries += len(cuts)
        forms += distinct
        ranks += made["affine_rank"]
        made.clear()
        assert [vertices.face_dimension(c) for c in cuts] == answers
        assert made == {}  # every repeat is one lookup
        for cut, answer in zip(cuts, answers):
            if answer < 0:
                continue
            # the face is non-empty, so the max is the rhs: one below it
            # is violated, and its witness comes off the same lane sum
            made.clear()
            with pytest.raises(PreconditionError):
                vertices.face_dimension(LinearInequality(cut.terms,
                                                         cut.rhs - 1))
            assert made["_lanes"] == 1 and made["affine_rank"] == 0
            made.clear()
            assert vertices.maximize(dict(cut.terms))[0] == cut.rhs
            assert made["_lanes"] == 1 and made["affine_rank"] == 0
            invalid += 1
        tight_sets += len({tuple(lhs_at(c, p) == c.rhs for p in vertices.points)
                           for c in cuts})
    assert ranks == forms == tight_sets < queries
    assert invalid > 0


def test_hull_dimension_is_the_rank_of_every_candidate():
    """``VertexSet.hull_dimension`` is dim conv(S), the Fraction affine
    rank of every candidate: d when b > 0 or every weight is 0, lower
    when b = 0 and a weight is positive."""
    rng = random.Random(3434)
    flat = [make_instance([(0,), (4, 0), (6, 3)], 0),
            make_instance([(0,), (0, 0)], 0),
            make_instance([(2, 1), (3,)], 0)]
    seen = Counter()
    for inst in flat + _seeded_instances(20, 3535):
        vertices = oracle.enumerate_candidate_vertices(inst)
        refs = list(inst.columns)
        expected = fraction_affine_rank(
            [dict(p.entries).get(r, Fraction(0)) for r in refs]
            for p in vertices.points)
        assert vertices.hull_dimension == expected
        seen["full" if expected == inst.dimension else "flat"] += 1
    assert seen["flat"] >= 2 and seen["full"] > 10, seen


# --- packed lanes against the per-candidate sums ---

def _edge_rows(vertices, width):
    """Rows ``(terms, top)`` whose lane bound sits just under (or at) and
    just over the limit of ``width``, each with the width it needs, at a
    ref where the candidate of largest den D is at 1, so a lane reaches
    the bound: c x <= 0 with D c at most 2^(w-1) (the positive part), and
    c x <= c, -c x <= 0 and -c x <= -1 (a negative rhs) with D c at most
    2^(w-1) - 1 (the negative part), then each with c + 1.  Empty without
    such a ref."""
    top = max(vertices.dens)
    k = vertices.dens.index(top)
    at = next((at for at, column in enumerate(vertices.columns)
               if column[k] == top), None)
    if at is None:
        return []
    ref, half = list(vertices.instance.columns)[at], 1 << (width - 1)
    rows = []
    for c, need in ((half // top, width), (half // top + 1, width + 32)):
        rows.append(((((ref, c),), 0), need))
    for c, need in (((half - 1) // top, width),
                    ((half - 1) // top + 1, width + 32)):
        rows += [((((ref, c),), c), need), ((((ref, -c),), 0), need),
                 ((((ref, -c),), -1), need)]
    return rows


def _lane_rows(rng, inst, vertices, width):
    """The empty rows with rhs 0 and 1 (every candidate tight, or none),
    random rows of scale 1 with coefficients up to about 2^(w-2) / D,
    negative ones among them, each with its rhs at its maximum over the
    candidates (a valid row with a non-empty face), one above, one below
    and one negative; then the edge rows of ``width``."""
    refs = list(inst.columns)
    big = max(1, (1 << (width - 2)) // (max(vertices.dens) * len(refs)))
    rows = [((), 0), ((), 1)]
    for _ in range(3):
        terms = tuple(sorted(
            (r, rng.choice((-1, 1, 1)) * rng.randint(1, big))
            for r in rng.sample(refs, rng.randint(1, len(refs)))))
        coeffs = dict(terms)
        top = max(Fraction(sum(coeffs.get(r, 0) * x for r, x in p.entries))
                  for p in vertices.points)
        bound = top.numerator // top.denominator  # at the maximum or below
        rows += [(terms, bound), (terms, bound + 1), (terms, bound - 1),
                 (terms, -rng.randint(1, big))]
    return rows + [row for row, _ in _edge_rows(vertices, width)]


@pytest.mark.parametrize("forced", [None, 32, 64, 96, 192])
def test_lanes_answer_as_the_per_candidate_sums(monkeypatch, forced):
    """On rational and zero-weight draws, each lane less B is the exact
    excess den * (lhs - rhs) of its candidate, taken with ``lhs_at`` in
    Fractions, and the validity verdict, the tight set (the rows ranked)
    and the face dimension and witness follow: the face dimension is
    ``fraction_affine_rank`` of the tight candidates and
    ``reference.face_dimension`` over the instance's integer units, each
    capped as the oracle caps it, and an invalid row's witness is the
    first candidate of largest lhs.  ``maximize`` on each row's terms
    gives the largest lhs and its first candidate.  Rows have negative
    coefficients and negative rhs, and bounds just under and just over
    each width's limit.  With ``forced`` the width is at least that, so
    lanes of 32, 64, 96 and 192 bits all run; without, the width is the
    narrowest the bound allows, and the edge rows land on each side of
    it."""
    natural = oracle._lane_width
    if forced is not None:
        monkeypatch.setattr(oracle, "_lane_width",
                            lambda p, n: max(forced, natural(p, n)))
    ranked = []

    def recording(dens, columns, rows, cap):
        ranked.append(rows)
        return affine_rank(dens, columns, rows, cap)

    monkeypatch.setattr(oracle, "affine_rank", recording)
    widths = (32, 64, 96) if forced is None else (forced,)
    rng = random.Random(7171 + (forced or 0))
    seen = Counter()
    # the last instance has a den above 2^40, wider than any row's lane
    # bound would need for the empty row
    huge = make_instance([((1 << 40) + 1,), (3,)], 1 << 39)
    for inst in _seeded_instances(12, 7272) + [huge]:
        seen["rational"] += inst.units[0] > 1
        seen["zero weight"] += any(a == 0 for row in inst.units[1] for a in row)
        refs = list(inst.columns)
        _, rows_units, capacity = inst.units
        weights = [tuple(row) for row in rows_units]
        points = reference.candidate_points(weights, capacity)
        for width in widths:
            vertices = oracle.enumerate_candidate_vertices(inst)
            candidates = vertices.points
            vectors = [[dict(p.entries).get(r, Fraction(0)) for r in refs]
                       for p in candidates]
            edges = dict(_edge_rows(vertices, width))
            for terms, top in _lane_rows(rng, inst, vertices, width):
                inequality = LinearInequality.from_scaled(1, top, terms)
                assert inequality.scaled == (1, top, terms)
                values = [lhs_at(inequality, p) for p in candidates]
                data, size = vertices._lanes(terms, top)
                bias = (1 << (8 * size - 1)) - 1  # B
                assert [int.from_bytes(data[at:at + size], "little") - bias
                        for at in range(0, len(data), size)] == [
                    den * (x - top) for den, x in zip(vertices.dens, values)]
                first = values.index(max(values))
                assert vertices.maximize(dict(terms)) == (values[first],
                                                          candidates[first])
                ranked.clear()
                if values[first] > top:
                    with pytest.raises(PreconditionError) as err:
                        vertices.face_dimension(inequality)
                    assert err.value.witness == candidates[first]
                    assert ranked == []
                    seen["invalid"] += 1
                    seen["negative rhs"] += top < 0
                else:
                    cap = inst.dimension - (1 if terms else 0)
                    tight = [k for k, x in enumerate(values) if x == top]
                    expected = fraction_affine_rank(
                        [vectors[k] for k in tight], cap)
                    assert vertices.face_dimension(inequality) == expected
                    assert ranked == [tight]
                    assert expected == min(cap, reference.face_dimension(
                        weights, points, dict(terms), Fraction(top)))
                    seen["valid"] += 1
                    seen["negative coefficient"] += any(c < 0
                                                        for _, c in terms)
                if forced is None and (terms, top) in edges:
                    # a fresh table packs only the width this row needs
                    fresh = oracle.enumerate_candidate_vertices(inst)
                    assert 8 * fresh._lanes(terms, top)[1] == edges[terms, top]
                    assert set(fresh._packs) == {edges[terms, top]}
                    seen["edge %d" % edges[terms, top]] += 1
            if forced is not None and inst is not huge:
                assert min(vertices._packs) == forced  # the forced width ran
    assert min(seen.values()) > 0, seen
    if forced is None:  # edge rows on each side of 32, 64 and 96
        assert {"edge 32", "edge 64", "edge 96", "edge 128"} <= set(seen)


# --- enumeration guard ---

def test_pattern_count(ex_a):
    assert oracle.pattern_count(ex_a) == 2 * 2 * 2 * 3 * 3


def test_enum_limit_argument(ex_a):
    with pytest.raises(ResourceLimitError) as err:
        oracle.enumerate_candidate_vertices(ex_a, limit=10)
    assert err.value.estimate == 72


@pytest.mark.parametrize("limit", [0, -5])
def test_enum_limit_must_be_positive(ex_a, limit):
    with pytest.raises(ValidationError, match="must be positive"):
        oracle.resolve_enum_limit(limit)
    with pytest.raises(ValidationError):
        oracle.enumerate_candidate_vertices(ex_a, limit=limit)


@pytest.mark.parametrize("limit", [True, 2.5, 1000.5])
def test_enum_limit_must_be_an_integer(ex_a, limit):
    with pytest.raises(ValidationError, match="enumeration limit must be an integer"):
        oracle.resolve_enum_limit(limit)
    with pytest.raises(ValidationError, match="must be an integer"):
        oracle.enumerate_candidate_vertices(ex_a, limit=limit)
