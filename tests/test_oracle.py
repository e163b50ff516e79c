"""Vertex-oracle tests.

The candidate enumeration is the ground truth everything else leans on, so it
gets an independent re-implementation here (recursive, with its own dedup) and
the two are required to agree on the fixed examples and a random corpus.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

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
from ckp.numeric import format_rational
from ckp.cli import main
from ckp.cuts import (FAMILIES, enumerate_maximal_switching_packs,
                      family_members)
from ckp.fileio import serialize_inequality, serialize_instance
from ckp.separation import separate_exact

from conftest import (family_cuts, fraction_affine_rank, itemset_weight,
                      iter_patterns, make_instance, random_instance,
                      rational_instance,
                      reference_candidate_vertices, reference_face_dimension,
                      reference_maximize_over_S, weight_of)


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
    instance_path, inequality_path = tmp_path / "inst.ckp", tmp_path / "bad.ineq"
    checked = tied = 0
    for inst in [ex_a] + [normalize(i)[0] for i in _seeded_instances(30, 6161)]:
        vertices = oracle.enumerate_candidate_vertices(inst)
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
            inequality_path.write_text(serialize_inequality(inequality))
            assert main(["verify", str(instance_path), str(inequality_path)]) == 0
            assert capsys.readouterr().out == "valid: no\nwitness:\n" + "".join(
                "val %d %d %s\n" % (r.group, r.slot, format_rational(x))
                for r, x in witness.entries)
            values = [lhs_at(inequality, p) for p in vertices.points]
            tied += values.count(max(values)) > 1
            checked += 1
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
    of lower dimension, so its tight set is often longer than
    2 * (cap + 1) and the rows taken double until every one is in), the
    family cuts and rows at, above and below a maximum.  An invalid
    inequality raises with the first candidate of largest lhs as witness,
    as before, and keeps no rank."""
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
            seen["doubled"] += len(tight) > 2 * (cap + 1) and expected < cap
    assert min(seen.values()) > 0, seen


def test_face_dimension_makes_no_point_and_ranks_each_tight_set_once(
        ex_c, monkeypatch):
    """Enumerating and answering valid cuts makes no Point.  Each distinct
    inequality form is summed and ranked once: asked about again, it runs
    neither ``_sums`` nor ``affine_rank``.  On this corpus the distinct
    forms are also the distinct tight sets."""
    made = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            made[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracle, "affine_rank",
                        counting("affine_rank", oracle.affine_rank))
    monkeypatch.setattr(oracle.VertexSet, "_sums",
                        counting("_sums", oracle.VertexSet._sums))
    for name in ("__init__", "from_scaled"):  # both Point constructors
        monkeypatch.setattr(oracle.Point, name,
                            counting("Point", getattr(oracle.Point, name)))
    vertices = oracle.enumerate_candidate_vertices(ex_c)
    for inequality in _cuts_of(ex_c):
        vertices.face_dimension(inequality)
    assert made["Point"] == 0
    queries = forms = tight_sets = ranks = 0
    for inst in _seeded_instances(30, 2727):
        vertices = oracle.enumerate_candidate_vertices(inst)
        cuts = list(_cuts_of(inst))
        distinct = len({c.scaled for c in cuts})
        made.clear()
        answers = [vertices.face_dimension(c) for c in cuts]
        assert made["_sums"] == made["affine_rank"] == distinct
        queries += len(cuts)
        forms += distinct
        ranks += made["affine_rank"]
        made.clear()
        assert [vertices.face_dimension(c) for c in cuts] == answers
        assert made == {}  # every repeat is one lookup
        tight_sets += len({tuple(lhs_at(c, p) == c.rhs for p in vertices.points)
                           for c in cuts})
    assert ranks == forms == tight_sets < queries


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
