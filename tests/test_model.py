import copy
import pickle
import random
from fractions import Fraction
from itertools import chain, islice
from math import gcd
from types import SimpleNamespace

import pytest

from ckp import model, oracle, simplex
from ckp.errors import PreconditionError, ValidationError
from ckp.fileio import serialize_inequality, serialize_point
from ckp.numeric import integer_form
from ckp.model import (
    Group,
    Instance,
    LinearInequality,
    Point,
    VarRef,
    complementarity_violations,
    is_feasible,
    knapsack_row,
    lhs_at,
    normalize,
    profit_of,
    validate_assumptions,
)
from ckp.separation import build_partition_reduction

from conftest import (LARGE_PRIMES, make_instance, random_instance,
                      rational_instance, reference_integer_form,
                      reference_integer_row, weight_of)


def test_build_and_lookups(ex_a):
    assert ex_a.m == 5
    assert ex_a.dimension == 7
    assert ex_a.groups[3].size == 2
    assert ex_a.weight(VarRef(4, 2)) == 6
    assert ex_a.profit(VarRef(5, 1)) == 8
    assert list(ex_a.columns)[:3] == [VarRef(1, 1), VarRef(2, 1), VarRef(3, 1)]
    assert ex_a.m0 == frozenset({1, 2, 3})


@pytest.mark.parametrize("groups, capacity, message", [
    # negative weights: lcover1 on {(2,1), (3,1)} claimed a facet that x12 =
    # x21 = 1, x31 = 7/9 violates, and exact separation divided by zero
    ([((6, -2, -2), (7, 8, 8)), ((5, 1), (2, 3)), ((9, 8, -3), (8, 6, 0))],
     10, "negative weight at group 1 slot 2"),
    # negative profits: the assumption report gave a trivial optimum of 3
    # where branch-and-cut proves 4
    ([((2, 1), (-1, -3)), ((1,), (4,))], 10,
     "negative profit at group 1 slot 1"),
    ([((2,), (1,))], -1, "negative capacity: -1"),
    # the capacity first, then weight before profit, slot by slot
    ([((-2,), (-1,))], Fraction(-1, 2), "negative capacity: -1/2"),
    ([((2, 1), (1, -1)), ((-1,), (1,))], 0, "negative profit at group 1 slot 2"),
    ([((2, -1), (1, -1))], 0, "negative weight at group 1 slot 2"),
], ids=["negative weights", "negative profits", "negative capacity",
        "capacity first", "slot order", "weight before profit"])
def test_build_refuses_negative_data(groups, capacity, message):
    with pytest.raises(ValidationError, match="^%s$" % message):
        Instance.build(groups, capacity)


def test_build_coerces_strings():
    inst = Instance.build([(("7/2", 1), ("3", 1))], "5")
    assert inst.weight(VarRef(1, 1)) == Fraction(7, 2)
    assert inst.capacity == 5


def test_strings_follow_the_file_grammar():
    # the one string grammar is numeric.parse_rational's: no decimals,
    # exponents or plus signs, and a bad string is a ValidationError
    for text in ("0.5", "1e3", "+2", "abc", "1/0"):
        for build in (lambda t: Instance.build([((t,), (1,))], 5),
                      lambda t: Instance.build([((1,), (1,))], t),
                      lambda t: LinearInequality({(1, 1): t}, 1),
                      lambda t: LinearInequality({}, t),
                      lambda t: Point({(1, 1): t})):
            with pytest.raises(ValidationError):
                build(text)


def test_instance_values_are_exact():
    # a float would be taken at its binary value, and 0.1 and 0.05 would
    # give Instance.units a scale of 2^56
    with pytest.raises(ValidationError):
        Instance((Group((0.1, 0.05), (1, 2)),), Fraction(7, 20))
    with pytest.raises(ValidationError):
        Instance((Group((1,), (2,)),), 0.35)
    with pytest.raises(ValidationError):
        Group((1,), (0.5,))
    group = Group([2, "1/2"], (3, Fraction(1, 3)))
    assert group.weights == (Fraction(2), Fraction(1, 2))
    assert Instance((group,), "7/2").capacity == Fraction(7, 2)


def test_bools_are_not_rationals():
    # bool is an int subclass, so True would be taken as 1: a caller that
    # passes one has most likely passed a comparison by mistake
    for value in (True, False):
        for build in (lambda v: Instance.build([((v, 2), (1, 1))], 3),
                      lambda v: Instance.build([((2,), (v,))], 3),
                      lambda v: Instance.build([((2,), (1,))], v),
                      lambda v: LinearInequality({(1, 1): v}, 1),
                      lambda v: LinearInequality({(1, 1): 1}, v),
                      lambda v: Point({(1, 1): v})):
            with pytest.raises(ValidationError, match="not a rational"):
                build(value)


def test_indices_are_ints_not_bools():
    # VarRef(1, True) == VarRef(1, 1), so a bool index would pass as x(1,1)
    for ref in ((True, 1), (1, True), (1, False), (1.0, 1), (1, "1")):
        for build in (lambda r: LinearInequality({r: 2}, 1),
                      lambda r: Point({r: Fraction(1, 2)}),
                      lambda r: Point([(VarRef(*r), 1)])):
            with pytest.raises(ValidationError, match="not a variable index"):
                build(ref)


def test_a_variable_is_given_once():
    # refused even when one of its values is 0, which would be dropped and
    # leave the other standing
    for terms in ([((1, 1), 0), ((1, 1), 5)], [((1, 1), 5), (VarRef(1, 1), 0)]):
        with pytest.raises(ValidationError, match="twice"):
            LinearInequality(terms, 3)
    with pytest.raises(ValidationError, match="twice"):
        Point([((1, 1), 0), ((1, 1), Fraction(1, 2))])


def test_ref_checks(ex_a):
    assert VarRef(4, 2) in ex_a.columns
    assert VarRef(4, 3) not in ex_a.columns
    assert VarRef(6, 1) not in ex_a.columns
    with pytest.raises(ValidationError):
        ex_a.check_ref(VarRef(0, 1))
    assert [ex_a.check_ref(r) for r in ex_a.columns] == list(range(7))


def test_group_shape_validation():
    with pytest.raises(ValidationError):
        Instance.build([((2, 3), (1,))], 5)  # weight/profit length mismatch
    with pytest.raises(ValidationError):
        Instance.build([((), ())], 5)  # empty group
    with pytest.raises(ValidationError):
        Instance.build([], 5)


def test_point_validation():
    with pytest.raises(ValidationError):
        Point([(VarRef(1, 1), Fraction(3, 2))])
    with pytest.raises(ValidationError):
        Point([(VarRef(1, 1), Fraction(-1, 2))])
    p = Point([(VarRef(1, 1), Fraction(1, 2)), (VarRef(4, 2), 1)])
    assert p.entries == ((VarRef(1, 1), Fraction(1, 2)), (VarRef(4, 2), 1))


def test_integer_forms_match_fraction_reference():
    """``Instance.units``, ``Instance.integer_row`` and the ``scaled`` that
    every constructor of a row and a point stores equal the Fraction
    scaling, on rational and zero weights and rows and points with large
    coprime denominators, built from Fractions and from their integer form;
    a row reference outside the instance raises."""
    rng = random.Random(5077)
    for _ in range(200):
        inst = rational_instance(rng)
        scale, ints = reference_integer_form(
            [inst.capacity] + [a for g in inst.groups for a in g.weights])
        rows, flat = [], iter(ints[1:])
        for g in inst.groups:
            rows.append(tuple(next(flat) for _ in range(g.size)))
        assert inst.units == (scale, tuple(rows), ints[0])
        coeffs = {r: Fraction(rng.randint(-50, 50), rng.choice(LARGE_PRIMES))
                  for r in inst.columns if rng.random() < 0.6}
        row = LinearInequality(coeffs, Fraction(rng.randint(-9, 9),
                                                rng.choice(LARGE_PRIMES)))
        assert (inst.integer_row(row)
                == reference_integer_row(inst, row.terms, row.rhs))
        assert (inst.integer_row(LinearInequality(row.terms, 0))
                == reference_integer_row(inst, row.terms))
        assert (inst.integer_row(LinearInequality.from_scaled(*row.scaled))
                == reference_integer_row(inst, row.terms, row.rhs))
        unit, (rhs, *cs) = reference_integer_form(
            [row.rhs] + [c for _, c in row.terms])
        form = unit, rhs, tuple(zip([r for r, _ in row.terms], cs))
        assert row.scaled == LinearInequality.from_scaled(*form).scaled == form
        point = Point({r: Fraction(rng.randint(0, 7),
                                   rng.choice((7,) + LARGE_PRIMES))
                       for r in inst.columns if rng.random() < 0.6})
        scale, xs = reference_integer_form([x for _, x in point.entries])
        form = scale, tuple(zip([r for r, _ in point.entries], xs))
        assert point.scaled == Point.from_scaled(*form).scaled == form
    with pytest.raises(ValidationError, match=r"x\(9,9\)"):
        inst.integer_row(LinearInequality({(9, 9): 1}, 0))


def test_profit_units_match_fraction_reference():
    """``Instance.profit_units`` is the profits in column order through the
    Fraction scaling, on rational data with zero profits."""
    rng = random.Random(6161)
    zeros = 0
    for _ in range(200):
        inst = rational_instance(rng)
        profits = [inst.profit(r) for r in inst.columns]
        scale, ints = reference_integer_form(profits)
        assert inst.profit_units == (scale, tuple(ints))
        zeros += 0 in profits
    assert zeros >= 20


FACTS = ("columns", "units", "profit_units", "normalized", "m0")


def fraction_facts(inst):
    """The five facts of ``inst``, made from its Fractions and read off no
    fact: the references in (group, slot) order, the weights and capacity
    and the profits each through the Fraction scaling, the weights' order
    within each group and the indices of the one-slot groups."""
    refs = [VarRef(i, j) for i, g in enumerate(inst.groups, start=1)
            for j in range(1, g.size + 1)]
    scale, ints = reference_integer_form(
        [inst.capacity] + [a for g in inst.groups for a in g.weights])
    rows, flat = [], iter(ints[1:])
    for g in inst.groups:
        rows.append(tuple(next(flat) for _ in range(g.size)))
    profit_scale, costs = reference_integer_form(
        [c for g in inst.groups for c in g.profits])
    return {"columns": dict(zip(refs, range(len(refs)))),
            "units": (scale, tuple(rows), ints[0]),
            "profit_units": (profit_scale, tuple(costs)),
            "normalized": all(a >= b for g in inst.groups
                              for a, b in zip(g.weights, g.weights[1:])),
            "m0": frozenset(i for i, g in enumerate(inst.groups, start=1)
                            if len(g.weights) == 1)}


def test_first_read_of_any_fact_makes_all_five():
    """Reading any one of an instance's facts first makes all five, equal
    to their Fraction references, as plain attributes; a deep copy and a
    pickle round trip, made before and after that read, are equal
    instances with equal facts."""
    rng = random.Random(3909)
    for k in range(160):
        inst = (rational_instance(rng) if k % 2
                else random_instance(rng, profits="random"))
        expected = fraction_facts(inst)
        before = copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))
        assert not vars(inst).keys() & set(FACTS)
        getattr(inst, FACTS[k % 5])
        assert {name: vars(inst)[name] for name in FACTS} == expected
        assert all(type(ref) is VarRef for ref in inst.columns)
        after = copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))
        for other in before + after:
            assert other == inst
            assert {name: getattr(other, name) for name in FACTS} == expected
    unsorted = Instance.build([((1, 2), (1, 1)), ((3,), (3,))], 3)
    assert unsorted.units == (1, ((1, 2), (3,)), 3)
    assert vars(unsorted)["normalized"] is False
    with pytest.raises(PreconditionError, match="instance is not normalized"):
        unsorted.normalized_units()
    with pytest.raises(AttributeError, match="no attribute 'unit'"):
        unsorted.unit


def test_one_layout_per_tuple_of_group_sizes():
    """Instances of one tuple of group sizes share one Layout, whatever
    their data, and so does ``normalize``'s output of an unsorted one;
    other sizes get their own.  The shared column index is read-only, and
    a deep copy or a pickle round trip, made once the facts are read, is
    an equal instance that reads the same record."""
    a = Instance.build([((5, 3), (4, 1)), ((7,), (2,)), ((0, 0), (1, 0))], 6)
    b = Instance.build([((Fraction(9, 2), 1), (1, 1)), ((2,), ("1/3",)),
                        ((4, 1), (4, 1))], 3)
    assert a.layout is b.layout
    assert a.columns is b.columns and a.m0 is b.m0
    layout = a.layout
    assert layout.refs == tuple(a.columns) == (
        VarRef(1, 1), VarRef(1, 2), VarRef(2, 1), VarRef(3, 1), VarRef(3, 2))
    assert all(type(ref) is VarRef for ref in layout.refs)
    assert layout.spans == simplex.LpProblem(b).spans == ((0, 2), (2, 3),
                                                          (3, 5))
    assert simplex.LpProblem(a).refs is layout.refs
    assert layout.m0 == frozenset({2})
    unsorted = Instance.build([((1, 3), (1, 1)), ((2,), (2,)),
                               ((0, 1), (1, 1))], 3)
    normalized, _ = normalize(unsorted)
    assert normalized is not unsorted and normalized.normalized
    assert normalized.layout is unsorted.layout is layout
    for other in (Instance.build([((5,), (4,)), ((7, 1), (2, 1)),
                                  ((1, 0), (1, 0))], 6),
                  Instance.build([((5, 3), (4, 1)), ((7,), (2,))], 6)):
        assert other.layout is not layout
        assert other.columns != a.columns
    with pytest.raises(TypeError):
        a.columns[VarRef(4, 1)] = 5
    with pytest.raises(TypeError):
        del a.columns[VarRef(1, 1)]
    assert len(b.columns) == 5
    for copied in (copy.deepcopy(a), pickle.loads(pickle.dumps(a)),
                   pickle.loads(pickle.dumps(b))):
        assert "columns" not in vars(copied)
        assert copied in (a, b) and copied.layout is layout
        assert copied.units in (a.units, b.units)


def test_layout_cache_stays_at_its_bound():
    # more distinct tuples of group sizes than the bound: the least recently
    # used records are dropped, and an instance keeps the record it read
    model._layout.cache_clear()
    limit = model._layout.cache_info().maxsize
    assert limit == 256
    shapes = [tuple(1 + (k >> bit & 1) for bit in range(10))
              for k in range(limit + 20)]

    def build(sizes, weight=1):
        return Instance.build([((weight,) * size, (1,) * size)
                               for size in sizes], 5)

    first = build(shapes[0])
    kept = first.layout
    for sizes in shapes[1:]:
        inst = build(sizes)
        assert inst.layout.spans[-1][1] == sum(sizes)
        assert model._layout.cache_info().currsize <= limit
    assert model._layout.cache_info().currsize == limit
    assert build(shapes[-1], 2).layout is inst.layout
    assert first.layout is kept
    again = build(shapes[0], 2)
    assert again.layout == kept and again.layout is not kept
    assert model._layout.cache_info().currsize == limit


def test_integral_instance_makes_no_fraction(monkeypatch):
    """An instance of integer data shaped as the partition reduction's
    (a singleton group per alpha, one group (3, 1, ..., 1) with beta ones,
    profits equal to weights, capacity beta + 2) is built, and gives its
    columns, units, profit units, normalization and M_0, without one
    ``Fraction`` made.  Nor does the partition reduction itself, a point
    or a cut made from its integer form, the knapsack row, printing a cut
    of scale 1, or normalizing an integral instance whose slots move."""
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    alphas, beta = (2, 3, 5, 4), 7
    tail = (3,) + (1,) * beta
    groups = [((a,), (a,)) for a in alphas] + [(tail, tail)]
    monkeypatch.setattr(Fraction, "__new__", counted)
    inst = Instance.build(groups, beta + 2)
    reads = (inst.columns, inst.units, inst.profit_units, inst.normalized,
             inst.m0)
    reduction, point = build_partition_reduction(alphas, beta)
    again = Point.from_scaled(*point.scaled)
    row = knapsack_row(inst)
    cut = LinearInequality.from_scaled(
        2, 6, ((VarRef(1, 1), 2), (VarRef(5, 2), 4)))
    texts = serialize_inequality(cut), serialize_inequality(row)
    unsorted = Instance.build([((1, 5), (1, 5)), ((3,), (3,))], 4)
    resorted, perms = normalize(unsorted)
    monkeypatch.undo()
    assert made == []
    assert perms == ((2, 1), (1,)) and resorted.capacity_form == (1, (4,))
    assert resorted.groups[0].weight_form == (1, (5, 1))
    assert reads[1:] == (
        (1, ((2,), (3,), (5,), (4,), tail), beta + 2),
        (1, alphas + tail), True, frozenset({1, 2, 3, 4}))
    assert reads[1][1][-1] is inst.groups[-1].weight_form[1]
    assert reduction == inst and again == point and again.scaled[0] == 42
    assert row.scaled == (1, beta + 2, tuple(zip(inst.columns, alphas + tail)))
    assert texts[0] == "ineq 1\nrhs 3\nterm 1 1 1\nterm 5 2 2\n"
    assert texts[1].startswith("ineq 1\nrhs 9\nterm 1 1 2\nterm 2 1 3\n")


def test_fractional_candidates_and_rational_texts_make_no_fraction(
        monkeypatch):
    """The oracle reduces each fractional candidate room / a by a gcd, and
    a cut of scale 3 and a rational point print through
    ``numeric.format_ratio``: neither makes a ``Fraction``.  Each
    candidate's form is in lowest terms, as a Fraction's would be."""
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    inst = make_instance([(6, 4), (9, 3), (2,)], 10)
    cut = LinearInequality.from_scaled(
        3, 7, ((VarRef(1, 1), 2), (VarRef(2, 2), 3), (VarRef(3, 1), -4)))
    point = Point.from_scaled(6, ((VarRef(1, 1), 3), (VarRef(2, 1), 2)))
    monkeypatch.setattr(Fraction, "__new__", counted)
    vertices = oracle.enumerate_candidate_vertices(inst)
    texts = serialize_inequality(cut), serialize_point(point)
    monkeypatch.undo()
    assert made == []
    assert sum(den > 1 for den in vertices.dens) >= 5
    for k, den in enumerate(vertices.dens):
        assert gcd(den, *(column[k] for column in vertices.columns)) == 1
    assert texts == ("ineq 1\nrhs 7/3\nterm 1 1 2/3\nterm 2 2 1\n"
                     "term 3 1 -4/3\n",
                     "point 1\nval 1 1 1/2\nval 2 1 1/3\n")


def _native(values):
    """``values`` (Fractions) as ints where integral."""
    return tuple(v.numerator if v.denominator == 1 else v for v in values)


def _texts(values):
    """``values`` (Fractions) as ``p/q`` strings, not in lowest terms."""
    return tuple("%d/%d" % (2 * v.numerator, 2 * v.denominator)
                 for v in values)


def test_integer_forms_are_those_of_the_fraction_views():
    """Over seeded integral and rational instances: ``units`` and
    ``profit_units`` are ``numeric.integer_form`` of the Fraction views,
    ``weights`` and ``profits`` are tuples of Fractions, and a group or an
    instance built from ints, from Fractions or from ``p/q`` strings of
    the same values is equal and hashes equal."""
    rng = random.Random(3541)
    for draw in range(300):
        inst = (random_instance if draw % 2 else rational_instance)(rng)
        scale, (capacity, *weights) = integer_form(
            chain((inst.capacity,), *(g.weights for g in inst.groups)))
        flat = iter(weights)
        rows = tuple(tuple(islice(flat, g.size)) for g in inst.groups)
        assert inst.units == (scale, rows, capacity)
        scale, costs = integer_form(
            chain.from_iterable(g.profits for g in inst.groups))
        assert inst.profit_units == (scale, tuple(costs))
        data = [(g.weights, g.profits) for g in inst.groups]
        for view in chain.from_iterable(data):
            assert type(view) is tuple
            assert all(type(v) is Fraction for v in view)
        for convert in (_native, tuple, _texts):
            groups = [Group(convert(w), convert(c)) for w, c in data]
            assert groups == list(inst.groups)
            assert list(map(hash, groups)) == list(map(hash, inst.groups))
            other = Instance(groups, convert((inst.capacity,))[0])
            assert other == inst and hash(other) == hash(inst)
            assert normalize(other) == normalize(inst)


def test_one_stored_form_is_equality_by_value():
    """Over 300 seeded draws of the integral and the rational corpus'
    values: a Point or LinearInequality of Fractions equals, and hashes
    as, the one ``from_scaled`` makes of its integer form times a random
    k >= 1.  That form is all either stores, its scale and ints have gcd
    1, and the views give back the Fractions given, zeros dropped.  The
    knapsack row, made from ``Instance.units``, equals the inequality of
    the instance's Fraction weights and capacity."""
    rng = random.Random(3707)
    rational = 0
    for n in range(300):
        inst = (random_instance if n % 2 else rational_instance)(rng)
        values = [v for g in inst.groups for v in g.weights + g.profits]
        top = max(values) + 1
        xs = [(r, rng.choice(values) / top) for r in inst.columns]
        cs = [(r, rng.choice((1, -1)) * rng.choice(values))
              for r in inst.columns]
        k = rng.randint(1, 40)
        point, q = Point(xs), LinearInequality(cs, inst.capacity)
        (scale, entries), (unit, rhs, terms) = point.scaled, q.scaled
        assert gcd(scale, *(x for _, x in entries)) == 1
        assert gcd(unit, rhs, *(c for _, c in terms)) == 1
        made = Point.from_scaled(k * scale, [(r, k * x) for r, x in entries])
        made_q = LinearInequality.from_scaled(
            k * unit, k * rhs, [(r, k * c) for r, c in terms])
        assert made == point and hash(made) == hash(point)
        assert made_q == q and hash(made_q) == hash(q)
        assert made.entries == point.entries == tuple(
            (r, x) for r, x in xs if x)
        assert made_q.terms == q.terms == tuple((r, c) for r, c in cs if c)
        assert made_q.rhs == q.rhs == inst.capacity
        assert knapsack_row(inst) == LinearInequality(
            zip(inst.columns, chain.from_iterable(g.weights
                                                  for g in inst.groups)),
            inst.capacity)
        rational += scale > 1 and unit > 1
    assert rational >= 100
    assert Point.__slots__ == LinearInequality.__slots__ == ("scaled",)
    assert Group.__slots__ == ("weight_form", "profit_form")


def _random_point(rng, inst):
    return Point([(r, Fraction(rng.randint(0, 6), rng.randint(6, 9)))
                  for r in inst.columns if rng.random() < 0.6])


def _doubled(scaled):
    scale, entries = scaled
    return 2 * scale, tuple((r, 2 * x) for r, x in entries)


def test_point_from_scaled_equals_the_fraction_point():
    """``Point.from_scaled`` of a point's integer form, in lowest terms or
    doubled, is the Point of the same Fractions, its ``scaled`` included:
    on random points of the rational corpus and on node LP solutions of
    the closed form and the simplex."""
    rng = random.Random(7373)
    seen = {"closed form": 0, "simplex": 0, "rational point": 0}
    for n in range(120):
        inst = rational_instance(rng)
        point = _random_point(rng, inst)
        problem = simplex.LpProblem(inst)
        if n % 2:  # a cut row, so the simplex solves, not the closed form
            problem = problem.with_row(
                LinearInequality({list(inst.columns)[0]: 1}, 1))
        solution = simplex.solve_lp(problem, spans=problem.spans)
        scale, entries = solution.scaled
        fractions = Point([(r, Fraction(x, scale)) for r, x in entries])
        for want, form in ((point, point.scaled),
                           (fractions, solution.scaled)):
            for given in (form, _doubled(form)):
                made = Point.from_scaled(*given)
                assert made == want and made.entries == want.entries
                assert made.scaled == want.scaled
                assert hash(made) == hash(want)
        assert solution.point.scaled == fractions.scaled
        seen["simplex" if problem.cut_rows else "closed form"] += 1
        seen["rational point"] += point.scaled[0] > 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("scale, entries, match", [
    (2, ((VarRef(2, 1), 1), (VarRef(1, 1), 1)), "strictly increasing"),
    (2, ((VarRef(1, 1), 1), (VarRef(1, 1), 1)), "strictly increasing"),
    (2, ((VarRef(1, 1), 0),), "not a point entry"),
    (2, ((VarRef(1, 1), 3),), "not a point entry"),
    (2, ((VarRef(1, 1), True),), "not a point entry"),
    (2, ((VarRef(1, 1), 1.0),), "not a point entry"),
    (0, (), "not a point scale"),
    (0, ((VarRef(1, 1), 0),), "not a point scale"),
    (2.0, ((VarRef(1, 1), 1),), "not a point scale"),
    (True, ((VarRef(1, 1), 1),), "not a point scale"),
    (2, (((1, 1), 1),), "not a point entry"),
    (2, ((VarRef(True, 1), 1),), "not a point entry"),
], ids=["unsorted", "duplicate", "X=0", "X>D", "bool X", "float X", "D=0",
        "D=0 with an entry", "float D", "bool D", "pair ref", "bool group"])
def test_point_from_scaled_rejects_a_bad_form(scale, entries, match):
    with pytest.raises(ValidationError, match=match):
        Point.from_scaled(scale, entries)


def test_inequality_from_scaled_reduces_its_form():
    """A form given times 2 or times 6 is divided by the common gcd, down
    to what the Fraction constructor computes, terms, rhs and hash
    included; a form already in lowest terms is kept as given."""
    terms = ((VarRef(1, 1), 4), (VarRef(2, 3), -6), (VarRef(5, 1), 10))
    want = LinearInequality({(1, 1): Fraction(2, 3), (2, 3): -1,
                             (5, 1): Fraction(5, 3)}, Fraction(7, 3))
    assert want.scaled == (3, 7, ((VarRef(1, 1), 2), (VarRef(2, 3), -3),
                                  (VarRef(5, 1), 5)))
    for factor in (1, 3):
        made = LinearInequality.from_scaled(
            6 * factor, 14 * factor,
            tuple((ref, c * factor) for ref, c in terms))
        assert made == want and hash(made) == hash(want)
        assert (made.terms, made.rhs, made.scaled) == (
            want.terms, want.rhs, want.scaled)
    kept = LinearInequality.from_scaled(1, 4, ((VarRef(1, 1), 2),))
    assert kept.scaled == (1, 4, ((VarRef(1, 1), 2),))
    assert kept.scaled == LinearInequality({(1, 1): 2}, 4).scaled
    empty = LinearInequality.from_scaled(4, -2, ())
    assert empty.scaled == (2, -1, ()) and empty == LinearInequality({}, "-1/2")


@pytest.mark.parametrize("unit, rhs, terms, match", [
    (True, 1, ((VarRef(1, 1), 1),), "scale and rhs"),
    (0, 1, ((VarRef(1, 1), 1),), "scale and rhs"),
    (-2, 1, ((VarRef(1, 1), 1),), "scale and rhs"),
    (2.0, 1, ((VarRef(1, 1), 1),), "scale and rhs"),
    (2, 1.0, ((VarRef(1, 1), 1),), "scale and rhs"),
    (2, Fraction(1), ((VarRef(1, 1), 1),), "scale and rhs"),
    (2, 1, ((VarRef(1, 1), 1.0),), "not an inequality term"),
    (2, 1, ((VarRef(1, 1), Fraction(1)),), "not an inequality term"),
    (2, 1, ((VarRef(1, 1), True),), "not an inequality term"),
    (2, 1, ((VarRef(1, 1), 0),), "not an inequality term"),
    (2, 1, ((VarRef(1, 1), 1), (VarRef(2, 1), 0)), "not an inequality term"),
    (2, 1, ((VarRef(2, 1), 1), (VarRef(1, 1), 1)), "strictly increasing"),
    (2, 1, ((VarRef(1, 1), 1), (VarRef(1, 1), 1)), "strictly increasing"),
    (2, 1, (((1, 1), 1),), "not an inequality term"),
    (2, 1, ((VarRef(True, 1), 1),), "not an inequality term"),
], ids=["bool unit", "zero unit", "negative unit", "float unit", "float rhs",
        "Fraction rhs", "float coefficient", "Fraction coefficient",
        "bool coefficient", "zero coefficient", "zero after a term",
        "unsorted", "repeated", "pair ref", "bool group"])
def test_inequality_from_scaled_rejects_a_bad_form(unit, rhs, terms, match):
    with pytest.raises(ValidationError, match=match):
        LinearInequality.from_scaled(unit, rhs, terms)


def _reference_lhs(inequality, point):
    """The lhs of ``inequality`` at ``point`` as a Fraction sum over the
    inequality's Fraction terms and the point's Fraction values."""
    scale, xs = point.scaled
    values = {ref: Fraction(x, scale) for ref, x in xs}
    return sum((c * values.get(ref, 0) for ref, c in inequality.terms),
               Fraction(0))


def test_lhs_at_matches_a_fraction_sum():
    """The integer lhs_at equals the Fraction sum, and less the rhs the
    violation, on rational data with zero coefficients, for inequalities
    built from Fractions and from their integer form (as given and
    doubled), at Points, at Point.from_scaled points and at node LP
    solutions of the closed form and the simplex."""
    rng = random.Random(6161)
    seen = {"zero coefficient": 0, "rational row": 0, "rational point": 0,
            "closed form": 0, "simplex": 0, "nonzero lhs": 0}
    for n in range(120):
        inst = rational_instance(rng)
        refs = list(inst.columns)
        coeffs = [(r, rng.choice((0, Fraction(rng.randint(-40, 40),
                                               rng.randint(1, 9)))))
                  for r in refs if rng.random() < 0.8]
        rhs = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        row = LinearInequality(coeffs, rhs)
        unit, top, terms = row.scaled
        rows = (row, LinearInequality.from_scaled(unit, top, terms),
                LinearInequality.from_scaled(
                    2 * unit, 2 * top, tuple((r, 2 * c) for r, c in terms)))
        point = Point([(r, Fraction(rng.randint(0, 6), rng.randint(6, 9)))
                       for r in refs if rng.random() < 0.6])
        problem = simplex.LpProblem(inst)
        if n % 2:  # a cut row, so the simplex solves, not the closed form
            problem = problem.with_row(LinearInequality({refs[0]: 1}, 1))
        solution = simplex.solve_lp(problem, spans=problem.spans)
        points = (point, Point.from_scaled(*point.scaled), solution,
                  solution.point)
        for inequality in rows:
            assert inequality == row
            for p in points:
                want = _reference_lhs(row, p)
                assert lhs_at(inequality, p) == want
                assert lhs_at(inequality, p) - inequality.rhs == want - rhs
                seen["nonzero lhs"] += want != 0
        seen["zero coefficient"] += any(c == 0 for _, c in coeffs)
        seen["rational row"] += unit > 1
        seen["rational point"] += point.scaled[0] > 1
        seen["simplex" if problem.cut_rows else "closed form"] += 1
    assert min(seen.values()) >= 20, seen


def test_zero_point():
    assert Point().entries == () and Point().scaled == (1, ())
    assert profit_of(make_instance([(3,)], 2), Point()) == 0


def test_inequality_drops_zero_terms():
    q = LinearInequality([(VarRef(1, 1), 0), (VarRef(2, 1), 3)], 4)
    assert q.terms == ((VarRef(2, 1), 3),)
    assert q.scaled == (1, 4, ((VarRef(2, 1), 3),))


def test_lhs_at_of_the_knapsack_row(ex_a):
    q = knapsack_row(ex_a)
    p = Point([(VarRef(3, 1), 1), (VarRef(4, 1), 1)])
    assert lhs_at(q, p) == 18
    assert lhs_at(q, p) - q.rhs == Fraction(-3)


def test_weight_profit_helpers(ex_a):
    p = Point([(VarRef(4, 2), Fraction(1, 2)), (VarRef(1, 1), 1)])
    assert weight_of(ex_a, p) == 5
    assert profit_of(ex_a, p) == 5


def test_complementarity_violations(ex_a):
    ok = Point([(VarRef(4, 1), 1), (VarRef(5, 2), Fraction(1, 3))])
    assert complementarity_violations(ok) == []
    bad = Point([(VarRef(4, 1), 1), (VarRef(4, 2), Fraction(1, 4)),
                 (VarRef(5, 1), 1), (VarRef(5, 2), 1)])
    assert complementarity_violations(bad) == [4, 5]


def test_feasibility_predicates(ex_a):
    inside = Point([(VarRef(4, 1), 1), (VarRef(3, 1), 1)])
    assert weight_of(ex_a, inside) <= ex_a.capacity
    assert is_feasible(ex_a, inside)
    two_slots = Point([(VarRef(4, 1), Fraction(1, 2)), (VarRef(4, 2), Fraction(1, 2))])
    assert weight_of(ex_a, two_slots) <= ex_a.capacity
    assert not is_feasible(ex_a, two_slots)
    heavy = Point([(VarRef(1, 1), 1), (VarRef(2, 1), 1), (VarRef(3, 1), 1),
                   (VarRef(4, 1), 1)])
    assert weight_of(ex_a, heavy) > ex_a.capacity
    assert not is_feasible(ex_a, heavy)


def test_is_feasible_finds_a_shared_group_in_unsorted_refs(ex_a):
    """A raw integer form, refs out of order, with group 4 twice apart."""
    form = SimpleNamespace(scaled=(2, ((VarRef(4, 1), 1), (VarRef(3, 1), 1),
                                       (VarRef(4, 2), 1))))
    assert weight_of(ex_a, form) <= ex_a.capacity
    assert complementarity_violations(form) == [4]
    assert not is_feasible(ex_a, form)


class TestNormalize:
    def test_sorts_within_groups(self):
        inst = Instance.build([((6, 10), (6, 10)), ((4, 4), (1, 2))], 12)
        out, perms = normalize(inst)
        assert out.groups[0].weights == (Fraction(10), Fraction(6))
        assert perms[0] == (2, 1)
        # equal weights fall back to profit-descending
        assert out.groups[1].profits == (Fraction(2), Fraction(1))
        assert perms[1] == (2, 1)

    def test_identity_when_already_sorted(self, ex_a):
        out, perms = normalize(ex_a)
        assert out == ex_a
        assert perms == ((1,), (1,), (1,), (1, 2), (1, 2))
        assert out.normalized

    def test_sorted_data_is_returned_as_it_is(self, ex_a):
        """On sorted data ``normalize`` returns the instance itself, so a
        sorted file is built once; unsorted data is rebuilt."""
        rng = random.Random(4141)
        for inst in [ex_a] + [random_instance(rng) for _ in range(20)] + [
                rational_instance(rng) for _ in range(20)]:
            assert normalize(inst)[0] is inst
        unsorted = Instance.build([((6, 10), (6, 10))], 12)
        out, perms = normalize(unsorted)
        assert out is not unsorted and perms == ((2, 1),)

    def test_rejects_negative_data(self):
        with pytest.raises(ValidationError):
            normalize(Instance.build([((-2,), (1,))], 5))
        with pytest.raises(ValidationError):
            normalize(Instance.build([((2,), (-1,))], 5))
        with pytest.raises(ValidationError):
            normalize(Instance.build([((2,), (1,))], -1))
        # zero capacity is legal at this layer (the LP still makes sense)
        normalize(Instance.build([((2,), (1,))], 0))


class TestAssumptions:
    def test_all_pass(self, ex_a):
        report = validate_assumptions(ex_a)
        assert report.m0 == frozenset({1, 2, 3})
        assert report.assumption1 and report.assumption2
        assert report.trivial_value is None

    def test_capacity_not_binding(self):
        inst = make_instance([(2,), (3, 1)], 10)  # heaviest picks weigh 5 < 10
        report = validate_assumptions(inst)
        assert not report.assumption2
        assert report.trivial_value == 5
        assert is_feasible(inst, report.trivial_point)
        assert profit_of(inst, report.trivial_point) == 5

    def test_all_singletons(self):
        inst = make_instance([(2,), (3,)], 4)
        report = validate_assumptions(inst)
        assert not report.assumption1
        assert report.m0 == frozenset({1, 2})

    def test_requires_normalized(self):
        inst = Instance.build([((1, 5), (1, 5))], 4)
        with pytest.raises(PreconditionError):
            validate_assumptions(inst)
