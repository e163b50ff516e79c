"""Shared fixtures: the worked examples used throughout the docs plus corpus helpers."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from ckp import cuts, oracle
from ckp.cuts import (ItemSet, lifted_cover_inequality_1,
                      lifted_cover_inequality_2, pack_inequality_1,
                      pack_inequality_2, pack_inequality_3)
from ckp.errors import PreconditionError
from ckp.model import Instance, LinearInequality, VarRef, lhs_at
from ckp.numeric import affine_rank


def make_instance(weights_by_group, capacity):
    """Build an instance with profits equal to weights (the usual fixture choice)."""
    groups = [(tuple(ws), tuple(ws)) for ws in weights_by_group]
    return Instance.build(groups, capacity)


# Three hand-checked instances that most of the suite leans on.  Weights double
# as profits so that optimal values stay easy to verify on paper.

@pytest.fixture
def ex_a():
    # d=7, capacity 21; two multi-slot groups
    return make_instance([(2,), (4,), (8,), (10, 6), (8, 4)], 21)


@pytest.fixture
def ex_b():
    # d=7, capacity 22; the instance whose second pack cut is *not* a facet
    return make_instance([(2,), (14, 10), (13, 9), (9, 6)], 22)


@pytest.fixture
def ex_c():
    # d=8, capacity 36; fractional-coefficient pack cuts live here
    return make_instance([(1,), (6,), (14, 10), (13, 9), (12, 8)], 36)


def random_instance(rng, max_groups=5, max_slots=3, max_weight=20, profits="weights"):
    """Random normalized instance satisfying the standing assumptions.

    Weights are positive integers <= max_weight, groups sorted
    weight-descending, and the capacity splits the extremes: at least one
    multi-slot group (so complementarity matters) and the heaviest
    single-item-per-group selection overflows the knapsack.  With
    profits="random" the objective is drawn independently of the weights,
    which makes branching far more likely.
    """
    while True:
        m = rng.randint(2, max_groups)
        sizes = [rng.randint(1, max_slots) for _ in range(m)]
        if all(s == 1 for s in sizes):
            sizes[rng.randrange(m)] = rng.randint(2, max_slots)
        groups = []
        for size in sizes:
            pairs = [(rng.randint(1, max_weight), rng.randint(1, max_weight))
                     for _ in range(size)]
            pairs.sort(key=lambda t: (-t[0], -t[1]))
            ws = tuple(p[0] for p in pairs)
            cs = tuple(p[1] for p in pairs) if profits == "random" else ws
            groups.append((ws, cs))
        heaviest = sum(g[0][0] for g in groups)
        if heaviest < 2:
            continue
        b = rng.randint(1, heaviest - 1)
        inst = Instance.build(groups, Fraction(b))
        return inst


def rational_instance(rng):
    """Small instance with rational and zero weights and repeated ratios."""
    groups = []
    for _ in range(rng.randint(2, 4)):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            a = rng.choice((Fraction(0), Fraction(rng.randint(1, 12)),
                            Fraction(rng.randint(1, 30), rng.randint(2, 5))))
            c = (a * rng.choice((1, 2)) if rng.random() < 0.4
                 else Fraction(rng.randint(0, 20), rng.randint(1, 3)))
            pairs.append((a, c))
        pairs.sort(key=lambda t: (-t[0], -t[1]))
        groups.append((tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)))
    heaviest = sum(max(g[0]) for g in groups)
    capacity = heaviest * Fraction(rng.randint(0, 12), 12)
    return Instance.build(groups, capacity)


def tilt_pack_inequality(instance, cut, tilt_group):
    """Apply the tilting steps to a pack2 cut, independent of the library's
    pack3 closed form: shrink the singleton's coefficient, grow the other
    non-singleton pack items, scale the rhs slack.  The reference that
    ``pack_inequality_3`` is checked against."""
    if cut.family != "pack2":
        raise PreconditionError("tilting starts from a pack2 cut")
    m0 = instance.singleton_groups()
    if tilt_group not in m0 or tilt_group not in set(cut.items.groups()):
        raise PreconditionError(
            "tilt group %d is not a singleton pack group" % tilt_group)
    b = instance.capacity
    s = cut.items.weight(instance)
    slack = b - s
    denom = instance.weight(cut.pivot) + slack
    tilt_ref = VarRef(tilt_group, 1)
    factor = instance.weight(tilt_ref) / denom
    coeffs = dict(cut.inequality.terms)
    coeffs[tilt_ref] = coeffs.get(tilt_ref, Fraction(0)) - slack * factor
    for ref in cut.items:
        if ref.group not in m0 and ref.group != cut.pivot.group:
            coeffs[ref] += slack * factor
    free = [i for i in cut.items.groups() if i not in m0]
    rhs = cut.inequality.rhs + (len(free) - 2) * slack * factor
    return LinearInequality(coeffs, rhs)


def family_cuts(instance: Instance, itemset: ItemSet, families):
    """Every member of ``families`` that one item set gives, in order.

    Pass pack families for a pack and cover families for a cover.  Per
    family: ``pack1`` once; ``pack2`` once per non-singleton last-slot
    pivot and ``pack3`` once per such pivot and singleton tilt group, both
    only when the pack has two non-singleton groups; ``lcover1`` once and
    ``lcover2`` once per in-cover item above its group's last slot, each
    skipped when its lifting condition fails.  The build-every-member
    reference that ``cuts.family_scores``, the library's member list, is
    checked against.
    """
    if "pack1" in families:
        yield pack_inequality_1(instance, itemset)
    if "pack2" in families or "pack3" in families:
        m0 = instance.singleton_groups()
        groups = itemset.groups()
        if len([i for i in groups if i not in m0]) >= 2:
            singles = sorted(i for i in groups if i in m0)
            for pivot in itemset:
                if pivot.group in m0 or pivot.slot != instance.slots(pivot.group):
                    continue
                if "pack2" in families:
                    yield pack_inequality_2(instance, itemset, pivot)
                if "pack3" in families:
                    for tilt in singles:
                        yield pack_inequality_3(instance, itemset, pivot, tilt)
    if "lcover1" in families:
        try:
            cut = lifted_cover_inequality_1(instance, itemset)
        except PreconditionError:
            pass
        else:
            yield cut
    if "lcover2" in families:
        for special in itemset:
            if special.slot >= instance.slots(special.group):
                continue
            try:
                cut = lifted_cover_inequality_2(instance, itemset, special)
            except PreconditionError:
                continue
            yield cut


def reference_face_dimension(instance, inequality, limit=None):
    """Face dimension by one maximization over S and one enumeration per
    inequality: validity from ``oracle.check_validity``, then the affine
    rank of the tight candidates as Fraction vectors.  The reference that
    ``oracle.VertexSet.face_dimension`` is checked against."""
    result = oracle.check_validity(instance, inequality, limit)
    if not result.valid:
        raise PreconditionError(
            "inequality is not valid (max %s > rhs %s)"
            % (result.max_value, inequality.rhs),
            witness=result.witness)
    candidates = oracle.enumerate_candidate_vertices(instance, limit).points
    rhs = inequality.rhs
    tight = (p for p in candidates if lhs_at(inequality, p) == rhs)
    refs = instance.refs()
    cap = instance.dimension - 1 if inequality.terms else instance.dimension
    vectors = (tuple(p.value(r) for r in refs) for p in tight)
    return affine_rank(vectors, cap)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def small_corpus(rng):
    """A couple dozen random instances for cheap property checks."""
    return [random_instance(rng) for _ in range(25)]


CUT_BUILDERS = ("pack_inequality_1", "pack_inequality_2", "pack_inequality_3",
                "lifted_cover_inequality_1", "lifted_cover_inequality_2")


@pytest.fixture
def built(monkeypatch):
    """Successful calls per cut builder, counted through ``ckp.cuts``' module
    names (where the benchmark's tracer wraps them as ``cuts.build``); the
    calls that raised are counted per builder in ``built.raised``."""
    counts = Counter()
    counts.raised = Counter()

    def counting(name, builder):
        def wrapper(*args, **kwargs):
            try:
                cut = builder(*args, **kwargs)
            except Exception:
                counts.raised[name] += 1
                raise
            counts[name] += 1
            return cut
        return wrapper

    for name in CUT_BUILDERS:
        monkeypatch.setattr(cuts, name, counting(name, getattr(cuts, name)))
    return counts
