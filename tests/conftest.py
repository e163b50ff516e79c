"""Shared fixtures: the worked examples used throughout the docs plus corpus helpers."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from ckp import cuts
from ckp.model import Instance


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
    names (where the benchmark's tracer wraps them as ``cuts.build``)."""
    counts = Counter()

    def counting(name, builder):
        def wrapper(*args, **kwargs):
            cut = builder(*args, **kwargs)
            counts[name] += 1
            return cut
        return wrapper

    for name in CUT_BUILDERS:
        monkeypatch.setattr(cuts, name, counting(name, getattr(cuts, name)))
    return counts
