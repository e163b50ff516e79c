"""Cut generators against hand-checked expected inequalities.

Expected strings were verified independently: every cut below was re-derived
on paper from the instance data and confirmed valid/facet by the enumeration
oracle before being frozen here.
"""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ckp.cli import _iter_family_cuts
from ckp.errors import PreconditionError, ResourceLimitError, ValidationError
from ckp.fileio import serialize_inequality
from ckp.model import Instance, LinearInequality, Point, VarRef
from ckp import cuts, oracle
from ckp.separation import separate_exact

from conftest import (is_cover, is_pack, itemset_weight, iter_patterns,
                      make_instance, random_instance, rational_instance,
                      reference_is_maximal_switching_pack, tilt_pack_inequality)


def refs(*pairs):
    """The item set of ``pairs`` in its one form, the sorted VarRef tuple."""
    return tuple(sorted(VarRef(i, j) for i, j in pairs))


def text_of(cut):
    return serialize_inequality(cut.inequality)


# --- item sets ---

# On ex_a (b = 21): a maximal switching pack of weight 20 and a cover of
# weight 22 whose (4,1) lifts; each builder's pivot, tilt or special.
PACK = [(5, 2), (1, 1), (4, 2), (3, 1)]
COVER = [(4, 1), (2, 1), (3, 1)]
TAKERS = [
    pytest.param(cuts.pack_inequality_1, PACK, (), id="pack1"),
    pytest.param(cuts.pack_inequality_2, PACK, ((4, 2),), id="pack2"),
    pytest.param(cuts.pack_inequality_3, PACK, ((4, 2), 1), id="pack3"),
    pytest.param(cuts.lifted_cover_inequality_1, COVER, (), id="lcover1"),
    pytest.param(cuts.lifted_cover_inequality_2, COVER, ((4, 1),),
                 id="lcover2"),
    pytest.param(cuts.is_maximal_switching_pack, PACK, (), id="msp"),
]


@pytest.mark.parametrize("build,pairs,args", TAKERS)
def test_item_sets_taken_in_any_order(ex_a, build, pairs, args):
    # unsorted (group, slot) pairs and a pair as pivot or special give what
    # the sorted VarRef tuple and VarRefs give; a cut keeps the tuple
    canonical = refs(*pairs)
    refs_args = tuple(VarRef(*a) if isinstance(a, tuple) else a for a in args)
    assert canonical != tuple(pairs)
    got = build(ex_a, pairs, *args)
    assert got == build(ex_a, canonical, *refs_args)
    assert got == build(ex_a, iter(reversed(canonical)), *refs_args)
    if build is cuts.is_maximal_switching_pack:
        assert got is True
    else:
        assert got.items == canonical


@pytest.mark.parametrize("build,pairs,args", TAKERS)
def test_item_sets_validated(ex_a, build, pairs, args):
    first, rest = pairs[0], pairs[1:]
    other_slot = 3 - dict(pairs)[4]  # group 4 has two slots
    bad = [
        ([], "item set is empty"),
        (pairs + [(4, other_slot)], "item set repeats a group"),
        (pairs + [(6, 1)], "out of range"),
        ([p for p in pairs if p[0] != 4] + [(4, 3)], "out of range"),
        ([(first[0], True)] + rest, "not a variable index"),
        ([(True, first[1])] + rest, "not a variable index"),
        ([(first[0], 1.0)] + rest, "not a variable index"),
        ([VarRef(first[0], 1.0)] + rest, "not a variable index"),
        ([first[0]] + rest, "not a variable"),
    ]
    for items, message in bad:
        with pytest.raises(ValidationError, match=message):
            build(ex_a, items, *args)
    if args and isinstance(args[0], tuple):  # a pivot or special item
        group = args[0][0]
        for ref in ((group, True), (group, 2.0), VarRef(group, True)):
            with pytest.raises(ValidationError, match="not a variable index"):
                build(ex_a, pairs, ref, *args[1:])
    if build is cuts.pack_inequality_3:  # a tilt group is an int, not a bool
        for tilt in (True, 1.0):
            with pytest.raises(ValidationError, match="tilt group must be an integer"):
                build(ex_a, pairs, *args[:-1], tilt)


def test_pack_cover_strict(ex_a):
    assert is_pack(ex_a, refs((1, 1), (3, 1)))
    assert is_cover(ex_a, refs((3, 1), (4, 1), (5, 1)))
    inst = make_instance([(2,), (19, 5)], 21)
    exact = refs((1, 1), (2, 1))  # 2+19 == 21 == b: neither pack nor cover
    assert not is_pack(inst, exact)
    assert not is_cover(inst, exact)


@given(st.sets(st.integers(1, 5), min_size=1))
def test_pack_cover_trichotomy(groups):
    inst = make_instance([(3,), (5,), (7,), (11, 2), (13, 2)], 17)
    s = refs(*((i, 1) for i in sorted(groups)))
    w = itemset_weight(inst, s)
    assert is_pack(inst, s) == (w < 17)
    assert is_cover(inst, s) == (w > 17)


# --- maximal switching packs ---

def test_msp_examples(ex_a):
    p1 = refs((1, 1), (3, 1), (4, 2), (5, 2))
    assert cuts.is_maximal_switching_pack(ex_a, p1)
    # dropping the group-3 item breaks the swap condition
    assert not cuts.is_maximal_switching_pack(ex_a, refs((1, 1), (4, 2), (5, 2)))
    # an item above its group's last slot disqualifies the set outright
    assert not cuts.is_maximal_switching_pack(ex_a, refs((1, 1), (4, 1)))


def test_msp_vacuous_when_all_singletons():
    inst = make_instance([(1,), (1,), (2, 1)], 3)
    assert cuts.is_maximal_switching_pack(inst, refs((1, 1), (2, 1)))
    assert cuts.is_maximal_switching_pack(inst, refs((1, 1)))


def test_enumerate_msps(ex_a, ex_b):
    got = cuts.enumerate_maximal_switching_packs(ex_b)
    assert got == [
        (VarRef(1, 1),),
        (VarRef(1, 1), VarRef(2, 2), VarRef(3, 2)),
        (VarRef(2, 2), VarRef(3, 2)),
    ]
    all_a = cuts.enumerate_maximal_switching_packs(ex_a)
    assert len(all_a) == 12
    for s in all_a:
        assert cuts.is_maximal_switching_pack(ex_a, s)
    # output is sorted, duplicate-free, and in lexicographic subset order
    assert all(type(s) is tuple for s in all_a)
    assert all_a == sorted(set(all_a))


def test_msp_enumeration_guarded(ex_a):
    # the subset space 2^m is guarded by the one enumeration guard
    with pytest.raises(ResourceLimitError) as err:
        cuts.enumerate_maximal_switching_packs(ex_a, limit=31)
    assert str(err.value) == "subset space 2^5 exceeds enumeration limit 31"
    assert err.value.estimate == 32
    assert len(cuts.enumerate_maximal_switching_packs(ex_a, limit=32)) == 12


def test_msp_test_matches_fractions():
    """The integer slack-versus-gap test agrees with the Fraction test on
    every last-slot subset and every one-slot-per-group item set, on
    rational and zero weights, and the enumeration keeps exactly the
    subsets the Fraction test accepts."""
    rng = random.Random(6031)
    accepted = rejected = 0
    for n in range(60):
        inst = rational_instance(rng) if n % 2 else random_instance(rng)
        packs = []
        for pattern in iter_patterns(inst):
            chosen = [VarRef(i, j) for i, j in enumerate(pattern, start=1) if j]
            if not chosen:
                continue
            itemset = tuple(chosen)
            expected = reference_is_maximal_switching_pack(inst, itemset)
            assert cuts.is_maximal_switching_pack(inst, itemset) == expected
            if expected:
                packs.append(itemset)
            accepted += expected
            rejected += not expected
        got = cuts.enumerate_maximal_switching_packs(inst)
        assert got == sorted(packs, key=lambda p: tuple(r.group for r in p))
    assert accepted > 50 and rejected > 500


# --- first pack family ---

def test_pack1_frozen_cuts(ex_a, ex_b):
    cases = [
        (ex_a, refs((1, 1), (3, 1), (4, 2), (5, 2)),
         "ineq 1\nrhs 22\nterm 1 1 2\nterm 3 1 8\nterm 4 1 10\nterm 4 2 7\n"
         "term 5 1 8\nterm 5 2 5\n", True, 6),
        (ex_a, refs((3, 1), (4, 2), (5, 2)),
         "ineq 1\nrhs 24\nterm 3 1 8\nterm 4 1 10\nterm 4 2 9\n"
         "term 5 1 8\nterm 5 2 7\n", True, 6),
        (ex_b, refs((1, 1), (2, 2), (3, 2)),
         "ineq 1\nrhs 23\nterm 1 1 2\nterm 2 1 14\nterm 2 2 11\n"
         "term 3 1 13\nterm 3 2 10\n", True, 6),
        (ex_b, refs((2, 2), (3, 2)),
         "ineq 1\nrhs 25\nterm 2 1 14\nterm 2 2 13\nterm 3 1 13\n"
         "term 3 2 12\n", False, 5),
    ]
    for inst, pack, expected, facet, dim in cases:
        cut = cuts.pack_inequality_1(inst, pack)
        assert text_of(cut) == expected
        assert cut.family == "pack1"
        assert cut.facet_guaranteed == facet
        assert oracle.check_validity(inst, cut.inequality).valid
        assert oracle.face_dimension(inst, cut.inequality) == dim


def test_pack1_rejects_covers_and_exact_fits(ex_a):
    with pytest.raises(PreconditionError):
        cuts.pack_inequality_1(ex_a, refs((3, 1), (4, 1), (5, 1)))
    with pytest.raises(PreconditionError):
        cuts.pack_inequality_1(ex_a, refs((2, 1), (3, 1), (4, 1)))  # == b


def test_pack1_all_singleton_pack_is_not_facet_flagged():
    # valid but known to sit on a low-dimensional face, so the flag stays off
    inst = make_instance([(2,), (3,), (4, 1)], 6)
    cut = cuts.pack_inequality_1(inst, refs((1, 1), (2, 1)))
    assert cuts.is_maximal_switching_pack(inst, cut.items)
    assert not cut.facet_guaranteed
    assert oracle.check_validity(inst, cut.inequality).valid
    assert oracle.face_dimension(inst, cut.inequality) == 2  # d-2, not d-1


def test_pack1_coefficient_growth(ex_a):
    """In-pack items of multi-slot groups gain exactly the slack b-s."""
    pack = refs((1, 1), (3, 1), (4, 2), (5, 2))
    cut = cuts.pack_inequality_1(ex_a, pack)
    slack = 21 - itemset_weight(ex_a, pack)
    coeffs = dict(cut.inequality.terms)
    for ref in ex_a.columns:
        coeff = coeffs.get(ref, 0)
        if ref.group not in {1, 3, 4, 5}:
            assert coeff == 0
        elif ref in pack and ref.group not in ex_a.m0:
            assert coeff == ex_a.weight(ref) + slack
        else:
            assert coeff == ex_a.weight(ref)


# --- second pack family (fractional coefficients) ---

PACK2_EXPECTED = {
    ("P1", (3, 2)): "ineq 1\nrhs 38\nterm 1 1 1\nterm 2 1 6\nterm 3 1 35/3\n"
                    "term 3 2 10\nterm 4 1 13\nterm 4 2 11\nterm 5 1 12\nterm 5 2 10\n",
    ("P1", (4, 2)): "ineq 1\nrhs 38\nterm 1 1 1\nterm 2 1 6\nterm 3 1 14\n"
                    "term 3 2 12\nterm 4 1 117/11\nterm 4 2 9\nterm 5 1 12\nterm 5 2 10\n",
    ("P1", (5, 2)): "ineq 1\nrhs 38\nterm 1 1 1\nterm 2 1 6\nterm 3 1 14\n"
                    "term 3 2 12\nterm 4 1 13\nterm 4 2 11\nterm 5 1 48/5\nterm 5 2 8\n",
    ("P2", (3, 2)): "ineq 1\nrhs 39\nterm 2 1 6\nterm 3 1 140/13\nterm 3 2 10\n"
                    "term 4 1 13\nterm 4 2 12\nterm 5 1 12\nterm 5 2 11\n",
    ("P2", (4, 2)): "ineq 1\nrhs 39\nterm 2 1 6\nterm 3 1 14\nterm 3 2 13\n"
                    "term 4 1 39/4\nterm 4 2 9\nterm 5 1 12\nterm 5 2 11\n",
    ("P2", (5, 2)): "ineq 1\nrhs 39\nterm 2 1 6\nterm 3 1 14\nterm 3 2 13\n"
                    "term 4 1 13\nterm 4 2 12\nterm 5 1 96/11\nterm 5 2 8\n",
}


def ex_c_packs():
    return {
        "P1": refs((1, 1), (2, 1), (3, 2), (4, 2), (5, 2)),
        "P2": refs((2, 1), (3, 2), (4, 2), (5, 2)),
    }


def test_pack2_frozen_cuts(ex_c):
    packs = ex_c_packs()
    for (label, pivot), expected in PACK2_EXPECTED.items():
        cut = cuts.pack_inequality_2(ex_c, packs[label], VarRef(*pivot))
        assert text_of(cut) == expected
        assert cut.facet_guaranteed
        assert cut.pivot == VarRef(*pivot)
        assert oracle.face_dimension(ex_c, cut.inequality) == 7  # d-1


def test_pack2_preconditions(ex_c, ex_a):
    packs = ex_c_packs()
    with pytest.raises(PreconditionError):  # pivot above last slot
        cuts.pack_inequality_2(ex_c, packs["P1"], VarRef(3, 1))
    with pytest.raises(PreconditionError):  # pivot in a singleton group
        cuts.pack_inequality_2(ex_c, packs["P1"], VarRef(1, 1))
    with pytest.raises(PreconditionError):  # pivot not a pack item
        cuts.pack_inequality_2(ex_c, packs["P2"], VarRef(1, 1))
    with pytest.raises(PreconditionError):  # needs two free groups
        cuts.pack_inequality_2(ex_a, refs((1, 1), (4, 2)), VarRef(4, 2))
    with pytest.raises(PreconditionError):  # not a pack
        cuts.pack_inequality_2(
            ex_c, refs((3, 1), (4, 1), (5, 1)), VarRef(5, 1))


def test_pack2_accepts_tuple_pivot(ex_c):
    cut = cuts.pack_inequality_2(ex_c, ex_c_packs()["P1"], (3, 2))
    assert cut.pivot == VarRef(3, 2)


# --- third pack family and the tilting identity ---

PACK3_EXPECTED = {
    (3, 2): ("ineq 1\nrhs 229/6\nterm 1 1 5/6\nterm 2 1 6\nterm 3 1 35/3\n"
             "term 3 2 10\nterm 4 1 13\nterm 4 2 67/6\nterm 5 1 12\nterm 5 2 61/6\n"),
    (4, 2): ("ineq 1\nrhs 420/11\nterm 1 1 9/11\nterm 2 1 6\nterm 3 1 14\n"
             "term 3 2 134/11\nterm 4 1 117/11\nterm 4 2 9\nterm 5 1 12\n"
             "term 5 2 112/11\n"),
    (5, 2): ("ineq 1\nrhs 191/5\nterm 1 1 4/5\nterm 2 1 6\nterm 3 1 14\n"
             "term 3 2 61/5\nterm 4 1 13\nterm 4 2 56/5\nterm 5 1 48/5\nterm 5 2 8\n"),
}


def test_pack3_frozen_cuts(ex_c):
    p1 = ex_c_packs()["P1"]
    for pivot, expected in PACK3_EXPECTED.items():
        cut = cuts.pack_inequality_3(ex_c, p1, VarRef(*pivot), tilt_group=1)
        assert text_of(cut) == expected
        assert cut.facet_guaranteed
        assert oracle.face_dimension(ex_c, cut.inequality) == 7
    # the 420/11 right-hand side is the documented 38 + 2/11
    assert cuts.pack_inequality_3(ex_c, p1, VarRef(4, 2), 1).inequality.rhs \
        == 38 + Fraction(2, 11)


def test_tilting_identity(ex_c):
    """Tilting a pivot cut must land exactly on the closed-form tilted cut."""
    packs = ex_c_packs()
    for label, pack in packs.items():
        tiltable = [r.group for r in pack
                    if r.group in ex_c.m0]
        for pivot in ((3, 2), (4, 2), (5, 2)):
            base = cuts.pack_inequality_2(ex_c, pack, VarRef(*pivot))
            for i in tiltable:
                direct = cuts.pack_inequality_3(ex_c, pack, VarRef(*pivot), i)
                assert tilt_pack_inequality(ex_c, base, i) == direct.inequality


def test_tilting_identity_random():
    """The same identity over every maximal switching pack, admissible pivot
    and singleton tilt group of seeded random instances."""
    rng = random.Random(4)
    checked = 0
    for _ in range(150):
        inst = random_instance(rng, max_groups=7, max_slots=3)
        m0 = inst.m0
        for pack in cuts.enumerate_maximal_switching_packs(inst):
            pivots = [ref for ref in pack if ref.group not in m0]
            if len(pivots) < 2:
                continue
            for pivot in pivots:
                base = cuts.pack_inequality_2(inst, pack, pivot)
                for i in sorted({r.group for r in pack} & m0):
                    direct = cuts.pack_inequality_3(inst, pack, pivot, i)
                    assert (tilt_pack_inequality(inst, base, i)
                            == direct.inequality)
                    checked += 1
    assert checked >= 200


def test_pack3_preconditions(ex_c):
    p1 = ex_c_packs()["P1"]
    with pytest.raises(PreconditionError):  # tilt group not a singleton
        cuts.pack_inequality_3(ex_c, p1, VarRef(3, 2), tilt_group=4)
    with pytest.raises(PreconditionError):  # tilt group not in the pack
        cuts.pack_inequality_3(ex_c, ex_c_packs()["P2"], VarRef(3, 2), tilt_group=1)
    base = cuts.pack_inequality_1(ex_c, p1)
    with pytest.raises(PreconditionError):  # tilting starts from a pivot cut
        tilt_pack_inequality(ex_c, base, 1)


# --- lifted cover cuts ---

def test_lcover1_frozen(ex_a):
    cover = refs((2, 1), (4, 1), (5, 1))
    cut = cuts.lifted_cover_inequality_1(ex_a, cover)
    assert text_of(cut) == ("ineq 1\nrhs 21\nterm 2 1 4\nterm 4 1 10\n"
                            "term 4 2 9\nterm 5 1 8\nterm 5 2 7\n")
    assert cut.facet_guaranteed  # every chosen slot is the first one
    assert oracle.face_dimension(ex_a, cut.inequality) == 6


def test_lcover1_needs_replaceable_item(ex_a):
    # no lighter slot below any chosen item keeps the rest within capacity
    with pytest.raises(PreconditionError) as err:
        cuts.lifted_cover_inequality_1(ex_a, refs((3, 1), (4, 1), (5, 1)))
    assert "lifting condition" in str(err.value)


def test_lcover1_rejects_packs(ex_a):
    with pytest.raises(PreconditionError):
        cuts.lifted_cover_inequality_1(ex_a, refs((1, 1), (2, 1)))


def test_lcover1_deeper_slots_lose_facet_flag(ex_a):
    cover = refs((3, 1), (4, 1), (5, 2))  # 8+10+4 == 22 > 21
    cut = cuts.lifted_cover_inequality_1(ex_a, cover)
    assert not cut.facet_guaranteed
    assert oracle.check_validity(ex_a, cut.inequality).valid


def test_lcover2_frozen(ex_a):
    cover = refs((3, 1), (4, 1), (5, 2))
    cut = cuts.lifted_cover_inequality_2(ex_a, cover, special=VarRef(4, 1))
    assert text_of(cut) == ("ineq 1\nrhs 21\nterm 3 1 8\nterm 4 1 10\n"
                            "term 4 2 9\nterm 5 1 32/7\nterm 5 2 4\n")
    assert cut.facet_guaranteed
    assert cut.special == VarRef(4, 1)
    assert oracle.face_dimension(ex_a, cut.inequality) == 6


def test_lcover2_preconditions(ex_a):
    cover = refs((3, 1), (4, 1), (5, 2))
    with pytest.raises(PreconditionError):  # special on its group's last slot
        cuts.lifted_cover_inequality_2(ex_a, cover, special=VarRef(5, 2))
    with pytest.raises(PreconditionError):  # special not in the cover
        cuts.lifted_cover_inequality_2(ex_a, cover, special=VarRef(2, 1))
    with pytest.raises(PreconditionError):  # not a cover
        cuts.lifted_cover_inequality_2(ex_a, refs((1, 1), (4, 1)), VarRef(4, 1))
    big = refs((3, 1), (4, 1), (5, 1))  # rest 16 + last-slot weight 6 >= 21
    with pytest.raises(PreconditionError) as err:
        cuts.lifted_cover_inequality_2(ex_a, big, special=VarRef(4, 1))
    assert "lifting condition" in str(err.value)


# --- preconditions on rational data, at their boundaries ---

# Scale 12: b = 7/2; group 2 has three slots and group 3 is a singleton.
RATIONAL = ([(2, Fraction(1, 2)), (3, Fraction(3, 2), Fraction(1, 3)),
             (Fraction(1, 4),)], Fraction(7, 2))
TIGHT = ((1, 1), (2, 2))  # 2 + 3/2 == 7/2 == b: neither pack nor cover
NOT_PACK = "not a pack: weight 7/2 >= capacity 7/2"
NOT_COVER = "not a cover: weight 7/2 <= capacity 7/2"
OFF_LAST = "pivot x(1,1) is not its group's last slot"


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda i: cuts.pack_inequality_1(i, refs(*TIGHT)),
                 NOT_PACK, id="pack1 s=b"),
    pytest.param(lambda i: cuts.pack_inequality_2(i, refs(*TIGHT),
                                                  VarRef(2, 2)),
                 NOT_PACK, id="pack2 s=b"),
    pytest.param(lambda i: cuts.pack_inequality_3(i, refs(*TIGHT),
                                                  VarRef(2, 2), 3),
                 NOT_PACK, id="pack3 s=b"),
    pytest.param(lambda i: cuts.lifted_cover_inequality_1(i, refs(*TIGHT)),
                 NOT_COVER, id="lcover1 s=b"),
    pytest.param(lambda i: cuts.lifted_cover_inequality_2(i, refs(*TIGHT),
                                                          VarRef(1, 1)),
                 NOT_COVER, id="lcover2 s=b"),
    # the cover 2 + 3: rest 3 and the special group's last slot 1/2 make b
    pytest.param(lambda i: cuts.lifted_cover_inequality_2(
        i, refs((1, 1), (2, 1)), VarRef(1, 1)),
        "lifting condition violated: 3 + 1/2 >= 7/2", id="lcover2 rest+last=b"),
    pytest.param(lambda i: cuts.pack_inequality_2(i, refs((1, 1), (2, 3)),
                                                  VarRef(1, 1)),
                 OFF_LAST, id="pack2 pivot off last slot"),
    pytest.param(lambda i: cuts.pack_inequality_3(
        i, refs((1, 1), (2, 3), (3, 1)), VarRef(1, 1), 3),
        OFF_LAST, id="pack3 pivot off last slot"),
])
def test_rational_boundaries_keep_their_messages(build, message):
    # tested in integer units, reported in the instance's Fractions
    instance = make_instance(*RATIONAL)
    assert instance.units[0] == 12
    with pytest.raises(PreconditionError) as err:
        build(instance)
    assert type(err.value) is PreconditionError
    assert str(err.value) == message


# --- every builder needs sorted groups ---

def test_unsorted_groups_rejected():
    # the cuts are valid only on slots by non-increasing weight: here the
    # lcover1 cut of this cover would read <= 20, yet x11 = x23 = 1,
    # x32 = 13/15 lies in S and gives its lhs 29
    inst = make_instance([(4, 9), (11, 4, 3), (4, 15, 7)], 20)
    cover = refs((1, 2), (2, 1), (3, 1))
    pack = refs((1, 2), (2, 3), (3, 3))
    assert is_cover(inst, cover) and is_pack(inst, pack)
    builds = [
        lambda: cuts.lifted_cover_inequality_1(inst, cover),
        lambda: cuts.lifted_cover_inequality_2(inst, cover, VarRef(2, 1)),
        lambda: cuts.pack_inequality_1(inst, pack),
        lambda: cuts.pack_inequality_2(inst, pack, VarRef(2, 3)),
        lambda: cuts.pack_inequality_3(inst, pack, VarRef(2, 3), 1),
    ]
    for build in builds:
        with pytest.raises(PreconditionError, match="instance is not normalized"):
            build()


def test_switching_packs_need_sorted_groups():
    # read as given, group 1's last gap is 9 - 3 = 6 > the slack 5, so
    # {(1,3), (2,1)} would pass as maximal switching; sorted, it is 5 - 3
    inst = Instance.build([((5, 9, 3), (1, 1, 1)), ((4,), (1,))], 12)
    with pytest.raises(PreconditionError, match="instance is not normalized"):
        cuts.is_maximal_switching_pack(inst, refs((1, 3), (2, 1)))
    with pytest.raises(PreconditionError, match="instance is not normalized"):
        cuts.enumerate_maximal_switching_packs(inst)


# --- bookkeeping ---

def test_describe(ex_c):
    cut = cuts.pack_inequality_2(ex_c, ex_c_packs()["P1"], VarRef(3, 2))
    assert cut.describe() == ("family: pack2; items: (1,1) (2,1) (3,2) (4,2) (5,2); "
                              "pivot: (3,2)")


def test_provenance_keys_order_families(ex_c):
    p1 = ex_c_packs()["P1"]
    generated = [
        cuts.pack_inequality_1(ex_c, p1),
        cuts.pack_inequality_2(ex_c, p1, VarRef(3, 2)),
        cuts.pack_inequality_3(ex_c, p1, VarRef(3, 2), 1),
    ]
    keys = [c.provenance_key() for c in generated]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


# --- one definition per family ---

FORMS = {"pack1": "_pack_form", "pack2": "_pack_form", "pack3": "_pack_form",
         "lcover1": "_lcover1_form", "lcover2": "_lcover2_form"}
BUILDS = {
    "pack1": lambda i: cuts.pack_inequality_1(i, refs((4, 2), (5, 2))),
    "pack2": lambda i: cuts.pack_inequality_2(i, refs((4, 2), (5, 2)),
                                              VarRef(4, 2)),
    "pack3": lambda i: cuts.pack_inequality_3(i, refs((1, 1), (4, 2), (5, 2)),
                                              VarRef(4, 2), 1),
    "lcover1": lambda i: cuts.lifted_cover_inequality_1(
        i, refs((2, 1), (4, 1), (5, 1))),
    "lcover2": lambda i: cuts.lifted_cover_inequality_2(
        i, refs((3, 1), (4, 1), (5, 2)), VarRef(4, 1)),
}


@pytest.mark.parametrize("family", cuts.FAMILIES)
def test_builder_and_scores_share_one_form(family, ex_a, monkeypatch):
    # each family's coefficients are written once, in its integer form: the
    # public builder and the separator's scores must both come from it
    calls = []
    real = getattr(cuts, FORMS[family])

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cuts, FORMS[family], counted)
    separate_exact(ex_a, Point(), family)  # scores every member, builds none
    assert calls, "family_members does not list %s by its form" % family
    del calls[:]
    BUILDS[family](ex_a)
    assert calls, "the %s builder does not build its form" % family


def test_builders_keep_the_form_of_the_fraction_inequality(ex_a, ex_b, ex_c):
    """Each cut that ``ckp cuts --family all`` lists keeps its integer form
    (``LinearInequality.from_scaled``): its terms, rhs, ``scaled``,
    equality and hash are those of the LinearInequality of its Fractions,
    and its form given back, as it is or doubled, makes the same cut; on
    the examples and the rational corpus, zero weights included."""
    rng = random.Random(2727)
    corpus = [ex_a, ex_b, ex_c] + [rational_instance(rng) for _ in range(300)]
    seen = {family: 0 for family in cuts.FAMILIES}
    rational = zero_weight = 0
    for inst in corpus:
        for cut in _iter_family_cuts(inst, cuts.FAMILIES, None):
            made = cut.inequality
            want = LinearInequality(made.terms, made.rhs)
            assert (made.terms, made.rhs, made.scaled) == (
                want.terms, want.rhs, want.scaled)
            assert made == want and hash(made) == hash(want)
            unit, rhs, terms = made.scaled
            doubled = (2 * unit, 2 * rhs, tuple((r, 2 * c) for r, c in terms))
            for form in (made.scaled, doubled):
                again = LinearInequality.from_scaled(*form)
                assert again == want and again.scaled == want.scaled
            seen[cut.family] += 1
            rational += unit > 1
        zero_weight += any(0 in g.weights for g in inst.groups)
    assert min(seen.values()) >= 50 and sum(seen.values()) >= 4000, seen
    assert rational >= 1000 and zero_weight >= 50, (rational, zero_weight)


def test_member_cut_equals_its_public_builder():
    """Every member that ``family_members`` lists over the walk of every
    family, made by ``cuts._member_cut`` from its listed form, equals the
    cut its public builder makes (``build_member``, the reference) in
    every field, on 300 seeded integral and rational instances; each
    family's facet rule is seen to hold and to fail."""
    rng = random.Random(5151)
    fields = [f.name for f in dataclasses.fields(cuts.GeneratedCut)]
    seen = Counter()
    for n in range(300):
        inst = (rational_instance(rng) if n % 2 else
                random_instance(rng, max_groups=4))
        _, rows, b = inst.normalized_units()
        for items, units in oracle.walk_patterns(inst, None, cuts.FAMILIES):
            for key, form in cuts.family_members(rows, b, items, units,
                                                 cuts.FAMILIES):
                cut = cuts._member_cut(inst, key, form)
                want = cuts.build_member(inst, key)
                assert ([getattr(cut, f) for f in fields]
                        == [getattr(want, f) for f in fields])
                assert type(cut.facet_guaranteed) is bool
                seen[cut.family, cut.facet_guaranteed] += 1
    assert len(seen) == 2 * len(cuts.FAMILIES), seen


def test_nonnegative_data_is_all_the_families_need():
    """Every member that ``family_members`` lists over the walk of every
    family builds through ``build_member`` and is valid for S, on 300
    seeded instances with rational and zero weights: the nonnegative data
    that every ``Instance`` holds is the families' one condition on signs.
    It is why lcover2's divisor d = (b - rest - a_last) + a_t is positive:
    b - rest - a_last = (a_special - a_last) - (s - b) > 0 by the lifting
    test, so d > a_t >= 0."""
    rng = random.Random(3434)
    seen = {family: 0 for family in cuts.FAMILIES}
    zero_weight = 0
    for n in range(300):
        inst = (rational_instance(rng) if n % 2 else
                random_instance(rng, max_groups=4))
        _, rows, b = inst.normalized_units()
        vertices = oracle.enumerate_candidate_vertices(inst)
        for items, units in oracle.walk_patterns(inst, None, cuts.FAMILIES):
            for key, form in cuts.family_members(rows, b, items, units,
                                                 cuts.FAMILIES):
                cut = cuts.build_member(inst, key)
                assert vertices.face_dimension(cut.inequality) >= -1
                seen[cut.family] += 1
                if cut.family != "lcover2":
                    continue
                (special,) = key[2]
                row = rows[special - 1]
                # b - rest - a_last, with rest the other cover items' weight
                gap = row[dict(items)[special] - 1] - (units - b) - row[-1]
                den = 1
                for i, t in items:
                    if i != special:
                        a_t = rows[i - 1][t - 1]
                        assert gap + a_t > a_t >= 0
                        den *= gap + a_t
                assert form[0] == den
        zero_weight += any(0 in row for row in rows)
    assert min(seen.values()) >= 100 and sum(seen.values()) >= 10000, seen
    assert zero_weight >= 100, zero_weight
