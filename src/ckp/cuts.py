"""Covers, packs, maximal switching packs, and the five cut families.

An item set picks at most one slot per group.  With s denoting its total
weight and b the capacity, a *cover* has s > b and a *pack* has s < b
(both strict).  Its one form is the sorted tuple of its VarRefs, which
every function here gives and keeps; the builders and
:func:`is_maximal_switching_pack` take any iterable of refs or ``(group,
slot)`` pairs and make it once (:func:`_weighed`).  A pack of last-slot
items is a *maximal switching pack* when switching any of its
non-singleton items to the next-heavier slot would exceed the capacity.

Families (short names used everywhere, including the CLI):

* ``lcover1`` — lifted cover cut from a cover with chosen slots r_i,
* ``lcover2`` — lifted cover cut with one special in-cover item lifted
  over its whole group,
* ``pack1``  — pack cut with increased coefficients on non-singleton
  pack items,
* ``pack2``  — pack cut pivoting on one non-singleton last-slot item,
* ``pack3``  — the pack2 cut tilted toward one singleton pack item.

The three pack families are one inequality: ``pack2`` is ``pack1``
pivoted on one item and ``pack3`` is ``pack2`` tilted toward one singleton,
so all three have one integer form.

Each generator checks its mathematical preconditions, among them that
every group keeps its slots by non-increasing weight, and raises
PreconditionError when they fail.  The facet rules live once, in
:func:`_member_cut`: ``facet_guaranteed`` is set exactly when the
relevant theorem's sufficient condition holds on the instance.

Each family's inequality is written once, as an integer form ``(den,
rhs, rows)`` over the instance's integer units of the weights and
capacity (:attr:`Instance.units`): ``rows`` maps each group i of the item
set to its coefficients by slot, and the coefficients and ``rhs`` are the
cut's times scale * den.  There is one form for the three pack families,
one for ``lcover1`` and one for ``lcover2``.  A builder tests its
preconditions in those units and ends in :func:`_member_cut`, which keeps
the form as its cut's integer form (``LinearInequality.from_scaled``),
read as it is by the oracle, the node LP's pool and separation's check.

Which members an item set gives depends on the weights and the capacity
alone, so the member list is instance data: :func:`family_members` reads
an item set and its weight in the instance's integer units, tests each
member's preconditions there and gives its provenance key and integer
form, and reads no point.  :func:`build_member` builds one member from
its key through its public builder.  Exact and greedy separation score
every listed form at their point (``ckp.separation``) and build only the
winner that way; ``ckp cuts`` makes each listed member's cut from its
listed form (:func:`_member_cut`).  Both take their item sets from
:func:`ckp.oracle.walk_patterns`, each with its weight in integer units.
:func:`is_switching` is the one maximal-switching test.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import prod
from typing import Optional

from .errors import PreconditionError, ValidationError
from .model import Instance, LinearInequality, VarRef, var_ref
from .numeric import require_integer
from .oracle import guard_enumeration

FAMILIES = ("pack1", "pack2", "pack3", "lcover1", "lcover2")
FAMILY_RANK = {name: rank for rank, name in enumerate(FAMILIES)}


def resolve_families(choice) -> tuple:
    """The cut families ``choice`` names, as a tuple: ``None`` or
    ``"all"`` the five, ``"none"`` none, any other string a comma-separated
    list of names, and any other iterable its names.  An unknown name, a
    string that names none (``""`` or ``","``, as an unset shell variable
    gives) and a choice that is neither a string nor iterable raise
    ``ValidationError``."""
    if choice is None or choice == "all":
        return FAMILIES
    if choice == "none":
        return ()
    if isinstance(choice, str):
        choice = [name.strip() for name in choice.split(",") if name.strip()]
        if not choice:
            raise ValidationError("no cut family named; use 'none' for none")
    elif not isinstance(choice, Iterable):
        raise ValidationError("cut families must be a string or names, got %r"
                              % (choice,))
    out = tuple(choice)
    for name in out:
        if name not in FAMILIES:
            raise ValidationError("unknown cut family: %r" % (name,))
    return out


@dataclass(frozen=True)
class GeneratedCut:
    """A cut plus where it came from.

    ``pivot`` is the distinguished last-slot item (pack2/pack3),
    ``tilt_group`` the singleton group a pack3 cut was tilted toward, and
    ``special`` the in-cover item lifted over its group (lcover2).
    """

    family: str
    inequality: LinearInequality
    items: tuple  # the item set, its sorted VarRef tuple
    facet_guaranteed: bool = False
    pivot: Optional[VarRef] = None
    tilt_group: Optional[int] = None
    special: Optional[VarRef] = None

    def provenance_key(self):
        """Deterministic sort key: item set, family, auxiliary indices."""
        aux = ()
        if self.family == "pack2":
            aux = (self.pivot.group,)
        elif self.family == "pack3":
            aux = (self.pivot.group, self.tilt_group)
        elif self.family == "lcover2":
            aux = (self.special.group,)
        return (self.items, FAMILY_RANK[self.family], aux)

    def describe(self) -> str:
        parts = ["family: %s" % self.family,
                 "items: " + " ".join("(%d,%d)" % ref for ref in self.items)]
        if self.pivot is not None:
            parts.append("pivot: (%d,%d)" % self.pivot)
        if self.tilt_group is not None:
            parts.append("tilt-group: %d" % self.tilt_group)
        if self.special is not None:
            parts.append("special: (%d,%d)" % self.special)
        return "; ".join(parts)


def is_maximal_switching_pack(instance: Instance, items) -> bool:
    """Last-slot pack whose every non-singleton swap overshoots the
    capacity; ``items`` as the builders take them."""
    items, _, rows, capacity, _ = _weighed(instance, items)
    return _maximal_switching(rows, capacity, items)


def _maximal_switching(rows, capacity, items) -> bool:
    """:func:`is_maximal_switching_pack` of canonical ``items``, with
    ``rows`` and ``capacity`` the instance's integer units."""
    return (all(j == len(rows[i - 1]) for i, j in items)
            and is_switching([rows[i - 1] for i, _ in items], capacity
                             - sum(rows[i - 1][j - 1] for i, j in items)))


def is_switching(tails, slack) -> bool:
    """The one maximal-switching test, in integer units: a last-slot pack
    whose groups' weight rows are ``tails`` and whose slack b - s is
    ``slack`` is maximal switching when the slack is positive and every
    non-singleton group's gap between its last two slots exceeds it."""
    return slack > 0 and all(len(u) == 1 or u[-2] - u[-1] > slack
                             for u in tails)


def _weighed(instance: Instance, items):
    """``(items, scale, rows, capacity, s)``: ``items`` as its sorted
    VarRef tuple, each ref through ``model.var_ref``, then the instance's
    integer units and the item set's weight s in them.  The set must be
    nonempty, one item per group and inside the normalized instance."""
    items = tuple(sorted(map(var_ref, items)))
    if not items:
        raise ValidationError("item set is empty")
    if len({i for i, _ in items}) != len(items):
        raise ValidationError("item set repeats a group")
    for ref in items:
        instance.check_ref(ref)
    scale, rows, capacity = instance.normalized_units()
    return items, scale, rows, capacity, sum(rows[i - 1][j - 1]
                                             for i, j in items)


def _pack_form(rows, capacity, pack, slack, pivot=None, tilt_group=None):
    """The pack cut, optionally pivoted (pack2) and then tilted (pack3),
    for a pack whose slack b - s > 0 is ``slack``, as an integer form (see
    the module docstring).

    Every pack group's variables start at their weights.  A pivot's group
    gets a_pivot * max(1, a / den), with den = a_pivot + slack; a tilt
    shrinks the singleton's coefficient to a_pivot * a_tilt / den and
    scales the slack by 1 + a_tilt / den.  The scaled slack goes to each
    non-singleton pack item outside the pivot group (the *receivers*), and
    the rhs is b + (receivers - 1) * scaled slack.  Without a pivot, den
    is 1.
    """
    den, grown = 1, slack  # grown: the scaled slack, times den
    if pivot is not None:
        a_pivot = rows[pivot.group - 1][-1]
        den = a_pivot + slack
        grown = slack * den
        if tilt_group is not None:
            grown += slack * rows[tilt_group - 1][0]
    coeffs = {}
    receivers = 0
    for i, j in pack:
        row = rows[i - 1]
        if pivot is not None and i == pivot.group:
            row = [a_pivot * max(a, den) for a in row]
        elif i == tilt_group:
            row = [a_pivot * row[0]]
        else:
            row = [a * den for a in row]
            if len(row) > 1:
                row[j - 1] += grown
                receivers += 1
        coeffs[i] = row
    return den, capacity * den + (receivers - 1) * grown, coeffs


def _lcover1_form(rows, capacity, cover, over):
    """The lcover1 cut for a cover whose excess s - b > 0 is ``over``:
    each cover group keeps a_r on the slots above its chosen slot r and
    max(a, a_r - over) from r on, where a_r - over is b minus the other
    chosen items' weight."""
    coeffs = {}
    for i, r in cover:
        row = rows[i - 1]
        a_r = row[r - 1]
        coeffs[i] = [a_r if j < r else max(a, a_r - over)
                     for j, a in enumerate(row, start=1)]
    return 1, capacity, coeffs


def _lcover2_form(rows, capacity, cover, over, special):
    """The lcover2 cut for a cover whose excess s - b > 0 is ``over`` and
    whose ``special`` item meets the lifting condition.

    With rest the weight of the other cover items, the special group gets
    max(a, b - rest), where b - rest = a_special - over.  Each other cover
    group, chosen slot t, gets a_t * max(1, a / d) on its slots j <= t,
    with d = b - (rest - a_t) - a_last > 0, and its weights after t; den
    is the product of the groups' d.
    """
    a_last = rows[special.group - 1][-1]
    floor = rows[special.group - 1][special.slot - 1] - over  # b - rest
    dens = {i: floor + rows[i - 1][t - 1] - a_last
            for i, t in cover if i != special.group}
    den = prod(dens.values())
    coeffs = {}
    for i, t in cover:
        row = rows[i - 1]
        if i == special.group:
            coeffs[i] = [max(a, floor) * den for a in row]
            continue
        d = dens[i]
        lifted = row[t - 1] * (den // d)  # a_t * den / d
        coeffs[i] = [lifted * max(a, d) if j <= t else a * den
                     for j, a in enumerate(row, start=1)]
    return den, capacity * den, coeffs


def _inequality(scale, form) -> LinearInequality:
    """The LinearInequality that keeps an integer form (over scale * den),
    its terms sorted as the form's groups come in item order."""
    den, rhs, coeffs = form
    return LinearInequality.from_scaled(scale * den, rhs, [
        (VarRef(i, j), c) for i, row in coeffs.items()
        for j, c in enumerate(row, start=1) if c])


def _pack_cut(instance: Instance, family: str, pack, pivot=None,
              tilt_group=None) -> GeneratedCut:
    """The ``family`` cut of ``pack`` (see :func:`_weighed`) of
    :func:`_pack_form`, the preconditions checked in integer units."""
    pack, scale, rows, capacity, s = _weighed(instance, pack)
    if s >= capacity:
        raise PreconditionError("not a pack: weight %s >= capacity %s"
                                % (Fraction(s, scale), instance.capacity))
    aux = ()
    if pivot is not None:
        free = [i for i, _ in pack if len(rows[i - 1]) > 1]  # M_P - M_0
        if len(free) < 2:
            raise PreconditionError(
                "need at least two non-singleton pack groups, have %d" % len(free))
        if pivot not in pack:
            raise PreconditionError("pivot %s is not a pack item" % (pivot,))
        if pivot.group not in free:
            raise PreconditionError("pivot group %d is a singleton" % pivot.group)
        if pivot.slot != len(rows[pivot.group - 1]):
            raise PreconditionError(
                "pivot %s is not its group's last slot" % (pivot,))
        if tilt_group is not None and ((tilt_group, 1) not in pack
                                       or tilt_group in free):
            raise PreconditionError(
                "tilt group %d is not a singleton pack group" % tilt_group)
        aux = (pivot.group,) + (() if tilt_group is None else (tilt_group,))
    form = _pack_form(rows, capacity, pack, capacity - s, pivot, tilt_group)
    return _member_cut(instance, (pack, FAMILY_RANK[family], aux), form)


def _pack_members(rows, capacity, pack, slack, families):
    """``(provenance key, form)`` of each member of the pack ``families``
    that ``pack`` (slack b - s > 0, in units) gives, in the order of
    :func:`family_members`.  pack2 and pack3 need two non-singleton pack
    groups and a last-slot pivot."""
    rank = FAMILY_RANK
    if "pack1" in families:
        yield (pack, rank["pack1"], ()), _pack_form(rows, capacity, pack, slack)
    if "pack2" not in families and "pack3" not in families:
        return
    free = [ref for ref in pack if len(rows[ref.group - 1]) > 1]
    if len(free) < 2:
        return
    singles = [ref.group for ref in pack if len(rows[ref.group - 1]) == 1]
    for pivot in free:
        if pivot.slot != len(rows[pivot.group - 1]):
            continue
        if "pack2" in families:
            yield ((pack, rank["pack2"], (pivot.group,)),
                   _pack_form(rows, capacity, pack, slack, pivot))
        if "pack3" in families:
            for tilt in singles:
                yield ((pack, rank["pack3"], (pivot.group, tilt)),
                       _pack_form(rows, capacity, pack, slack, pivot, tilt))


def pack_inequality_1(instance: Instance, pack) -> GeneratedCut:
    """Pack cut: weights on all variables of pack groups, extra (b-s) on
    non-singleton pack items."""
    return _pack_cut(instance, "pack1", pack)


def pack_inequality_2(instance: Instance, pack, pivot) -> GeneratedCut:
    """Pack cut pivoting on a non-singleton last-slot item: the pivot group's
    lighter slots get scaled-up coefficients."""
    return _pack_cut(instance, "pack2", pack, var_ref(pivot))


def pack_inequality_3(instance: Instance, pack, pivot,
                      tilt_group: int) -> GeneratedCut:
    """The pack2 cut tilted toward a singleton pack group: its variable's
    coefficient shrinks while the other non-singleton pack items and the
    right-hand side slack grow by the same factor."""
    return _pack_cut(instance, "pack3", pack, var_ref(pivot),
                     require_integer(tilt_group, "tilt group"))


def _cover_units(instance: Instance, cover):
    """``(cover, scale, rows, capacity, over)``, as :func:`_weighed` gives
    them but with the cover's excess s - b, which must be positive."""
    cover, scale, rows, capacity, s = _weighed(instance, cover)
    if s <= capacity:
        raise PreconditionError("not a cover: weight %s <= capacity %s"
                                % (Fraction(s, scale), instance.capacity))
    return cover, scale, rows, capacity, s - capacity


def lifted_cover_inequality_1(instance: Instance, cover) -> GeneratedCut:
    """Lifted cover cut from a cover choosing slot r_i per group."""
    cover, _, rows, capacity, over = _cover_units(instance, cover)
    if not any(_lifts(rows[i - 1], r, over) for i, r in cover):
        raise PreconditionError("lifting condition violated: no slot below any "
                                "chosen item keeps the rest under capacity")
    return _member_cut(instance, (cover, FAMILY_RANK["lcover1"], ()),
                       _lcover1_form(rows, capacity, cover, over))


def lifted_cover_inequality_2(instance: Instance, cover,
                              special) -> GeneratedCut:
    """Lifted cover cut with one in-cover item lifted over its whole group.

    The special item must not sit on its group's last slot; the remaining
    cover items (slots t_i) are lifted within their groups."""
    special = var_ref(special)
    cover, scale, rows, capacity, over = _cover_units(instance, cover)
    if special not in cover:
        raise PreconditionError("special item %s is not in the cover" % (special,))
    row = rows[special.group - 1]
    if special.slot >= len(row):
        raise PreconditionError("special item must sit above its group's last slot")
    rest = capacity + over - row[special.slot - 1]
    if rest + row[-1] >= capacity:
        raise PreconditionError(
            "lifting condition violated: %s + %s >= %s"
            % (Fraction(rest, scale), Fraction(row[-1], scale), instance.capacity))
    return _member_cut(instance, (cover, FAMILY_RANK["lcover2"], (special.group,)),
                       _lcover2_form(rows, capacity, cover, over, special))


def _member_cut(instance: Instance, key, form) -> GeneratedCut:
    """The cut of the member with provenance ``key`` and integer ``form``,
    as :func:`family_members` lists them: the one place each family's
    facet rule is written.  The public builders end here once their
    checks pass, and ``ckp cuts`` calls it on each listed member."""
    items, rank, aux = key
    family = FAMILIES[rank]
    scale, rows, capacity = instance.units
    # the pivot (pack2, pack3) or special item (lcover2), by its group
    ref = VarRef(aux[0], dict(items)[aux[0]]) if aux else None
    tilt = aux[1] if family == "pack3" else None
    if family == "lcover1":
        facet = all(j == 1 for _, j in items)
    elif family == "lcover2":
        facet = all(j == len(rows[i - 1]) for i, j in items if i != ref.group)
    else:  # pack3 asks it of the pack without its tilt item
        facet = _maximal_switching(
            rows, capacity, [r for r in items if r.group != tilt])
    if family == "pack1":
        # the facet statement needs a non-singleton pack group; with M_P all
        # singletons it is false for packs of two or more items
        groups = {i for i, _ in items}
        facet = facet and bool(groups - instance.m0) and bool(groups & instance.m0)
    return GeneratedCut(family, _inequality(scale, form), items, facet,
                        ref if family.startswith("pack") else None, tilt,
                        ref if family == "lcover2" else None)


def _lifts(row, slot, over) -> bool:
    """The lifting test (see :func:`family_members`) on one chosen ``slot``
    of a group with weights ``row``, for a cover with excess ``over``."""
    return slot < len(row) and row[slot - 1] - row[-1] > over


def family_members(rows, capacity, items, units, families):
    """``(provenance key, form)`` of every member of ``families`` that the
    item set ``items`` (a sorted tuple of VarRefs whose weight is
    ``units``) gives, with ``rows`` and ``capacity`` the instance's
    integer units (:meth:`Instance.normalized_units`): the member's
    integer form, with nothing built.

    This is the library's one list of members, read from the instance
    alone.  In order: ``pack1`` once; ``pack2`` once per non-singleton
    last-slot pivot and ``pack3`` once per such pivot and singleton tilt
    group, both only when the pack has two non-singleton groups;
    ``lcover1`` once; ``lcover2`` once per in-cover item above its group's
    last slot.  Pack families need s < b and cover families s > b, both
    tested in integer units.  :func:`_pack_members` tests the pack2 and
    pack3 conditions, and :func:`_lifts` the one lifting test of both
    cover families, in integer units: a chosen item r above its group's
    last slot with a_r - a_last > s - b.  It is lcover2's condition on the
    special item (rest + a_last < b) and, on sorted groups, lcover1's,
    which its builder tests too.  A member whose condition fails is not
    listed, so each listed member's builder succeeds.
    """
    over = units - capacity
    if over < 0:
        yield from _pack_members(rows, capacity, items, -over, families)
    elif over > 0 and ("lcover1" in families or "lcover2" in families):
        specials = [ref for ref in items
                    if _lifts(rows[ref.group - 1], ref.slot, over)]
        if specials and "lcover1" in families:
            yield ((items, FAMILY_RANK["lcover1"], ()),
                   _lcover1_form(rows, capacity, items, over))
        if "lcover2" in families:
            for special in specials:
                yield ((items, FAMILY_RANK["lcover2"], (special.group,)),
                       _lcover2_form(rows, capacity, items, over, special))


BUILDERS = dict(zip(FAMILIES, (
    "pack_inequality_1", "pack_inequality_2", "pack_inequality_3",
    "lifted_cover_inequality_1", "lifted_cover_inequality_2")))


def build_member(instance: Instance, key) -> GeneratedCut:
    """The cut whose provenance key is ``key``, built by its family's public
    builder from the key's item tuple.  The builder is looked up by its
    module name at each call, so a wrapper set on this module (as the
    benchmark's tracer sets one) sees every build."""
    items, rank, aux = key
    args = ()
    if aux:  # the pivot or special item, by its group, then any tilt group
        args = ((aux[0], dict(items).get(aux[0])),) + aux[1:]
    return globals()[BUILDERS[FAMILIES[rank]]](instance, items, *args)


def enumerate_maximal_switching_packs(instance: Instance,
                                      limit: Optional[int] = None):
    """All maximal switching packs, as sorted tuples of last-slot items
    over group subsets, in lexicographic subset order."""
    guard_enumeration(2 ** instance.m, "subset space 2^%d" % instance.m, limit)
    _, units, capacity = instance.normalized_units()
    groups = range(1, instance.m + 1)
    subsets = sorted(chain.from_iterable(
        combinations(groups, k) for k in range(1, instance.m + 1)))
    out = []
    for subset in subsets:
        tails = [units[i - 1] for i in subset]
        if is_switching(tails, capacity - sum(u[-1] for u in tails)):
            out.append(tuple(VarRef(i, len(u)) for i, u in zip(subset, tails)))
    return out
