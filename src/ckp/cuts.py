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
:func:`member_cut`: ``facet_guaranteed`` is set exactly when the
relevant theorem's sufficient condition holds on the instance.

Each family's inequality is written once, as an integer form ``(den,
rhs, rules)`` over the instance's integer units of the weights and
capacity (:attr:`Instance.units`): ``rules`` maps each group i of the item
set to one fixed-size rule ``(k, lo, hi, k2, at, bump)``, which gives slot
j of weight a_j (non-increasing in j) min(k * max(a_j, lo), hi, k2 * a_j)
plus ``bump`` at slot ``at`` (``hi`` and ``k2`` None when absent), and the
coefficients and ``rhs`` are the cut's times scale * den.  One
:func:`rule_terms` evaluates a rule, once per group: over all the group's
slots for a builder, over the point's entries alone for a score.  There
is one form for the three pack families, one for ``lcover1`` and one for
``lcover2``.  A builder tests its preconditions in those units and ends
in :func:`member_cut`, which keeps the form as its cut's integer form,
read as it is by the oracle, the node LP's pool and separation's check.
Made here of the instance's ints and VarRefs, it needs none of the checks
of ``LinearInequality.from_scaled``: ``from_scaled_unchecked`` takes it.

Which members an item set gives depends on the weights and the capacity
alone, so the member list is instance data: :func:`family_members` reads
an item set and its weight in the instance's integer units, tests each
member's preconditions there and gives its provenance key and integer
form, and reads no point.  :func:`member_cut` makes a listed member's
cut from its key and form, so a form is never made twice.  Exact and
greedy separation score every listed form at their point
(``ckp.separation``) and make only the winner's cut.
:func:`theorem_cuts`, the listing of ``ckp cuts``, makes every listed
member's cut: the pack families' over the maximal switching packs,
enumerated once, the cover families' over one walk of
:func:`ckp.oracle.walk_patterns`, which exact separation walks too.
A cut keeps the key it was listed under (:class:`GeneratedCut`): its
family and item set are read off the key, and so are its pivot, tilt
group or special item, by their groups.  :func:`is_switching` is the
one maximal-switching test.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from itertools import repeat
from math import prod
from typing import NamedTuple, Optional

from .errors import PreconditionError, ValidationError
from .model import Instance, LinearInequality, VarRef, var_ref
from .numeric import require_integer
from .oracle import guard_enumeration, walk_patterns

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


class GeneratedCut(NamedTuple):
    """A cut under the key it was listed as (:func:`family_members`):
    ``(items, family rank, aux)``, its item set's sorted VarRef tuple, its
    family's index in ``FAMILIES`` and its auxiliary groups: the pivot
    item's group (pack2), that and the singleton group the cut was tilted
    toward (pack3), or the group of the in-cover item lifted over it
    (lcover2).  Keys order cuts: item set, then family, then aux."""

    key: tuple
    inequality: LinearInequality
    facet_guaranteed: bool

    @property
    def family(self) -> str:
        return FAMILIES[self.key[1]]

    @property
    def items(self) -> tuple:
        return self.key[0]

    def describe(self) -> str:
        items, _, aux = self.key
        family = self.family
        parts = ["family: %s" % family,
                 "items: " + " ".join("(%d,%d)" % ref for ref in items)]
        if aux:  # the pivot or special item, by its group
            parts.append("%s: (%d,%d)" % (
                "special" if family == "lcover2" else "pivot",
                aux[0], dict(items)[aux[0]]))
        if aux[1:]:
            parts.append("tilt-group: %d" % aux[1])
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


def _pack_form(rows, capacity, pack, slack, pivot=None, tilt=None):
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
        if tilt is not None:
            grown += slack * rows[tilt - 1][0]
    rules = {}
    receivers = 0
    for i, j in pack:
        if pivot is not None and i == pivot.group:
            rules[i] = (a_pivot, den, None, None, 0, 0)
        elif i == tilt:
            rules[i] = (a_pivot, 0, None, None, 0, 0)
        else:  # the row times den, and grown on a receiver's item
            free = len(rows[i - 1]) > 1
            rules[i] = (den, 0, None, None, j, grown if free else 0)
            receivers += free
    return den, capacity * den + (receivers - 1) * grown, rules


def _lcover1_form(rows, capacity, cover, over):
    """The lcover1 cut for a cover whose excess s - b > 0 is ``over``:
    each cover group keeps a_r on the slots above its chosen slot r and
    max(a, a_r - over) from r on, where a_r - over is b minus the other
    chosen items' weight; on sorted weights, min(max(a, a_r - over), a_r)."""
    return 1, capacity, {i: (1, rows[i - 1][r - 1] - over, rows[i - 1][r - 1],
                             None, 0, 0) for i, r in cover}


def _lcover2_form(rows, capacity, cover, over, special):
    """The lcover2 cut for a cover whose excess s - b > 0 is ``over`` and
    whose ``special`` item meets the lifting condition.

    With rest the weight of the other cover items, the special group gets
    max(a, b - rest), where b - rest = a_special - over.  Each other cover
    group, chosen slot t, gets a_t * max(1, a / d) on its slots j <= t,
    with d = b - (rest - a_t) - a_last > 0, and its weights after t; den
    is the product of the groups' d.  The lifting condition gives b - rest
    > a_last, so d > a_t, and on sorted weights the two pieces are one
    min(a_t * max(a, d) / d, a), the first piece the smaller for a >= a_t.
    """
    a_last = rows[special.group - 1][-1]
    floor = rows[special.group - 1][special.slot - 1] - over  # b - rest
    dens = {i: floor + rows[i - 1][t - 1] - a_last
            for i, t in cover if i != special.group}
    den = prod(dens.values())
    return den, capacity * den, {  # off the special, k = a_t * den / d
        i: (den, floor, None, None, 0, 0) if i == special.group else
        (rows[i - 1][t - 1] * (den // dens[i]), dens[i], None, den, 0, 0)
        for i, t in cover}


def rule_terms(rule, row, entries) -> list:
    """The one evaluation of a rule (see the module docstring): c_j * X
    for each entry ``(j, X)`` of a group whose weights in integer units
    are ``row``, in the entries' order.  A score sums it over the point's
    entries in the group; a builder reads each slot's c_j, with X = 1."""
    k, lo, hi, k2, at, bump = rule
    out = []
    for j, x in entries:
        a = row[j - 1]
        c = k * (a if a > lo else lo)
        if hi is not None and c > hi:
            c = hi
        if k2 is not None and c > k2 * a:
            c = k2 * a
        out.append((c + bump if j == at else c) * x)
    return out


def _inequality(scale, rows, form) -> LinearInequality:
    """The LinearInequality that keeps an integer form (over scale * den),
    taken in unchecked (see the module docstring), each rule evaluated
    once, over all its group's slots with X = 1, in the form's order; the
    refs through tuple.__new__, not VarRef's Python-level constructor."""
    den, rhs, rules = form
    new = tuple.__new__
    return LinearInequality.from_scaled_unchecked(scale * den, rhs, [
        (new(VarRef, (i, j)), c) for i, rule in rules.items()
        for j, c in enumerate(rule_terms(rule, rows[i - 1], enumerate(
            repeat(1, len(rows[i - 1])), start=1)), start=1) if c])


def _pack_cut(instance: Instance, family: str, pack, pivot=None,
              tilt=None) -> GeneratedCut:
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
        if tilt is not None and ((tilt, 1) not in pack or tilt in free):
            raise PreconditionError(
                "tilt group %d is not a singleton pack group" % tilt)
        aux = (pivot.group,) + (() if tilt is None else (tilt,))
    form = _pack_form(rows, capacity, pack, capacity - s, pivot, tilt)
    return member_cut(instance, (pack, FAMILY_RANK[family], aux), form)


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
                      tilt: int) -> GeneratedCut:
    """The pack2 cut tilted toward the singleton pack group ``tilt``: its
    variable's coefficient shrinks while the other non-singleton pack
    items and the right-hand side slack grow by the same factor."""
    return _pack_cut(instance, "pack3", pack, var_ref(pivot),
                     require_integer(tilt, "tilt group"))


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
    return member_cut(instance, (cover, FAMILY_RANK["lcover1"], ()),
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
    if not _lifts(row, special.slot, over):
        rest = capacity + over - row[special.slot - 1]
        raise PreconditionError(
            "lifting condition violated: %s + %s >= %s"
            % (Fraction(rest, scale), Fraction(row[-1], scale), instance.capacity))
    return member_cut(instance, (cover, FAMILY_RANK["lcover2"], (special.group,)),
                      _lcover2_form(rows, capacity, cover, over, special))


def member_cut(instance: Instance, key, form) -> GeneratedCut:
    """The cut of the member with provenance ``key`` and integer ``form``,
    as :func:`family_members` lists them: the one place a cut is made and
    each family's facet rule is written.  The public builders end here
    once their checks pass, :func:`theorem_cuts` calls it on each listed
    member and separation on its winner.

    A pack with an item of weight 0 gets no flag: the pack families' facet
    conditions are not shown for one, and they fail on some (a weightless
    singleton pack item has coefficient 0, yet it meets pack1's M_0
    clause), while the oracle still decides such a cut's face."""
    items, rank, aux = key
    family = FAMILIES[rank]
    scale, rows, capacity = instance.units
    if family == "lcover1":
        facet = all(j == 1 for _, j in items)
    elif family == "lcover2":  # aux: the special item's group
        facet = all(j == len(rows[i - 1]) for i, j in items if i not in aux)
    else:  # pack3 asks it of the pack without its tilt group, aux[1]
        facet = all(rows[i - 1][j - 1] for i, j in items) and (
            _maximal_switching(rows, capacity,
                               [r for r in items if r.group not in aux[1:]]))
    if family == "pack1":
        # the facet statement needs a non-singleton pack group; with M_P all
        # singletons it is false for packs of two or more items
        groups = {i for i, _ in items}
        facet = facet and bool(groups - instance.m0) and bool(groups & instance.m0)
    return GeneratedCut(key, _inequality(scale, rows, form), facet)


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


def enumerate_maximal_switching_packs(instance: Instance,
                                      limit: Optional[int] = None):
    """All maximal switching packs, as sorted tuples of last-slot items
    over group subsets, in lexicographic subset order: a depth-first walk
    that extends a subset only by later groups whose last slot leaves slack
    b - s > 0, since no superset of a subset without slack is a pack.  The
    guard counts all 2^m subsets."""
    guard_enumeration(2 ** instance.m, "subset space 2^%d" % instance.m, limit)
    _, units, capacity = instance.normalized_units()
    new = tuple.__new__  # the refs not through VarRef's Python constructor
    out, stack = [], [((), capacity)]  # (subset, slack); children last-first
    while stack:
        subset, slack = stack.pop()
        tails = [units[i - 1] for i in subset]
        if subset and is_switching(tails, slack):
            out.append(tuple(new(VarRef, (i, len(u)))
                             for i, u in zip(subset, tails)))
        for i in range(instance.m, subset[-1] if subset else 0, -1):
            if slack > units[i - 1][-1]:
                stack.append((subset + (i,), slack - units[i - 1][-1]))
    return out


def theorem_cuts(instance, families, limit):
    """All theorem-backed cuts of each family in turn, deterministic order:
    packs come from the maximal switching packs, enumerated once, at the
    first pack family; covers from the pattern walk, which skips the
    subtrees that hold no member, walked once, at the first cover family,
    and kept for a later one (the walk's prune reads only that some cover
    family is asked, so both would walk alike).  The members are those
    :func:`family_members` lists from the instance's integer units, with
    no point read, each made from its listed form by :func:`member_cut`,
    so its form is made once; a cut with no terms, 0 <= rhs, cuts nothing
    and is skipped.  This is the listing of ``ckp cuts``."""
    _, rows, capacity = instance.normalized_units()
    packs = covers = None
    for n, family in enumerate(families):
        if family.startswith("pack"):
            if packs is None:
                packs = [(p, sum(rows[i - 1][j - 1] for i, j in p)) for p in
                         enumerate_maximal_switching_packs(instance, limit)]
            itemsets = packs
        else:
            if covers is None:  # kept only for a later cover family
                covers = walk_patterns(instance, limit, (family,))
                if any(f.startswith("lcover") for f in families[n + 1:]):
                    covers = list(covers)
            itemsets = covers
        for items, units in itemsets:
            for key, form in family_members(rows, capacity, items, units,
                                            (family,)):
                cut = member_cut(instance, key, form)
                if cut.inequality.scaled[2]:
                    yield cut
