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
PreconditionError when they fail; ``facet_guaranteed`` is set exactly when
the relevant theorem's sufficient condition holds on the instance.

Each family's inequality is written once, as an integer form ``(den,
rhs, rows)`` over the instance's integer units of the weights and
capacity (:attr:`Instance.units`): ``rows`` maps each group i of the item
set to its coefficients by slot, and the coefficients and ``rhs`` are the
cut's times scale * den.  There is one form for the three pack families,
one for ``lcover1`` and one for ``lcover2``.  A builder tests its
preconditions in those units and turns the form into its
LinearInequality.  :func:`family_scores` defines which members an item
set gives, tests their preconditions in integer units and scores each
member's form at one point, from the point's per-group support
(:class:`PointSupport`) in its integer form X = x * D (``Point.scaled``,
or the node LP's ``LpSolution.scaled`` as the simplex made it), as an
integer pair ``(num, den)``; :func:`build_member` builds one member from
its provenance key.  Exact and greedy separation score every member and build
only the winner; ``ckp cuts`` lists the members and builds each.  Both
take their item sets from :func:`ckp.oracle.walk_patterns`, each with its
weight in the instance's integer units, which are the units of
:class:`PointSupport`.
:func:`is_switching` is the one maximal-switching test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import prod
from typing import Optional

from .errors import PreconditionError, ValidationError
from .model import Instance, LinearInequality, VarRef, var_ref
from .oracle import guard_enumeration

FAMILIES = ("pack1", "pack2", "pack3", "lcover1", "lcover2")
FAMILY_RANK = {name: rank for rank, name in enumerate(FAMILIES)}


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
    items, _, rows, capacity, s = _weighed(instance, items)
    return (all(j == len(rows[i - 1]) for i, j in items)
            and is_switching([rows[i - 1] for i, _ in items], capacity - s))


def is_switching(tails, slack) -> bool:
    """The one maximal-switching test, in integer units: a last-slot pack
    whose groups' weight rows are ``tails`` and whose slack b - s is
    ``slack`` is maximal switching when the slack is positive and every
    non-singleton group's gap between its last two slots exceeds it."""
    return slack > 0 and all(len(u) == 1 or u[-2] - u[-1] > slack
                             for u in tails)


def _sorted_units(instance: Instance):
    """The instance's integer units (:attr:`Instance.units`), once every
    group is known to keep its slots by non-increasing weight: the five
    families are valid only then."""
    if not instance.is_normalized():
        raise PreconditionError("instance is not normalized")
    return instance.units


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
    scale, rows, capacity = _sorted_units(instance)
    return items, scale, rows, capacity, sum(rows[i - 1][j - 1]
                                             for i, j in items)


class PointSupport:
    """One point's positive entries, grouped for scoring the integer forms,
    and the instance's weights, all in integer units.

    Weights and the capacity come scaled by ``scale`` (see
    :attr:`Instance.units`) as ``units`` and ``capacity_units``, so that an
    item set's weight and every precondition compare exact integers.  The
    point is read in its integer form ``point.scaled = (D, ((ref, X),
    ...))`` (a ``model.Point`` or a ``simplex.LpSolution``), with D as
    ``point_scale``, so each x is the integer X = x * D.  Per group i (list
    index i - 1): ``entries`` as ``(slot, X)`` for the point's positive
    variables; and ``mass``, sum U * X over them with U the slot's weight
    in units, which is W_i = sum_j a_ij x_ij times scale * D.  The instance
    must be normalized; every reference of the point is looked up in
    ``Instance.columns``, as the integer lists are indexed by it.  M_0 and
    the normalized flag are cached on the instance, so only the point's
    own work is done per support.
    """

    __slots__ = ("m0", "scale", "units", "capacity_units", "point_scale",
                 "entries", "mass")

    def __init__(self, instance: Instance, point):
        self.m0 = instance.singleton_groups()
        self.scale, self.units, self.capacity_units = _sorted_units(instance)
        units = self.units
        self.point_scale, scaled = point.scaled
        columns = instance.columns
        entries = [[] for _ in units]
        mass = [0] * len(units)
        for ref, x in scaled:
            if ref not in columns:
                raise ValidationError("variable out of range: %s" % (ref,))
            i = ref.group - 1
            entries[i].append((ref.slot, x))
            mass[i] += units[i][ref.slot - 1] * x
        self.entries = [tuple(e) for e in entries]
        self.mass = mass

    def units_of(self, items) -> int:
        """The weight of an item tuple, in integer units."""
        return sum(self.units[ref.group - 1][ref.slot - 1] for ref in items)


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
    """The LinearInequality of an integer form: the only Fractions a
    builder makes."""
    den, rhs, coeffs = form
    unit = scale * den
    return LinearInequality(
        [(VarRef(i, j), Fraction(c, unit)) for i, row in coeffs.items()
         for j, c in enumerate(row, start=1)],
        Fraction(rhs, unit))


def _score(sup: PointSupport, form):
    """An integer form's violation at the point ``sup`` was built from, as
    ``(num, den)`` with den > 0: lhs - rhs = num / den, summed in integers
    over the point's support."""
    den, rhs, coeffs = form
    d = sup.point_scale
    entries = sup.entries
    lhs = -rhs * d
    for i, row in coeffs.items():
        for j, x in entries[i - 1]:
            lhs += row[j - 1] * x
    return lhs, sup.scale * den * d


def _pack_cut(instance: Instance, pack, pivot: Optional[VarRef] = None,
              tilt_group: Optional[int] = None):
    """``(pack, inequality)``: the item set in its one form (see
    :func:`_weighed`) and its pack cut of :func:`_pack_form`, the
    preconditions checked in integer units."""
    pack, scale, rows, capacity, s = _weighed(instance, pack)
    if s >= capacity:
        raise PreconditionError("not a pack: weight %s >= capacity %s"
                                % (Fraction(s, scale), instance.capacity))
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
    form = _pack_form(rows, capacity, pack, capacity - s, pivot, tilt_group)
    return pack, _inequality(scale, form)


def _pack_scores(sup: PointSupport, pack, slack, families):
    """``((num, den), provenance key)`` of each member of the pack
    ``families`` that ``pack`` (slack b - s > 0, in units) gives, in the
    order of :func:`family_scores`.  pack2 and pack3 need two non-singleton
    pack groups and a last-slot pivot."""
    rows, capacity = sup.units, sup.capacity_units
    rank = FAMILY_RANK
    if "pack1" in families:
        yield (_score(sup, _pack_form(rows, capacity, pack, slack)),
               (pack, rank["pack1"], ()))
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
            form = _pack_form(rows, capacity, pack, slack, pivot)
            yield _score(sup, form), (pack, rank["pack2"], (pivot.group,))
        if "pack3" in families:
            for tilt in singles:
                form = _pack_form(rows, capacity, pack, slack, pivot, tilt)
                yield (_score(sup, form),
                       (pack, rank["pack3"], (pivot.group, tilt)))


def pack_inequality_1(instance: Instance, pack) -> GeneratedCut:
    """Pack cut: weights on all variables of pack groups, extra (b-s) on
    non-singleton pack items."""
    pack, inequality = _pack_cut(instance, pack)
    # The theorem's facet statement needs a non-singleton pack group: its
    # point construction breaks down when M_P is all singletons (and the
    # claim is false there for packs of two or more items).
    groups = {i for i, _ in pack}
    m0 = instance.singleton_groups()
    facet = (bool(groups - m0) and bool(groups & m0)
             and is_maximal_switching_pack(instance, pack))
    return GeneratedCut("pack1", inequality, pack, facet_guaranteed=facet)


def pack_inequality_2(instance: Instance, pack, pivot) -> GeneratedCut:
    """Pack cut pivoting on a non-singleton last-slot item: the pivot group's
    lighter slots get scaled-up coefficients."""
    pivot = var_ref(pivot)
    pack, inequality = _pack_cut(instance, pack, pivot)
    facet = is_maximal_switching_pack(instance, pack)
    return GeneratedCut("pack2", inequality, pack,
                        facet_guaranteed=facet, pivot=pivot)


def pack_inequality_3(instance: Instance, pack, pivot,
                      tilt_group: int) -> GeneratedCut:
    """The pack2 cut tilted toward a singleton pack group: its variable's
    coefficient shrinks while the other non-singleton pack items and the
    right-hand side slack grow by the same factor."""
    pivot = var_ref(pivot)
    pack, inequality = _pack_cut(instance, pack, pivot, tilt_group)
    remainder = [ref for ref in pack if ref.group != tilt_group]
    facet = is_maximal_switching_pack(instance, remainder)
    return GeneratedCut("pack3", inequality, pack,
                        facet_guaranteed=facet, pivot=pivot, tilt_group=tilt_group)


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
    cover, scale, rows, capacity, over = _cover_units(instance, cover)
    if not any(_lifts(rows[i - 1], r, over) for i, r in cover):
        raise PreconditionError("lifting condition violated: no slot below any "
                                "chosen item keeps the rest under capacity")
    form = _lcover1_form(rows, capacity, cover, over)
    facet = all(ref.slot == 1 for ref in cover)
    return GeneratedCut("lcover1", _inequality(scale, form), cover,
                        facet_guaranteed=facet)


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
    form = _lcover2_form(rows, capacity, cover, over, special)
    facet = all(ref.slot == len(rows[ref.group - 1])
                for ref in cover if ref.group != special.group)
    return GeneratedCut("lcover2", _inequality(scale, form), cover,
                        facet_guaranteed=facet, special=special)


def _lifts(row, slot, over) -> bool:
    """The lifting test (see :func:`family_scores`) on one chosen ``slot``
    of a group with weights ``row``, for a cover with excess ``over``."""
    return slot < len(row) and row[slot - 1] - row[-1] > over


def family_scores(sup: PointSupport, items, units, families):
    """``((num, den), provenance key)`` of every member of ``families``
    that the item set ``items`` (a sorted tuple of VarRefs whose weight is
    ``units`` / ``sup.scale``) gives: the member's violation num / den,
    den > 0, at the point ``sup`` was built from, scored on the member's
    integer form with nothing built.

    This is the library's one list of members.  In order: ``pack1`` once;
    ``pack2`` once per non-singleton last-slot pivot and ``pack3`` once
    per such pivot and singleton tilt group, both only when the pack has
    two non-singleton groups; ``lcover1`` once; ``lcover2`` once per
    in-cover item above its group's last slot.  Pack families need s < b
    and cover families s > b, both tested in integer units.
    :func:`_pack_scores` tests the pack2 and pack3 conditions, and
    :func:`_lifts` the one lifting test of both cover families, in integer
    units: a chosen item r above its group's last slot with a_r - a_last >
    s - b.  It is lcover2's condition on the special item (rest + a_last <
    b) and, on sorted groups, lcover1's, which its builder tests too.  A
    member whose condition fails is not listed, so each listed member's
    builder succeeds.
    """
    rows, capacity = sup.units, sup.capacity_units
    over = units - capacity
    if over < 0:
        yield from _pack_scores(sup, items, -over, families)
    elif over > 0 and ("lcover1" in families or "lcover2" in families):
        specials = [ref for ref in items
                    if _lifts(rows[ref.group - 1], ref.slot, over)]
        if specials and "lcover1" in families:
            yield (_score(sup, _lcover1_form(rows, capacity, items, over)),
                   (items, FAMILY_RANK["lcover1"], ()))
        if "lcover2" in families:
            for special in specials:
                form = _lcover2_form(rows, capacity, items, over, special)
                yield (_score(sup, form),
                       (items, FAMILY_RANK["lcover2"], (special.group,)))


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
    _, units, capacity = _sorted_units(instance)
    groups = range(1, instance.m + 1)
    subsets = sorted(chain.from_iterable(
        combinations(groups, k) for k in range(1, instance.m + 1)))
    out = []
    for subset in subsets:
        tails = [units[i - 1] for i in subset]
        if is_switching(tails, capacity - sum(u[-1] for u in tails)):
            out.append(tuple(VarRef(i, len(u)) for i, u in zip(subset, tails)))
    return out
