"""Covers, packs, maximal switching packs, and the five cut families.

An item set picks at most one slot per group.  With s denoting its total
weight and b the capacity, a *cover* has s > b and a *pack* has s < b
(both strict).  A pack of last-slot items is a *maximal switching pack*
when switching any of its non-singleton items to the next-heavier slot
would exceed the capacity.

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
so all three are built by one routine.

Each generator checks its mathematical preconditions, among them that
every group keeps its slots by non-increasing weight, and raises
PreconditionError when they fail; ``facet_guaranteed`` is set exactly when
the relevant theorem's sufficient condition holds on the instance.

Next to each builder sits its closed form: the member's violation at one
point, computed from the point's per-group support (:class:`PointSupport`)
without building the cut.  The support reads the point in its integer
form, X = x * D (``Point.scaled``, or the node LP's ``LpSolution.scaled``
as the simplex made it), next to the instance's integer units of the
weights and capacity, so each closed form sums integers and makes one
Fraction at the end.  :func:`family_scores` defines which members an
item set gives, tests their preconditions in integer units and scores
each; :func:`build_member` builds one member from its provenance key.
Exact and greedy separation score every member and build only the winner;
``ckp cuts`` lists the members and builds each.  Both take their item sets
from :func:`ckp.oracle.walk_patterns`, each with its weight in the
instance's integer units, which are the units of :class:`PointSupport`.
:func:`is_switching` is the one maximal-switching test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Optional

from .errors import PreconditionError, ResourceLimitError, ValidationError
from .model import Instance, LinearInequality, VarRef
from .oracle import resolve_enum_limit

FAMILIES = ("pack1", "pack2", "pack3", "lcover1", "lcover2")
FAMILY_RANK = {name: rank for rank, name in enumerate(FAMILIES)}

_F1 = Fraction(1)


@dataclass(frozen=True)
class ItemSet:
    """Nonempty set of variables, at most one per group, kept sorted."""

    items: tuple

    def __post_init__(self):
        if not self.items:
            raise ValidationError("item set is empty")
        groups = [ref.group for ref in self.items]
        if len(set(groups)) != len(groups):
            raise ValidationError("item set repeats a group")

    @classmethod
    def of(cls, refs) -> "ItemSet":
        items = tuple(sorted(ref if isinstance(ref, VarRef) else VarRef(*ref)
                             for ref in refs))
        return cls(items)

    def groups(self):
        return tuple(ref.group for ref in self.items)

    def slot(self, group: int) -> int:
        for ref in self.items:
            if ref.group == group:
                return ref.slot
        raise ValidationError("group %d not in item set" % group)

    def weight(self, instance: Instance) -> Fraction:
        total = Fraction(0)
        for ref in self.items:
            total += instance.weight(ref)
        return total

    def __contains__(self, ref):
        return ref in self.items

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


@dataclass(frozen=True)
class GeneratedCut:
    """A cut plus where it came from.

    ``pivot`` is the distinguished last-slot item (pack2/pack3),
    ``tilt_group`` the singleton group a pack3 cut was tilted toward, and
    ``special`` the in-cover item lifted over its group (lcover2).
    """

    family: str
    inequality: LinearInequality
    items: ItemSet
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
        return (self.items.items, FAMILY_RANK[self.family], aux)

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


def _checked(instance: Instance, itemset: ItemSet) -> ItemSet:
    for ref in itemset:
        instance.check_ref(ref)
    return itemset


def is_maximal_switching_pack(instance: Instance, itemset: ItemSet) -> bool:
    """Last-slot pack whose every non-singleton swap overshoots the capacity."""
    _checked(instance, itemset)
    _, units, capacity = _sorted_units(instance)
    if any(ref.slot != instance.slots(ref.group) for ref in itemset):
        return False
    tails = [units[i - 1] for i in itemset.groups()]
    return is_switching(tails, capacity - sum(u[-1] for u in tails))


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


class PointSupport:
    """One point's positive entries, grouped for the closed-form violations,
    and the instance's weights, all in integer units.

    Weights and the capacity come scaled by ``scale`` (see
    :attr:`Instance.units`) as ``units`` and ``capacity_units``, so that an
    item set's weight and every precondition compare exact integers.  The
    point is read in its integer form ``point.scaled = (D, ((ref, X),
    ...))`` (a ``model.Point`` or a ``simplex.LpSolution``), with D as
    ``point_scale``, so each x is the integer X = x * D (``x`` maps each
    positive variable to its X).  Per group i (list index i - 1):
    ``entries`` as ``(slot, U, X)`` for the point's positive variables; and
    ``mass``, sum U * X, which is W_i = sum_j a_ij x_ij times scale * D.
    The instance must be normalized; every reference of the point is
    looked up in ``Instance.columns``, as the integer lists are indexed by
    it.  M_0 and the normalized flag are cached on the instance, so only
    the point's own work is done per support.
    """

    __slots__ = ("m0", "scale", "units", "capacity_units", "point_scale",
                 "entries", "mass", "x")

    def __init__(self, instance: Instance, point):
        self.m0 = instance.singleton_groups()
        self.scale, self.units, self.capacity_units = _sorted_units(instance)
        units = self.units
        self.point_scale, scaled = point.scaled
        columns = instance.columns
        entries = [[] for _ in units]
        for ref, x in scaled:
            if ref not in columns:
                raise ValidationError("variable out of range: %s" % (ref,))
            entries[ref.group - 1].append(
                (ref.slot, units[ref.group - 1][ref.slot - 1], x))
        self.x = dict(scaled)
        self.entries = [tuple(e) for e in entries]
        self.mass = [sum(u * x for _, u, x in e) for e in entries]

    def units_of(self, items) -> int:
        """The weight of an item tuple, in integer units."""
        return sum(self.units[ref.group - 1][ref.slot - 1] for ref in items)


def _as_ref(ref) -> VarRef:
    return ref if isinstance(ref, VarRef) else VarRef(*ref)


def _pack_cut(instance: Instance, pack: ItemSet, pivot: Optional[VarRef] = None,
              tilt_group: Optional[int] = None) -> LinearInequality:
    """The pack cut, optionally pivoted (pack2) and then tilted (pack3).

    Every pack group's variables start at their weights.  A pivot's group
    gets a_pivot * max(1, a / (a_pivot + slack)); a tilt shrinks the
    singleton's coefficient to a_pivot * a_tilt / (a_pivot + slack) and
    scales the slack by 1 + a_tilt / (a_pivot + slack).  The scaled slack
    goes to each non-singleton pack item outside the pivot group (the
    *receivers*), and the rhs is b + (receivers - 1) * scaled slack.
    """
    _checked(instance, pack)
    _sorted_units(instance)
    b = instance.capacity
    s = pack.weight(instance)
    if s >= b:
        raise PreconditionError("not a pack: weight %s >= capacity %s" % (s, b))
    m0 = instance.singleton_groups()
    free = [i for i in pack.groups() if i not in m0]  # M_P - M_0
    slack = b - s
    grown = slack
    if pivot is not None:
        if len(free) < 2:
            raise PreconditionError(
                "need at least two non-singleton pack groups, have %d" % len(free))
        if pivot not in pack:
            raise PreconditionError("pivot %s is not a pack item" % (pivot,))
        if pivot.group in m0:
            raise PreconditionError("pivot group %d is a singleton" % pivot.group)
        if pivot.slot != instance.slots(pivot.group):
            raise PreconditionError(
                "pivot %s is not its group's last slot" % (pivot,))
        a_pivot = instance.weight(pivot)
        denom = a_pivot + slack
        if tilt_group is not None:
            if tilt_group not in m0 or tilt_group not in set(pack.groups()):
                raise PreconditionError(
                    "tilt group %d is not a singleton pack group" % tilt_group)
            grown = slack * (1 + instance.weight(VarRef(tilt_group, 1)) / denom)
    coeffs = {}
    for i in pack.groups():
        weights = instance.group(i).weights
        if pivot is not None and i == pivot.group:
            # a_pivot * max(1, a / denom), as denom > 0 for nonnegative weights
            weights = [a_pivot * a / denom if a > denom else a_pivot
                       for a in weights]
        elif i == tilt_group:
            weights = [a_pivot * weights[0] / denom]
        for j, a in enumerate(weights, start=1):
            coeffs[VarRef(i, j)] = a
    receivers = [i for i in free if pivot is None or i != pivot.group]
    for ref in pack:
        if ref.group in receivers:
            coeffs[ref] += grown
    return LinearInequality(coeffs, b + (len(receivers) - 1) * grown)


def _pack_scores(sup: PointSupport, pack, slack, families):
    """``(violation, provenance key)`` of each member of the pack
    ``families`` that ``pack`` (slack b - s > 0, in units) gives, in the
    order of :func:`family_scores`: the closed form of :func:`_pack_cut` at
    the point.

    Each violation is  sum_{i in P} W_i - b + grown * (X - r + 1)  with X
    the summed values of the r receivers, after the pivot group's and the
    tilt variable's masses are taken under their replaced coefficients.
    It is summed in integers, times scale * D (see :class:`PointSupport`),
    and pack2 and pack3 also times den = a_pivot + slack in units, the
    denominator of the pivot group's coefficients a_pivot * max(a, den) /
    den and of the tilt's factor; each violation is then one Fraction.
    pack2 and pack3 need two non-singleton pack groups and a last-slot
    pivot; the shared sums are formed once per pack.
    """
    rank = FAMILY_RANK
    d = sup.point_scale
    x = sup.x
    unit = sup.scale * d
    lhs = -sup.capacity_units * d  # the pack groups' masses, less b
    free = []
    singles = []
    received = 0
    for ref in pack:
        lhs += sup.mass[ref.group - 1]
        if ref.group in sup.m0:
            singles.append(ref)
        else:
            free.append(ref)
            received += x.get(ref, 0)
    if "pack1" in families:
        yield (Fraction(lhs + slack * (received - (len(free) - 1) * d), unit),
               (pack, rank["pack1"], ()))
    if len(free) < 2 or ("pack2" not in families and "pack3" not in families):
        return
    for pivot in free:
        units = sup.units[pivot.group - 1]
        if pivot.slot != len(units):
            continue
        a_pivot = units[-1]
        den = a_pivot + slack
        pivoted = ((lhs - sup.mass[pivot.group - 1]) * den
                   + a_pivot * sum(max(a, den) * xa for _, a, xa
                                   in sup.entries[pivot.group - 1]))
        # X - r + 1 over the receivers, which exclude the pivot's group
        spread = received - x.get(pivot, 0) - (len(free) - 2) * d
        if "pack2" in families:
            yield (Fraction(pivoted + slack * den * spread, unit * den),
                   (pack, rank["pack2"], (pivot.group,)))
        if "pack3" not in families:
            continue
        for tilt in singles:
            # grown = slack * (den + a_tilt) / den, and a_tilt * x becomes
            # a_pivot * a_tilt / den * x, which is slack * a_tilt / den less
            a_tilt = sup.units[tilt.group - 1][0]
            tilted = pivoted + slack * ((den + a_tilt) * spread
                                        - a_tilt * x.get(tilt, 0))
            yield (Fraction(tilted, unit * den),
                   (pack, rank["pack3"], (pivot.group, tilt.group)))


def pack_inequality_1(instance: Instance, pack: ItemSet) -> GeneratedCut:
    """Pack cut: weights on all variables of pack groups, extra (b-s) on
    non-singleton pack items."""
    inequality = _pack_cut(instance, pack)
    # The theorem's facet statement needs a non-singleton pack group: its
    # point construction breaks down when M_P is all singletons (and the
    # claim is false there for packs of two or more items).
    groups = set(pack.groups())
    m0 = instance.singleton_groups()
    facet = (bool(groups - m0) and bool(groups & m0)
             and is_maximal_switching_pack(instance, pack))
    return GeneratedCut("pack1", inequality, pack, facet_guaranteed=facet)


def pack_inequality_2(instance: Instance, pack: ItemSet, pivot: VarRef) -> GeneratedCut:
    """Pack cut pivoting on a non-singleton last-slot item: the pivot group's
    lighter slots get scaled-up coefficients."""
    pivot = _as_ref(pivot)
    inequality = _pack_cut(instance, pack, pivot)
    facet = is_maximal_switching_pack(instance, pack)
    return GeneratedCut("pack2", inequality, pack,
                        facet_guaranteed=facet, pivot=pivot)


def pack_inequality_3(instance: Instance, pack: ItemSet, pivot: VarRef,
                      tilt_group: int) -> GeneratedCut:
    """The pack2 cut tilted toward a singleton pack group: its variable's
    coefficient shrinks while the other non-singleton pack items and the
    right-hand side slack grow by the same factor."""
    pivot = _as_ref(pivot)
    inequality = _pack_cut(instance, pack, pivot, tilt_group)
    remainder = ItemSet.of(ref for ref in pack if ref.group != tilt_group)
    facet = is_maximal_switching_pack(instance, remainder)
    return GeneratedCut("pack3", inequality, pack,
                        facet_guaranteed=facet, pivot=pivot, tilt_group=tilt_group)


def lifted_cover_inequality_1(instance: Instance, cover: ItemSet) -> GeneratedCut:
    """Lifted cover cut from a cover choosing slot r_i per group."""
    _checked(instance, cover)
    _, units, capacity = _sorted_units(instance)
    b = instance.capacity
    s = cover.weight(instance)
    if s <= b:
        raise PreconditionError("not a cover: weight %s <= capacity %s" % (s, b))
    over = sum(units[ref.group - 1][ref.slot - 1] for ref in cover) - capacity
    if not any(_lifts(units[ref.group - 1], ref.slot, over) for ref in cover):
        raise PreconditionError("lifting condition violated: no slot below any "
                                "chosen item keeps the rest under capacity")
    coeffs = {}
    for ref in cover.items:
        g = instance.group(ref.group)
        a_r = g.weights[ref.slot - 1]
        floor = b - (s - a_r)  # b minus the other chosen items' weight
        for j in range(1, g.size + 1):
            if j < ref.slot:
                coeffs[VarRef(ref.group, j)] = a_r
            else:
                coeffs[VarRef(ref.group, j)] = max(g.weights[j - 1], floor)
    facet = all(ref.slot == 1 for ref in cover.items)
    return GeneratedCut("lcover1", LinearInequality(coeffs, b), cover,
                        facet_guaranteed=facet)


def _lcover1_violation(sup: PointSupport, cover, excess):
    """The lcover1 cut's violation at the point, for a cover with excess
    s - b (in units) that meets the lifting condition; summed in integers
    times scale * D."""
    lhs = -sup.capacity_units * sup.point_scale
    for ref in cover:
        a_r = sup.units[ref.group - 1][ref.slot - 1]
        floor = a_r - excess  # b minus the other chosen items' weight
        for j, a, x in sup.entries[ref.group - 1]:
            lhs += (a_r if j < ref.slot else max(a, floor)) * x
    return Fraction(lhs, sup.scale * sup.point_scale)


def lifted_cover_inequality_2(instance: Instance, cover: ItemSet,
                              special: VarRef) -> GeneratedCut:
    """Lifted cover cut with one in-cover item lifted over its whole group.

    The special item must not sit on its group's last slot; the remaining
    cover items (slots t_i) are lifted within their groups."""
    special = _as_ref(special)
    _checked(instance, cover)
    _sorted_units(instance)
    b = instance.capacity
    s = cover.weight(instance)
    if s <= b:
        raise PreconditionError("not a cover: weight %s <= capacity %s" % (s, b))
    if special not in cover:
        raise PreconditionError("special item %s is not in the cover" % (special,))
    n_special = instance.slots(special.group)
    if special.slot >= n_special:
        raise PreconditionError("special item must sit above its group's last slot")
    g_special = instance.group(special.group)
    a_last = g_special.weights[n_special - 1]
    rest = sum((instance.weight(ref) for ref in cover if ref.group != special.group),
               Fraction(0))
    if rest + a_last >= b:
        raise PreconditionError(
            "lifting condition violated: %s + %s >= %s" % (rest, a_last, b))
    coeffs = {}
    floor = b - rest
    for j in range(1, n_special + 1):
        coeffs[VarRef(special.group, j)] = max(g_special.weights[j - 1], floor)
    for ref in cover:
        if ref.group == special.group:
            continue
        g = instance.group(ref.group)
        a_t = g.weights[ref.slot - 1]
        denom = b - (rest - a_t) - a_last
        for j in range(1, g.size + 1):
            if j <= ref.slot:
                coeffs[VarRef(ref.group, j)] = a_t * max(_F1, g.weights[j - 1] / denom)
            else:
                coeffs[VarRef(ref.group, j)] = g.weights[j - 1]
    facet = all(ref.slot == instance.slots(ref.group)
                for ref in cover if ref.group != special.group)
    return GeneratedCut("lcover2", LinearInequality(coeffs, b), cover,
                        facet_guaranteed=facet, special=special)


def _lcover2_violation(sup: PointSupport, cover, excess, special):
    """The lcover2 cut's violation at the point, for a cover with excess
    s - b (in units) whose special item meets the lifting condition.  With
    rest the weight of the other cover items, b - rest = a_special - excess.

    Summed in integers times scale * D: the lifted slots j <= t of each
    other cover group have coefficients a_t * max(a, den) / den, with
    den = b - (rest - a_t) - a_last, so their part is kept as one fraction
    ``lifted / dens`` over the product of the groups' dens.
    """
    units = sup.units[special.group - 1]
    a_last = units[-1]
    floor = units[special.slot - 1] - excess  # b - rest
    whole = -sup.capacity_units * sup.point_scale
    lifted, dens = 0, 1
    for ref in cover:
        entries = sup.entries[ref.group - 1]
        if ref.group == special.group:
            for _, a, x in entries:
                whole += max(a, floor) * x
            continue
        a_t = sup.units[ref.group - 1][ref.slot - 1]
        den = floor + a_t - a_last  # b - (rest - a_t) - a_last
        part = 0
        for j, a, x in entries:
            if j <= ref.slot:
                part += max(a, den) * x
            else:
                whole += a * x
        if part:
            lifted = lifted * den + a_t * part * dens
            dens *= den
    return Fraction(lifted + whole * dens, sup.scale * sup.point_scale * dens)


def _lifts(row, slot, over) -> bool:
    """The lifting test (see :func:`family_scores`) on one chosen ``slot``
    of a group with weights ``row``, for a cover with excess ``over``."""
    return slot < len(row) and row[slot - 1] - row[-1] > over


def family_scores(sup: PointSupport, items, units, families):
    """``(violation, provenance key)`` of every member of ``families`` that
    the item set ``items`` (a sorted tuple of VarRefs whose weight is
    ``units`` / ``sup.scale``) gives, each scored in closed form at the
    point ``sup`` was built from.

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
    over = units - sup.capacity_units
    if over < 0:
        if "pack1" in families or "pack2" in families or "pack3" in families:
            yield from _pack_scores(sup, items, -over, families)
    elif over > 0 and ("lcover1" in families or "lcover2" in families):
        specials = [ref for ref in items
                    if _lifts(sup.units[ref.group - 1], ref.slot, over)]
        if specials and "lcover1" in families:
            yield (_lcover1_violation(sup, items, over),
                   (items, FAMILY_RANK["lcover1"], ()))
        if "lcover2" in families:
            for special in specials:
                yield (_lcover2_violation(sup, items, over, special),
                       (items, FAMILY_RANK["lcover2"], (special.group,)))


BUILDERS = dict(zip(FAMILIES, (
    "pack_inequality_1", "pack_inequality_2", "pack_inequality_3",
    "lifted_cover_inequality_1", "lifted_cover_inequality_2")))


def build_member(instance: Instance, key) -> GeneratedCut:
    """The cut whose provenance key is ``key``, built by its family's public
    builder.  The builder is looked up by its module name at each call, so
    a wrapper set on this module (as the benchmark's tracer sets one) sees
    every build."""
    items, rank, aux = key
    itemset = ItemSet(items)
    args = ()
    if aux:  # the pivot or special item's group, then any tilt group
        args = (VarRef(aux[0], itemset.slot(aux[0])),) + aux[1:]
    return globals()[BUILDERS[FAMILIES[rank]]](instance, itemset, *args)


def enumerate_maximal_switching_packs(instance: Instance,
                                      limit: Optional[int] = None):
    """All maximal switching packs, as last-slot item sets over group
    subsets, in lexicographic subset order."""
    allowed = resolve_enum_limit(limit)
    if 2 ** instance.m > allowed:
        raise ResourceLimitError(
            "subset space 2^%d exceeds enumeration limit %d" % (instance.m, allowed),
            estimate=2 ** instance.m)
    _, units, capacity = _sorted_units(instance)
    groups = range(1, instance.m + 1)
    subsets = sorted(chain.from_iterable(
        combinations(groups, k) for k in range(1, instance.m + 1)))
    out = []
    for subset in subsets:
        tails = [units[i - 1] for i in subset]
        if is_switching(tails, capacity - sum(u[-1] for u in tails)):
            out.append(ItemSet(tuple(VarRef(i, len(u))
                                     for i, u in zip(subset, tails))))
    return out
