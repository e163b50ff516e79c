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
so all three are built by one routine.  ``tilt_pack_inequality`` re-derives
``pack3`` from ``pack2`` step by step, as an independent check.

Each generator checks its mathematical preconditions and raises
PreconditionError when they fail; ``facet_guaranteed`` is set exactly when
the relevant theorem's sufficient condition holds on the instance.
:func:`family_cuts` lists the members of chosen families that one item set
gives; exact separation and the ``ckp cuts`` command both walk it.
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
    ``tilt_group`` the singleton group a pack3 cut was tilted toward,
    ``special`` the in-cover item lifted over its group (lcover2), and
    ``witness`` the recorded slot pair certifying the lcover1 hypothesis.
    """

    family: str
    inequality: LinearInequality
    items: ItemSet
    facet_guaranteed: bool = False
    pivot: Optional[VarRef] = None
    tilt_group: Optional[int] = None
    special: Optional[VarRef] = None
    witness: Optional[VarRef] = None

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


def is_cover(instance: Instance, itemset: ItemSet) -> bool:
    return _checked(instance, itemset).weight(instance) > instance.capacity


def is_pack(instance: Instance, itemset: ItemSet) -> bool:
    return _checked(instance, itemset).weight(instance) < instance.capacity


def is_maximal_switching_pack(instance: Instance, itemset: ItemSet) -> bool:
    """Last-slot pack whose every non-singleton swap overshoots the capacity."""
    if not is_pack(instance, itemset):
        return False
    s = itemset.weight(instance)
    b = instance.capacity
    for ref in itemset:
        n = instance.slots(ref.group)
        if ref.slot != n:
            return False
    for ref in itemset:
        n = instance.slots(ref.group)
        if n == 1:
            continue
        g = instance.group(ref.group)
        if s - g.weights[n - 1] + g.weights[n - 2] <= b:
            return False
    return True


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


def tilt_pack_inequality(instance: Instance, cut: GeneratedCut,
                         tilt_group: int) -> LinearInequality:
    """Apply the tilting steps to a pack2 cut, independent of the pack3
    closed form: shrink the singleton's coefficient, grow the other
    non-singleton pack items, scale the rhs slack."""
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


def lifted_cover_inequality_1(instance: Instance, cover: ItemSet) -> GeneratedCut:
    """Lifted cover cut from a cover choosing slot r_i per group."""
    _checked(instance, cover)
    b = instance.capacity
    s = cover.weight(instance)
    if s <= b:
        raise PreconditionError("not a cover: weight %s <= capacity %s" % (s, b))
    witness = None
    for ref in cover.items:
        g = instance.group(ref.group)
        for j in range(ref.slot + 1, g.size + 1):
            if s - g.weights[ref.slot - 1] + g.weights[j - 1] < b:
                witness = VarRef(ref.group, j)
                break
        if witness is not None:
            break
    if witness is None:
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
                        facet_guaranteed=facet, witness=witness)


def lifted_cover_inequality_2(instance: Instance, cover: ItemSet,
                              special: VarRef) -> GeneratedCut:
    """Lifted cover cut with one in-cover item lifted over its whole group.

    The special item must not sit on its group's last slot; the remaining
    cover items (slots t_i) are lifted within their groups."""
    special = _as_ref(special)
    _checked(instance, cover)
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


def family_cuts(instance: Instance, itemset: ItemSet, families):
    """Every member of ``families`` that one item set gives, in order.

    Pass pack families for a pack and cover families for a cover.  Per
    family: ``pack1`` once; ``pack2`` once per non-singleton last-slot
    pivot and ``pack3`` once per such pivot and singleton tilt group, both
    only when the pack has two non-singleton groups; ``lcover1`` once and
    ``lcover2`` once per in-cover item above its group's last slot, each
    skipped when its lifting condition fails.  Builders are looked up by
    their module names at each call, so a wrapper set on this module (as
    the benchmark's tracer sets one) sees every build.
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


def enumerate_maximal_switching_packs(instance: Instance,
                                      limit: Optional[int] = None):
    """All maximal switching packs, as last-slot item sets over group
    subsets, in lexicographic subset order."""
    allowed = resolve_enum_limit(limit)
    if 2 ** instance.m > allowed:
        raise ResourceLimitError(
            "subset space 2^%d exceeds enumeration limit %d" % (instance.m, allowed),
            estimate=2 ** instance.m)
    groups = range(1, instance.m + 1)
    subsets = sorted(chain.from_iterable(
        combinations(groups, k) for k in range(1, instance.m + 1)))
    out = []
    for subset in subsets:
        itemset = ItemSet.of(VarRef(i, instance.slots(i)) for i in subset)
        if is_maximal_switching_pack(instance, itemset):
            out.append(itemset)
    return out
