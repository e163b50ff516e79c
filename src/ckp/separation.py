"""Separation: exact enumeration per family, a deterministic greedy
heuristic, and the partition-problem reduction builder.

Exact separation has three steps:

* walk: every non-empty one-slot-per-group pattern (the space the oracle
  enumerates), depth first, carrying the item tuple and its weight sum in
  exact integer units;
* score: each family member whose precondition holds gets its violation
  in closed form from the point's per-group support
  (:func:`cuts.family_scores`), with nothing built;
* build one: the winner, the maximum violation with ties broken toward the
  lexicographically smallest provenance key (item set, then family, then
  auxiliary indices), is built by its public builder, and its built
  violation must equal its score.

The greedy heuristic builds one pack from last-slot items ordered by the
point's per-group weight mass and only proposes cuts from that pack and its
drop-one-singleton subsets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .cuts import (FAMILIES, GeneratedCut, ItemSet, PointSupport, build_member,
                   family_cuts, family_scores, is_maximal_switching_pack)
from .errors import CkpError, PreconditionError, ValidationError
from .model import Instance, Point, VarRef, lhs_at, weight_of
from .oracle import check_enum_limit

_F0 = Fraction(0)


@dataclass(frozen=True)
class SeparationStats:
    examined: int     # candidate cuts evaluated
    patterns: int     # non-empty patterns walked (exact), packs tried (greedy)
    elapsed: float    # wall seconds


@dataclass(frozen=True)
class SeparationResult:
    cut: Optional[GeneratedCut]
    violation: Optional[Fraction]
    stats: SeparationStats

    @property
    def found(self) -> bool:
        return self.cut is not None


def _resolve_families(family: Union[str, Sequence[str], None]):
    if family is None or family == "all":
        return FAMILIES
    if isinstance(family, str):
        family = (family,)
    out = tuple(family)
    for name in out:
        if name not in FAMILIES:
            raise ValidationError("unknown cut family: %r" % (name,))
    return out


def _require_lp_feasible(instance: Instance, point: Point) -> None:
    for ref, _ in point.entries:
        instance.check_ref(ref)
    if weight_of(instance, point) > instance.capacity:
        raise PreconditionError("point violates the knapsack row")


class _Best:
    """Tracks the most violated candidate with the deterministic tie-break:
    the higher violation wins, then the smaller provenance key."""

    __slots__ = ("violation", "key", "cut", "examined", "patterns")

    def __init__(self):
        self.violation = None
        self.key = None
        self.cut = None
        self.examined = 0
        self.patterns = 0

    def offer(self, violation, key, cut=None) -> None:
        self.examined += 1
        if violation <= 0:
            return
        if (self.violation is None or violation > self.violation
                or (violation == self.violation and key < self.key)):
            self.violation = violation
            self.key = key
            self.cut = cut

    def offer_cut(self, cut: GeneratedCut, point: Point) -> None:
        self.offer(lhs_at(cut.inequality, point) - cut.inequality.rhs,
                   cut.provenance_key(), cut)

    def result(self, started: float) -> SeparationResult:
        stats = SeparationStats(self.examined, self.patterns,
                                time.monotonic() - started)
        return SeparationResult(self.cut, self.violation, stats)


def _walk(sup: PointSupport):
    """Every non-empty pattern as ``(items, units)``, its item tuple and its
    weight in ``sup``'s integer units, depth first in the oracle's pattern
    order; each step extends its parent's tuple and sum instead of
    re-summing."""
    levels = [tuple((VarRef(i, j), u) for j, u in enumerate(row, start=1))
              for i, row in enumerate(sup.units, start=1)]
    m = len(levels)
    stack = [(0, (), 0)]
    while stack:
        i, items, units = stack.pop()
        if i == m:
            if items:
                yield items, units
            continue
        for ref, u in reversed(levels[i]):
            stack.append((i + 1, items + (ref,), units + u))
        stack.append((i + 1, items, units))


def separate_exact(instance: Instance, point: Point,
                   family: Union[str, Sequence[str], None] = "all",
                   limit: Optional[int] = None) -> SeparationResult:
    """Exhaustive separation over all one-slot-per-group item sets.

    Every family member whose precondition holds is scored in closed form
    and counted in ``examined``; only the winner is built.
    """
    started = time.monotonic()
    families = _resolve_families(family)
    _require_lp_feasible(instance, point)
    check_enum_limit(instance, limit)
    support = PointSupport(instance, point)
    best = _Best()
    for items, units in _walk(support):
        best.patterns += 1
        for violation, key in family_scores(support, items, units, families):
            best.offer(violation, key)
    if best.key is not None:
        cut = build_member(instance, best.key)
        built = lhs_at(cut.inequality, point) - cut.inequality.rhs
        if built != best.violation or cut.provenance_key() != best.key:
            raise CkpError("built %s cut has violation %s, scored %s"
                           % (cut.family, built, best.violation))
        best.cut = cut
    return best.result(started)


def separate_greedy(instance: Instance, point: Point,
                    families: Union[str, Sequence[str], None] = "all") -> SeparationResult:
    """One-pass heuristic: build a single pack greedily and score its cuts.

    Groups are visited by descending weight mass at the point (ties by
    index); each group's last-slot item joins the pack when it keeps the
    running weight strictly under the capacity.  Only a maximal switching
    pack is used.  Sound but not complete.
    """
    started = time.monotonic()
    families = _resolve_families(families)
    _require_lp_feasible(instance, point)
    b = instance.capacity
    best = _Best()
    mass = {}
    for ref, x in point.entries:
        mass[ref.group] = mass.get(ref.group, _F0) + instance.weight(ref) * x
    order = sorted(range(1, instance.m + 1),
                   key=lambda i: (-(mass.get(i, _F0)), i))
    total = _F0
    chosen = []
    for i in order:
        last = VarRef(i, instance.slots(i))
        a = instance.weight(last)
        if total + a < b:
            chosen.append(last)
            total += a
    if not chosen:
        return best.result(started)
    pack = ItemSet.of(chosen)
    if not is_maximal_switching_pack(instance, pack):
        return best.result(started)
    packs = [pack]
    if len(pack) >= 2:
        for i in sorted(set(pack.groups()) & instance.singleton_groups()):
            packs.append(ItemSet.of(r for r in pack if r.group != i))
    families = tuple(f for f in families if f.startswith("pack"))
    for itemset in packs:
        best.patterns += 1
        for cut in family_cuts(instance, itemset, families):
            best.offer_cut(cut, point)
    return best.result(started)


@dataclass(frozen=True)
class PartitionInput:
    """A partition-problem instance: positive integers summing to 2*beta."""

    alphas: tuple
    beta: int

    def __post_init__(self):
        if not self.alphas:
            raise ValidationError("alphas must be nonempty")
        for a in self.alphas:
            if not isinstance(a, int) or a <= 0:
                raise ValidationError("alphas must be positive integers")
        if not isinstance(self.beta, int) or self.beta <= 0:
            raise ValidationError("beta must be a positive integer")
        if sum(self.alphas) != 2 * self.beta:
            raise ValidationError(
                "alphas sum to %d, expected 2*beta = %d"
                % (sum(self.alphas), 2 * self.beta))


def build_partition_reduction(partition, beta: Optional[int] = None):
    """Instance + LP point whose lifted-cover separation answers partition.

    Accepts a PartitionInput or ``(alphas, beta)``.  Groups 1..k are
    singletons weighted by the alphas, group k+1 has weights (3, 1, ..., 1)
    with beta trailing ones, the capacity is beta + 2, profits equal
    weights.  The returned point makes the knapsack row exactly tight.
    """
    if not isinstance(partition, PartitionInput):
        partition = PartitionInput(tuple(partition), beta)
    elif beta is not None:
        raise ValidationError("beta given twice")
    k = len(partition.alphas)
    beta = partition.beta
    if beta < 2:
        raise PreconditionError("beta must be at least 2, got %d" % beta)
    groups = [((a,), (a,)) for a in partition.alphas]
    tail = (3,) + (1,) * beta
    groups.append((tail, tail))
    instance = Instance.build(groups, beta + 2)
    low = Fraction(2 * beta - 3, 6 * beta)
    entries = [(VarRef(i, 1), low) for i in range(1, k + 1)]
    entries.append((VarRef(k + 1, 1), Fraction(1)))
    for j in range(2, beta + 2):
        entries.append((VarRef(k + 1, j), Fraction(1, 3)))
    point = Point(entries)
    if weight_of(instance, point) != instance.capacity:
        raise CkpError("reduction point does not make the knapsack row tight")
    return instance, point
