"""Separation: exact enumeration per family, a deterministic greedy
heuristic, and the partition-problem reduction builder.

Exact separation walks every one-slot-per-group pattern (the same space the
oracle enumerates), builds each family member whose preconditions hold, and
returns a maximum-violation cut; ties break toward the lexicographically
smallest provenance (item set, then family, then auxiliary indices).  The
greedy heuristic builds one pack from last-slot items ordered by the
point's per-group weight mass and only proposes cuts from that pack and its
drop-one-singleton subsets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import cuts as cuts_mod
from .cuts import FAMILIES, GeneratedCut, ItemSet
from .errors import CkpError, PreconditionError, ValidationError
from .model import Instance, Point, VarRef, weight_of
from .oracle import check_enum_limit, iter_patterns

_F0 = Fraction(0)


@dataclass(frozen=True)
class SeparationStats:
    examined: int     # candidate cuts evaluated
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


def _violation(cut: GeneratedCut, point: Point) -> Fraction:
    lhs = _F0
    value = point.value
    for ref, coefficient in cut.inequality.terms:
        x = value(ref)
        if x:
            lhs += coefficient * x
    return lhs - cut.inequality.rhs


class _Best:
    """Tracks the most violated cut with the deterministic tie-break."""

    __slots__ = ("cut", "violation", "examined")

    def __init__(self):
        self.cut = None
        self.violation = None
        self.examined = 0

    def offer(self, cut: GeneratedCut, point: Point) -> None:
        self.examined += 1
        violation = _violation(cut, point)
        if violation <= 0:
            return
        if (self.violation is None or violation > self.violation
                or (violation == self.violation
                    and cut.provenance_key() < self.cut.provenance_key())):
            self.cut = cut
            self.violation = violation

    def result(self, started: float) -> SeparationResult:
        stats = SeparationStats(self.examined, time.monotonic() - started)
        return SeparationResult(self.cut, self.violation, stats)


def _pack_cuts_for(instance, itemset, m0, families, best, point):
    """Offer every admissible pack-family cut derived from one pack."""
    if "pack1" in families:
        best.offer(cuts_mod.pack_inequality_1(instance, itemset), point)
    if "pack2" not in families and "pack3" not in families:
        return
    group_set = itemset.groups()
    free = [i for i in group_set if i not in m0]
    if len(free) < 2:
        return
    singles = sorted(i for i in group_set if i in m0)
    for pivot in itemset:
        if pivot.group in m0 or pivot.slot != instance.slots(pivot.group):
            continue
        if "pack2" in families:
            best.offer(cuts_mod.pack_inequality_2(instance, itemset, pivot), point)
        if "pack3" in families:
            for tilt in singles:
                best.offer(
                    cuts_mod.pack_inequality_3(instance, itemset, pivot, tilt),
                    point)


def _cover_cuts_for(instance, itemset, families, best, point):
    """Offer every admissible lifted-cover cut derived from one cover."""
    if "lcover1" in families:
        try:
            best.offer(cuts_mod.lifted_cover_inequality_1(instance, itemset), point)
        except PreconditionError:
            pass
    if "lcover2" in families:
        for special in itemset:
            if special.slot >= instance.slots(special.group):
                continue
            try:
                best.offer(
                    cuts_mod.lifted_cover_inequality_2(instance, itemset, special),
                    point)
            except PreconditionError:
                pass


def separate_exact(instance: Instance, point: Point,
                   family: Union[str, Sequence[str], None] = "all",
                   limit: Optional[int] = None) -> SeparationResult:
    """Exhaustive separation over all one-slot-per-group item sets."""
    started = time.monotonic()
    families = _resolve_families(family)
    _require_lp_feasible(instance, point)
    check_enum_limit(instance, limit)
    want_packs = any(f.startswith("pack") for f in families)
    want_covers = any(f.startswith("lcover") for f in families)
    b = instance.capacity
    m0 = instance.singleton_groups()
    weights = [g.weights for g in instance.groups]
    best = _Best()
    for pattern in iter_patterns(instance):
        refs = [VarRef(i, j) for i, j in enumerate(pattern, start=1) if j]
        if not refs:
            continue
        s = sum((weights[ref.group - 1][ref.slot - 1] for ref in refs), _F0)
        if s < b and want_packs:
            _pack_cuts_for(instance, ItemSet(tuple(refs)), m0, families, best, point)
        elif s > b and want_covers:
            _cover_cuts_for(instance, ItemSet(tuple(refs)), families, best, point)
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
    if not cuts_mod.is_maximal_switching_pack(instance, pack):
        return best.result(started)
    m0 = instance.singleton_groups()
    packs = [pack]
    if len(pack) >= 2:
        for i in sorted(set(pack.groups()) & m0):
            packs.append(ItemSet.of(r for r in pack if r.group != i))
    for itemset in packs:
        _pack_cuts_for(instance, itemset, m0, families, best, point)
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
