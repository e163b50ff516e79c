"""Separation: exact enumeration per family, a deterministic greedy
heuristic, and the partition-problem reduction builder.

Both separators take a point in integer form: a ``model.Point`` or a node
LP's ``simplex.LpSolution``, read only through ``scaled = (D, ((ref, X),
...))``.  They first check the point's references and its knapsack row on
its support in integer units (:class:`cuts.PointSupport`: X = x * D, the
weights and capacity scaled by their own LCM), then share one select
routine over item sets, each given with its weight in integer units:

* score: each family member whose precondition holds gets its violation
  as an integer pair ``(num, den)``, its integer form summed over the
  support (:func:`cuts.family_scores`), with nothing built; scores are
  compared by cross-multiplication;
* build one: the winner, the maximum positive violation with ties broken
  toward the lexicographically smallest provenance key (item set, then
  family, then auxiliary indices), is built by its public builder from
  the same integer form, and its built violation at the same point
  (``model.lhs_at`` on the integer form), the one Fraction of the
  selection, must equal its score.

Exact separation gives it the non-empty one-slot-per-group patterns of
the oracle's guarded walk (:func:`oracle.walk_patterns`), which skips each
subtree where no member of the requested families meets its precondition;
``stats.patterns`` counts the skipped patterns too, and ``stats.pruned``
those alone.  The greedy heuristic builds one pack from last-slot items
ordered by the point's per-group weight mass, both in integer units, keeps
it only when it passes the integer maximal-switching test
(:func:`cuts.is_switching`), and gives only that pack and its
drop-one-singleton subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .cuts import (FAMILIES, GeneratedCut, PointSupport, build_member,
                   family_scores, is_switching)
from .errors import CkpError, PreconditionError, ValidationError
from .model import Instance, Point, VarRef, lhs_at, weight_of
from .oracle import walk_patterns


@dataclass(frozen=True)
class SeparationStats:
    examined: int     # candidate cuts evaluated
    patterns: int     # non-empty patterns walked (exact), packs tried (greedy)
    pruned: int = 0   # of the patterns, those skipped without scoring


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


def _require_lp_feasible(instance: Instance, point: Point) -> PointSupport:
    """The point's support in integer units (building it checks every
    reference), once the point is known to satisfy the knapsack row."""
    support = PointSupport(instance, point)
    if sum(support.mass) > support.capacity_units * support.point_scale:
        raise PreconditionError("point violates the knapsack row")
    return support


def _select(instance: Instance, point: Point, support, itemsets,
            families) -> SeparationResult:
    """Score every member of ``families`` that each ``(items, units)`` of
    ``itemsets`` gives and build only the winner: the highest violation,
    if positive, ties to the smallest provenance key.  Scores are integer
    pairs ``(num, den)``, den > 0, compared by cross-multiplication; the
    winner's becomes the one Fraction.  Its built violation and key must
    equal the scored ones.  The patterns a pruned walk skipped (its
    ``pruned``) count as patterns too."""
    best, best_den = 0, 1  # only a positive score wins
    key = cut = violation = None
    examined = patterns = 0
    for items, units in itemsets:
        patterns += 1
        for (num, den), k in family_scores(support, items, units, families):
            examined += 1
            lead = num * best_den - best * den
            if lead > 0 or (lead == 0 and key is not None and k < key):
                best, best_den, key = num, den, k
    if key is not None:
        violation = Fraction(best, best_den)
        cut = build_member(instance, key)
        built = lhs_at(cut.inequality, point) - cut.inequality.rhs
        if built != violation or cut.provenance_key() != key:
            raise CkpError("built %s cut has violation %s, scored %s"
                           % (cut.family, built, violation))
    pruned = getattr(itemsets, "pruned", 0)
    return SeparationResult(cut, violation,
                            SeparationStats(examined, patterns + pruned, pruned))


def separate_exact(instance: Instance, point: Point,
                   family: Union[str, Sequence[str], None] = "all",
                   limit: Optional[int] = None) -> SeparationResult:
    """Exhaustive separation over all one-slot-per-group item sets.

    Every family member whose precondition holds is scored in closed form
    and counted in ``examined``; only the winner is built.  The walk skips
    the subtrees where no member of ``family`` meets its precondition.
    """
    families = _resolve_families(family)
    support = _require_lp_feasible(instance, point)
    return _select(instance, point, support,
                   walk_patterns(instance, limit, families), families)


def separate_greedy(instance: Instance, point: Point,
                    families: Union[str, Sequence[str], None] = "all") -> SeparationResult:
    """One-pass heuristic: build a single pack greedily and score its cuts.

    Groups are visited by descending weight mass at the point (ties by
    index); each group's last-slot item joins the pack when it keeps the
    running weight strictly under the capacity.  Only a maximal switching
    pack is used, with the packs that drop one of its singletons; their
    members are scored and only the winner is built, as in exact
    separation.  Sound but not complete.
    """
    families = _resolve_families(families)
    support = _require_lp_feasible(instance, point)
    mass = support.mass
    units = support.units
    slack = support.capacity_units  # b less the pack's weight, in units
    chosen = []
    for i in sorted(range(instance.m), key=lambda i: (-mass[i], i)):
        if units[i][-1] < slack:
            chosen.append(i)
            slack -= units[i][-1]
    chosen.sort()
    if not chosen or not is_switching([units[i] for i in chosen], slack):
        return _select(instance, point, support, (), families)
    pack = tuple(VarRef(i + 1, len(units[i])) for i in chosen)
    packs = [pack]
    if len(pack) >= 2:
        packs += [tuple(r for r in pack if r != single)
                  for single in pack if single.group in support.m0]
    return _select(instance, point, support,
                   ((items, support.units_of(items)) for items in packs),
                   families)


@dataclass(frozen=True)
class PartitionInput:
    """A partition-problem instance: positive integers summing to 2*beta."""

    alphas: tuple
    beta: int

    def __post_init__(self):
        if not self.alphas:
            raise ValidationError("alphas must be nonempty")
        for a in self.alphas:
            if not isinstance(a, int) or isinstance(a, bool) or a <= 0:
                raise ValidationError("alphas must be positive integers")
        if (not isinstance(self.beta, int) or isinstance(self.beta, bool)
                or self.beta <= 0):
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
