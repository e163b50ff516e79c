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
  the same integer form, which the cut keeps (``LinearInequality.scaled``).
  Its score becomes the one Fraction of the selection, and its built
  violation at the same point, ``model.lhs_at`` summed in integers over
  the cut's and the point's integer forms less the rhs, must equal it.

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

from .cuts import (GeneratedCut, PointSupport, build_member, family_scores,
                   is_switching, resolve_families)
from .errors import CkpError, PreconditionError, ValidationError
from .model import Instance, Point, VarRef, lhs_at, weight_of
from .numeric import require_integer
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
                   families: Union[str, Sequence[str], None] = "all",
                   limit: Optional[int] = None) -> SeparationResult:
    """Exhaustive separation over all one-slot-per-group item sets.

    Every family member whose precondition holds is scored in closed form
    and counted in ``examined``; only the winner is built.  The walk skips
    the subtrees where no member of ``families`` (read by
    ``cuts.resolve_families``) meets its precondition.
    """
    families = resolve_families(families)
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
    families = resolve_families(families)
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
                  for single in pack if single.group in instance.m0]
    return _select(instance, point, support,
                   ((items, support.units_of(items)) for items in packs),
                   families)


def build_partition_reduction(alphas, beta: int):
    """Instance + LP point whose lifted-cover separation answers partition.

    ``alphas`` are positive integers summing to 2 * beta, and beta >= 2
    (``PreconditionError`` below).  Groups 1..k are singletons weighted by
    the alphas, group k+1 has weights (3, 1, ..., 1) with beta trailing
    ones, the capacity is beta + 2, profits equal weights.  The returned
    point, built over 6 * beta (2 * beta - 3 on each singleton, all of
    the 3, 1/3 of each trailing one), makes the knapsack row tight.
    """
    alphas = tuple(alphas)
    if not alphas:
        raise ValidationError("alphas must be nonempty")
    if any(require_integer(a, "each alpha") <= 0 for a in alphas):
        raise ValidationError("alphas must be positive integers")
    if sum(alphas) != 2 * require_integer(beta, "beta"):  # so beta > 0
        raise ValidationError("alphas sum to %d, expected 2*beta = %d"
                              % (sum(alphas), 2 * beta))
    if beta < 2:
        raise PreconditionError("beta must be at least 2, got %d" % beta)
    k = len(alphas)
    groups = [((a,), (a,)) for a in alphas]
    tail = (3,) + (1,) * beta
    groups.append((tail, tail))
    instance = Instance.build(groups, beta + 2)
    entries = [(VarRef(i, 1), 2 * beta - 3) for i in range(1, k + 1)]
    entries.append((VarRef(k + 1, 1), 6 * beta))
    entries += [(VarRef(k + 1, j), 2 * beta) for j in range(2, beta + 2)]
    point = Point.from_scaled(6 * beta, entries)
    if weight_of(instance, point) != instance.capacity:
        raise CkpError("reduction point does not make the knapsack row tight")
    return instance, point
