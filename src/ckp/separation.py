"""Separation: exact enumeration per family, a deterministic greedy
heuristic, and the partition-problem reduction builder.

Both separators take a point in integer form: a ``model.Point`` or a node
LP's ``simplex.LpSolution``, read only through ``scaled = (D, ((ref, X),
...))``.  The members an item set gives are instance data
(:func:`cuts.family_members`); only their scores read the point, here.
The separators check the point's references and its knapsack row on its
support in integer units (:class:`PointSupport`: X = x * D, the weights
and capacity scaled by their own LCM), then share one select routine
over item sets, each given with its weight in integer units:

* score: each listed member's integer form is summed, each group's rule
  over the point's entries in it alone (:func:`_score`), into its violation
  as an integer pair ``(num, den)``; scores compare by cross-multiplying;
* build one: the winner, the maximum positive violation with ties broken
  toward the lexicographically smallest provenance key (item set, then
  family, then auxiliary indices), is built from the key and integer form
  it was scored under (:func:`cuts.member_cut`), which the cut keeps
  (``LinearInequality.scaled``).  Its score becomes the one Fraction of
  the selection, and its built violation at the same point,
  ``model.lhs_at`` summed in integers over the cut's and the point's
  integer forms less the rhs, must equal it.

Exact separation gives it the non-empty one-slot-per-group patterns of
the oracle's guarded walk (:func:`oracle.walk_patterns`), which skips each
subtree where no member of the requested families meets its precondition;
``stats.patterns`` is the whole non-empty pattern space and
``stats.pruned`` that space less the patterns walked.  The greedy
heuristic builds one pack from last-slot items ordered by the point's
per-group weight mass, both in integer units, keeps it only when it
passes the integer maximal-switching test (:func:`cuts.is_switching`),
and gives only that pack and its drop-one-singleton subsets, each with
the weight it has already summed.

Both separators and the reduction builder take the support from
:func:`_support`, which keeps the last one made, read-only, for the same
instance and point objects: a reduction's point, or a node LP point
separated greedily and then exactly, is read once.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .cuts import (GeneratedCut, family_members, is_switching, member_cut,
                   resolve_families, rule_terms)
from .errors import CkpError, PreconditionError, ValidationError
from .model import Group, Instance, Point, lhs_at
from .numeric import require_integer
from .oracle import pattern_count, walk_patterns


class SeparationStats(NamedTuple):
    examined: int     # members scored
    patterns: int     # non-empty pattern space (exact), packs tried (greedy)
    pruned: int = 0   # of the patterns, those the walk skipped


class SeparationResult(NamedTuple):
    cut: Optional[GeneratedCut]
    violation: Optional[Fraction]
    stats: SeparationStats

    @property
    def found(self) -> bool:
        return self.cut is not None


class PointSupport(namedtuple("PointSupport", "scale units capacity_units "
                                "point_scale entries mass")):
    """One point's positive entries, grouped for scoring the integer forms,
    and the instance's weights, all in integer units; read-only, as one
    support is shared (:func:`_support`).

    Weights and the capacity come scaled by ``scale`` (see
    :attr:`Instance.units`) as ``units`` and ``capacity_units``, so that an
    item set's weight and every precondition compare exact integers.  The
    point is read in its integer form ``point.scaled = (D, ((ref, X),
    ...))`` (a ``model.Point`` or a ``simplex.LpSolution``), with D as
    ``point_scale``, so each x is the integer X = x * D.  Per group i (tuple
    index i - 1): ``entries`` as ``(slot, X)`` for the point's positive
    variables; and ``mass``, sum U * X over them with U the slot's weight
    in units, which is W_i = sum_j a_ij x_ij times scale * D.  The instance
    must be normalized.  Building the support refuses a separation point
    twice over: a reference outside the instance, as the integer lists are
    indexed by it (one lookup in :attr:`Instance.columns` each, and
    :meth:`Instance.check_ref` raises on a miss), and a point over the
    knapsack row, sum W_i > b (``PreconditionError``).
    """

    __slots__ = ()

    def __new__(cls, instance: Instance, point):
        scale, units, capacity_units = instance.normalized_units()
        point_scale, scaled = point.scaled
        entries = [[] for _ in units]
        mass = [0] * len(units)
        columns = instance.columns
        for ref, x in scaled:
            if ref not in columns:
                instance.check_ref(ref)
            i = ref.group - 1
            entries[i].append((ref.slot, x))
            mass[i] += units[i][ref.slot - 1] * x
        if sum(mass) > capacity_units * point_scale:
            raise PreconditionError("point violates the knapsack row")
        return tuple.__new__(cls, (scale, units, capacity_units, point_scale,
                                   tuple(map(tuple, entries)), tuple(mass)))


_held = (None, None, None)  # the last support made: (instance, point, it)


def _support(instance: Instance, point) -> PointSupport:
    """``PointSupport(instance, point)``, kept for the next call at the
    same two objects until another pair's is made; a refused point is not
    kept.  Keyed by identity, as hashing an Instance costs more than a
    support; holding both objects keeps their ids from being reused."""
    global _held
    held = _held
    if held[0] is not instance or held[1] is not point:
        held = _held = instance, point, PointSupport(instance, point)
    return held[2]


def _score(sup: PointSupport, form):
    """An integer form's violation at the point ``sup`` was built from, as
    ``(num, den)`` with den > 0: lhs - rhs = num / den, each group's rule
    summed over the point's entries in it (:func:`cuts.rule_terms`)."""
    den, rhs, rules = form
    d = sup.point_scale
    units, entries = sup.units, sup.entries
    lhs = -rhs * d
    for i, rule in rules.items():
        lhs += sum(rule_terms(rule, units[i - 1], entries[i - 1]))
    return lhs, sup.scale * den * d


def _select(instance: Instance, point: Point, support, itemsets, families,
            space: int) -> SeparationResult:
    """Score every member of ``families`` that each ``(items, units)`` of
    ``itemsets`` gives (:func:`cuts.family_members`) and build only the
    winner, from the key and form it was scored under
    (:func:`cuts.member_cut`): the highest violation, if positive, ties to
    the smallest provenance key.  Scores are integer pairs ``(num, den)``,
    den > 0, compared by cross-multiplication; the winner's becomes the
    one Fraction, and its built violation must equal it.  The item sets
    are drawn from ``space`` ones; the rest count as pruned."""
    rows, capacity = support.units, support.capacity_units
    best, best_den = 0, 1  # only a positive score wins
    key = best_form = cut = violation = None
    examined = walked = 0
    for items, units in itemsets:
        walked += 1
        for k, form in family_members(rows, capacity, items, units, families):
            examined += 1
            num, den = _score(support, form)
            lead = num * best_den - best * den
            if lead > 0 or (lead == 0 and key is not None and k < key):
                best, best_den, key, best_form = num, den, k, form
    if key is not None:
        violation = Fraction(best, best_den)
        cut = member_cut(instance, key, best_form)
        built = lhs_at(cut.inequality, point) - cut.inequality.rhs
        if built != violation:
            raise CkpError("built %s cut has violation %s, scored %s"
                           % (cut.family, built, violation))
    return SeparationResult(cut, violation,
                            SeparationStats(examined, space, space - walked))


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
    support = _support(instance, point)
    return _select(instance, point, support,
                   walk_patterns(instance, limit, families), families,
                   pattern_count(instance) - 1)


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
    support = _support(instance, point)
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
        return _select(instance, point, support, (), families, 0)
    refs, spans = instance.layout.refs, instance.layout.spans
    pack = tuple(refs[spans[i][1] - 1] for i in chosen)  # last slots
    weight = support.capacity_units - slack
    packs = [(pack, weight)]
    if len(pack) >= 2:
        packs += [(tuple(r for r in pack if r != single),
                   weight - units[single.group - 1][0])
                  for single in pack if single.group in instance.m0]
    return _select(instance, point, support, packs, families, len(packs))


def build_partition_reduction(alphas, beta: int):
    """Instance + LP point whose lifted-cover separation answers partition.

    ``alphas`` are positive integers summing to 2 * beta, and beta >= 2
    (``PreconditionError`` below).  Groups 1..k are singletons weighted by
    the alphas, group k+1 has weights (3, 1, ..., 1) with beta trailing
    ones, the capacity is beta + 2, profits equal weights.  The returned
    point, built over 6 * beta (2 * beta - 3 on each singleton, all of
    the 3, 1/3 of each trailing one), makes the knapsack row tight, as
    checked on its support (:func:`_support`), which the separators reuse.
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
    groups = [Group.from_forms((1, (a,)), (1, (a,))) for a in alphas]
    tail = (1, (3,) + (1,) * beta)
    groups.append(Group.from_forms(tail, tail))
    instance = Instance(groups, beta + 2)
    refs = instance.layout.refs  # the k singletons', then group k + 1's
    entries = [(ref, 2 * beta - 3) for ref in refs[:k]]
    entries.append((refs[k], 6 * beta))
    entries += [(ref, 2 * beta) for ref in refs[k + 1:]]
    point = Point.from_scaled(6 * beta, entries)
    support = _support(instance, point)
    if sum(support.mass) != support.capacity_units * support.point_scale:
        raise CkpError("reduction point does not make the knapsack row tight")
    return instance, point
