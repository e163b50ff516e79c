"""Brute-force ground truth: candidate vertices, exact optimization over S,
validity checking, and face dimensions.

Everything here enumerates support patterns (one choice of "which slot may
be positive" per group, or none).  :func:`walk_patterns` is the library's
one pattern walk, for the oracle, exact separation and ``ckp cuts``: it
applies the enumeration guard (:func:`guard_enumeration`, the one guard,
also that of ``cuts.enumerate_maximal_switching_packs``) before the first
pattern and gives each pattern's weight in the instance's integer units.
Exact separation and ``ckp cuts`` pass it their cut families, and it skips
the subtrees in which no member of them can meet its precondition; the
oracle's one walk, :func:`enumerate_candidate_vertices`, visits every
pattern.

A non-integral vertex of the polytope has exactly one fractional component
and makes the knapsack row tight, so for each pattern it suffices to
consider the all-ones assignment plus the assignments with a single
designated fractional variable completing the capacity.  The resulting
candidate set is a superset of the vertices and a subset of the feasible
set S, hence its convex hull equals the polytope, and the maximum of a
linear function over the candidates is its maximum over S.  The candidates
are found in integer units, each fractional entry reduced by a gcd, and
kept once, in walk order (the origin, then per pattern the all-ones point
and the fractional points, last item first), as one integer table, a
:class:`VertexSet`: a denominator per candidate and a column of ints per
variable.  That table answers every query: a row's integer form (a cut
keeps its builder's), filled dense by ``Instance.integer_row``, is summed
over it a column at a time, and the first candidate of largest sum / den
is the maximizer of ``maximize_over_S`` and the witness of an invalid
inequality, the one ``ckp verify`` prints.  A valid inequality's face
dimension is the affine rank of its tight candidates, kept under the
inequality's integer form, so each distinct inequality is summed and
ranked once.  ``ckp oracle`` reads its candidate count and its maximum off
one enumeration.  The oracle shares no code with the node LP it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd
from operator import not_
from typing import Optional

from .errors import PreconditionError, ResourceLimitError, ValidationError
from .model import Instance, LinearInequality, Point, VarRef, clean_terms
from .numeric import affine_rank, require_integer

DEFAULT_ENUM_LIMIT = 10 ** 6


def resolve_enum_limit(limit: Optional[int] = None) -> int:
    """The explicit argument, else the default 10^6.  A limit below 1 or
    not an int is rejected."""
    if limit is None:
        return DEFAULT_ENUM_LIMIT
    if require_integer(limit, "enumeration limit") < 1:
        raise ValidationError("enumeration limit must be positive, got %d"
                              % limit)
    return limit


def guard_enumeration(estimate: int, noun: str,
                      limit: Optional[int] = None) -> None:
    """The one enumeration guard: ``ResourceLimitError`` when ``estimate``,
    the size of the space ``noun`` names, exceeds the limit."""
    allowed = resolve_enum_limit(limit)
    if estimate > allowed:
        raise ResourceLimitError(
            "%s exceeds enumeration limit %d" % (noun, allowed),
            estimate=estimate)


def pattern_count(instance: Instance) -> int:
    count = 1
    for g in instance.groups:
        count *= g.size + 1
    return count


def walk_patterns(instance: Instance, limit: Optional[int] = None,
                  families=None):
    """Every non-empty support pattern as ``(items, units)``, its sorted
    VarRef tuple and its weight in :attr:`Instance.units`, in product order
    (per group "none" first, the last group fastest).  A pattern space
    (:func:`pattern_count`) above the limit raises ``ResourceLimitError``
    at the call, before the first pattern; the patterns come from the
    generator returned.  The walk is depth first; each step extends its
    parent's tuple and sum instead of re-summing.

    With cut ``families`` (names from ``cuts.FAMILIES``), the walk skips
    each subtree in which no member of those families meets its
    precondition; the patterns given and the patterns skipped make up the
    whole non-empty pattern space.  At a prefix of weight s, over = s - b
    never falls along the subtree (weights are nonnegative), and an item
    added once over >= 0 has u - u_last <= over, so no pattern below is a
    pack or has a lifted-cover special item when over >= 0 and no chosen
    item's u - u_last (its group's last slot) exceeds over; with no pack
    family, none is a cover either when over plus the heaviest weights of
    the undecided groups is <= 0.  A pattern itself is given only when it
    is a pack and a pack family is asked for, or a cover with a special
    item and a cover family is."""
    estimate = pattern_count(instance)
    guard_enumeration(estimate, "pattern space %d" % estimate, limit)
    _, rows, capacity = instance.units
    return _patterns(rows, capacity, families)


def _patterns(rows, capacity, families):
    """The walk of :func:`walk_patterns` over the integer weights."""
    prune = families is not None
    if prune:
        packs = any(f.startswith("pack") for f in families)
        covers = any(f.startswith("lcover") for f in families)
    # per group, its options: "none", then each slot as (ref,), u and
    # u - u_last
    levels = [(((), 0, 0),) + tuple(((VarRef(i, j),), u, u - row[-1])
                                    for j, u in enumerate(row, start=1))
              for i, row in enumerate(rows, start=1)]
    m = len(levels)
    reach = [0] * (m + 1)  # the heaviest weights of the undecided groups
    for i in range(m - 1, -1, -1):
        reach[i] = reach[i + 1] + max(rows[i])
    stack = [(0, (), 0, 0)]  # depth, items, units, largest u - u_last
    while stack:
        i, items, units, margin = stack.pop()
        if prune:
            over = units - capacity
            if ((over >= 0 and (not covers or margin <= over))
                    or (not packs and over + reach[i] <= 0)):
                continue
        if i + 1 < m:
            for ext, u, gap in reversed(levels[i]):
                stack.append((i + 1, items + ext, units + u,
                              gap if gap > margin else margin))
            continue
        # the last group completes each pattern, given as it is made: a
        # pack when a pack family is asked for, a cover with a special
        # item when a cover family is
        for ext, u, gap in (levels[i] if items else levels[i][1:]):
            if prune:
                over = units + u - capacity
                if not (over < 0 and packs or over > 0 and covers
                        and max(margin, gap) > over):
                    continue
            yield items + ext, units + u


class VertexSet:
    """The candidate vertices of one instance in walk order (see the module
    docstring), stored once, as one integer table: candidate k is
    ``column[k] / dens[k]`` at each column of ``columns``, one tuple of
    ints per entry of ``Instance.columns``.  A :class:`Point` is made from
    it only for a maximizer or a witness, or at a read of :attr:`points`.
    Each valid inequality's face dimension is kept, keyed by its integer
    form ``scaled``, which is canonical and fixes the rank's cap."""

    __slots__ = ("instance", "dens", "columns", "_ranks")

    def __init__(self, instance: Instance, dens: tuple, columns: tuple):
        self.instance = instance
        self.dens = dens
        self.columns = columns
        self._ranks = {}

    def __len__(self):
        return len(self.dens)

    def _point(self, k: int) -> Point:
        return Point.from_scaled(self.dens[k], [
            (ref, column[k]) for ref, column
            in zip(self.instance.columns, self.columns) if column[k]])

    @property
    def points(self) -> tuple:
        """Every candidate as a :class:`Point`, in walk order."""
        return tuple(map(self._point, range(len(self.dens))))

    def _sums(self, coeffs, top: int) -> list:
        """Per candidate, ``den * (coeffs . x - top)`` for an integer row
        ``coeffs`` over :attr:`Instance.columns`: from the start vector
        ``-top * den``, summed in integers a column at a time."""
        sums = [-top * den for den in self.dens]
        for c, column in zip(coeffs, self.columns):
            if c:
                sums = [s + c * x for s, x in zip(sums, column)]
        return sums

    def _first_max(self, sums) -> int:
        """The first candidate in walk order of largest sum / den, the
        oracle's one tie rule."""
        dens, best = self.dens, 0
        for k, den in enumerate(dens):
            if sums[k] * dens[best] > sums[best] * den:
                best = k
        return best

    def maximize(self, objective):
        """Exact maximum of a linear objective over S and its first
        maximizing candidate as a :class:`Point`."""
        instance = self.instance
        coeffs, _, scale = instance.integer_row(
            LinearInequality(clean_terms(objective, instance), 0))
        sums = self._sums(coeffs, 0)
        k = self._first_max(sums)
        return Fraction(sums[k], self.dens[k] * scale), self._point(k)

    def face_dimension(self, inequality: LinearInequality) -> int:
        """Dimension of the face the (valid) inequality induces; -1 if empty.

        Each candidate's excess, its lhs less the rhs times its denominator
        and the inequality's scale, is summed once, in integers.  Above the
        rhs this raises with the first candidate of largest excess / den,
        the maximizer of the lhs, as witness, and keeps nothing.  Otherwise
        the result is the affine rank of the tight candidates, kept under
        the inequality's form, so a repeated inequality costs one lookup.
        """
        key = inequality.scaled
        rank = self._ranks.get(key)
        if rank is not None:
            return rank
        instance, dens = self.instance, self.dens
        coeffs, top, scale = instance.integer_row(inequality)
        excess = self._sums(coeffs, top)
        if max(excess) > 0:
            best = self._first_max(excess)
            den = dens[best]
            lhs = Fraction(excess[best] + top * den, den * scale)
            raise PreconditionError(
                "inequality is not valid (max %s > rhs %s)"
                % (lhs, inequality.rhs), witness=self._point(best))
        cap = instance.dimension - 1 if key[2] else instance.dimension
        columns = self.columns
        rank = self._ranks[key] = affine_rank(
            ((dens[k], [column[k] for column in columns])
             for k in compress(range(len(dens)), map(not_, excess))), cap)
        return rank


def enumerate_candidate_vertices(instance: Instance, limit: Optional[int] = None) -> VertexSet:
    """The candidate vertices of the polytope (see module docstring), in
    walk order.

    The origin, then per pattern of :func:`walk_patterns`, in
    integer units: the all-ones point when the pattern's weight fits the
    capacity, then each point whose one fractional entry room / a
    (0 < room < a) fills the capacity exactly, last item first.  Every
    candidate's support is its pattern, so no candidate repeats.
    """
    _, rows, capacity = instance.units
    col = instance.columns
    found = [(1, [0] * len(col))]  # (den, row) per candidate: the origin
    for items, total in walk_patterns(instance, limit):
        ones = [0] * len(col)
        for ref in items:
            ones[col[ref]] = 1
        if total <= capacity:
            found.append((1, ones))
        for ref in reversed(items):
            a = rows[ref.group - 1][ref.slot - 1]
            room = capacity - total + a
            if 0 < room < a:  # room / a strictly inside (0, 1)
                common = gcd(room, a)
                den = a // common
                row = [x * den for x in ones]
                row[col[ref]] = room // common
                found.append((den, row))
    dens, rows = zip(*found)
    return VertexSet(instance, dens, tuple(zip(*rows)))


def maximize_over_S(instance: Instance, objective, limit: Optional[int] = None):
    """Exact maximum of a linear objective over S, with a maximizing point:
    :meth:`VertexSet.maximize` over a fresh enumeration."""
    return enumerate_candidate_vertices(instance, limit).maximize(objective)


@dataclass(frozen=True)
class ValidityResult:
    valid: bool
    max_value: Fraction
    witness: Optional[Point]  # a feasible point beating the rhs, when invalid

    def __bool__(self):
        return self.valid


def check_validity(instance: Instance, inequality: LinearInequality,
                   limit: Optional[int] = None) -> ValidityResult:
    """Valid iff the exact maximum of the lhs over S stays within the rhs."""
    value, argmax = maximize_over_S(instance, dict(inequality.terms), limit)
    if value <= inequality.rhs:
        return ValidityResult(True, value, None)
    return ValidityResult(False, value, argmax)


def face_dimension(instance: Instance, inequality: LinearInequality,
                   limit: Optional[int] = None) -> int:
    """:meth:`VertexSet.face_dimension` over a fresh enumeration."""
    return enumerate_candidate_vertices(instance, limit).face_dimension(inequality)
