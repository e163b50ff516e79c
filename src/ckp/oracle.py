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
oracle's own walks visit every pattern.

A non-integral vertex of the polytope has exactly one fractional component
and makes the knapsack row tight, so for each pattern it suffices to
consider the all-ones assignment plus the assignments with a single
designated fractional variable completing the capacity.  The resulting
candidate set is a superset of the vertices and a subset of the feasible
set S, hence its convex hull equals the polytope.  So the maximum of a
linear function over the candidates is its maximum over S, and a
:class:`VertexSet` answers validity and face-dimension queries for any
number of inequalities from one enumeration.  The candidates are found in
integer units and kept as one integer table, a denominator per candidate
and a column of ints per variable; an inequality is scaled by
``Instance.integer_row``, and the candidates' integer excesses over its
rhs, summed a column at a time, test it and name the witness of an
invalid one.  Each distinct set of tight candidates is ranked once.
``maximize_over_S`` scores each pattern's candidates as the walk gives
them instead, in integers, keeping none; its tie-break (first pattern,
then last item) is that of ``ckp oracle`` and ``ckp verify``.  The oracle
shares no code with the node LP it checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import itemgetter, not_
from typing import Optional

from .errors import (FormatError, PreconditionError, ResourceLimitError,
                     ValidationError)
from .model import Instance, LinearInequality, Point, VarRef, clean_terms
from .numeric import affine_rank, parse_integer

DEFAULT_ENUM_LIMIT = 10 ** 6
ENUM_LIMIT_ENV = "CKP_ENUM_LIMIT"

_F1 = Fraction(1)


def resolve_enum_limit(limit: Optional[int] = None) -> int:
    """Explicit argument, else CKP_ENUM_LIMIT, else the default 10^6.
    A limit below 1 is rejected, wherever it comes from."""
    source = "enumeration limit"
    if limit is None:
        env = os.environ.get(ENUM_LIMIT_ENV)
        if not env:
            return DEFAULT_ENUM_LIMIT
        try:
            limit = parse_integer(env)
        except FormatError:
            raise ValidationError(
                "%s must be an integer, got %r" % (ENUM_LIMIT_ENV, env)) from None
        source = ENUM_LIMIT_ENV
    if limit < 1:
        raise ValidationError("%s must be positive, got %d" % (source, limit))
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
    at the call, before the first pattern.  The walk is depth first; each
    step extends its parent's tuple and sum instead of re-summing.

    With cut ``families`` (names from ``cuts.FAMILIES``) on nonnegative
    weights, the walk skips each subtree in which no member of those
    families meets its precondition, and adds its patterns to the walk's
    ``pruned``.  At a prefix of weight s, over = s - b never falls along
    the subtree, and an item added once over >= 0 has u - u_last <= over,
    so no pattern below is a pack or has a lifted-cover special item when
    over >= 0 and no chosen item's u - u_last (its group's last slot)
    exceeds over; with no pack family, none is a cover either when over
    plus the heaviest weights of the undecided groups is <= 0.  A pattern
    itself is given only when it is a pack and a pack family is asked
    for, or a cover with a special item and a cover family is."""
    estimate = pattern_count(instance)
    guard_enumeration(estimate, "pattern space %d" % estimate, limit)
    return PatternWalk(instance, families)


class PatternWalk:
    """The patterns of :func:`walk_patterns`; ``pruned`` counts the
    patterns skipped so far."""

    __slots__ = ("rows", "prune", "pruned")

    def __init__(self, instance: Instance, families):
        _, self.rows, capacity = instance.units
        self.prune = None
        if families is not None and min(map(min, self.rows)) >= 0:
            self.prune = (capacity,
                          any(f.startswith("pack") for f in families),
                          any(f.startswith("lcover") for f in families))
        self.pruned = 0

    def __iter__(self):
        rows = self.rows
        # per group, its options: "none", then each slot as (ref,), u and
        # u - u_last
        levels = [(((), 0, 0),) + tuple(((VarRef(i, j),), u, u - row[-1])
                                        for j, u in enumerate(row, start=1))
                  for i, row in enumerate(rows, start=1)]
        m = len(levels)
        size = [1] * (m + 1)  # the patterns of a subtree at each depth
        reach = [0] * (m + 1)  # the heaviest weights of the undecided groups
        for i in range(m - 1, -1, -1):
            size[i] = size[i + 1] * (len(rows[i]) + 1)
            reach[i] = reach[i + 1] + max(rows[i])
        prune = self.prune
        if prune:
            capacity, packs, covers = prune
        stack = [(0, (), 0, 0)]  # depth, items, units, largest u - u_last
        while stack:
            i, items, units, margin = stack.pop()
            if prune:
                over = units - capacity
                if ((over >= 0 and (not covers or margin <= over))
                        or (not packs and over + reach[i] <= 0)):
                    self.pruned += size[i] - (not items)
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
                        self.pruned += 1
                        continue
                yield items + ext, units + u


class VertexSet:
    """The sorted candidate vertices of one instance (see the module
    docstring) as one integer table: candidate k is ``column[k] / dens[k]``
    at each column of ``columns``, one tuple of ints per entry of
    ``Instance.columns``.  Each affine rank is kept, keyed by the byte
    mask of its tight candidates and its cap, so a repeated tight set
    costs one lookup; the ranks go with the set.  Each candidate's sorted
    ``(VarRef, Fraction)`` entries are kept too; a :class:`Point` is made
    from them only for a witness, or for every candidate at the first
    read of :attr:`points`."""

    __slots__ = ("instance", "entries", "dens", "columns", "_points", "_ranks")

    def __init__(self, instance: Instance, entries: tuple, dens: tuple,
                 columns: tuple):
        self.instance = instance
        self.entries = entries
        self.dens = dens
        self.columns = columns
        self._ranks = {}

    def __len__(self):
        return len(self.dens)

    @property
    def points(self) -> tuple:
        """Every candidate as a :class:`Point`, made at the first read."""
        try:
            return self._points
        except AttributeError:
            self._points = tuple(map(Point, self.entries))
            return self._points

    def face_dimension(self, inequality: LinearInequality) -> int:
        """Dimension of the face the (valid) inequality induces; -1 if empty.

        Each candidate's lhs is compared with the rhs once, in integers:
        its excess is the lhs less the rhs, times the candidate's
        denominator and the inequality's scale, summed a column at a time.
        The maximum over the candidates is the maximum over S, since
        conv(candidates) = conv(S); above the rhs this raises with the
        first candidate of largest excess / den as witness.  Otherwise the
        result is the affine rank of the tight candidates, whose rows are
        read off the table only when that tight set is new.
        """
        instance, terms, dens = self.instance, inequality.terms, self.dens
        coeffs, top, scale = instance.integer_row(terms, inequality.rhs)
        excess = [-top * den for den in dens]
        for c, column in zip(coeffs, self.columns):
            if c:
                excess = [e + c * x for e, x in zip(excess, column)]
        if max(excess, default=0) > 0:
            best = 0  # the first candidate of largest excess / den
            for k, den in enumerate(dens):
                if excess[k] * dens[best] > excess[best] * den:
                    best = k
            den = dens[best]
            lhs = Fraction(excess[best] + top * den, den * scale)
            raise PreconditionError(
                "inequality is not valid (max %s > rhs %s)"
                % (lhs, inequality.rhs), witness=Point(self.entries[best]))
        cap = instance.dimension - 1 if terms else instance.dimension
        tight = bytes(map(not_, excess))  # 1 at each tight candidate
        rank = self._ranks.get((tight, cap))
        if rank is None:
            columns = self.columns
            rank = self._ranks[tight, cap] = affine_rank(
                ((dens[k], [column[k] for column in columns])
                 for k in compress(range(len(dens)), tight)), cap)
        return rank


def enumerate_candidate_vertices(instance: Instance, limit: Optional[int] = None) -> VertexSet:
    """The candidate vertices of the polytope (see module docstring), sorted.

    Per pattern, in integer units: the all-ones point when the pattern's
    weight fits the capacity, and each point whose one fractional entry
    room / a (0 < room < a) fills the capacity exactly.  Every candidate's
    support is its pattern, so no candidate repeats.
    """
    _, rows, capacity = instance.units
    col = instance.columns
    found = []
    if capacity >= 0:  # the origin, the empty pattern's one candidate
        found.append(((), 1, [0] * len(col)))
    for items, total in walk_patterns(instance, limit):
        ones = [0] * len(col)
        for ref in items:
            ones[col[ref]] = 1
        if total <= capacity:
            found.append((tuple((ref, _F1) for ref in items), 1, ones))
        for k, ref in enumerate(items):
            a = rows[ref.group - 1][ref.slot - 1]
            room = capacity - total + a
            if 0 < room < a or a < room < 0:  # room / a strictly inside (0, 1)
                frac = Fraction(room, a)
                row = [x * frac.denominator for x in ones]
                row[col[ref]] = frac.numerator
                entries = [(r, _F1) for r in items]
                entries[k] = (ref, frac)
                found.append((tuple(entries), frac.denominator, row))
    if not found:  # S is empty
        return VertexSet(instance, (), (), ((),) * len(col))
    found.sort(key=itemgetter(0))
    entries, dens, rows = zip(*found)
    return VertexSet(instance, entries, dens, tuple(zip(*rows)))


def maximize_over_S(instance: Instance, objective, limit: Optional[int] = None):
    """Exact maximum of a linear objective over S, with a maximizing point.

    The best candidate vertex (see the module docstring), scored in
    integers as :func:`walk_patterns` gives each pattern: with its cost sum
    C and weight W in ``Instance.units``, the all-ones point is worth C if
    W <= b, and the point whose item k takes room / a_k, room = b - W + a_k
    in (0, a_k), is worth C - c_k + c_k * room / a_k.  Scores compare by
    cross-multiplication, strictly, from the origin's 0, each pattern's
    items last to first: the first pattern in walk order wins, and in it
    the last tied item, the point Dantzig's ratio fill of it gives.  Weights
    and capacity must be nonnegative, so that the origin is in S
    (``ValidationError``, checked after the enumeration guard).
    """
    patterns = walk_patterns(instance, limit)
    _, rows, capacity = instance.units
    if capacity < 0 or min(map(min, rows)) < 0:
        raise ValidationError("the oracle needs nonnegative weights and capacity")
    costs, _, cost_scale = instance.integer_row(clean_terms(objective, instance))
    data = dict(zip(instance.columns,
                    zip((a for row in rows for a in row), costs)))
    best = (0, 1, (), None, 0)  # the origin's: value, den, items, k, room
    for items, total in patterns:
        pairs = [data[ref] for ref in items]
        whole = sum(c for _, c in pairs)
        if total <= capacity:
            if whole * best[1] > best[0]:
                best = (whole, 1, items, None, 0)
            continue
        for k in range(len(pairs) - 1, -1, -1):
            a, c = pairs[k]
            room = capacity - total + a
            if 0 < room < a:
                value = (whole - c) * a + c * room
                if value * best[1] > best[0] * a:
                    best = (value, a, items, k, room)
    num, den, items, k, room = best
    entries = [(ref, _F1) for ref in items]
    if k is not None:
        entries[k] = (items[k], Fraction(room, den))
    return Fraction(num, den * cost_scale), Point(entries)


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
