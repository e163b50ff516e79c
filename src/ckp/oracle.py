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
variable, every entry in [0, den] since every candidate lies in [0, 1]^d.

Every query runs on packed lanes, SIMD within a register (Fisher and
Dietz, LCPC 1998): the dens and each column are packed once, lazily, as
one Python int with one w-bit lane per candidate, and a row's sparse
integer form (a cut keeps its builder's, an objective has rhs 0) costs one
big-int multiply-add per term.  Lane k holds B + den_k * (lhs_k - rhs),
with B = 2^(w-1) - 1 and w the narrowest multiple of 32 that holds
separate bounds on every lane's positive and negative parts, so no lane
carries or borrows, for negative coefficients and a negative rhs too.
Lanes are little-endian 32-bit limbs, the same layout on every platform.
A query sums its row once and reads those lanes, as bytes, in one of two
ways.  The row is valid when no lane's high bit is set; its tight
candidates are the lanes equal to B, and its face dimension is their
affine rank, taken by ``numeric.affine_rank`` over the table's columns at
those rows, and kept under the row's form.  The maximum of
``maximize_over_S`` and the witness of an invalid row, the first
candidate of largest excess / den, read each lane less B, the exact
excess, since the width bounds it.  ``ckp oracle`` reads its candidate
count and its maximum off one enumeration.  The oracle shares no code
with the node LP it checks.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

from .errors import PreconditionError, ResourceLimitError, ValidationError
from .model import Instance, LinearInequality, Point, clean_terms
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
    item and a cover family is.  Without a pack family the walk scans the
    last group only up to its first slot whose excess units + u - b is
    <= 0: a group's weights are non-increasing, so no lighter slot closes
    a cover.  The window needs that order, so a walk with ``families``
    raises ``PreconditionError`` on an instance that is not normalized
    (:meth:`Instance.normalized_units`); the unpruned walk takes any."""
    estimate = pattern_count(instance)
    guard_enumeration(estimate, "pattern space %d" % estimate, limit)
    _, rows, capacity = (instance.units if families is None
                         else instance.normalized_units())
    return _patterns(instance.layout, rows, capacity, families)


def _patterns(layout, rows, capacity, families):
    """The walk of :func:`walk_patterns` over the integer weights, its refs
    read off the instance's ``layout``."""
    prune = families is not None
    if prune:
        packs = any(f.startswith("pack") for f in families)
        covers = any(f.startswith("lcover") for f in families)
    # per group, its options: "none", then each slot as (ref,), u and
    # u - u_last
    refs = layout.refs
    levels = [(((), 0, 0),) + tuple(((ref,), u, u - row[-1])
                                    for ref, u in zip(refs[lo:hi], row))
              for (lo, hi), row in zip(layout.spans, rows)]
    m = len(levels)
    reach = [0] * (m + 1)  # the heaviest weights of the undecided groups
    for i in range(m - 1, -1, -1):
        reach[i] = reach[i + 1] + max(rows[i])

    def dead(depth, units, margin):  # the prune rule at a prefix
        over = units - capacity
        return ((over >= 0 and (not covers or margin <= over))
                or (not packs and over + reach[depth] <= 0))

    # depth, items, units, largest u - u_last: each tested before its push
    stack = [] if prune and dead(0, 0, 0) else [(0, (), 0, 0)]
    while stack:
        i, items, units, margin = stack.pop()
        if i + 1 < m:
            for ext, u, gap in reversed(levels[i]):
                gap = gap if gap > margin else margin
                if not (prune and dead(i + 1, units + u, gap)):
                    stack.append((i + 1, items + ext, units + u, gap))
            continue
        # the last group completes each pattern, given as it is made: a
        # pack when a pack family is asked for, a cover with a special
        # item when a cover family is; with no pack family, the first slot
        # (not "none") at excess <= 0 ends the scan
        for ext, u, gap in (levels[i] if items else levels[i][1:]):
            if prune:
                over = units + u - capacity
                if not (over < 0 and packs or over > 0 and covers
                        and max(margin, gap) > over):
                    if over <= 0 and ext and not packs:
                        break
                    continue
            yield items + ext, units + u


def _lane_width(positive: int, negative: int) -> int:
    """The narrowest lane width w, a multiple of 32, whose lanes B + e
    (B = 2^(w-1) - 1) hold every excess e in [-negative, positive]:
    positive <= 2^(w-1) and negative <= B."""
    bits = max((positive - 1).bit_length(), negative.bit_length()) + 1
    return -(-bits // 32) * 32


def _pack(values, size: int) -> int:
    """The ints ``values``, each in [0, 2^(8 size)), as one int with one
    ``size``-byte lane each, lane k at bits 8 size k and up: each lane is
    written by ``struct`` in C as its 32-bit limbs, low limb first, with
    standard sizes and little-endian order on every platform."""
    if size > 4:
        values = [v >> shift & 0xFFFFFFFF for v in values
                  for shift in range(0, 8 * size, 32)]
    return int.from_bytes(struct.pack("<%dI" % len(values), *values),
                          "little")


class VertexSet:
    """The candidate vertices of one instance in walk order (see the module
    docstring), stored once, as one integer table: candidate k is
    ``column[k] / dens[k]`` at each column of ``columns``, one tuple of
    ints per entry of ``Instance.columns``, each entry in [0, dens[k]].
    A :class:`Point` is made from it only for a maximizer or a witness, or
    at a read of :attr:`points`.

    Its lanes (module docstring) are packed per width at first use, and
    each query sums its row on them once (:meth:`_lanes`), read as the
    tight set or as exact excesses.  Each valid inequality's face
    dimension is kept, keyed by its integer form ``scaled``, which is
    canonical and fixes the rank's cap."""

    __slots__ = ("instance", "dens", "columns", "_den_max", "_packs",
                 "_ranks")

    def __init__(self, instance: Instance, dens: tuple, columns: tuple):
        self.instance = instance
        self.dens = dens
        self.columns = columns
        self._den_max = max(dens)  # bounds every entry of the table
        self._packs = {}
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

    @property
    def hull_dimension(self) -> int:
        """dim conv(S): d when the capacity is positive (then each t e_ij,
        t = min(1, b / a_ij) or 1 when a_ij = 0, lies in S), else the
        number of zero weights, since with b = 0 and no weight negative S
        is the points supported on the zero-weight slots, each slot's unit
        vector among them."""
        _, rows, capacity = self.instance.units
        return (self.instance.dimension if capacity > 0
                else sum(row.count(0) for row in rows))

    def _first_max(self, data: bytes, size: int):
        """``(k, e)``: the first candidate k in walk order of largest e /
        den, e its lane of :meth:`_lanes` less B, the exact excess; the
        oracle's one tie rule."""
        bias = (1 << (8 * size - 1)) - 1
        excess = [int.from_bytes(data[at:at + size], "little") - bias
                  for at in range(0, len(data), size)]
        dens, best = self.dens, 0
        for k, den in enumerate(dens):
            if excess[k] * dens[best] > excess[best] * den:
                best = k
        return best, excess[best]

    def _lanes(self, terms, top: int):
        """``(data, size)``: the lanes of the row of sparse integer ``terms``
        (each ref checked by ``Instance.check_ref``) and rhs ``top`` as
        little-endian bytes, ``size`` bytes a lane: B - top * dens plus
        each term's coefficient times its packed column, summed once at the
        width :func:`_lane_width` gives for the bounds P and N on every
        candidate's excess."""
        positive, negative = (-top, 0) if top < 0 else (0, top)
        for _, c in terms:
            if c > 0:
                positive += c
            else:
                negative -= c
        # the largest den bounds every entry; max(positive, 1) keeps the
        # dens themselves inside a lane
        width = _lane_width(self._den_max * max(positive, 1),
                            self._den_max * negative)
        size, count = width // 8, len(self.dens)
        pack = self._packs.get(width)
        if pack is None:
            ones = _pack([1] * count, size)
            pack = self._packs[width] = (_pack(self.dens, size),
                                         (ones << (width - 1)) - ones,
                                         [None] * len(self.columns))
        dens, total, packed = pack
        total -= top * dens
        check = self.instance.check_ref
        for ref, c in terms:
            at = check(ref)
            column = packed[at]
            if column is None:
                column = packed[at] = _pack(self.columns[at], size)
            total += c * column
        return total.to_bytes(size * count, "little"), size

    def maximize(self, objective):
        """Exact maximum of a linear objective over S and its first
        maximizing candidate as a :class:`Point`."""
        scale, _, terms = LinearInequality(
            clean_terms(objective, self.instance), 0).scaled
        k, excess = self._first_max(*self._lanes(terms, 0))
        return Fraction(excess, self.dens[k] * scale), self._point(k)

    def face_dimension(self, inequality: LinearInequality) -> int:
        """Dimension of the face the (valid) inequality induces; -1 if empty.

        The inequality's integer form is summed once, on the lanes
        (:meth:`_lanes`).  Violated, when a lane's high bit is set, this
        raises with the first candidate of largest excess / den, the
        maximizer of the lhs, as witness, and keeps nothing.  Otherwise
        the result is the affine rank of the tight candidates, the lanes
        equal to B (:func:`numeric.affine_rank` over the table's columns
        at the tight rows), capped at d - 1, or d for an inequality
        without terms, and kept under the inequality's form, so a
        repeated inequality costs one lookup.
        """
        key = inequality.scaled
        rank = self._ranks.get(key)
        if rank is not None:
            return rank
        scale, top, terms = key
        data, size = self._lanes(terms, top)
        if not data[size - 1::size].isascii():  # a lane's top byte >= 0x80
            best, excess = self._first_max(data, size)
            den = self.dens[best]
            lhs = Fraction(excess + top * den, den * scale)
            raise PreconditionError(
                "inequality is not valid (max %s > rhs %s)"
                % (lhs, inequality.rhs), witness=self._point(best))
        # every match is lane-aligned: B's bytes are 0xff but its top one,
        # 0x7f, and no lane's top byte is 0xff
        bias = ((1 << (8 * size - 1)) - 1).to_bytes(size, "little")
        tight, at = [], data.find(bias)
        while at >= 0:
            tight.append(at // size)
            at = data.find(bias, at + size)
        cap = self.instance.dimension - (1 if terms else 0)
        rank = self._ranks[key] = affine_rank(self.dens, self.columns,
                                              tight, cap)
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


class ValidityResult(NamedTuple):
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
