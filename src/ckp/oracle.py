"""Brute-force ground truth: candidate vertices, exact optimization over S,
validity checking, and face dimensions.

Everything here enumerates support patterns (one choice of "which slot may
be positive" per group, or none).  A non-integral vertex of the polytope
has exactly one fractional component and makes the knapsack row tight, so
for each pattern it suffices to consider the all-ones assignment plus the
assignments with a single designated fractional variable completing the
capacity.  The resulting candidate set is a superset of the vertices and a
subset of the feasible set S, hence its convex hull equals the polytope.
So the maximum of a linear function over the candidates is its maximum
over S, and a :class:`VertexSet` answers validity and face-dimension
queries for any number of inequalities from one enumeration.
``maximize_over_S`` solves one fractional knapsack per pattern instead, in
integers, each a scan of one Dantzig order fixed for the objective; it
keeps the pattern-order tie-break of ``ckp oracle`` and ``ckp verify``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Optional

from .errors import PreconditionError, ResourceLimitError, ValidationError
from .model import Instance, LinearInequality, Point, VarRef, lhs_at
from .numeric import affine_rank
from .simplex import LpProblem, fill_knapsack

DEFAULT_ENUM_LIMIT = 10 ** 6
ENUM_LIMIT_ENV = "CKP_ENUM_LIMIT"

_F0 = Fraction(0)
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
            limit = int(env)
        except ValueError:
            raise ValidationError(
                "%s must be an integer, got %r" % (ENUM_LIMIT_ENV, env)) from None
        source = ENUM_LIMIT_ENV
    if limit < 1:
        raise ValidationError("%s must be positive, got %d" % (source, limit))
    return limit


def pattern_count(instance: Instance) -> int:
    count = 1
    for g in instance.groups:
        count *= g.size + 1
    return count


def check_enum_limit(instance: Instance, limit: Optional[int] = None) -> None:
    estimate = pattern_count(instance)
    allowed = resolve_enum_limit(limit)
    if estimate > allowed:
        raise ResourceLimitError(
            "pattern space %d exceeds enumeration limit %d" % (estimate, allowed),
            estimate=estimate)


def iter_patterns(instance: Instance):
    """All support patterns, lexicographically, 0 meaning 'no slot chosen'."""
    return product(*(range(g.size + 1) for g in instance.groups))


class VertexSet:
    """The sorted candidate vertices of one instance (see the module
    docstring), kept dense for the rank and scaled to integers for the lhs."""

    __slots__ = ("instance", "points", "_rows", "_scaled")

    def __init__(self, instance: Instance, points: tuple):
        self.instance = instance
        self.points = points
        refs = instance.refs()
        self._rows = [tuple(p.value(r) for r in refs) for p in points]
        # (den, entries times den), den the LCM of the entry denominators
        self._scaled = []
        for p in points:
            den = lcm(*(x.denominator for _, x in p.entries))
            self._scaled.append((den, tuple(
                (r, x.numerator * (den // x.denominator)) for r, x in p.entries)))

    def face_dimension(self, inequality: LinearInequality) -> int:
        """Dimension of the face the (valid) inequality induces; -1 if empty.

        Each candidate's lhs is compared with the rhs once, in integers
        (both sides times the candidate's and the inequality's common
        denominators).  The maximum over the candidates is the maximum over
        S, since conv(candidates) = conv(S); above the rhs this raises with
        a maximizing candidate as witness.  Otherwise the result is the
        affine rank of the tight candidates.
        """
        instance = self.instance
        terms, rhs = inequality.terms, inequality.rhs
        scale = lcm(rhs.denominator, *(c.denominator for _, c in terms))
        coeffs = {}
        for ref, c in terms:
            instance.check_ref(ref)
            coeffs[ref] = c.numerator * (scale // c.denominator)
        top = rhs.numerator * (scale // rhs.denominator)
        get = coeffs.get
        excess = [sum(get(r, 0) * k for r, k in entries) - top * den
                  for den, entries in self._scaled]
        if max(excess, default=0) > 0:
            values = [lhs_at(inequality, p) for p in self.points]
            best = max(values)
            raise PreconditionError(
                "inequality is not valid (max %s > rhs %s)" % (best, rhs),
                witness=self.points[values.index(best)])
        cap = instance.dimension - 1 if terms else instance.dimension
        return affine_rank((row for row, e in zip(self._rows, excess) if not e),
                           cap)


def enumerate_candidate_vertices(instance: Instance, limit: Optional[int] = None) -> VertexSet:
    """Deduplicated candidate vertices of the polytope (see module docstring)."""
    check_enum_limit(instance, limit)
    b = instance.capacity
    weights = [g.weights for g in instance.groups]
    seen = set()
    for pattern in iter_patterns(instance):
        chosen = [(VarRef(i, j), weights[i - 1][j - 1])
                  for i, j in enumerate(pattern, start=1) if j]
        total = sum((w for _, w in chosen), _F0)
        if total <= b:
            seen.add(tuple((ref, _F1) for ref, _ in chosen))
        for k, (ref, a) in enumerate(chosen):
            if a == 0:
                continue
            rest = total - a
            frac = (b - rest) / a
            if _F0 < frac < _F1:
                seen.add(tuple((r, frac if idx == k else _F1)
                               for idx, (r, _) in enumerate(chosen)))
    return VertexSet(instance,
                     tuple(Point(entries) for entries in sorted(seen)))


def maximize_over_S(instance: Instance, objective, limit: Optional[int] = None):
    """Exact maximum of a linear objective over S, with a maximizing point.

    Per support pattern this is a fractional knapsack.  The objective's
    :class:`ckp.simplex.LpProblem` scales the data to integers and fixes
    Dantzig's order once, and each pattern fills its own slots in that
    order with :func:`ckp.simplex.fill_knapsack`, so ties within a pattern
    go by variable order.  Pattern values compare by cross-multiplication;
    ties keep the lexicographically smallest pattern.  Weights and
    capacity must be nonnegative (``ValidationError`` otherwise).
    """
    check_enum_limit(instance, limit)
    problem = LpProblem(instance, objective)
    capacity = problem.scaled_rows[0][1]
    best = None
    for pattern in iter_patterns(instance):
        total, whole, (ref, a, c), room = fill_knapsack(
            (t for t in problem.order if pattern[t[0].group - 1] == t[0].slot),
            capacity)
        value = total * a + c * room  # the pattern's optimum times a
        if best is None or value * best[1] > best[0] * a:
            best = (value, a, whole, ref, room)
    num, den, whole, ref, room = best
    entries = [(r, _F1) for r in whole]
    if room > 0:
        entries.append((ref, Fraction(room, den)))
    return Fraction(num, den * problem.cost_scale), Point(entries)


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
