"""Brute-force ground truth: candidate vertices, exact optimization over S,
validity checking, and face dimensions.

Everything here enumerates support patterns (one choice of "which slot may
be positive" per group, or none).  A non-integral vertex of the polytope
has exactly one fractional component and makes the knapsack row tight, so
for each pattern it suffices to consider the all-ones assignment plus the
assignments with a single designated fractional variable completing the
capacity.  The resulting candidate set is a superset of the vertices and a
subset of the feasible set S, hence its convex hull equals the polytope —
good enough for validity and affine-dimension queries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .errors import PreconditionError, ResourceLimitError, ValidationError
from .model import Instance, LinearInequality, Point, VarRef, lhs_at
from .numeric import affine_rank
from .simplex import fill_knapsack

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


@dataclass(frozen=True)
class VertexSet:
    points: tuple


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
    return VertexSet(tuple(Point(entries) for entries in sorted(seen)))


def maximize_over_S(instance: Instance, objective, limit: Optional[int] = None):
    """Exact maximum of a linear objective over S, with a maximizing point.

    Per support pattern this is a fractional knapsack, filled by
    :func:`ckp.simplex.fill_knapsack` (ties by variable order).  Across
    patterns, ties keep the lexicographically smallest pattern.
    """
    check_enum_limit(instance, limit)
    coeffs = {}
    for ref, value in (objective.items() if hasattr(objective, "items") else objective):
        if not isinstance(ref, VarRef):
            ref = VarRef(*ref)
        instance.check_ref(ref)
        coeffs[ref] = Fraction(value) if not isinstance(value, Fraction) else value
    b = instance.capacity
    table = [[(VarRef(i, j), a, coeffs.get(VarRef(i, j), _F0))
              for j, a in enumerate(g.weights, start=1)]
             for i, g in enumerate(instance.groups, start=1)]
    best_value = None
    best_entries = None
    for pattern in iter_patterns(instance):
        value, entries, _ = fill_knapsack(
            [slots[j - 1] for slots, j in zip(table, pattern) if j], b)
        if best_value is None or value > best_value:
            best_value = value
            best_entries = entries
    return best_value, Point(best_entries)


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
    """Dimension of the face the (valid) inequality induces; -1 if empty.

    Computed as the affine rank of the candidate vertices that satisfy the
    inequality with equality.  Raises with the maximizing point as witness
    when the inequality is not valid.
    """
    result = check_validity(instance, inequality, limit)
    if not result.valid:
        raise PreconditionError(
            "inequality is not valid (max %s > rhs %s)"
            % (result.max_value, inequality.rhs),
            witness=result.witness)
    candidates = enumerate_candidate_vertices(instance, limit).points
    rhs = inequality.rhs
    tight = (p for p in candidates if lhs_at(inequality, p) == rhs)
    refs = instance.refs()
    cap = instance.dimension - 1 if inequality.terms else instance.dimension
    vectors = (tuple(p.value(r) for r in refs) for p in tight)
    return affine_rank(vectors, cap)
