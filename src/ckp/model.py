"""Core domain types: instances, points, and sparse linear inequalities.

Conventions used everywhere:

* groups and slots are 1-based; ``VarRef(i, j)`` is variable x_ij,
* every group keeps its slots sorted by non-increasing weight (the
  canonical order produced by :func:`normalize`),
* all numbers are exact ``Fraction`` values.

The feasible set S consists of points with 0 <= x <= 1, total weight at
most the capacity, and at most one positive variable per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import PreconditionError, ValidationError

_F0 = Fraction(0)


class VarRef(NamedTuple):
    group: int
    slot: int

    def __str__(self):
        return "x(%d,%d)" % (self.group, self.slot)


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ValidationError("not a rational value: %r" % (value,))


@dataclass(frozen=True)
class Group:
    """One complementarity group: parallel weight and profit tuples."""

    weights: tuple
    profits: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.profits):
            raise ValidationError("group weight/profit lengths differ")
        if not self.weights:
            raise ValidationError("group must contain at least one slot")

    @property
    def size(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class Instance:
    """A complementarity knapsack instance: groups plus a capacity."""

    groups: tuple
    capacity: Fraction

    def __post_init__(self):
        if not self.groups:
            raise ValidationError("instance must contain at least one group")

    @classmethod
    def build(cls, groups, capacity) -> "Instance":
        """Coerce nested int/str/Fraction data into an Instance."""
        built = []
        for weights, profits in groups:
            built.append(Group(tuple(_frac(a) for a in weights),
                               tuple(_frac(c) for c in profits)))
        return cls(tuple(built), _frac(capacity))

    @property
    def m(self) -> int:
        return len(self.groups)

    @property
    def dimension(self) -> int:
        return sum(g.size for g in self.groups)

    def group(self, i: int) -> Group:
        if not 1 <= i <= self.m:
            raise ValidationError("group index out of range: %d" % i)
        return self.groups[i - 1]

    def slots(self, i: int) -> int:
        return self.group(i).size

    def contains(self, ref: VarRef) -> bool:
        return 1 <= ref.group <= self.m and 1 <= ref.slot <= self.groups[ref.group - 1].size

    def check_ref(self, ref: VarRef) -> None:
        if not self.contains(ref):
            raise ValidationError("variable out of range: %s" % (ref,))

    def weight(self, ref: VarRef) -> Fraction:
        self.check_ref(ref)
        return self.groups[ref.group - 1].weights[ref.slot - 1]

    def profit(self, ref: VarRef) -> Fraction:
        self.check_ref(ref)
        return self.groups[ref.group - 1].profits[ref.slot - 1]

    def refs(self):
        """All variable references in (group, slot) order."""
        out = []
        for i, g in enumerate(self.groups, start=1):
            for j in range(1, g.size + 1):
                out.append(VarRef(i, j))
        return out

    def singleton_groups(self) -> frozenset:
        """M_0: indices of groups with exactly one slot."""
        return frozenset(i for i, g in enumerate(self.groups, start=1) if g.size == 1)

    def is_normalized(self) -> bool:
        """Weights non-increasing within every group."""
        for g in self.groups:
            for a, b in zip(g.weights, g.weights[1:]):
                if a < b:
                    return False
        return True


class LinearInequality:
    """Sparse inequality  sum coeffs[ref] * x[ref] <= rhs  (zeros dropped)."""

    __slots__ = ("terms", "rhs", "_by_ref")

    def __init__(self, coeffs, rhs):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        cleaned = []
        for ref, value in items:
            if not isinstance(ref, VarRef):
                ref = VarRef(*ref)
            value = _frac(value)
            if value != 0:
                cleaned.append((ref, value))
        cleaned.sort()
        self.terms = tuple(cleaned)
        self.rhs = _frac(rhs)
        self._by_ref = dict(cleaned)
        if len(self._by_ref) != len(cleaned):
            raise ValidationError("duplicate variable in inequality")

    def coeff(self, ref: VarRef) -> Fraction:
        return self._by_ref.get(ref, _F0)

    def support(self):
        return tuple(ref for ref, _ in self.terms)

    def __eq__(self, other):
        return (isinstance(other, LinearInequality)
                and self.terms == other.terms and self.rhs == other.rhs)

    def __hash__(self):
        return hash((self.terms, self.rhs))

    def __repr__(self):
        body = " + ".join("%s*%s" % (v, r) for r, v in self.terms) or "0"
        return "<%s <= %s>" % (body, self.rhs)


class Point:
    """Sparse point with entries in [0, 1] (zeros dropped)."""

    __slots__ = ("entries", "_by_ref")

    def __init__(self, values=()):
        items = values.items() if isinstance(values, Mapping) else values
        cleaned = []
        for ref, value in items:
            if not isinstance(ref, VarRef):
                ref = VarRef(*ref)
            value = _frac(value)
            if value < 0 or value > 1:
                raise ValidationError("point entry out of [0,1]: %s=%s" % (ref, value))
            if value != 0:
                cleaned.append((ref, value))
        cleaned.sort()
        self.entries = tuple(cleaned)
        self._by_ref = dict(cleaned)
        if len(self._by_ref) != len(cleaned):
            raise ValidationError("duplicate variable in point")

    def value(self, ref: VarRef) -> Fraction:
        return self._by_ref.get(ref, _F0)

    def support(self):
        return tuple(ref for ref, _ in self.entries)

    def dense(self, instance: Instance):
        """Coordinates in instance.refs() order."""
        return tuple(self.value(ref) for ref in instance.refs())

    def __eq__(self, other):
        return isinstance(other, Point) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = ", ".join("%s=%s" % (r, v) for r, v in self.entries) or "0"
        return "<point %s>" % body


ZERO_POINT = Point()


class Evaluation(NamedTuple):
    lhs: Fraction
    violation: Fraction  # lhs - rhs; positive means the inequality is violated


def _check_refs(instance: Instance, refs: Iterable[VarRef]) -> None:
    for ref in refs:
        instance.check_ref(ref)


def evaluate(instance: Instance, inequality: LinearInequality, point: Point) -> Evaluation:
    """Exact left-hand side and violation of ``inequality`` at ``point``."""
    _check_refs(instance, inequality.support())
    _check_refs(instance, point.support())
    lhs = lhs_at(inequality, point)
    return Evaluation(lhs, lhs - inequality.rhs)


def lhs_at(inequality: LinearInequality, point: Point) -> Fraction:
    """Exact left-hand side of ``inequality`` at ``point``, references
    unchecked (see :func:`evaluate` for the checked form)."""
    lhs = _F0
    value = point.value
    for ref, coefficient in inequality.terms:
        x = value(ref)
        if x:
            lhs += coefficient * x
    return lhs


def knapsack_row(instance: Instance) -> LinearInequality:
    """The defining constraint  sum a_ij x_ij <= b."""
    coeffs = {}
    for i, g in enumerate(instance.groups, start=1):
        for j, a in enumerate(g.weights, start=1):
            coeffs[VarRef(i, j)] = a
    return LinearInequality(coeffs, instance.capacity)


def weight_of(instance: Instance, point: Point) -> Fraction:
    total = Fraction(0)
    for ref, x in point.entries:
        total += instance.weight(ref) * x
    return total


def profit_of(instance: Instance, point: Point) -> Fraction:
    total = Fraction(0)
    for ref, x in point.entries:
        total += instance.profit(ref) * x
    return total


def complementarity_violations(instance: Instance, point: Point):
    """Groups carrying two or more positive variables, ascending."""
    seen = {}
    for ref, _ in point.entries:
        seen[ref.group] = seen.get(ref.group, 0) + 1
    return [i for i in sorted(seen) if seen[i] >= 2]


def is_lp_feasible(instance: Instance, point: Point) -> bool:
    """Bounds hold by construction; checks refs and the knapsack row."""
    _check_refs(instance, point.support())
    return weight_of(instance, point) <= instance.capacity


def is_feasible(instance: Instance, point: Point) -> bool:
    """Membership in S: LP-feasible plus at most one positive slot per group."""
    return is_lp_feasible(instance, point) and not complementarity_violations(instance, point)


def normalize(instance: Instance):
    """Validate signs and sort each group's slots canonically.

    Slots are ordered by weight descending, ties by profit descending, then
    by original position (so the result is unique and normalizing twice is
    the identity).  Negative weights, profits, or capacity are rejected.

    Returns ``(normalized_instance, permutations)`` where
    ``permutations[i-1][k-1]`` is the original slot now at position k of
    group i.
    """
    if instance.capacity < 0:
        raise ValidationError("negative capacity: %s" % instance.capacity)
    new_groups = []
    perms = []
    for i, g in enumerate(instance.groups, start=1):
        for j, (a, c) in enumerate(zip(g.weights, g.profits), start=1):
            if a < 0:
                raise ValidationError("negative weight at group %d slot %d" % (i, j))
            if c < 0:
                raise ValidationError("negative profit at group %d slot %d" % (i, j))
        order = sorted(range(g.size), key=lambda k: (-g.weights[k], -g.profits[k], k))
        perms.append(tuple(k + 1 for k in order))
        new_groups.append(Group(tuple(g.weights[k] for k in order),
                                tuple(g.profits[k] for k in order)))
    return Instance(tuple(new_groups), instance.capacity), tuple(perms)


@dataclass(frozen=True)
class AssumptionReport:
    """Which standing assumptions hold, plus the trivial answer when one fails.

    * ``assumption1``: some group has two or more slots (M != M_0),
    * ``assumption2``: sum of per-group maximum weights exceeds the capacity.

    When assumption2 fails every group can take its best slot fully, so the
    optimum is immediate; it is reported in ``trivial_value``/``trivial_point``.
    """

    m0: frozenset
    assumption1: bool
    assumption2: bool
    trivial_value: Optional[Fraction] = None
    trivial_point: Optional[Point] = None


def validate_assumptions(instance: Instance) -> AssumptionReport:
    """Classify the instance against the standing assumptions.

    Requires a normalized instance (non-increasing weights per group).
    """
    if not instance.is_normalized():
        raise PreconditionError("instance is not normalized")
    m0 = instance.singleton_groups()
    a1 = len(m0) < instance.m
    total_max = sum(max(g.weights) for g in instance.groups)
    a2 = total_max > instance.capacity
    trivial_value = None
    trivial_point = None
    if not a2:
        entries = []
        value = Fraction(0)
        for i, g in enumerate(instance.groups, start=1):
            best = max(range(g.size), key=lambda k: (g.profits[k], -k))
            entries.append((VarRef(i, best + 1), Fraction(1)))
            value += g.profits[best]
        trivial_point = Point(entries)
        trivial_value = value
    return AssumptionReport(m0, a1, a2, trivial_value, trivial_point)
