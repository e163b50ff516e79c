"""Core domain types: instances, points, and sparse linear inequalities.

Conventions used everywhere:

* groups and slots are 1-based; ``VarRef(i, j)`` is variable x_ij,
* every group keeps its slots sorted by non-increasing weight (the
  canonical order produced by :func:`normalize`),
* all numbers are exact ``Fraction`` values, taken in only from ints
  (not bools, most likely comparisons passed by mistake), Fractions and
  ``numeric.parse_rational`` strings: a :class:`Group` and an
  :class:`Instance` coerce theirs, sparse ones come in through
  :func:`clean_terms` and are stored once, as sorted terms, and an
  :class:`Instance` scales its data to integers,
* a point's integer form is ``scaled = (D, ((VarRef, X), ...))``: refs
  sorted and unique, each X > 0, and x = X / D.  :class:`Point` computes
  it once; ``simplex.LpSolution`` is built in it.  :func:`lhs_at` and
  :func:`complementarity_violations` read only this form, so either kind
  of point may be passed.

The feasible set S consists of points with 0 <= x <= 1, total weight at
most the capacity, and at most one positive variable per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from typing import Mapping, NamedTuple, Optional

from .errors import FormatError, PreconditionError, ValidationError
from .numeric import integer_form, parse_rational

_F0 = Fraction(0)


class VarRef(NamedTuple):
    group: int
    slot: int

    def __str__(self):
        return "x(%d,%d)" % (self.group, self.slot)


def _frac(value) -> Fraction:
    # Exact type and int tests first: isinstance on Fraction, an ABC, is slow.
    if type(value) is Fraction:
        return value
    if isinstance(value, int) and type(value) is not bool:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except FormatError as exc:
            raise ValidationError(str(exc)) from None
    raise ValidationError("not a rational value: %r" % (value,))


def var_ref(ref) -> VarRef:
    """The one coercion of a reference: ``ref`` (a VarRef or a ``(group,
    slot)`` pair) as a VarRef.  A group or slot that is not an int or is a
    bool raises ``ValidationError``; :meth:`Instance.check_ref` checks the
    range."""
    if type(ref) is not VarRef:
        try:
            ref = VarRef(*ref)
        except TypeError:
            raise ValidationError("not a variable: %r" % (ref,)) from None
    if type(ref.group) is not int or type(ref.slot) is not int:
        if not all(isinstance(k, int) and not isinstance(k, bool)
                   for k in ref):
            raise ValidationError("not a variable index: %r" % (tuple(ref),))
    return ref


def clean_terms(items, instance=None):
    """The one cleaner of sparse rational terms: ``items`` (a mapping or
    ``(ref, value)`` pairs; a ref may be a ``(group, slot)`` pair) as sorted
    ``(VarRef, Fraction)`` terms, zeros dropped.  A ref that
    :func:`var_ref` refuses, a value that is not an int, Fraction or
    ``parse_rational`` string, a variable given twice (even at zero) and,
    with ``instance``, any reference outside it (zero-valued ones
    included) raise ``ValidationError``."""
    refs = []
    cleaned = []
    for ref, value in (items.items() if isinstance(items, Mapping) else items):
        ref = var_ref(ref)
        if instance is not None:
            instance.check_ref(ref)
        if type(value) is not Fraction:  # the hot case needs no call
            value = _frac(value)
        refs.append(ref)
        if value:
            cleaned.append((ref, value))
    if len(set(refs)) != len(refs):
        raise ValidationError("a variable is given twice")
    cleaned.sort()
    return tuple(cleaned)


@dataclass(frozen=True)
class Group:
    """One complementarity group: parallel weight and profit tuples."""

    weights: tuple
    profits: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(map(_frac, self.weights)))
        object.__setattr__(self, "profits", tuple(map(_frac, self.profits)))
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
        object.__setattr__(self, "capacity", _frac(self.capacity))
        if not self.groups:
            raise ValidationError("instance must contain at least one group")

    @classmethod
    def build(cls, groups, capacity) -> "Instance":
        """An Instance from nested ``(weights, profits)`` data."""
        return cls(tuple(Group(*g) for g in groups), capacity)

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
        return list(self.columns)

    def singleton_groups(self) -> frozenset:
        """M_0: indices of groups with exactly one slot."""
        return self._singletons

    @cached_property
    def _singletons(self) -> frozenset:
        return frozenset(i for i, g in enumerate(self.groups, start=1) if g.size == 1)

    @cached_property
    def columns(self):
        """``{VarRef: column}`` in (group, slot) order, the package's one
        column index.  Computed on first use."""
        refs = (VarRef(i, j) for i, g in enumerate(self.groups, start=1)
                for j in range(1, g.size + 1))
        return {ref: k for k, ref in enumerate(refs)}

    @cached_property
    def units(self):
        """``(scale, rows, capacity_units)``: each group's weights as a row
        and the capacity, times ``scale``, the least common denominator of
        them all (:func:`numeric.integer_form`), so that every weight
        comparison is between exact integers.  Computed on first use."""
        scale, (capacity, *weights) = integer_form(
            chain((self.capacity,), *(g.weights for g in self.groups)))
        weights = iter(weights)
        rows = tuple(tuple(islice(weights, g.size)) for g in self.groups)
        return scale, rows, capacity

    def integer_row(self, terms, rhs=_F0):
        """``(coefficients, rhs, scale)``: cleaned ``terms`` and ``rhs``
        times ``scale``, the LCM of their denominators, as integers
        (:func:`numeric.integer_form`), the coefficients dense over
        :attr:`columns`; a reference outside the instance raises."""
        scale, (rhs, *ints) = integer_form(
            chain((rhs,), (c for _, c in terms)))
        columns = self.columns
        dense = [0] * len(columns)
        for (ref, _), a in zip(terms, ints):
            j = columns.get(ref)
            if j is None:
                raise ValidationError("variable out of range: %s" % (ref,))
            dense[j] = a
        return dense, rhs, scale

    def is_normalized(self) -> bool:
        """Weights non-increasing within every group, tested on
        :attr:`units`."""
        return self._normalized

    @cached_property
    def _normalized(self) -> bool:
        return all(a >= b for row in self.units[1]
                   for a, b in zip(row, row[1:]))


class LinearInequality:
    """Sparse inequality  sum coeffs[ref] * x[ref] <= rhs  (zeros dropped)."""

    __slots__ = ("terms", "rhs")

    def __init__(self, coeffs, rhs):
        self.terms = clean_terms(coeffs)
        self.rhs = _frac(rhs)

    def coeff(self, ref: VarRef) -> Fraction:
        return next((c for r, c in self.terms if r == ref), _F0)

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

    __slots__ = ("entries", "_scaled")

    def __init__(self, values=()):
        self.entries = clean_terms(values)
        for ref, value in self.entries:
            num, den = value.as_integer_ratio()  # den > 0
            if num < 0 or num > den:
                raise ValidationError("point entry out of [0,1]: %s=%s" % (ref, value))

    def value(self, ref: VarRef) -> Fraction:
        return next((x for r, x in self.entries if r == ref), _F0)

    def support(self):
        return tuple(ref for ref, _ in self.entries)

    @property
    def scaled(self):
        """The integer form ``(D, ((VarRef, X), ...))``: each entry times D,
        the LCM of the entries' denominators (:func:`numeric.integer_form`).
        Computed on first use."""
        try:
            return self._scaled
        except AttributeError:
            scale, xs = integer_form(x for _, x in self.entries)
            self._scaled = (scale, tuple(zip(self.support(), xs)))
            return self._scaled

    def __eq__(self, other):
        return isinstance(other, Point) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = ", ".join("%s=%s" % (r, v) for r, v in self.entries) or "0"
        return "<point %s>" % body


class Evaluation(NamedTuple):
    lhs: Fraction
    violation: Fraction  # lhs - rhs; positive means the inequality is violated


def evaluate(instance: Instance, inequality: LinearInequality, point: Point) -> Evaluation:
    """Exact left-hand side and violation of ``inequality`` at ``point``."""
    for ref in inequality.support() + point.support():
        instance.check_ref(ref)
    lhs = lhs_at(inequality, point)
    return Evaluation(lhs, lhs - inequality.rhs)


def lhs_at(inequality: LinearInequality, point) -> Fraction:
    """Exact left-hand side of ``inequality`` at ``point`` (anything with
    an integer form ``scaled``), references unchecked (see :func:`evaluate`
    for the checked form)."""
    coeffs = dict(inequality.terms)
    scale, entries = point.scaled
    lhs = _F0
    for ref, x in entries:
        c = coeffs.get(ref)
        if c:
            lhs += c * x
    return lhs / scale


def knapsack_row(instance: Instance) -> LinearInequality:
    """The defining constraint  sum a_ij x_ij <= b, on the references of
    ``Instance.columns``."""
    weights = chain.from_iterable(g.weights for g in instance.groups)
    return LinearInequality(zip(instance.columns, weights), instance.capacity)


def weight_of(instance: Instance, point) -> Fraction:
    """Exact weight of ``point`` (anything with an integer form ``scaled``),
    summed in :attr:`Instance.units`, every reference checked."""
    scale, rows, _ = instance.units
    point_scale, entries = point.scaled
    total = 0
    for ref, x in entries:
        instance.check_ref(ref)
        total += rows[ref.group - 1][ref.slot - 1] * x
    return Fraction(total, scale * point_scale)


def profit_of(instance: Instance, point: Point) -> Fraction:
    total = Fraction(0)
    for ref, x in point.entries:
        total += instance.profit(ref) * x
    return total


def complementarity_violations(instance: Instance, point):
    """Groups carrying two or more positive variables, ascending, at
    ``point`` (anything with an integer form ``scaled``)."""
    seen = {}
    for ref, _ in point.scaled[1]:
        seen[ref.group] = seen.get(ref.group, 0) + 1
    return [i for i in sorted(seen) if seen[i] >= 2]


def is_lp_feasible(instance: Instance, point: Point) -> bool:
    """Bounds hold by construction; checks refs and the knapsack row."""
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
