"""Core domain types: instances, points, and sparse linear inequalities.

Conventions used everywhere:

* groups and slots are 1-based; ``VarRef(i, j)`` is variable x_ij,
* every group keeps its slots sorted by non-increasing weight (the
  canonical order produced by :func:`normalize`),
* weights, profits and the capacity are nonnegative, as in the paper: an
  :class:`Instance` refuses negative data when it is built, so the
  origin lies in S and no other module checks the data's signs,
* all numbers are exact rationals, taken in only from ints (not bools,
  most likely comparisons passed by mistake), Fractions and
  ``numeric.parse_rational`` strings; sparse ones come in through
  :func:`clean_terms`, as sorted Fraction terms,
* every value is stored once, in integer form (:func:`numeric.integer_form`),
  and each Fraction of it is a view, made on each read.  A :class:`Group`
  keeps its weights and profits, and an :class:`Instance` its capacity, as
  ``(scale, ints)``: ints as they are, at scale 1, so integral data makes
  no Fraction; :attr:`Instance.units` and :attr:`Instance.profit_units`
  bring the forms to one scale (:func:`numeric.common_scale`), made with
  the instance's other facts in one pass at the first read of any of them,
* a point's integer form is ``scaled = (D, ((VarRef, X), ...))``: refs
  sorted and unique, each X > 0, and x = X / D.  It is all that a
  :class:`Point` stores: ``Point`` computes it from the Fractions,
  :meth:`Point.from_scaled` takes it in, checked and reduced, and
  ``simplex.LpSolution`` is built in it.  :func:`lhs_at`,
  :func:`weight_units`, :func:`profit_of`, :func:`is_feasible` and
  :func:`complementarity_violations` read only this form, so either kind
  of point may be passed, and sum and count in integers,
* an inequality's integer form is ``scaled = (U, R, ((VarRef, C),
  ...))``, each C nonzero: coefficients C / U, rhs R / U.  It is all that
  a :class:`LinearInequality` stores, as for a point.  The cut builders
  make it and take it in unchecked (``from_scaled_unchecked``), every
  other caller through the checks of ``from_scaled``; :func:`lhs_at` and
  :meth:`Instance.integer_row`, the one dense fill of a row, read it,
* both forms are canonical, their scale and ints of gcd 1 (``from_scaled``
  reduces what it takes in), so equality and hashing, which read the
  form, are equality by value.

The feasible set S consists of points with 0 <= x <= 1, total weight at
most the capacity, and at most one positive variable per group.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from operator import ge
from typing import Mapping, NamedTuple, Optional

from .errors import FormatError, PreconditionError, ValidationError
from .numeric import common_scale, integer_form, parse_rational


class VarRef(NamedTuple):
    group: int
    slot: int

    def __str__(self):
        return "x(%d,%d)" % (self.group, self.slot)


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and type(value) is not bool:
        return Fraction(value)
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
        value = _frac(value)
        refs.append(ref)
        if value:
            cleaned.append((ref, value))
    if len(set(refs)) != len(refs):
        raise ValidationError("a variable is given twice")
    cleaned.sort()
    return tuple(cleaned)


def _integer_row(values) -> tuple:
    """``(scale, ints)``: ``values``, each taken in as :func:`_frac` takes
    it, in integer form (:func:`numeric.integer_form`), the ints a tuple.
    A row of ints (not bools) is its own integer form, at scale 1."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            scale, ints = integer_form(map(_frac, values))
            return scale, tuple(ints)
    return 1, values


class Group:
    """One complementarity group: parallel weight and profit rows, each
    kept from construction in its integer form ``(scale, ints)``
    (:func:`numeric.integer_form`) as ``weight_form`` and ``profit_form``.
    Their Fractions, ``weights`` and ``profits``, are made on each read."""

    __slots__ = ("weight_form", "profit_form")

    def __init__(self, weights, profits):
        self.weight_form = _integer_row(weights)
        self.profit_form = _integer_row(profits)
        if len(self.weight_form[1]) != len(self.profit_form[1]):
            raise ValidationError("group weight/profit lengths differ")
        if not self.weight_form[1]:
            raise ValidationError("group must contain at least one slot")

    @classmethod
    def from_forms(cls, weight_form, profit_form) -> "Group":
        """The group of two integer forms, taken as they are: each
        ``(scale, ints)`` as :func:`numeric.integer_form` makes it, of
        one length."""
        group = cls.__new__(cls)
        group.weight_form, group.profit_form = weight_form, profit_form
        return group

    @property
    def weights(self) -> tuple:
        scale, ints = self.weight_form
        return tuple(Fraction(v, scale) for v in ints)

    @property
    def profits(self) -> tuple:
        scale, ints = self.profit_form
        return tuple(Fraction(v, scale) for v in ints)

    @property
    def size(self) -> int:
        return len(self.weight_form[1])

    def __eq__(self, other):
        return (isinstance(other, Group)
                and self.weight_form == other.weight_form
                and self.profit_form == other.profit_form)

    def __hash__(self):
        return hash((self.weight_form, self.profit_form))

    def __repr__(self):
        return "Group(weights=%r, profits=%r)" % (self.weights, self.profits)


class Instance:
    """A complementarity knapsack instance: groups plus a capacity, all of
    it nonnegative.  A negative capacity, and then the first negative
    weight or profit, slot by slot, raise ``ValidationError`` naming it.
    The capacity is kept in integer form, ``capacity_form = (scale,
    (int,))``, as a group's rows are; ``capacity`` is its Fraction.

    Its five facts are made together, in one pass over the groups, at the
    first read of any of them, and are plain attributes after it:
    ``columns``, ``{VarRef: column}`` in (group, slot) order, the package's
    one column index; ``units``, ``(scale, rows, capacity_units)``, the
    weights by group and the capacity brought to one integer scale, the
    least common denominator of them all (:func:`numeric.common_scale`, so
    on integral data the rows are the groups' own); ``profit_units``,
    ``(scale, costs)``, the profits in ``columns`` order likewise;
    ``normalized``, weights non-increasing within every group; and ``m0``,
    M_0, the frozenset of the indices of the groups with one slot."""

    def __init__(self, groups, capacity):
        self.groups = groups = tuple(groups)
        self.capacity_form = _integer_row((capacity,))
        if not groups:
            raise ValidationError("instance must contain at least one group")
        # the signs are the integer forms' (every scale is positive); only
        # a refusal looks for the first negative, slot by slot
        if self.capacity_form[1][0] < 0:
            raise ValidationError("negative capacity: %s" % self.capacity)
        for g in groups:
            if min(g.weight_form[1]) < 0 or min(g.profit_form[1]) < 0:
                raise ValidationError(next(
                    "negative %s at group %d slot %d" % (what, i, j)
                    for i, h in enumerate(groups, start=1)
                    for j, pair in enumerate(
                        zip(h.weight_form[1], h.profit_form[1]), start=1)
                    for what, x in zip(("weight", "profit"), pair)
                    if x < 0))

    @classmethod
    def build(cls, groups, capacity) -> "Instance":
        """An Instance from nested ``(weights, profits)`` data."""
        return cls([Group(weights, profits) for weights, profits in groups],
                   capacity)

    def __eq__(self, other):
        return (isinstance(other, Instance) and self.groups == other.groups
                and self.capacity_form == other.capacity_form)

    def __hash__(self):
        return hash((self.groups, self.capacity_form))

    def __repr__(self):
        return "Instance(groups=%r, capacity=%r)" % (self.groups,
                                                     self.capacity)

    @property
    def capacity(self) -> Fraction:
        scale, (capacity,) = self.capacity_form
        return Fraction(capacity, scale)

    @property
    def m(self) -> int:
        return len(self.groups)

    @property
    def dimension(self) -> int:
        return len(self.columns)

    def check_ref(self, ref: VarRef) -> int:
        """The column of ``ref``; outside the instance it raises."""
        column = self.columns.get(ref)
        if column is None:
            raise ValidationError("variable out of range: %s" % (ref,))
        return column

    def weight(self, ref: VarRef) -> Fraction:
        self.check_ref(ref)
        scale, ints = self.groups[ref.group - 1].weight_form
        return Fraction(ints[ref.slot - 1], scale)

    def profit(self, ref: VarRef) -> Fraction:
        self.check_ref(ref)
        scale, ints = self.groups[ref.group - 1].profit_form
        return Fraction(ints[ref.slot - 1], scale)

    def __getattr__(self, name):
        # reached only before the facts are attributes: make all five; the
        # refs through tuple.__new__, not VarRef's Python-level constructor
        if name not in ("columns", "units", "profit_units", "normalized",
                        "m0"):
            raise AttributeError("'Instance' object has no attribute %r" % name)
        new, refs, singles, normalized = tuple.__new__, [], [], True
        weights, profits = [self.capacity_form], []
        for i, g in enumerate(self.groups, start=1):
            weights.append(g.weight_form)
            profits.append(g.profit_form)
            row = g.weight_form[1]
            for j in range(1, len(row) + 1):
                refs.append(new(VarRef, (i, j)))
            if len(row) == 1:
                singles.append(i)
            normalized = normalized and all(map(ge, row, row[1:]))
        scale, ((capacity,), *rows) = common_scale(weights)
        self.columns = dict(zip(refs, range(len(refs))))
        self.units = scale, tuple(rows), capacity
        scale, rows = common_scale(profits)
        self.profit_units = scale, tuple(chain.from_iterable(rows))
        self.normalized = normalized
        self.m0 = frozenset(singles)
        return self.__dict__[name]

    def integer_row(self, inequality):
        """``(coefficients, rhs, scale)``: the integer form
        ``inequality.scaled`` (see :class:`LinearInequality`), its
        coefficients dense over :attr:`columns`; a reference outside the
        instance raises."""
        scale, rhs, terms = inequality.scaled
        dense = [0] * len(self.columns)
        for ref, a in terms:
            dense[self.check_ref(ref)] = a
        return dense, rhs, scale

    def normalized_units(self):
        """:attr:`units`, once every group is known to keep its slots by
        non-increasing weight, which the cut families, the assumptions and
        the solver require; otherwise ``PreconditionError``."""
        if not self.normalized:
            raise PreconditionError("instance is not normalized")
        return self.units


def _checked_terms(terms, top, what) -> tuple:
    """An integer form's sparse terms as a tuple, checked: each ref an
    exact VarRef of ints, the refs strictly increasing, each value a
    nonzero int, in (0, top] unless top is None; else ``ValidationError``:
    not ``what``."""
    terms, last = tuple(terms), ()  # () sorts first
    for ref, v in terms:
        if (type(ref) is not VarRef or type(ref.group) is not int
                or type(ref.slot) is not int or type(v) is not int or not v
                or top is not None and not 0 < v <= top):
            raise ValidationError("not %s: %r=%r" % (what, ref, v))
        if last >= ref:
            raise ValidationError("refs not strictly increasing: %s" % (ref,))
        last = ref
    return terms


def _divided(head, terms):
    """``(head, terms)``, an integer form's ints, divided by their gcd."""
    common = gcd(*head, *[v for _, v in terms])
    if common > 1:
        head = tuple([h // common for h in head])
        terms = [(ref, v // common) for ref, v in terms]
    return head, tuple(terms)


class LinearInequality:
    """Sparse inequality  sum coeffs[ref] * x[ref] <= rhs  (zeros dropped),
    made from its Fractions or from its integer form (:meth:`from_scaled`,
    or :meth:`from_scaled_unchecked` for a cut builder's).  Each
    constructor stores only that form, as ``scaled``: ``(U, R,
    ((VarRef, C), ...))``, the rhs and each coefficient times U, the LCM
    of their denominators (:func:`numeric.integer_form`).  ``terms`` and
    ``rhs``, its Fractions, are made on each read."""

    __slots__ = ("scaled",)

    def __init__(self, coeffs, rhs):
        terms = clean_terms(coeffs)
        scale, (rhs, *cs) = integer_form(
            chain((_frac(rhs),), (c for _, c in terms)))
        self.scaled = scale, rhs, tuple(
            (ref, c) for (ref, _), c in zip(terms, cs))

    @classmethod
    def from_scaled(cls, unit, rhs, terms) -> "LinearInequality":
        """The inequality of an integer form (see :attr:`scaled`), checked
        as :meth:`Point.from_scaled` checks a point's, with unit >= 1, rhs
        an int and each coefficient a nonzero int, then reduced by
        :meth:`from_scaled_unchecked`."""
        if type(unit) is not int or unit < 1 or type(rhs) is not int:
            raise ValidationError("not an inequality scale and rhs: %r, %r"
                                  % (unit, rhs))
        return cls.from_scaled_unchecked(
            unit, rhs, _checked_terms(terms, None, "an inequality term"))

    @classmethod
    def from_scaled_unchecked(cls, unit, rhs, terms) -> "LinearInequality":
        """The inequality of a form :meth:`from_scaled` accepts, unchecked:
        only reduced, for the cut builders, whose forms are made of the
        instance's own ints and VarRefs."""
        (unit, rhs), terms = _divided((unit, rhs), terms)
        inequality = cls.__new__(cls)
        inequality.scaled = unit, rhs, terms
        return inequality

    @property
    def terms(self) -> tuple:
        unit, _, terms = self.scaled
        return tuple((ref, Fraction(c, unit)) for ref, c in terms)

    @property
    def rhs(self) -> Fraction:
        unit, rhs, _ = self.scaled
        return Fraction(rhs, unit)

    def __eq__(self, other):
        return (isinstance(other, LinearInequality)
                and self.scaled == other.scaled)

    def __hash__(self):
        return hash(self.scaled)

    def __repr__(self):
        body = " + ".join("%s*%s" % (v, r) for r, v in self.terms) or "0"
        return "<%s <= %s>" % (body, self.rhs)


class Point:
    """Sparse point with entries in [0, 1] (zeros dropped), made from its
    Fractions or from its integer form (:meth:`from_scaled`).  Either
    constructor stores only that form, as ``scaled``: ``(D, ((VarRef, X),
    ...))``, each entry times D, the LCM of the entries' denominators
    (:func:`numeric.integer_form`).  ``entries`` are made on each read."""

    __slots__ = ("scaled",)

    def __init__(self, values=()):
        entries = clean_terms(values)
        for ref, value in entries:
            num, den = value.as_integer_ratio()  # den > 0
            if num < 0 or num > den:
                raise ValidationError("point entry out of [0,1]: %s=%s" % (ref, value))
        scale, xs = integer_form(x for _, x in entries)
        self.scaled = scale, tuple(
            (ref, x) for (ref, _), x in zip(entries, xs))

    @classmethod
    def from_scaled(cls, scale, entries) -> "Point":
        """The point of an integer form (see :attr:`scaled`), checked: scale
        an int >= 1, refs exact VarRefs strictly increasing, each X an int
        in (0, scale].  It is divided by the gcd of scale and every X, so
        :attr:`scaled` is what ``Point`` of the same Fractions computes."""
        if type(scale) is not int or scale < 1:
            raise ValidationError("not a point scale: %r" % (scale,))
        (scale,), entries = _divided(
            (scale,), _checked_terms(entries, scale, "a point entry"))
        point = cls.__new__(cls)
        point.scaled = scale, entries
        return point

    @property
    def entries(self) -> tuple:
        scale, entries = self.scaled
        return tuple((ref, Fraction(x, scale)) for ref, x in entries)

    def __eq__(self, other):
        return isinstance(other, Point) and self.scaled == other.scaled

    def __hash__(self):
        return hash(self.scaled)

    def __repr__(self):
        body = ", ".join("%s=%s" % (r, v) for r, v in self.entries) or "0"
        return "<point %s>" % body


def lhs_at(inequality: LinearInequality, point) -> Fraction:
    """Exact left-hand side of ``inequality`` at ``point`` (anything with
    an integer form ``scaled``), summed in integers over both integer
    forms, references unchecked."""
    scale, _, terms = inequality.scaled
    coeffs = dict(terms)
    point_scale, entries = point.scaled
    total = sum(coeffs[ref] * x for ref, x in entries if ref in coeffs)
    return Fraction(total, scale * point_scale)


def knapsack_row(instance: Instance) -> LinearInequality:
    """The defining constraint  sum a_ij x_ij <= b, on the references of
    ``Instance.columns``, from :attr:`Instance.units`, zero weights
    dropped."""
    scale, rows, capacity = instance.units
    return LinearInequality.from_scaled(scale, capacity, [
        (ref, a) for ref, a in zip(instance.columns, chain.from_iterable(rows))
        if a])


def weight_units(instance: Instance, point):
    """``(total, D)``: the weight of ``point`` (anything with an integer
    form ``scaled``, over D) is total / (D * the scale of
    :attr:`Instance.units`); every reference checked."""
    rows = instance.units[1]
    point_scale, entries = point.scaled
    total = 0
    for ref, x in entries:
        instance.check_ref(ref)
        total += rows[ref.group - 1][ref.slot - 1] * x
    return total, point_scale


def profit_units_at(instance: Instance, point):
    """``(total, den)``: the profit of ``point`` (anything with an integer
    form ``scaled``) is total / den, summed in :attr:`Instance.profit_units`
    with every reference checked."""
    scale, costs = instance.profit_units
    point_scale, entries = point.scaled
    return (sum(costs[instance.check_ref(ref)] * x for ref, x in entries),
            scale * point_scale)


def profit_of(instance: Instance, point) -> Fraction:
    """Exact profit of ``point``: :func:`profit_units_at` as a Fraction."""
    return Fraction(*profit_units_at(instance, point))


def complementarity_violations(point):
    """Groups carrying two or more positive variables, ascending, at
    ``point`` (anything with an integer form ``scaled``)."""
    seen = {}
    for ref, _ in point.scaled[1]:
        seen[ref.group] = seen.get(ref.group, 0) + 1
    return [i for i in sorted(seen) if seen[i] >= 2]


def is_feasible(instance: Instance, point) -> bool:
    """Membership in S of ``point`` (anything with an integer form
    ``scaled``): the knapsack row, compared in :attr:`Instance.units` with
    every reference checked, and at most one positive slot per group."""
    total, point_scale = weight_units(instance, point)
    return (total <= instance.units[2] * point_scale
            and not complementarity_violations(point))


def normalize(instance: Instance):
    """Sort each group's slots canonically.

    Slots are ordered by weight descending, ties by profit descending, then
    by original position (so the result is unique and normalizing twice is
    the identity).

    Returns ``(normalized_instance, permutations)`` where
    ``permutations[i-1][k-1]`` is the original slot now at position k of
    group i.  When no group's order changes, ``normalized_instance`` is
    ``instance`` itself.
    """
    new_groups = []
    perms = []
    for g in instance.groups:
        # one scale per row, so its ints sort as its values do
        (weight_scale, weights), (profit_scale, profits) = (g.weight_form,
                                                            g.profit_form)
        order = sorted(range(g.size),
                       key=lambda k: (-weights[k], -profits[k], k))
        perms.append(tuple(k + 1 for k in order))
        new_groups.append(Group.from_forms(
            (weight_scale, tuple(weights[k] for k in order)),
            (profit_scale, tuple(profits[k] for k in order))))
    if all(perm == tuple(range(1, len(perm) + 1)) for perm in perms):
        return instance, tuple(perms)
    scale, (capacity,) = instance.capacity_form
    return (Instance(new_groups, capacity if scale == 1 else instance.capacity),
            tuple(perms))


class AssumptionReport(NamedTuple):
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
    _, rows, capacity = instance.normalized_units()  # raises unless normalized
    m0 = instance.m0
    a1 = len(m0) < instance.m
    a2 = sum(map(max, rows)) > capacity
    if a2:
        return AssumptionReport(m0, a1, a2)
    entries = []
    for i, g in enumerate(instance.groups, start=1):
        profits = g.profit_form[1]  # each group's first slot of most profit
        entries.append((VarRef(i, profits.index(max(profits)) + 1), 1))
    point = Point.from_scaled(1, entries)
    return AssumptionReport(m0, a1, a2, profit_of(instance, point), point)
