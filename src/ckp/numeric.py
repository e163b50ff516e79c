"""Exact rational scalars, their integer form, and the exact affine rank.

Rationals are ``fractions.Fraction`` throughout the package.  The text form
is ``p`` or ``p/q`` in ASCII digits, p with an optional minus and q > 0;
parsing canonicalizes (lowest terms, sign on the numerator).  An integer,
in a file or an option, is the grammar without ``/q`` (:func:`parse_integer`);
an integer argument is an int and not a bool (:func:`require_integer`).
:func:`integer_form` is the package's one scaling of rationals to
integers, by the LCM of their denominators, and :func:`common_scale` its
one combining of such forms at a common scale.  :func:`affine_rank` is the
one rank routine.  It reads points in the layout of the oracle's
candidate table, a denominator per point and a column of ints per
coordinate, gathers the rows it is given of each column once, as one
integer column, and eliminates those in integers, not Fractions, in one
pass; ``oracle.VertexSet.face_dimension`` gives it the tight candidates'
rows with a cap, once per distinct inequality.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Optional, Sequence, Tuple

from .errors import FormatError, ValidationError

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # ASCII digits only


def _ratio(text: str) -> Tuple[int, int]:
    """``(p, q)`` of ``p`` or ``p/q`` (q > 0, 1 without ``/q``), not
    reduced.  Raises FormatError on anything else."""
    m = _RATIONAL_RE.fullmatch(text.strip())
    if m is None:
        raise FormatError("not a rational: %r" % (text,))
    try:
        num, den = int(m.group(1)), int(m.group(2) or 1)
    except ValueError:  # more digits than int() converts
        raise FormatError("too many digits (%d characters)" % len(text)) from None
    if den == 0:
        raise FormatError("zero denominator: %r" % (text,))
    return num, den


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` (q > 0).  Raises FormatError on anything else."""
    return Fraction(*_ratio(text))


def parse_exact(text: str):
    """The value of :func:`parse_rational`, as an int when the text has no
    ``/q`` or a ``/1``, so integral data needs no Fraction."""
    num, den = _ratio(text)
    return num if den == 1 else Fraction(num, den)


def parse_integer(text: str) -> int:
    """Parse ``p``: the grammar of :func:`parse_rational` without ``/q``.
    Raises FormatError on anything else."""
    if "/" in text:
        raise FormatError("not an integer: %r" % (text,))
    return _ratio(text)[0]


def require_integer(value, name: str) -> int:
    """``value`` when it is an int and not a bool; else ``ValidationError``
    naming ``name``.  The one type check of an integer argument: the
    enumeration and solver limits, a pack3 tilt group and the partition
    reduction's alphas and beta."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError("%s must be an integer, got %r" % (name, value))
    return value


def format_rational(value: Fraction) -> str:
    """Canonical text form: ``p`` for integers, else ``p/q`` in lowest terms."""
    return format_ratio(*value.as_integer_ratio())


def format_ratio(num: int, den: int) -> str:
    """The canonical text form of num / den (den > 0), reduced by their
    gcd, with no Fraction made: the package's one ``p``/``p/q`` rule."""
    common = gcd(num, den)
    num, den = num // common, den // common
    return str(num) if den == 1 else "%d/%d" % (num, den)


def integer_form(values) -> Tuple[int, list]:
    """``(scale, ints)``: the rationals ``values`` times ``scale``, the LCM
    of their denominators (1 for none), as a list of ints."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = lcm(*[q for _, q in ratios])
    return scale, [p * (scale // q) for p, q in ratios]


def common_scale(forms) -> Tuple[int, list]:
    """``(scale, rows)``: the integer forms ``forms``, each ``(s, ints)``
    as :func:`integer_form` makes them, brought to one scale, the LCM of
    theirs.  A row already at that scale is given as it is; every other
    becomes a tuple of its ints times ``scale // s``."""
    forms = list(forms)
    scale = lcm(*[s for s, _ in forms])
    return scale, [ints if s == scale else tuple(v * (scale // s) for v in ints)
                   for s, ints in forms]


def affine_rank(dens: Sequence[int], columns: Sequence[Sequence[int]],
                rows: Sequence[int], cap: Optional[int] = None) -> int:
    """Dimension of the affine hull of the points ``rows`` of an integer
    table (-1 for none): point k is ``column[k] / dens[k]`` at each column
    of ``columns``, with every den a positive int.

    The dimension is the rank of the homogenized rows ``(dens[k],
    column[k], ...)`` less one, and the rank is taken over the table's
    columns: each column's entries at the rows, gathered once by one
    ``itemgetter``, is reduced against the echelon columns kept so far by
    integer cross-multiplication, each step divided by the column's gcd,
    with no Fraction.  The dens come first, so their pivot is the first
    row.  Each echelon column's pivot position names one row, and those
    rows are affinely independent points.

    The result is ``min(dimension, cap)``, with ``cap`` the column count
    when not given, the largest dimension there is; the elimination stops
    at the column that brings the rank to cap + 1.
    """
    if not rows:
        return -1
    target = len(columns) + 1 if cap is None else cap + 1
    if len(rows) == 1 or target == 1:  # the dens alone reach the rank
        return 0
    get = itemgetter(*rows)
    basis = [(0, get(dens))]  # (pivot position, column); dens > 0
    for column in map(get, columns):
        if not any(column):
            continue
        for pivot_at, echelon in basis:
            factor = column[pivot_at]
            if factor:
                pivot = echelon[pivot_at]
                column = [pivot * x - factor * y
                          for x, y in zip(column, echelon)]
                divisor = gcd(*column)
                if divisor > 1:
                    column = [x // divisor for x in column]
        for at, x in enumerate(column):
            if x:
                basis.append((at, column))
                break
        if len(basis) == target:
            return target - 1
    return len(basis) - 1
