"""Exact rational scalars, their integer form, and the exact affine rank.

Rationals are ``fractions.Fraction`` throughout the package.  The text form
is ``p`` or ``p/q`` in ASCII digits, p with an optional minus and q > 0;
parsing canonicalizes (lowest terms, sign on the numerator).  An integer,
in a file or an option, is the grammar without ``/q`` (:func:`parse_integer`).
:func:`integer_form` is the package's one scaling of rationals to
integers, by the LCM of their denominators.  :func:`affine_rank` is the
one rank routine.  It takes each vector in integer form, a denominator
and an integer row, and eliminates in integers, not Fractions;
``oracle.VertexSet.face_dimension`` streams the rows of a set of tight
candidate vertices into it with a cap, once per distinct set.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Tuple

from .errors import FormatError

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # ASCII digits only


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` (q > 0).  Raises FormatError on anything else."""
    m = _RATIONAL_RE.fullmatch(text.strip())
    if m is None:
        raise FormatError("not a rational: %r" % (text,))
    try:
        num, den = int(m.group(1)), int(m.group(2) or 1)
    except ValueError:  # more digits than int() converts
        raise FormatError("too many digits (%d characters)" % len(text)) from None
    if den == 0:
        raise FormatError("zero denominator: %r" % (text,))
    return Fraction(num, den)


def parse_integer(text: str) -> int:
    """Parse ``p``: the grammar of :func:`parse_rational` without ``/q``.
    Raises FormatError on anything else."""
    if "/" in text:
        raise FormatError("not an integer: %r" % (text,))
    return parse_rational(text).numerator


def format_rational(value: Fraction) -> str:
    """Canonical text form: ``p`` for integers, else ``p/q`` in lowest terms."""
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def integer_form(values) -> Tuple[int, list]:
    """``(scale, ints)``: the rationals ``values`` times ``scale``, the LCM
    of their denominators (1 for none), as a list of ints."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = lcm(*[q for _, q in ratios])
    return scale, [p * (scale // q) for p, q in ratios]


def affine_rank(vectors: Iterable[Tuple[int, Sequence[int]]],
                cap: Optional[int] = None) -> int:
    """Dimension of the affine hull of ``vectors`` (-1 for none).

    Each vector comes in integer form, as a pair ``(den, row)`` with den a
    positive int and ``row`` an equal-length sequence of ints: the vector
    is row / den.  The vectors are consumed one at a time by incremental
    elimination against the first, fraction-free: a vector's difference
    from the first, times both dens, is an integer row that spans the same
    line as the difference.  That row is reduced against the echelon rows
    by integer cross-multiplication, each step divided by the row's gcd.
    With ``cap`` the scan stops as soon as the rank reaches it, pulling no
    further vector, and the result is ``min(rank, cap)``.
    """
    base = None
    basis = []  # insertion-ordered echelon rows of ints, with pivot columns
    for den, ints in vectors:
        if base is None:
            base, base_den = ints, den
        else:
            row = [x * base_den - y * den for x, y in zip(ints, base)]
            for pivot_col, basis_row in basis:
                factor = row[pivot_col]
                if factor:
                    pivot = basis_row[pivot_col]
                    row = [pivot * x - factor * y
                           for x, y in zip(row, basis_row)]
                    divisor = gcd(*row)
                    if divisor > 1:
                        row = [x // divisor for x in row]
            for col, x in enumerate(row):
                if x:
                    basis.append((col, row))
                    break
        if cap is not None and len(basis) >= cap:
            break
    return -1 if base is None else len(basis)
