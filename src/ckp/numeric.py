"""Exact rational scalars and the exact affine rank.

Rationals are ``fractions.Fraction`` throughout the package.  The text form
is ``p`` or ``p/q`` with an optional leading minus sign and q > 0; parsing
canonicalizes (lowest terms, sign on the numerator).  :func:`affine_rank`
is the one rank routine; ``oracle.face_dimension`` streams its tight
candidate vertices into it with a cap.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import FormatError

Rational = Fraction

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` (q > 0).  Raises FormatError on anything else."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise FormatError("not a rational: %r" % (text,))
    num = int(m.group(1))
    if m.group(2) is None:
        return Fraction(num)
    den = int(m.group(2))
    if den == 0:
        raise FormatError("zero denominator: %r" % (text,))
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Canonical text form: ``p`` for integers, else ``p/q`` in lowest terms."""
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def affine_rank(vectors: Iterable[Sequence[Fraction]],
                cap: Optional[int] = None) -> int:
    """Dimension of the affine hull of ``vectors`` (-1 for none).

    Vectors are equal-length sequences of Fractions, consumed one at a time
    by incremental Gaussian elimination against the first.  With ``cap``
    the scan stops as soon as the rank reaches it, pulling no further
    vector, and the result is ``min(rank, cap)``.
    """
    base = None
    basis = []  # insertion-ordered echelon rows, pivot normalized to 1
    for vec in vectors:
        if base is None:
            base = vec
        else:
            row = [x - y for x, y in zip(vec, base)]
            for pivot_col, basis_row in basis:
                factor = row[pivot_col]
                if factor:
                    row = [x - factor * y for x, y in zip(row, basis_row)]
            for col, x in enumerate(row):
                if x != 0:
                    basis.append((col, [entry / x for entry in row]))
                    break
        if cap is not None and len(basis) >= cap:
            break
    return -1 if base is None else len(basis)
