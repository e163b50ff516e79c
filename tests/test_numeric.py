import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from ckp.errors import FormatError
from ckp.numeric import (affine_rank, format_rational, integer_form,
                         parse_integer, parse_rational)

from conftest import (LARGE_PRIMES, fraction_affine_rank,
                      reference_integer_form)


class TestParseRational:
    def test_integers(self):
        assert parse_rational("5") == Fraction(5)
        assert parse_rational("-3") == Fraction(-3)
        assert parse_rational("0") == 0

    def test_fractions(self):
        assert parse_rational("7/2") == Fraction(7, 2)
        assert parse_rational("-10/4") == Fraction(-5, 2)

    # the grammar's digits are ASCII 0-9, which int() would also take as
    # Unicode digits; and int() refuses more than 4300 with a ValueError
    @pytest.mark.parametrize("bad", ["", "1.5", "1/0", "1/-2", "a/b", "3 / 4", "++1",
                                     "\u0661\u0660", "\uff13", "1/\uff12",
                                     "-\u0663",
                                     pytest.param("1" * 5000, id="long p"),
                                     pytest.param("1/" + "7" * 5000, id="long q")])
    def test_rejects_garbage(self, bad):
        with pytest.raises(FormatError):
            parse_rational(bad)


class TestParseInteger:
    def test_integers(self):
        assert parse_integer("5") == 5 and type(parse_integer("5")) is int
        assert parse_integer(" -30 ") == -30

    # the rational grammar without /q: what int() also takes is refused
    @pytest.mark.parametrize("bad", ["", "7/2", "4/2", "1/1", "+2", "1_0",
                                     " 1_000", "\u0663", "\u0662", "1.0",
                                     pytest.param("1" * 5000, id="long")])
    def test_rejects_garbage(self, bad):
        with pytest.raises(FormatError):
            parse_integer(bad)


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-7, 2)) == "-7/2"
    assert format_rational(Fraction(4, 2)) == "2"


@given(st.fractions())
def test_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def forms(vectors):
    """Each Fraction vector in the integer form ``affine_rank`` takes:
    ``(den, row)``, den the LCM of its denominators, pulled lazily."""
    for vec in vectors:
        den = lcm(*(x.denominator for x in vec))
        yield den, [x.numerator * (den // x.denominator) for x in vec]


def test_integer_form_matches_fraction_reference():
    """Scale and integers equal the Fraction reference's, for lists with
    zeros, negatives, integers and large coprime denominators, and none."""
    rng = random.Random(6151)
    assert integer_form([]) == (1, [])
    for _ in range(300):
        values = [rng.choice((Fraction(0), Fraction(rng.randint(-9, 9)),
                              Fraction(rng.randint(-10 ** 9, 10 ** 9),
                                       rng.choice(LARGE_PRIMES)),
                              Fraction(rng.randint(-30, 30),
                                       rng.randint(1, 12))))
                  for _ in range(rng.randint(0, 8))]
        assert integer_form(values) == reference_integer_form(values)
        assert integer_form(iter(values)) == reference_integer_form(values)


def test_affine_rank_small():
    # the rank of rows r is the affine rank of the points {0} and r
    one = Fraction(1)
    zero = Fraction(0)
    origin = [zero, zero]
    assert affine_rank(forms([origin])) == 0
    assert affine_rank(forms([origin, [zero, zero]])) == 0
    assert affine_rank(forms([origin, [one, zero], [zero, one]])) == 2
    # second row is a multiple of the first
    assert affine_rank(forms([origin, [one, Fraction(2)],
                              [Fraction(3), Fraction(6)]])) == 1


def test_affine_rank_rectangular():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    assert affine_rank(forms([[Fraction(0)] * 3] + rows)) == 2


def test_affine_rank_cap_stops_pulling():
    """The scan stops at the vector that brings the rank to the cap."""
    pulled = []

    def vectors():
        for k in range(6):
            pulled.append(k)
            if len(pulled) > 4:  # one past the vector that reaches cap 2
                raise AssertionError("pulled a vector past the cap")
            yield [Fraction(k), Fraction(k * k)]

    assert affine_rank(forms(vectors()), cap=2) == 2
    assert affine_rank(forms(iter([[Fraction(1)]])), cap=0) == 0
    assert affine_rank(forms(iter([])), cap=3) == -1


def test_affine_rank_basics():
    assert affine_rank(forms([])) == -1
    p = [Fraction(1), Fraction(2)]
    assert affine_rank(forms([p])) == 0
    q = [Fraction(3), Fraction(2)]
    assert affine_rank(forms([p, q])) == 1
    # three collinear points still span a line
    r = [Fraction(5), Fraction(2)]
    assert affine_rank(forms([p, q, r])) == 1
    s = [Fraction(1), Fraction(7)]
    assert affine_rank(forms([p, q, s])) == 2


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=1, max_size=6))
def test_affine_rank_translation_invariant(pts):
    pts = [[Fraction(x) for x in p] for p in pts]
    shifted = [[x + 17 for x in p] for p in pts]
    assert affine_rank(forms(pts)) == affine_rank(forms(shifted))


_RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(2, 9))


@st.composite
def _low_rank_points(draw):
    """Points on a random rational affine subspace, so that ranks below the
    dimension occur, with non-integer coordinates."""
    n = draw(st.integers(1, 5))
    base = draw(st.lists(_RATIONALS, min_size=n, max_size=n))
    directions = draw(st.lists(st.lists(_RATIONALS, min_size=n, max_size=n),
                               max_size=n))
    points = []
    for weights in draw(st.lists(st.lists(_RATIONALS, min_size=len(directions),
                                          max_size=len(directions)),
                                 max_size=8)):
        point = list(base)
        for t, direction in zip(weights, directions):
            point = [x + t * y for x, y in zip(point, direction)]
        points.append(point)
    return points


@given(_low_rank_points(), st.one_of(st.none(), st.integers(0, 5)))
def test_affine_rank_matches_fraction_elimination(points, cap):
    assert affine_rank(forms(points), cap) == fraction_affine_rank(points, cap)
