import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from ckp.errors import FormatError
from ckp.numeric import (affine_rank, common_scale, format_rational,
                         integer_form, parse_exact, parse_integer,
                         parse_rational)

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


def test_parse_exact():
    # parse_rational's value, an int when integral as written
    for text, value in (("5", 5), (" -30 ", -30), ("7/1", 7), ("0/3", 0),
                        ("7/2", Fraction(7, 2)), ("-10/4", Fraction(-5, 2)),
                        ("4/2", 2)):
        assert parse_exact(text) == parse_rational(text) == value
        assert type(parse_exact(text)) is (int if "/" not in text
                                           or text.endswith("/1") else Fraction)
    for bad in ("", "1.5", "1/0", "+2", "\u0663"):
        with pytest.raises(FormatError):
            parse_exact(bad)


def test_common_scale_matches_one_integer_form():
    """Integer forms brought to one scale equal the integer form of all
    their values at once; a row already at that scale is passed through."""
    rng = random.Random(6263)
    for _ in range(300):
        rows = [[Fraction(rng.randint(0, 40), rng.choice((1, 1, 2, 3, 7)))
                 for _ in range(rng.randint(1, 4))]
                for _ in range(rng.randint(1, 4))]
        forms = [(s, tuple(ints)) for s, ints in map(integer_form, rows)]
        scale, ints = integer_form([v for row in rows for v in row])
        got_scale, got = common_scale(iter(forms))
        assert got_scale == scale
        assert [v for row in got for v in row] == ints
        for (s, row), new in zip(forms, got):
            assert type(new) is tuple and (new is row) == (s == scale)


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-7, 2)) == "-7/2"
    assert format_rational(Fraction(4, 2)) == "2"


@given(st.fractions())
def test_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def table(vectors, width=None):
    """Fraction vectors as the integer table ``affine_rank`` reads:
    ``(dens, columns, rows)``, a den per vector (the LCM of its
    denominators), a tuple of ints per coordinate and every row."""
    vectors = [list(v) for v in vectors]
    dens = [lcm(*(x.denominator for x in v)) for v in vectors]
    width = len(vectors[0]) if vectors else width or 0
    columns = [tuple(v[c].numerator * (d // v[c].denominator)
                     for v, d in zip(vectors, dens)) for c in range(width)]
    return dens, columns, range(len(dens))


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
    assert affine_rank(*table([origin])) == 0
    assert affine_rank(*table([origin, [zero, zero]])) == 0
    assert affine_rank(*table([origin, [one, zero], [zero, one]])) == 2
    # second row is a multiple of the first
    assert affine_rank(*table([origin, [one, Fraction(2)],
                               [Fraction(3), Fraction(6)]])) == 1


def test_affine_rank_rectangular():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    assert affine_rank(*table([[Fraction(0)] * 3] + rows)) == 2


class _Recorded(list):
    """A list that records the index of each item pulled from it."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __iter__(self):
        for k, item in enumerate(super().__iter__()):
            self.log.append(k)
            yield item


def test_affine_rank_cap_stops_pulling():
    """With a cap, the elimination stops at the column that brings the
    rank to cap + 1: no later column is gathered."""
    points = [[Fraction(k), Fraction(k * k), Fraction(k ** 3)]
              for k in range(12)]
    dens, columns, rows = table(points)
    pulled = []
    got = affine_rank(dens, _Recorded(columns, pulled), rows, cap=1)
    assert got == 1
    assert pulled == [0]  # the first column brings it there
    assert affine_rank(*table(points), cap=2) == 2
    assert affine_rank(*table([[Fraction(1)]]), cap=0) == 0
    assert affine_rank(*table(points), cap=0) == 0
    assert affine_rank(*table([], width=3), cap=3) == -1


def test_affine_rank_one_elimination_over_every_row():
    """Points on a line never reach cap 2, and one off the line at row 17
    of 20 does: either way the rows are gathered once, every one of them,
    and each column at most once."""
    points = [[Fraction(k), Fraction(2 * k), Fraction(-k, 3)]
              for k in range(20)]
    for off_line in (False, True):
        if off_line:
            points[17] = [Fraction(1), Fraction(0), Fraction(0)]
        dens, columns, rows = table(points)
        pulled, iterated = [], []
        got = affine_rank(dens, _Recorded(columns, pulled),
                          _Recorded(rows, iterated), cap=2)
        assert got == (2 if off_line else 1)
        assert iterated == list(range(20))
        assert len(set(pulled)) == len(pulled)
    assert affine_rank(*table(points)) == fraction_affine_rank(points) == 2


def test_affine_rank_basics():
    assert affine_rank(*table([])) == -1
    p = [Fraction(1), Fraction(2)]
    assert affine_rank(*table([p])) == 0
    q = [Fraction(3), Fraction(2)]
    assert affine_rank(*table([p, q])) == 1
    # three collinear points still span a line
    r = [Fraction(5), Fraction(2)]
    assert affine_rank(*table([p, q, r])) == 1
    s = [Fraction(1), Fraction(7)]
    assert affine_rank(*table([p, q, s])) == 2


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=1, max_size=6))
def test_affine_rank_translation_invariant(pts):
    pts = [[Fraction(x) for x in p] for p in pts]
    shifted = [[x + 17 for x in p] for p in pts]
    assert affine_rank(*table(pts)) == affine_rank(*table(shifted))


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
    assert (affine_rank(*table(points), cap)
            == fraction_affine_rank(points, cap))
