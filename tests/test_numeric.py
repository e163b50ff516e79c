from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ckp.errors import FormatError
from ckp.numeric import affine_rank, format_rational, parse_rational


class TestParseRational:
    def test_integers(self):
        assert parse_rational("5") == Fraction(5)
        assert parse_rational("-3") == Fraction(-3)
        assert parse_rational("0") == 0

    def test_fractions(self):
        assert parse_rational("7/2") == Fraction(7, 2)
        assert parse_rational("-10/4") == Fraction(-5, 2)

    @pytest.mark.parametrize("bad", ["", "1.5", "1/0", "1/-2", "a/b", "3 / 4", "++1"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(FormatError):
            parse_rational(bad)


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-7, 2)) == "-7/2"
    assert format_rational(Fraction(4, 2)) == "2"


@given(st.fractions())
def test_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_affine_rank_small():
    # the rank of rows r is the affine rank of the points {0} and r
    one = Fraction(1)
    zero = Fraction(0)
    origin = [zero, zero]
    assert affine_rank([origin]) == 0
    assert affine_rank([origin, [zero, zero]]) == 0
    assert affine_rank([origin, [one, zero], [zero, one]]) == 2
    # second row is a multiple of the first
    assert affine_rank([origin, [one, Fraction(2)],
                        [Fraction(3), Fraction(6)]]) == 1


def test_affine_rank_rectangular():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    assert affine_rank([[Fraction(0)] * 3] + rows) == 2


def test_affine_rank_cap_stops_pulling():
    """The scan stops at the vector that brings the rank to the cap."""
    pulled = []

    def vectors():
        for k in range(6):
            pulled.append(k)
            if len(pulled) > 4:  # one past the vector that reaches cap 2
                raise AssertionError("pulled a vector past the cap")
            yield [Fraction(k), Fraction(k * k)]

    assert affine_rank(vectors(), cap=2) == 2
    assert affine_rank(iter([[Fraction(1)]]), cap=0) == 0
    assert affine_rank(iter([]), cap=3) == -1


def test_affine_rank_basics():
    assert affine_rank([]) == -1
    p = [Fraction(1), Fraction(2)]
    assert affine_rank([p]) == 0
    q = [Fraction(3), Fraction(2)]
    assert affine_rank([p, q]) == 1
    # three collinear points still span a line
    r = [Fraction(5), Fraction(2)]
    assert affine_rank([p, q, r]) == 1
    s = [Fraction(1), Fraction(7)]
    assert affine_rank([p, q, s]) == 2


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=1, max_size=6))
def test_affine_rank_translation_invariant(pts):
    pts = [[Fraction(x) for x in p] for p in pts]
    shifted = [[x + 17 for x in p] for p in pts]
    assert affine_rank(pts) == affine_rank(shifted)
