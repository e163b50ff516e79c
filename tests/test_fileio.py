from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ckp.errors import FormatError, ValidationError
from ckp.fileio import (
    parse_inequality,
    parse_instance,
    parse_point,
    serialize_inequality,
    serialize_instance,
    serialize_point,
)
from ckp.model import LinearInequality, Point, VarRef

from conftest import make_instance, random_instance

EX = """\
# toy instance
ckp 1
b 21
group 1 a 2 c 2
group 2 a 10 6 c 10 6
"""


def test_parse_instance():
    inst = parse_instance(EX)
    assert inst.capacity == 21
    assert inst.m == 2
    assert inst.groups[1].weights == (Fraction(10), Fraction(6))


def test_integral_tokens_stay_integers():
    # an integral token, ``p`` or ``p/1``, reaches the group as an int, so
    # the integer forms are the file's own numbers at scale 1
    inst = parse_instance(EX.replace("10 6 c", "10/1 6 c"))
    assert inst.capacity_form == (1, (21,))
    assert [g.weight_form for g in inst.groups] == [(1, (2,)), (1, (10, 6))]
    assert all(type(v) is int for g in inst.groups for v in g.weight_form[1])
    inst = parse_instance("ckp 1\nb 9/2\ngroup 2 a 3/2 2/6 c 4/2 0\n")
    assert inst.capacity_form == (2, (9,))
    assert inst.groups[0].weight_form == (6, (9, 2))
    assert inst.groups[0].profit_form == (1, (2, 0))
    assert serialize_instance(inst) == "ckp 1\nb 9/2\ngroup 2 a 3/2 1/3 c 2 0\n"


def test_comments_and_blanks_ignored():
    messy = "\n\n# hi\nckp 1   # header\n\nb 3\ngroup 1 a 1 c 1\n"
    assert parse_instance(messy).capacity == 3


def test_instance_round_trip(ex_a, ex_b, ex_c):
    for inst in (ex_a, ex_b, ex_c):
        assert parse_instance(serialize_instance(inst)) == inst


@given(st.integers(0, 2 ** 40))
def test_big_integer_capacity_survives(cap):
    inst = make_instance([(1,)], cap)
    assert parse_instance(serialize_instance(inst)).capacity == cap


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("ckp 2\nb 1\ngroup 1 a 1 c 1\n", "line 1"),
        ("ckp 1\n", "capacity"),
        ("ckp 1\nb x\ngroup 1 a 1 c 1\n", "line 2"),
        ("ckp 1\nb 1\ngrp 1 a 1 c 1\n", "line 3"),
        ("ckp 1\nb 1\ngroup 2 a 1 c 1\n", "line 3"),
        ("ckp 1\nb 1\ngroup 0 a c\n", "line 3"),
        # numbers are ASCII 0-9: int() and \d would take these as 10, 3, 2
        ("ckp 1\nb ١٠\ngroup 1 a 1 c 1\n", "line 2"),
        ("ckp 1\nb 5\ngroup 1 a ３ c 1\n", "line 3"),
        ("ckp 1\nb 5\ngroup ２ a 2 1 c 1 1\n", "line 3"),
        ("ckp 1\nb 5\ngroup +2 a 2 1 c 1 1\n", "line 3"),
        ("ckp 1\nb 5\ngroup 0_2 a 2 1 c 1 1\n", "line 3"),
        ("ckp 1\nb 5\ngroup 2/1 a 2 1 c 1 1\n", "line 3"),
        # past int()'s digit limit, which raises ValueError
        pytest.param("ckp 1\nb %s\ngroup 1 a 1 c 1\n" % ("1" * 5000), "line 2",
                     id="5000-digit capacity"),
        ("ckp 1\nb 1\n", "no groups"),
    ],
)
def test_instance_errors_name_the_line(text, fragment):
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
            "\u2029"])
def test_lines_end_at_newlines_only(sep):
    # str.splitlines() also breaks at these, which an editor shows inside
    # a line; a \r before a \n is stripped
    with pytest.raises(FormatError, match="^line 3: expected 'group 1 a"):
        parse_instance("ckp 1\r\nb 5\ngroup 1 a 1 c 1%sbad\n" % sep)
    with pytest.raises(FormatError, match="^line 2: expected 'b <rational>'"):
        parse_instance("ckp 1\nb 5%sgroup 1 a 1 c 1\nbad\n" % sep)


def test_parsed_instance_refuses_negative_data():
    # a well-formed file whose data is negative is refused by the Instance
    # it builds, not as a format error
    with pytest.raises(ValidationError,
                       match="^negative weight at group 1 slot 1$"):
        parse_instance("ckp 1\nb 5\ngroup 1 a -1 c 1\n")


def test_inequality_round_trip():
    q = LinearInequality(
        [(VarRef(1, 1), Fraction(7, 2)), (VarRef(3, 2), Fraction(-1, 3))],
        Fraction(22),
    )
    text = serialize_inequality(q)
    assert text == "ineq 1\nrhs 22\nterm 1 1 7/2\nterm 3 2 -1/3\n"
    assert parse_inequality(text) == q


def test_inequality_errors():
    with pytest.raises(FormatError):
        parse_inequality("ineq 1\n")
    with pytest.raises(FormatError) as err:
        parse_inequality("ineq 1\nrhs 5\nterm 0 1 2\n")
    assert "1-based" in str(err.value)
    with pytest.raises(FormatError):
        parse_inequality("ineq 1\nrhs 5\nterm 1 1\n")


def test_point_round_trip():
    p = Point([(VarRef(2, 1), Fraction(1, 3)), (VarRef(1, 1), 1)])
    text = serialize_point(p)
    # entries come back sorted by (group, slot)
    assert text == "point 1\nval 1 1 1\nval 2 1 1/3\n"
    assert parse_point(text) == p


def test_point_header_error():
    with pytest.raises(FormatError) as err:
        parse_point("pt 1\n")
    assert "point 1" in str(err.value)


@pytest.mark.parametrize(
    "parse,text,line",
    [
        # indices are ASCII 0-9 too, as in instance files
        (parse_inequality, "ineq 1\nrhs 5\nterm 1_0 1 5\n", 3),
        (parse_inequality, "ineq 1\nrhs 5\nterm 1 +1 5\n", 3),
        (parse_point, "point 1\nval 1 ١ 1\n", 2),
        pytest.param(parse_inequality,
                     "ineq 1\nrhs 5\nterm %s 1 5\n" % ("1" * 5000), 3,
                     id="5000-digit index"),
        # a variable given twice, or a value outside [0, 1], names its line
        (parse_inequality, "ineq 1\nrhs 3\nterm 1 1 0\nterm 1 1 5\n", 4),
        (parse_point, "point 1\nval 3 1 1/7\n\nval 3 1 0\n", 4),
        (parse_point, "point 1\nval 1 1 1\nval 2 1 3/2\n", 3),
        (parse_point, "point 1\nval 1 1 -1/2\n", 2),
    ],
)
def test_bad_lines_name_their_line(parse, text, line):
    with pytest.raises(FormatError, match="^line %d: " % line):
        parse(text)


def test_serialization_is_stable(rng):
    # serialize -> parse -> serialize must be a fixed point (golden-file safety)
    for _ in range(10):
        inst = random_instance(rng)
        once = serialize_instance(inst)
        assert serialize_instance(parse_instance(once)) == once
