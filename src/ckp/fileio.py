"""Line-oriented text formats for instances, inequalities, and points.

All three formats are UTF-8, ``#`` starts a comment, blank lines are
ignored, and every rational is printed in canonical lowest-terms form so
serialization is bit-stable.
"""

from __future__ import annotations

from .errors import FormatError
from .model import Group, Instance, LinearInequality, Point, VarRef
from .numeric import format_rational, parse_integer, parse_rational


def _logical_lines(text: str):
    """(line_number, tokens) for every non-blank, non-comment line.  Lines
    end at ``\n`` alone, as an editor counts them; ``strip`` drops a
    ``\r`` before it."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _fail(lineno: int, message: str):
    raise FormatError("line %d: %s" % (lineno, message))


def parse_instance(text: str) -> Instance:
    lines = list(_logical_lines(text))
    if not lines:
        raise FormatError("empty instance file")
    lineno, tokens = lines[0]
    if tokens != ["ckp", "1"]:
        _fail(lineno, "expected header 'ckp 1'")
    if len(lines) < 2:
        raise FormatError("missing capacity line")
    lineno, tokens = lines[1]
    if len(tokens) != 2 or tokens[0] != "b":
        _fail(lineno, "expected 'b <rational>'")
    capacity = _value_at(lineno, tokens[1])
    groups = []
    for lineno, tokens in lines[2:]:
        if tokens[0] != "group":
            _fail(lineno, "expected a 'group' line")
        if len(tokens) < 2:
            _fail(lineno, "missing group size")
        n = _value_at(lineno, tokens[1], parse_integer)
        if n < 1:
            _fail(lineno, "group size must be >= 1")
        expected = 2 + 1 + n + 1 + n  # 'group n' + 'a' weights + 'c' profits
        if len(tokens) != expected or tokens[2] != "a" or tokens[3 + n] != "c":
            _fail(lineno, "expected 'group %d a <%d rationals> c <%d rationals>'" % (n, n, n))
        weights = tuple(_value_at(lineno, t) for t in tokens[3:3 + n])
        profits = tuple(_value_at(lineno, t) for t in tokens[4 + n:4 + 2 * n])
        groups.append(Group(weights, profits))
    if not groups:
        raise FormatError("instance has no groups")
    return Instance(tuple(groups), capacity)


def _value_at(lineno, token, parse=parse_rational):
    """``token`` read by ``parse``, its error naming the line."""
    try:
        return parse(token)
    except FormatError as exc:
        _fail(lineno, str(exc))


def serialize_instance(instance: Instance) -> str:
    out = ["ckp 1", "b %s" % format_rational(instance.capacity)]
    for g in instance.groups:
        parts = ["group", str(g.size), "a"]
        parts += [format_rational(a) for a in g.weights]
        parts.append("c")
        parts += [format_rational(c) for c in g.profits]
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def parse_inequality(text: str) -> LinearInequality:
    lines = list(_logical_lines(text))
    if not lines:
        raise FormatError("empty inequality file")
    lineno, tokens = lines[0]
    if tokens != ["ineq", "1"]:
        _fail(lineno, "expected header 'ineq 1'")
    if len(lines) < 2:
        raise FormatError("missing rhs line")
    lineno, tokens = lines[1]
    if len(tokens) != 2 or tokens[0] != "rhs":
        _fail(lineno, "expected 'rhs <rational>'")
    rhs = _value_at(lineno, tokens[1])
    return LinearInequality(_entries(lines[2:], "term"), rhs)


def serialize_inequality(q: LinearInequality) -> str:
    out = ["ineq 1", "rhs %s" % format_rational(q.rhs)]
    for ref, value in q.terms:
        out.append("term %d %d %s" % (ref.group, ref.slot, format_rational(value)))
    return "\n".join(out) + "\n"


def parse_point(text: str) -> Point:
    lines = list(_logical_lines(text))
    if not lines:
        raise FormatError("empty point file")
    lineno, tokens = lines[0]
    if tokens != ["point", "1"]:
        _fail(lineno, "expected header 'point 1'")
    return Point(_entries(lines[1:], "val"))


def serialize_point(point: Point) -> str:
    out = ["point 1"]
    for ref, value in point.entries:
        out.append("val %d %d %s" % (ref.group, ref.slot, format_rational(value)))
    return "\n".join(out) + "\n"


def _entries(lines, keyword):
    """``{VarRef: value}`` from ``<keyword> <i> <j> <rational>`` lines.  A
    variable given twice, or a ``val`` outside [0, 1], fails on its own
    line, as every other malformed line does."""
    entries = {}
    for lineno, tokens in lines:
        if len(tokens) != 4 or tokens[0] != keyword:
            _fail(lineno, "expected '%s <i> <j> <rational>'" % keyword)
        ref = VarRef(_value_at(lineno, tokens[1], parse_integer),
                     _value_at(lineno, tokens[2], parse_integer))
        if ref.group < 1 or ref.slot < 1:
            _fail(lineno, "indices are 1-based")
        value = _value_at(lineno, tokens[3])
        if ref in entries:
            _fail(lineno, "%s is given twice" % (ref,))
        if keyword == "val" and not 0 <= value <= 1:
            _fail(lineno, "point entry out of [0,1]: %s=%s" % (ref, value))
        entries[ref] = value
    return entries
