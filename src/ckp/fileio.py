"""Line-oriented text formats for instances, inequalities, and points.

All three formats are UTF-8, ``#`` starts a comment, blank lines are
ignored, and every rational is printed in canonical lowest-terms form so
serialization is bit-stable.
"""

from __future__ import annotations

from .errors import FormatError
from .model import Group, Instance, LinearInequality, Point, VarRef
from .numeric import format_ratio, parse_exact, parse_integer


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


def _body(text: str, kind: str, what: str):
    """The logical lines of ``text`` after its ``<kind> 1`` header; no
    logical line at all is an empty ``what`` file."""
    lines = list(_logical_lines(text))
    if not lines:
        raise FormatError("empty %s file" % what)
    lineno, tokens = lines[0]
    if tokens != [kind, "1"]:
        _fail(lineno, "expected header '%s 1'" % kind)
    return lines[1:]


def _keyed_value(lines, keyword: str, what: str):
    """The rational of the first of ``lines``, a ``<keyword> <rational>``
    line; with no line left, the ``what`` line is missing."""
    if not lines:
        raise FormatError("missing %s line" % what)
    lineno, tokens = lines[0]
    if len(tokens) != 2 or tokens[0] != keyword:
        _fail(lineno, "expected '%s <rational>'" % keyword)
    return _value_at(lineno, tokens[1])


def parse_instance(text: str) -> Instance:
    lines = _body(text, "ckp", "instance")
    capacity = _keyed_value(lines, "b", "capacity")
    groups = []
    for lineno, tokens in lines[1:]:
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


def _value_at(lineno, token, parse=parse_exact):
    """``token`` read by ``parse``, its error naming the line: by default
    a rational, an int when it is integral (:func:`numeric.parse_exact`)."""
    try:
        return parse(token)
    except FormatError as exc:
        _fail(lineno, str(exc))


def _texts(form):
    """The canonical texts of an integer form's values, ``ints / scale``,
    each reduced by :func:`numeric.format_ratio` with no Fraction made."""
    scale, ints = form
    if scale == 1:
        return [str(v) for v in ints]
    return [format_ratio(v, scale) for v in ints]


def serialize_instance(instance: Instance) -> str:
    out = ["ckp 1", "b %s" % _texts(instance.capacity_form)[0]]
    for g in instance.groups:
        out.append(" ".join(["group", str(g.size), "a", *_texts(g.weight_form),
                             "c", *_texts(g.profit_form)]))
    return "\n".join(out) + "\n"


def parse_inequality(text: str) -> LinearInequality:
    lines = _body(text, "ineq", "inequality")
    rhs = _keyed_value(lines, "rhs", "rhs")
    return LinearInequality(_entries(lines[1:], "term"), rhs)


def serialize_inequality(q: LinearInequality) -> str:
    scale, rhs, terms = q.scaled
    rhs, *texts = _texts((scale, (rhs, *(c for _, c in terms))))
    out = ["ineq 1", "rhs %s" % rhs]
    out += ["term %d %d %s" % (ref.group, ref.slot, text)
            for (ref, _), text in zip(terms, texts)]
    return "\n".join(out) + "\n"


def parse_point(text: str) -> Point:
    return Point(_entries(_body(text, "point", "point"), "val"))


def serialize_point(point: Point) -> str:
    scale, entries = point.scaled
    texts = _texts((scale, [x for _, x in entries]))
    out = ["point 1"]
    out += ["val %d %d %s" % (ref.group, ref.slot, text)
            for (ref, _), text in zip(entries, texts)]
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
