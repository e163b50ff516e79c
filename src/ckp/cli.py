"""Command-line interface.

Subcommands: check, oracle, cuts, verify, separate, solve,
reduce-partition.  All output is deterministic for fixed inputs; rationals
print in canonical lowest-terms form.  Instances are normalized after
parsing, so reported slot indices always refer to the canonical
weight-descending order within each group.

Exit codes: 0 success, 1 parse/usage error, 2 violated precondition,
3 enumeration/node limit exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import cuts as cuts_mod
from . import fileio, oracle, separation, solver
from .errors import (CkpError, FormatError, PreconditionError,
                     ResourceLimitError)
from .model import Instance, normalize, validate_assumptions
from .numeric import format_rational, parse_integer


def _read(path: str, parse):
    """``parse`` of the text of the file at ``path``.  Every format is
    UTF-8 (see ``fileio``), so a byte that does not decode is a format
    error too; either is a ``FormatError`` that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(handle.read())
    except (FormatError, UnicodeDecodeError) as exc:
        raise FormatError("%s: %s" % (path, exc)) from None


def _load_instance(path: str) -> Instance:
    normalized, _ = normalize(_read(path, fileio.parse_instance))
    return normalized


def _facet(dim: int, vertices) -> str:
    """The facet verdict of a face of dimension ``dim``: a facet is a
    non-empty face of dimension dim conv(S) - 1, and conv(S) need not be
    d-dimensional.  When conv(S) is the origin alone (b = 0, every weight
    positive), it has no facet: the empty face is not one."""
    return "yes" if dim == vertices.hull_dimension - 1 >= 0 else "no"


def _print_cut(cut, out, vertices=None, text=None) -> None:
    """The cut's block, in one write; its facet line is the builder's
    flag, or with candidate ``vertices`` the oracle's verdict
    (:func:`_facet`).  ``text`` is the inequality's serialization when the
    caller has it already."""
    if vertices is None:
        facet = "yes" if cut.facet_guaranteed else "unknown"
    else:
        facet = _facet(vertices.face_dimension(cut.inequality), vertices)
    if text is None:
        text = fileio.serialize_inequality(cut.inequality)
    out.write("# %s\n# facet: %s\n%s" % (cut.describe(), facet, text))


def _cmd_check(args, out) -> int:
    parsed = _read(args.instance, fileio.parse_instance)
    instance, _ = normalize(parsed)
    already = instance is parsed
    report = validate_assumptions(instance)
    print("groups: %d" % instance.m, file=out)
    print("variables: %d" % instance.dimension, file=out)
    print("normalized-input: %s" % ("yes" if already else "no"), file=out)
    m0 = " ".join(str(i) for i in sorted(report.m0)) if report.m0 else "(empty)"
    print("m0: %s" % m0, file=out)
    print("assumption1: %s" % ("holds" if report.assumption1 else "fails"), file=out)
    print("assumption2: %s" % ("holds" if report.assumption2 else "fails"), file=out)
    if not report.assumption2:
        print("trivial-value: %s" % format_rational(report.trivial_value), file=out)
        out.write("trivial-point:\n"
                  + fileio.point_lines(report.trivial_point))
    return 0


def _cmd_oracle(args, out) -> int:
    instance = _load_instance(args.instance)
    vertices = oracle.enumerate_candidate_vertices(instance, args.enumerate_limit)
    value, point = vertices.maximize(
        {ref: instance.profit(ref) for ref in instance.columns})
    print("candidates: %d" % len(vertices), file=out)
    print("value: %s" % format_rational(value), file=out)
    out.write("point:\n" + fileio.point_lines(point))
    return 0


def _cmd_verify(args, out) -> int:
    instance = _load_instance(args.instance)
    inequality = _read(args.inequality, fileio.parse_inequality)
    vertices = oracle.enumerate_candidate_vertices(instance, args.enumerate_limit)
    try:
        dim = vertices.face_dimension(inequality)
    except PreconditionError as exc:
        out.write("valid: no\nwitness:\n" + fileio.point_lines(exc.witness))
        return 0
    print("valid: yes", file=out)
    print("face-dim: %d" % dim, file=out)
    print("facet: %s" % _facet(dim, vertices), file=out)
    return 0


def _cmd_cuts(args, out) -> int:
    instance = _load_instance(args.instance)
    families = cuts_mod.resolve_families(args.family)
    vertices = None  # enumerated once, at the first cut to verify
    texts = {}  # integer form -> text, so a repeat is not serialized again
    first = True
    for cut in cuts_mod.theorem_cuts(instance, families,
                                     args.enumerate_limit):
        if not first:
            out.write("\n")
        first = False
        if args.verify and vertices is None:
            vertices = oracle.enumerate_candidate_vertices(
                instance, args.enumerate_limit)
        form = cut.inequality.scaled
        text = texts.get(form)
        if text is None:
            text = texts[form] = fileio.serialize_inequality(cut.inequality)
        _print_cut(cut, out, vertices, text)
    if first:
        print("# no cuts", file=out)
    return 0


def _cmd_separate(args, out) -> int:
    instance = _load_instance(args.instance)
    point = _read(args.point, fileio.parse_point)
    if args.greedy:
        result = separation.separate_greedy(instance, point, args.family)
    else:
        result = separation.separate_exact(instance, point, args.family,
                                           args.enumerate_limit)
    if not result.found:
        print("outcome: none", file=out)
        print("examined: %d" % result.stats.examined, file=out)
        return 0
    print("outcome: found", file=out)
    print("violation: %s" % format_rational(result.violation), file=out)
    print("examined: %d" % result.stats.examined, file=out)
    _print_cut(result.cut, out)
    return 0


def _cmd_solve(args, out) -> int:
    instance = _load_instance(args.instance)
    config = solver.SolveConfig(families=args.cuts,
                                node_limit=args.node_limit,
                                exact_fallback=args.exact_sep,
                                enum_limit=args.enumerate_limit)
    report = solver.branch_and_cut(instance, config)
    print("status: %s" % ("optimal" if report.proven_optimal else "node-limit"),
          file=out)
    print("value: %s" % format_rational(report.value), file=out)
    print("best-bound: %s" % format_rational(report.best_bound), file=out)
    print("nodes: %d" % report.nodes, file=out)
    print("lp-pivots: %d" % report.lp_pivots, file=out)
    print("cuts-added: %s" % " ".join(
        "%s=%d" % (name, report.cuts_per_family[name])
        for name in cuts_mod.FAMILIES), file=out)
    if report.exact_sep_stopped:
        print("exact-sep: stopped, pattern space over the enumeration limit",
              file=out)
    out.write("point:\n" + fileio.point_lines(report.point))
    return 0 if report.proven_optimal else 3


def _cmd_reduce(args, out) -> int:
    instance, point = separation.build_partition_reduction(args.alphas,
                                                           args.beta)
    instance_path = args.out + ".ckp"
    point_path = args.out + ".point"
    with open(instance_path, "w", encoding="utf-8") as handle:
        handle.write(fileio.serialize_instance(instance))
    with open(point_path, "w", encoding="utf-8") as handle:
        handle.write(fileio.serialize_point(point))
    print("wrote %s" % instance_path, file=out)
    print("wrote %s" % point_path, file=out)
    return 0


def _integer(text: str) -> int:
    """An integer option (``numeric.parse_integer``).  A bad one raises
    ``ArgumentTypeError``, a usage error to argparse, which a FormatError
    would escape."""
    try:
        return parse_integer(text)
    except FormatError:
        raise argparse.ArgumentTypeError(
            "invalid int value: %r" % (text,)) from None


def _alphas(text: str) -> tuple:
    """The ``--alphas`` list, each item read as :func:`_integer` reads
    one; a bad item is a usage error too."""
    try:
        return tuple(parse_integer(tok) for tok in text.split(","))
    except FormatError:
        raise argparse.ArgumentTypeError(
            "alphas must be a comma-separated integer list") from None


def _add_limit(parser) -> None:
    parser.add_argument("--enumerate-limit", type=_integer, default=None,
                        metavar="N",
                        help="pattern-count guard (default: 10^6)")


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built at the first :func:`main` call (not at import) and
    reused after; parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="ckp", description="Exact cuts, oracles, separation, and "
                                "branch-and-cut for the complementarity "
                                "knapsack problem.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="report standing assumptions")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle", help="enumerate candidate vertices and "
                                      "maximize the profits over S")
    p.add_argument("instance")
    _add_limit(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="check an inequality's validity, face "
                                      "dimension, and facet status")
    p.add_argument("instance")
    p.add_argument("inequality")
    _add_limit(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cuts", help="generate cuts of a family")
    p.add_argument("instance")
    p.add_argument("--family", required=True,
                   choices=cuts_mod.FAMILIES + ("all",))
    p.add_argument("--verify", action="store_true",
                   help="decide facet status with the oracle instead of "
                        "printing 'unknown'")
    _add_limit(p)
    p.set_defaults(func=_cmd_cuts)

    p = sub.add_parser("separate", help="find a violated cut at a point")
    p.add_argument("instance")
    p.add_argument("point")
    p.add_argument("--family", required=True,
                   choices=cuts_mod.FAMILIES + ("all",))
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--greedy", action="store_true")
    _add_limit(p)
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("solve", help="exact branch-and-cut")
    p.add_argument("instance")
    p.add_argument("--cuts", default="all", metavar="LIST|all|none",
                   help="comma-separated families, 'all' or 'none' "
                        "(default: all)")
    p.add_argument("--exact-sep", action="store_true",
                   help="fall back to exact separation when greedy finds "
                        "nothing")
    p.add_argument("--node-limit", type=_integer,
                   default=solver.NODE_LIMIT, metavar="N")
    _add_limit(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reduce-partition",
                       help="build the partition-problem reduction instance")
    p.add_argument("--alphas", required=True, type=_alphas,
                   help="comma-separated positive integers")
    p.add_argument("--beta", required=True, type=_integer)
    p.add_argument("--out", required=True, metavar="PREFIX")
    p.set_defaults(func=_cmd_reduce)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error (exit 2) or the --help text
        # (exit 0) and exits; a usage error returns 1, --help 0
        return 1 if exc.code else 0
    try:
        return args.func(args, sys.stdout)
    except (FormatError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except CkpError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
