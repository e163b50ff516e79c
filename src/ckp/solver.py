"""Exact branch-and-cut over the complementarity feasible set S.

The node LP is the multiple-choice knapsack relaxation of the instance's
profit: the knapsack row, one row sum_j x_ij <= 1 per group of two or more
slots, the box, and the pooled cuts (see :mod:`ckp.simplex`).  The tree
branches on SOS1 groups: a node whose LP point keeps two or more slots of
some group positive splits that group's span of columns in two, one half
per child.  Nodes (column spans, one per group) are explored
best-bound-first by their parent's bound, FIFO on ties, while that bound
beats the incumbent and the node limit allows; each node solves,
certifies and separates in one loop.  Cuts live in one global pool, the
node LP's cut rows (all five families are valid for S itself, not just a
subtree), and a cut separated twice is an error.  Every LP is solved
exactly, so a best bound (the incumbent or an open node's bound) equal to
the incumbent is a proof.

Each node LP solution stays in the simplex's integer form
(``LpSolution.scaled``): its certificate check, the separators, the one
complementarity test per solution and the branching masses (sums of the
integers X) all read it.  The incumbent is kept as its node LP solution,
and one :class:`model.Point` is made per solve, from that form
(``Point.from_scaled``), when the loop ends.  It is checked in integers,
against the instance's ``units`` and ``profit_units``, not the LP's rows
or certificate: it must lie in S and earn the reported value.  Then it
goes into the report.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Optional

from .cuts import FAMILIES, resolve_families
from .errors import CkpError, ResourceLimitError, ValidationError
from .model import (Instance, Point, complementarity_violations,
                    is_feasible, profit_of)
from .numeric import require_integer
from .oracle import resolve_enum_limit
from .separation import separate_exact, separate_greedy
from .simplex import LpProblem, solve_lp, verify_certificate

_F0 = Fraction(0)
MAX_CUTS_PER_NODE = 10  # cuts one node's loop adds before it branches
NODE_LIMIT = 10 ** 5  # SolveConfig's and ckp solve's default node limit


class SolveConfig(namedtuple("SolveConfig",
                             "families node_limit exact_fallback enum_limit")):
    """Branch-and-cut knobs; ``ckp solve`` reads its defaults from here.
    ``families`` takes any family choice and stores the tuple that
    ``cuts.resolve_families`` reads from it; ``enum_limit`` stores the
    limit ``oracle.resolve_enum_limit`` reads from it.  Every config is
    made and checked by ``_make``: a call, ``_replace`` and unpickling."""

    __slots__ = ()

    def __new__(cls, families=FAMILIES, node_limit=NODE_LIMIT,
                exact_fallback=False, enum_limit=None):
        return cls._make((families, node_limit, exact_fallback, enum_limit))

    @classmethod
    def _make(cls, iterable):
        families, node_limit, exact_fallback, enum_limit = iterable
        families = resolve_families(families)
        # The root must always be explored: it is the only node without a
        # parent bound, so letting the limit stop it first would leave the
        # reported best bound baseless.
        if require_integer(node_limit, "node_limit") < 1:
            raise ValidationError("node_limit must be at least 1")
        if not isinstance(exact_fallback, bool):
            raise ValidationError("exact_fallback must be a bool, got %r"
                                  % (exact_fallback,))
        # Checked here, not at exact separation's first walk: that may come
        # mid-solve, or never without exact_fallback.
        return super()._make((families, node_limit, exact_fallback,
                              resolve_enum_limit(enum_limit)))


class SolveReport(NamedTuple):
    value: Fraction
    point: Point
    nodes: int
    cuts_per_family: dict
    lp_pivots: int
    proven_optimal: bool
    best_bound: Fraction
    cut_pool: tuple
    exact_sep_stopped: bool = False  # exact separation hit the enum limit


def _check_incumbent(instance: Instance, point: Point, value: Fraction) -> None:
    if not is_feasible(instance, point):
        raise CkpError("incumbent point is not feasible")
    if profit_of(instance, point) != value:
        raise CkpError("incumbent profit differs from the reported value")


def _branch_group(solution, violated):
    """``(group, ref)``: the group with >= 2 positive slots maximizing its
    value mass, tie: index, and its first positive slot; the masses are
    sums of the LP point's integers X, over one D."""
    mass, first = dict.fromkeys(violated, 0), {}
    for ref, x in solution.scaled[1]:
        if ref.group in mass:
            mass[ref.group] += x
            first.setdefault(ref.group, ref)
    group = max(violated, key=lambda i: (mass[i], -i))
    return group, first[group]


def branch_and_cut(instance: Instance, config: Optional[SolveConfig] = None) -> SolveReport:
    """Exact maximum of the instance's profit over S, with proof.

    Every instance goes through the node loop, the degenerate ones too:
    when the capacity admits every group's heaviest slot, or every group is
    a singleton, the root LP point already lies in S and the solve ends after
    one node.

    With ``exact_fallback``, exact separation stops for the rest of the
    solve the first time its pattern space exceeds the enumeration limit
    (the count is the instance's, so every later call would refuse too);
    greedy separation and branching go on, and the report's
    ``exact_sep_stopped`` says so.
    """
    if config is None:
        config = SolveConfig()
    instance.normalized_units()  # raises unless normalized
    cuts_per_family = {name: 0 for name in FAMILIES}
    problem = LpProblem(instance)  # its cut rows are the pool's, in order
    exact = config.exact_fallback

    pool = []            # GeneratedCut, in addition order

    incumbent_value = _F0
    incumbent = None  # the LpSolution of the incumbent; None is the origin
    nodes = 0
    pivots = 0
    counter = 0
    # Heap entries: (negated parent bound, insertion order, column spans).
    # The root has no bound yet; -inf sorts it first, and exact Fractions
    # compare correctly against it.
    heap = [(float("-inf"), counter, problem.spans)]
    while heap and -heap[0][0] > incumbent_value and nodes < config.node_limit:
        _, _, spans = heapq.heappop(heap)
        nodes += 1
        added_here = 0
        while True:
            solution = solve_lp(problem, spans=spans)
            pivots += solution.pivots
            if not verify_certificate(problem, solution, spans=spans):
                raise CkpError(
                    "node LP solution fails its optimality certificate")
            value = solution.value
            if value <= incumbent_value:
                break
            violated = complementarity_violations(solution)
            if not (violated and config.families
                    and added_here < MAX_CUTS_PER_NODE):
                break
            sep = separate_greedy(instance, solution, config.families)
            if not sep.found and exact:
                try:
                    sep = separate_exact(instance, solution, config.families,
                                         config.enum_limit)
                except ResourceLimitError:
                    exact = False
            if not sep.found:
                break
            try:
                problem = problem.with_row(sep.cut.inequality)
            except ValidationError as exc:
                # The certified node LP satisfies the knapsack row and every
                # pooled row, so a separator that calls one violated is at
                # fault.
                raise CkpError("separated %s cut: %s"
                               % (sep.cut.family, exc)) from None
            pool.append(sep.cut)
            cuts_per_family[sep.cut.family] += 1
            added_here += 1

        if value <= incumbent_value:
            continue
        if not violated:
            incumbent_value = value
            incumbent = solution
            continue
        group, ref = _branch_group(solution, violated)
        # the entries are sorted, so the group's first is its lowest: the
        # children keep the columns after it, then those up to it
        split = 1 + instance.columns[ref]
        lo, hi = spans[group - 1]
        for half in ((split, hi), (lo, split)):
            counter += 1
            heapq.heappush(heap, (-value, counter, spans[:group - 1] + (half,)
                                  + spans[group:]))

    # Open nodes left by the node limit may still beat the incumbent.
    best_bound = max([incumbent_value] + [-entry[0] for entry in heap])
    point = Point() if incumbent is None else incumbent.point
    _check_incumbent(instance, point, incumbent_value)
    return SolveReport(incumbent_value, point, nodes,
                       cuts_per_family, pivots, best_bound == incumbent_value,
                       best_bound, tuple(pool),
                       exact_sep_stopped=config.exact_fallback and not exact)
