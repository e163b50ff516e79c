"""Exact cut-and-branch over the complementarity feasible set S.

The node LP is the multiple-choice knapsack relaxation of the instance's
profit: the knapsack row and one row sum_j x_ij <= 1 per group, over x >= 0
(see :mod:`ckp.simplex`).  The tree branches on SOS1 groups: a node whose
LP point keeps two or more slots of some group positive splits that
group's span of columns in two, one half per child.
Nodes (column spans, one per group) are explored best-bound-first by their
parent's bound, FIFO on ties, while that bound beats the incumbent and the
node limit allows.  Only the root separates, adding one pooled cut row per
round (a cut separated twice is an error); every other node solves the
cut-free LP over its spans.  A child's bound is the smaller of its LP value
and its parent's bound, both certified bounds on its part of S, since all
five families are valid for S itself.  Every LP is solved exactly, so a
best bound (the incumbent or an open node's bound) equal to the incumbent
is a proof.

The loop compares bounds in integers: it reads each node LP's value once
as its pair (num, den) (``as_integer_ratio``), and that pair, its ``min``
with the parent's bound, the incumbent value and every open node's bound
are integer pairs, compared by cross-multiplication alone.  It makes a
Fraction in two places only: the heap key, -bound, at most once per branched
node and shared by its two children, and the report's value and best
bound.

Each node LP solution stays in the simplex's integer form
(``LpSolution.scaled``): the separators, the one complementarity test per
solution and the branching masses (sums of the integers X) all read it,
and its certificate check reads only its duals.  The incumbent is kept as
its node LP solution, and one :class:`model.Point` is made per solve,
from that form (``Point.from_scaled``), when the loop ends.  It is
checked in integers, against the instance's ``units`` and
``profit_units``: it must lie in S and earn the incumbent value's pair.
:class:`SolveReport` says why that makes the report a proof.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Optional

from .cuts import FAMILIES, resolve_families
from .errors import CkpError, ResourceLimitError, ValidationError
from .model import (Instance, Point, complementarity_violations, is_feasible,
                    profit_units_at)
from .numeric import require_integer
from .oracle import resolve_enum_limit
from .separation import separate_exact, separate_greedy
from .simplex import LpProblem, solve_lp, verify_certificate

MAX_ROOT_CUTS = 10  # cuts the root's loop adds before it branches
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
    """A solve's outcome.  ``proven_optimal`` (``best_bound == value``)
    rests on three checks: each node LP's value is certified by its duals
    (``simplex.verify_certificate``), and a child's bound is the smaller of
    its value and its parent's; each split falls strictly inside the
    node's span, so the children partition their parent; and ``point`` lies
    in S and earns ``value``.  That last check, made once at the end,
    covers every prune: the incumbent value only rises."""

    value: Fraction
    point: Point
    nodes: int
    cuts_per_family: dict
    lp_pivots: int
    proven_optimal: bool
    best_bound: Fraction
    cut_pool: tuple
    exact_sep_stopped: bool = False  # exact separation hit the enum limit


def _check_incumbent(instance: Instance, point: Point, num: int,
                     den: int) -> None:
    """``point`` lies in S and earns num / den, its profit summed in
    :attr:`Instance.profit_units` (``model.profit_units_at``) and compared
    by cross-multiplication."""
    if not is_feasible(instance, point):
        raise CkpError("incumbent point is not feasible")
    total, profit_den = profit_units_at(instance, point)
    if total * den != num * profit_den:
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
    problem = plain = LpProblem(instance)  # the root's alone gains cut rows
    exact = config.exact_fallback
    pool = []  # GeneratedCut, in addition order

    inc_num, inc_den = 0, 1  # the incumbent value as an integer pair
    incumbent = None  # the LpSolution of the incumbent; None is the origin
    nodes = 0
    pivots = 0
    counter = 0
    # Heap entries: (key, insertion order, column spans, bound), the bound
    # the parent's as an integer pair (num, den) and the key the Fraction
    # -num / den, made once per parent; the unique order keeps the bound
    # from being compared.  The root has no parent: its key -inf sorts it
    # first, and its bound (1, 0) is above every pair of den > 0.
    heap = [(float("-inf"), counter, problem.spans, (1, 0))]
    while heap and nodes < config.node_limit:
        bound_num, bound_den = heap[0][3]
        if bound_num * inc_den <= inc_num * bound_den:
            break
        key, _, spans, bound = heapq.heappop(heap)
        nodes += 1
        while True:
            solution = solve_lp(problem, spans=spans)
            pivots += solution.pivots
            if not verify_certificate(problem, solution, spans=spans):
                raise CkpError(
                    "node LP solution fails its optimality certificate")
            num, den = solution.value.as_integer_ratio()
            if num * bound_den > bound_num * den:
                num, den = bound  # the parent's bound is the lower
            pruned = num * inc_den <= inc_num * den
            if pruned:
                break
            violated = complementarity_violations(solution)
            if not (violated and nodes == 1 and config.families
                    and len(pool) < MAX_ROOT_CUTS):
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
                # A cut equal to the knapsack row or a pooled row is an
                # error: the node LP's point satisfies them, so the LP's
                # point or the separator is at fault.
                raise CkpError("separated %s cut: %s"
                               % (sep.cut.family, exc)) from None
            pool.append(sep.cut)
            cuts_per_family[sep.cut.family] += 1
        problem = plain

        if pruned:
            continue
        if not violated:
            inc_num, inc_den = num, den
            incumbent = solution
            continue
        group, ref = _branch_group(solution, violated)
        # the children partition the node only if the split (after the
        # group's first positive slot) falls strictly inside its span
        split = 1 + instance.check_ref(ref)
        lo, hi = spans[group - 1]
        if not lo < split < hi:
            raise CkpError("node LP point splits group %d after %s, outside "
                           "the node's span" % (group, ref))
        if (num, den) != bound:
            key, bound = -solution.value, (num, den)
        for half in ((split, hi), (lo, split)):
            counter += 1
            heapq.heappush(heap, (key, counter, spans[:group - 1] + (half,)
                                  + spans[group:], bound))

    # Open nodes left by the node limit may still beat the incumbent; the
    # heap's first entry holds the largest open bound.
    point = Point() if incumbent is None else incumbent.point
    _check_incumbent(instance, point, inc_num, inc_den)
    value = best_bound = Fraction(inc_num, inc_den)
    if heap:
        num, den = heap[0][3]
        if num * inc_den > inc_num * den:
            best_bound = Fraction(num, den)
    return SolveReport(value, point, nodes,
                       cuts_per_family, pivots, best_bound == value,
                       best_bound, tuple(pool),
                       exact_sep_stopped=config.exact_fallback and not exact)
