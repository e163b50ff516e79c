"""Derandomized property tests across the exact paths, on instances drawn
by one Hypothesis strategy: up to 4 groups of up to 3 slots (5 for
separation), rational data p/q with q <= 3, zero weights and profits,
ties, one-slot groups and a capacity of 0 among them.
``derandomize=True`` and a fixed ``max_examples`` keep every run on the
same draws."""

import copy
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from ckp import cuts, model
from ckp.model import Instance, lhs_at, normalize
from ckp.oracle import enumerate_candidate_vertices, walk_patterns
from ckp.separation import separate_exact
from ckp.simplex import LpProblem, solve_lp
from ckp.solver import SolveConfig, branch_and_cut

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import reference  # noqa: E402  (bench/reference.py imports nothing from ckp)

RATIONALS = st.builds(Fraction, st.integers(0, 9), st.integers(1, 3))
# weight 0 half the time
MOSTLY_WEIGHTLESS = st.one_of(st.just(Fraction(0)), RATIONALS)


@st.composite
def instances(draw, weights=RATIONALS, max_slots=3):
    """A normalized CKP instance of the module docstring's kind, its
    weights drawn from ``weights`` and its groups of up to ``max_slots``
    slots, with its slots drawn in any order and sorted by ``normalize``."""
    groups = [draw(st.lists(st.tuples(weights, RATIONALS), min_size=1,
                            max_size=max_slots))
              for _ in range(draw(st.integers(1, 4)))]
    heaviest = int(sum(max(a for a, _ in g) for g in groups))
    capacity = draw(st.one_of(st.builds(
        Fraction, st.integers(1, 3 * heaviest + 3), st.integers(1, 3)),
        st.just(0)))
    unsorted = Instance.build([(tuple(a for a, _ in g), tuple(c for _, c in g))
                               for g in groups], capacity)
    return normalize(unsorted)[0]


CONFIGS = (SolveConfig(), SolveConfig(families=()),
           SolveConfig(exact_fallback=True))


def _solves(instance):
    reports = [branch_and_cut(instance, config) for config in CONFIGS]
    for report in reports:
        assert report.proven_optimal
    return reports


@settings(max_examples=200, derandomize=True, deadline=None)
@given(instances())
def test_solve_equals_the_oracle_on_a_fresh_and_a_shared_layout(instance):
    # first on a fresh shape, its Layout made by this solve; then on an
    # equal instance that reads the Layout another instance of the shape
    # (its slots reversed, then normalized) made
    sizes = tuple(g.size for g in instance.groups)
    model._layout.cache_clear()
    fresh = _solves(instance)
    assert instance.layout is model._layout(sizes)
    objective = [(ref, instance.profit(ref)) for ref in instance.columns]
    best, _ = enumerate_candidate_vertices(instance).maximize(objective)
    assert [report.value for report in fresh] == [best] * len(CONFIGS)

    model._layout.cache_clear()
    filler, _ = normalize(Instance(
        [model.Group(g.weights[::-1], g.profits[::-1])
         for g in instance.groups], instance.capacity + 1))
    shared = filler.layout
    again = copy.deepcopy(instance)
    assert again.layout is shared is not instance.layout
    assert _solves(again) == fresh


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(instances(MOSTLY_WEIGHTLESS))
def test_theorem_cuts_are_valid_and_each_flag_is_a_facet(instance):
    # every listed cut of every family is valid (face_dimension raises on a
    # violated one) and every facet flag holds against the hull's dimension
    vertices = enumerate_candidate_vertices(instance)
    hull = vertices.hull_dimension
    for cut in cuts.theorem_cuts(instance, cuts.FAMILIES, None):
        dimension = vertices.face_dimension(cut.inequality)
        if cut.facet_guaranteed:
            assert dimension == hull - 1 >= 0, cut.describe()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(instances(max_slots=5))
def test_exact_separation_is_the_best_member_over_the_unpruned_walk(instance):
    # at the root LP point, every member that the unpruned walk lists is
    # built and evaluated; exact separation, whose walk prunes, must give
    # the most violated, ties to the smallest key, and score them all
    problem = LpProblem(instance)
    point = solve_lp(problem, spans=problem.spans)
    _, rows, b = instance.units
    built = []
    for items, units in walk_patterns(instance):
        for key, form in cuts.family_members(rows, b, items, units,
                                             cuts.FAMILIES):
            inequality = cuts.member_cut(instance, key, form).inequality
            built.append((key, lhs_at(inequality, point) - inequality.rhs))
    # the cover families alone walk with the last group's window
    for families in (cuts.FAMILIES, ("lcover1", "lcover2")):
        members = [(key, violation) for key, violation in built
                   if cuts.FAMILIES[key[1]] in families]
        result = separate_exact(instance, point, families)
        assert result.stats.examined == len(members)
        top = max((violation for _, violation in members), default=0)
        if top > 0:
            assert result.violation == top
            assert result.cut.key == min(key for key, violation in members
                                         if violation == top)
        else:
            assert not result.found


@settings(max_examples=800, derandomize=True, deadline=None)
@given(instances(MOSTLY_WEIGHTLESS))
def test_face_dimensions_equal_the_reference(instance):
    # the reference reads S off the weights and capacity in integer units
    # (both times the scale, which leaves S as it is); the hull's dimension
    # is its face of no terms, and the dimension ckp verify prints for each
    # listed cut and for the knapsack row is its face of that row
    _, weights, capacity = instance.units
    points = reference.candidate_points(weights, capacity)
    vertices = enumerate_candidate_vertices(instance)
    assert vertices.hull_dimension == reference.face_dimension(
        weights, points, {}, 0)
    queries = [cut.inequality for cut in cuts.theorem_cuts(
        instance, cuts.FAMILIES, None)]
    for inequality in queries + [model.knapsack_row(instance)]:
        assert vertices.face_dimension(inequality) == reference.face_dimension(
            weights, points, dict(inequality.terms), inequality.rhs)


def test_every_property_test_draws_the_same_cases():
    # conftest.py loads Hypothesis's "ci" profile, so the @given tests that
    # set nothing themselves are derandomized off CI as well as on it
    assert settings().derandomize and settings().deadline is None
