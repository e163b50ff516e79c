"""Acceptance suite: one test per headline guarantee of the library.

Each test prints a single ``criterion N: PASS/FAIL`` line (run with
``pytest -s`` to see them as they happen; on failure the line is part of
the assertion message).  Every numeric comparison is exact rational
equality — no tolerances anywhere.  The randomized corpora are built
from fixed seeds, so each run exercises the identical instance sets.
"""

import random
from fractions import Fraction

import pytest

from ckp.errors import PreconditionError
from ckp.fileio import serialize_inequality
from ckp.model import VarRef, is_feasible
from ckp.separation import build_partition_reduction, separate_exact
from ckp.solver import SolveConfig, branch_and_cut
from ckp import cuts, oracle

from conftest import (is_cover, is_pack, random_instance, tilt_pack_inequality,
                      weight_of)

CORPUS_SEED = 20240819   # criteria 6, 7, 9: 200 instances
SOLVE_SEED = 20240820    # criterion 8: 100 instances
PARTITION_SEED = 20240821  # criterion 5: 50 partition inputs
SET_CAP = 5              # item sets tried per family and instance


def _report(num, ok, detail):
    line = "criterion %d: %s — %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def refs(*pairs):
    """The item set of ``pairs`` in its one form, the sorted VarRef tuple."""
    return tuple(sorted(VarRef(i, j) for i, j in pairs))


def text_of(cut):
    return serialize_inequality(cut.inequality)


# --- shared corpora -------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    return [random_instance(rng) for _ in range(200)]


def _lex_item_sets(instance, predicate, cap):
    """First ``cap`` item sets, in lexicographic variable order, that pass
    ``predicate``.  Enumerates every one-slot-per-group selection."""
    found = []
    m = len(instance.groups)

    def walk(group, chosen):
        if len(found) >= cap:
            return
        if group > m:
            if chosen:
                itemset = tuple(chosen)
                if predicate(itemset):
                    found.append(itemset)
            return
        for slot in range(1, len(instance.groups[group - 1].weights) + 1):
            chosen.append(VarRef(group, slot))
            walk(group + 1, chosen)
            chosen.pop()
        walk(group + 1, chosen)

    walk(1, [])
    return found


def _try(made, builder, *args):
    try:
        cut = builder(*args)
    except PreconditionError:
        return None
    made.append(cut)
    return cut


def _generate_cuts(instance):
    """All five families on a capped, deterministic slice of an instance.

    Packs: the first SET_CAP packs in lexicographic order plus every
    maximal switching pack; every eligible pivot and, on top of each
    pivot cut, every eligible tilt group.  Covers: the first SET_CAP
    covers with every choice of special item.  Builders whose
    preconditions fail are skipped; everything produced is kept.
    """
    packs = _lex_item_sets(instance, lambda s: is_pack(instance, s), SET_CAP)
    seen = set(packs)
    for msp in cuts.enumerate_maximal_switching_packs(instance):
        if msp not in seen:
            seen.add(msp)
            packs.append(msp)
    covers = _lex_item_sets(instance, lambda s: is_cover(instance, s), SET_CAP)

    made = []
    for pack in packs:
        _try(made, cuts.pack_inequality_1, instance, pack)
        for pivot in pack:
            pivot_cut = _try(made, cuts.pack_inequality_2, instance, pack, pivot)
            if pivot_cut is not None:
                for group, _ in pack:
                    _try(made, cuts.pack_inequality_3, instance, pack, pivot, group)
    for cover in covers:
        _try(made, cuts.lifted_cover_inequality_1, instance, cover)
        for special in cover:
            _try(made, cuts.lifted_cover_inequality_2, instance, cover, special)
    return made


@pytest.fixture(scope="module")
def corpus_cuts(corpus):
    return [(instance, _generate_cuts(instance)) for instance in corpus]


# --- criterion 1: first pack family on worked example A -------------------

def test_criterion_1(ex_a):
    cases = [
        (refs((1, 1), (3, 1), (4, 2), (5, 2)),
         "ineq 1\nrhs 22\nterm 1 1 2\nterm 3 1 8\nterm 4 1 10\nterm 4 2 7\n"
         "term 5 1 8\nterm 5 2 5\n"),
        (refs((3, 1), (4, 2), (5, 2)),
         "ineq 1\nrhs 24\nterm 3 1 8\nterm 4 1 10\nterm 4 2 9\n"
         "term 5 1 8\nterm 5 2 7\n"),
    ]
    ok = True
    for pack, expected in cases:
        cut = cuts.pack_inequality_1(ex_a, pack)
        ok = ok and text_of(cut) == expected
        ok = ok and oracle.check_validity(ex_a, cut.inequality).valid
        ok = ok and oracle.face_dimension(ex_a, cut.inequality) == 6
    ok = ok and ex_a.dimension - 1 == 6
    _report(1, ok, "pack1 cuts (rhs 22 and 24) exact, valid, face dimension 6 = d-1")


# --- criterion 2: facet flag and the rank lower bound ---------------------

def test_criterion_2(ex_b):
    p1 = cuts.pack_inequality_1(ex_b, refs((1, 1), (2, 2), (3, 2)))
    ok = p1.inequality.rhs == 23
    ok = ok and p1.facet_guaranteed
    ok = ok and oracle.face_dimension(ex_b, p1.inequality) == 6 == ex_b.dimension - 1

    p2 = cuts.pack_inequality_1(ex_b, refs((2, 2), (3, 2)))
    ok = ok and text_of(p2) == ("ineq 1\nrhs 25\nterm 2 1 14\nterm 2 2 13\n"
                                "term 3 1 13\nterm 3 2 12\n")
    multi = [g for g, _ in p2.items if g not in ex_b.m0]
    dim = oracle.face_dimension(ex_b, p2.inequality)
    ok = ok and dim == 5 and ex_b.dimension - len(multi) == 5
    _report(2, ok, "pack1 rhs-23 cut is a facet; rhs-25 cut sits at the rank "
                   "lower bound d-2 = 5 exactly")


# --- criterion 3: pivot cuts with fractional coefficients -----------------

PACK2_EXPECTED = {
    ("P1", (3, 2)): "ineq 1\nrhs 38\nterm 1 1 1\nterm 2 1 6\nterm 3 1 35/3\n"
                    "term 3 2 10\nterm 4 1 13\nterm 4 2 11\nterm 5 1 12\nterm 5 2 10\n",
    ("P1", (4, 2)): "ineq 1\nrhs 38\nterm 1 1 1\nterm 2 1 6\nterm 3 1 14\n"
                    "term 3 2 12\nterm 4 1 117/11\nterm 4 2 9\nterm 5 1 12\nterm 5 2 10\n",
    ("P1", (5, 2)): "ineq 1\nrhs 38\nterm 1 1 1\nterm 2 1 6\nterm 3 1 14\n"
                    "term 3 2 12\nterm 4 1 13\nterm 4 2 11\nterm 5 1 48/5\nterm 5 2 8\n",
    ("P2", (3, 2)): "ineq 1\nrhs 39\nterm 2 1 6\nterm 3 1 140/13\nterm 3 2 10\n"
                    "term 4 1 13\nterm 4 2 12\nterm 5 1 12\nterm 5 2 11\n",
    ("P2", (4, 2)): "ineq 1\nrhs 39\nterm 2 1 6\nterm 3 1 14\nterm 3 2 13\n"
                    "term 4 1 39/4\nterm 4 2 9\nterm 5 1 12\nterm 5 2 11\n",
    ("P2", (5, 2)): "ineq 1\nrhs 39\nterm 2 1 6\nterm 3 1 14\nterm 3 2 13\n"
                    "term 4 1 13\nterm 4 2 12\nterm 5 1 96/11\nterm 5 2 8\n",
}


def ex_c_packs():
    return {
        "P1": refs((1, 1), (2, 1), (3, 2), (4, 2), (5, 2)),
        "P2": refs((2, 1), (3, 2), (4, 2), (5, 2)),
    }


def test_criterion_3(ex_c):
    packs = ex_c_packs()
    ok = True
    for (label, pivot), expected in PACK2_EXPECTED.items():
        cut = cuts.pack_inequality_2(ex_c, packs[label], VarRef(*pivot))
        ok = ok and text_of(cut) == expected
        ok = ok and cut.facet_guaranteed
        ok = ok and oracle.face_dimension(ex_c, cut.inequality) == 7
    ok = ok and ex_c.dimension - 1 == 7
    _report(3, ok, "all six pack2 pivot cuts exact (35/3, 117/11, 48/5, "
                   "140/13, 39/4, 96/11), each a facet of dimension 7")


# --- criterion 4: tilted cuts and the tilting identity --------------------

PACK3_EXPECTED = {
    (3, 2): ("ineq 1\nrhs 229/6\nterm 1 1 5/6\nterm 2 1 6\nterm 3 1 35/3\n"
             "term 3 2 10\nterm 4 1 13\nterm 4 2 67/6\nterm 5 1 12\nterm 5 2 61/6\n"),
    (4, 2): ("ineq 1\nrhs 420/11\nterm 1 1 9/11\nterm 2 1 6\nterm 3 1 14\n"
             "term 3 2 134/11\nterm 4 1 117/11\nterm 4 2 9\nterm 5 1 12\n"
             "term 5 2 112/11\n"),
    (5, 2): ("ineq 1\nrhs 191/5\nterm 1 1 4/5\nterm 2 1 6\nterm 3 1 14\n"
             "term 3 2 61/5\nterm 4 1 13\nterm 4 2 56/5\nterm 5 1 48/5\nterm 5 2 8\n"),
}


def test_criterion_4(ex_c):
    p1 = ex_c_packs()["P1"]
    ok = True
    for pivot, expected in PACK3_EXPECTED.items():
        tilted = cuts.pack_inequality_3(ex_c, p1, VarRef(*pivot), tilt=1)
        ok = ok and text_of(tilted) == expected
        ok = ok and oracle.face_dimension(ex_c, tilted.inequality) == 7
        base = cuts.pack_inequality_2(ex_c, p1, VarRef(*pivot))
        ok = ok and tilt_pack_inequality(ex_c, base, 1) == tilted.inequality
    rhs = {text.split("\n")[1] for text in PACK3_EXPECTED.values()}
    ok = ok and rhs == {"rhs 229/6", "rhs 420/11", "rhs 191/5"}
    ok = ok and Fraction(420, 11) == 38 + Fraction(2, 11)
    _report(4, ok, "tilted cuts (rhs 229/6, 38+2/11, 191/5) exact facets; "
                   "tilting the pivot cuts reproduces them identically")


# --- criterion 5: separation decides the partition problem ----------------

def _has_balanced_subset(alphas, beta):
    reachable = {0}
    for a in alphas:
        reachable |= {r + a for r in reachable if r + a <= beta}
    return beta in reachable


def _random_partition(rng):
    k = rng.randint(2, 10)
    alphas = [rng.randint(1, 12) for _ in range(k)]
    if sum(alphas) % 2:
        alphas[rng.randrange(k)] += 1
    if sum(alphas) < 4:
        alphas[0] += 4  # keeps the sum even, pushes beta to at least 2
    return tuple(alphas), sum(alphas) // 2


def test_criterion_5():
    instance, point = build_partition_reduction((1, 1, 2), 2)
    ok = instance.capacity == 4
    ok = ok and weight_of(instance, point) == 4
    r1 = separate_exact(instance, point, "lcover1")
    ok = ok and r1.found and r1.violation == Fraction(1, 2)
    r2 = separate_exact(instance, point, "lcover2")
    ok = ok and r2.found and r2.violation > 0

    no_inst, no_point = build_partition_reduction((1, 3), 2)
    none = separate_exact(no_inst, no_point, ("lcover1", "lcover2"))
    ok = ok and not none.found and none.cut is None

    rng = random.Random(PARTITION_SEED)
    agreements = 0
    for _ in range(50):
        alphas, beta = _random_partition(rng)
        expected = _has_balanced_subset(alphas, beta)
        inst, pt = build_partition_reduction(alphas, beta)
        got = separate_exact(inst, pt, "lcover1")
        if got.found != expected:
            ok = False
            break
        if got.found and got.violation != Fraction(1, 2):
            ok = False
            break
        agreements += 1
    _report(5, ok, "reduction (1,1,2)/2 tight at b=4 with violation exactly "
                   "1/2 on both cover families; (1,3)/2 separates nothing; "
                   "%d/50 random inputs agree with the subset-sum program"
                   % agreements)


# --- criterion 6: every generated cut is valid ----------------------------

def test_criterion_6(corpus_cuts):
    checked = 0
    bad = 0
    families = set()
    for instance, cut_list in corpus_cuts:
        for cut in cut_list:
            families.add(cut.family)
            if oracle.check_validity(instance, cut.inequality).valid:
                checked += 1
            else:
                bad += 1
    ok = bad == 0 and checked > 0 and families == set(cuts.FAMILIES)
    _report(6, ok, "%d cuts over 200 seeded instances, all five families "
                   "represented, %d validity failures" % (checked, bad))


# --- criterion 7: facet flags and the rank lower bound hold ---------------

def test_criterion_7(corpus_cuts):
    flagged = 0
    bounded = 0
    bad = 0
    for instance, cut_list in corpus_cuts:
        d = instance.dimension
        singles = instance.m0
        vertices = oracle.enumerate_candidate_vertices(instance)
        for cut in cut_list:
            needs_flag = cut.facet_guaranteed
            multi = [g for g, _ in cut.items if g not in singles]
            # The rank bound only constrains packs that use a multi-slot
            # group: with none, d - len(multi) = d exceeds every proper
            # face's dimension.
            needs_bound = (cut.family == "pack1" and multi
                           and cuts.is_maximal_switching_pack(instance, cut.items))
            if not (needs_flag or needs_bound):
                continue
            dim = vertices.face_dimension(cut.inequality)
            if needs_flag:
                flagged += 1
                if dim != d - 1:
                    bad += 1
            if needs_bound:
                bounded += 1
                if dim < d - len(multi):
                    bad += 1
    ok = bad == 0 and flagged > 0 and bounded > 0
    _report(7, ok, "%d facet-flagged cuts all at dimension d-1, %d "
                   "switching-pack cuts within the rank bound, %d failures"
                   % (flagged, bounded, bad))


# --- criterion 8: solver agrees with the brute-force oracle ---------------

def test_criterion_8():
    rng = random.Random(SOLVE_SEED)
    instances = [random_instance(rng, profits="random") for _ in range(100)]
    nodes_with = 0
    nodes_without = 0
    mismatches = 0
    for instance in instances:
        assert oracle.pattern_count(instance) <= 10 ** 4
        objective = {r: instance.profit(r) for r in instance.columns}
        best, _ = oracle.maximize_over_S(instance, objective)
        with_cuts = branch_and_cut(instance, SolveConfig())
        no_cuts = branch_and_cut(instance, SolveConfig(families=()))
        if not (with_cuts.proven_optimal and no_cuts.proven_optimal
                and with_cuts.value == best and no_cuts.value == best):
            mismatches += 1
        nodes_with += with_cuts.nodes
        nodes_without += no_cuts.nodes
    ok = mismatches == 0 and nodes_with <= nodes_without
    _report(8, ok, "100/100 exact optima with and without cuts; mean nodes "
                   "%.2f with cuts vs %.2f without (%d mismatches)"
                   % (nodes_with / 100.0, nodes_without / 100.0, mismatches))


# --- criterion 9: candidate vertices have the promised shape --------------

def test_criterion_9(corpus):
    points = 0
    bad = 0
    for instance in corpus:
        for point in oracle.enumerate_candidate_vertices(instance).points:
            points += 1
            fractional = [r for r, v in point.entries if v != 1]
            if len(fractional) > 1:
                bad += 1
            elif fractional and weight_of(instance, point) != instance.capacity:
                bad += 1
            elif not is_feasible(instance, point):
                bad += 1
    ok = bad == 0 and points > 0
    _report(9, ok, "%d candidate vertices over 200 instances: at most one "
                   "fractional coordinate each, knapsack tight whenever "
                   "fractional, %d violations" % (points, bad))
