"""Command-line surface: golden outputs and exit codes.

Everything here runs main() in-process except the last two tests: one runs
the entry point declared in pyproject.toml in a subprocess, and one runs the
installed ``ckp`` script when it is on PATH.
"""

import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import ckp
from ckp import cuts, fileio, oracle, separation
from ckp.cli import main
from ckp.cuts import FAMILIES, enumerate_maximal_switching_packs
from ckp.fileio import (
    parse_instance,
    parse_point,
    serialize_inequality,
    serialize_instance,
    serialize_point,
)
from ckp.model import Instance, LinearInequality, Point, VarRef, normalize

from conftest import (family_cuts, itemset_weight, iter_patterns, make_instance,
                      random_instance)


@pytest.fixture
def files(tmp_path):
    """Write the shared fixture files once per test."""
    paths = {}

    def save(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)

    save("ex_a.ckp", serialize_instance(
        make_instance([(2,), (4,), (8,), (10, 6), (8, 4)], 21)))
    save("ex_b.ckp", serialize_instance(
        make_instance([(2,), (14, 10), (13, 9), (9, 6)], 22)))
    save("ex_c.ckp", serialize_instance(
        make_instance([(1,), (6,), (14, 10), (13, 9), (12, 8)], 36)))
    save("loose.ckp", serialize_instance(make_instance([(2,), (3, 1)], 10)))
    # strongly correlated (profit = weight + 5): the root LP splits a group
    # and greedy separation finds no cut there
    save("corr.ckp", serialize_instance(Instance.build(
        [((9, 4), (14, 9)), ((5, 1), (10, 6)), ((2, 1), (7, 6))], 8)))
    save("sing.ckp", serialize_instance(
        Instance.build([((2,), (5,)), ((3,), (4,))], 4)))
    save("p1b.ineq", serialize_inequality(LinearInequality(
        [(VarRef(1, 1), Fraction(2)), (VarRef(2, 1), Fraction(14)),
         (VarRef(2, 2), Fraction(11)), (VarRef(3, 1), Fraction(13)),
         (VarRef(3, 2), Fraction(10))], Fraction(23))))
    save("p2b.ineq", serialize_inequality(LinearInequality(
        [(VarRef(2, 1), Fraction(14)), (VarRef(2, 2), Fraction(13)),
         (VarRef(3, 1), Fraction(13)), (VarRef(3, 2), Fraction(12))],
        Fraction(25))))
    save("bad.ineq", serialize_inequality(
        LinearInequality([(VarRef(1, 1), Fraction(2))], Fraction(1))))
    save("frac.point", serialize_point(Point([
        (VarRef(1, 1), 1), (VarRef(2, 1), 1), (VarRef(3, 1), Fraction(1, 7)),
        (VarRef(3, 2), 1), (VarRef(4, 2), 1), (VarRef(5, 2), 1)])))
    save("zero.point", serialize_point(Point()))
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def test_check_all_assumptions_hold(files, capsys):
    code, out = run(capsys, "check", files["ex_a.ckp"])
    assert code == 0
    assert out == ("groups: 5\nvariables: 7\nnormalized-input: yes\n"
                   "m0: 1 2 3\nassumption1: holds\nassumption2: holds\n")


def test_check_reports_trivial_solution(files, capsys):
    code, out = run(capsys, "check", files["loose.ckp"])
    assert code == 0
    assert out.endswith("assumption2: fails\ntrivial-value: 5\n"
                        "trivial-point:\nval 1 1 1\nval 2 1 1\n")


def test_check_singletons(files, capsys):
    code, out = run(capsys, "check", files["sing.ckp"])
    assert code == 0
    assert "assumption1: fails" in out
    assert "m0: 1 2" in out


def test_verify_facet(files, capsys):
    code, out = run(capsys, "verify", files["ex_b.ckp"], files["p1b.ineq"])
    assert code == 0
    assert out == "valid: yes\nface-dim: 6\nfacet: yes\n"


def test_verify_non_facet(files, capsys):
    code, out = run(capsys, "verify", files["ex_b.ckp"], files["p2b.ineq"])
    assert code == 0
    assert out == "valid: yes\nface-dim: 5\nfacet: no\n"


def test_verify_invalid_with_witness(files, capsys):
    code, out = run(capsys, "verify", files["ex_a.ckp"], files["bad.ineq"])
    assert code == 0
    assert out == "valid: no\nwitness:\nval 1 1 1\n"


FLAT = "b 0\ngroup 1 a 0 c 1\ngroup 1 a 5 c 1"
POINT = "b 0\ngroup 1 a 3 c 1\ngroup 1 a 5 c 1"
FULL = "b 1\ngroup 1 a 0 c 1\ngroup 1 a 5 c 1"


@pytest.mark.parametrize("data, inequality, expected", [
    # b = 0: conv(S) = {(t, 0) : 0 <= t <= 1} has dimension 1 in d = 2
    (FLAT, "rhs 1\nterm 1 1 1", "face-dim: 0\nfacet: yes"),
    (FLAT, "rhs 0\nterm 2 1 1", "face-dim: 1\nfacet: no"),  # all of conv(S)
    # b = 0 and every weight positive: conv(S) = {0}, which has no facet
    (POINT, "rhs 1\nterm 1 1 1", "face-dim: -1\nfacet: no"),
    (POINT, "rhs 0\nterm 1 1 1", "face-dim: 0\nfacet: no"),
    # b > 0: conv(S) is full-dimensional, zero weight or not
    (FULL, "rhs 1\nterm 1 1 1", "face-dim: 1\nfacet: yes"),
    (FULL, "rhs 1/5\nterm 2 1 1", "face-dim: 1\nfacet: yes"),
    (FULL, "rhs 1\nterm 2 1 1", "face-dim: -1\nfacet: no"),
], ids=["flat-facet", "flat-all", "point-empty", "point-all", "full-facet",
        "full-zero-weight-facet", "full-empty"])
def test_facet_verdict_is_measured_against_dim_conv_S(tmp_path, capsys, data,
                                                       inequality, expected):
    """A facet is a non-empty face of dimension dim conv(S) - 1, and
    conv(S) is d-dimensional only when b > 0 or every weight is 0."""
    instance, row = tmp_path / "flat.ckp", tmp_path / "row.ineq"
    instance.write_text("ckp 1\n%s\n" % data)
    row.write_text("ineq 1\n%s\n" % inequality)
    code, out = run(capsys, "verify", str(instance), str(row))
    assert code == 0
    assert out == "valid: yes\n%s\n" % expected


def test_oracle(files, capsys):
    code, out = run(capsys, "oracle", files["ex_a.ckp"])
    assert code == 0
    assert out == ("candidates: 105\nvalue: 21\npoint:\n"
                   "val 3 1 1\nval 4 1 1\nval 5 1 3/8\n")


def test_cuts_listing(files, capsys):
    code, out = run(capsys, "cuts", files["ex_b.ckp"], "--family", "pack1")
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 3  # one per maximal switching pack
    assert blocks[1] == ("# family: pack1; items: (1,1) (2,2) (3,2)\n"
                         "# facet: yes\n"
                         "ineq 1\nrhs 23\nterm 1 1 2\nterm 2 1 14\n"
                         "term 2 2 11\nterm 3 1 13\nterm 3 2 10")
    # unflagged cuts stay honest without --verify
    assert "# facet: unknown" in blocks[2]


def test_cuts_verify_flag_resolves_unknown(files, capsys):
    code, out = run(capsys, "cuts", files["ex_b.ckp"], "--family", "pack1",
                    "--verify")
    assert code == 0
    assert "unknown" not in out
    assert "# facet: no" in out  # the two-group pack really is not a facet


GOLDEN = Path(__file__).parent / "golden"


def test_cuts_all_families_golden(files, capsys):
    """Family-major listing of every cut of ex_c, frozen byte for byte."""
    code, out = run(capsys, "cuts", files["ex_c.ckp"], "--family", "all")
    assert code == 0
    assert out == (GOLDEN / "cuts_ex_c_all.txt").read_text()


def test_cuts_all_families_verify_golden(files, capsys):
    """The same listing with every facet status decided by the oracle."""
    code, out = run(capsys, "cuts", files["ex_c.ckp"], "--family", "all",
                    "--verify")
    assert code == 0
    assert out == (GOLDEN / "cuts_ex_c_all_verify.txt").read_text()


def test_cuts_verify_validates_no_item_set_again(files, capsys, monkeypatch):
    """Each listed pack member's facet rule reads its canonical items as
    they are: the listing validates no item set again through
    ``cuts._weighed``, and its output is the golden one."""
    calls = Counter()
    weighed = cuts._weighed

    def counting(*args):
        calls["_weighed"] += 1
        return weighed(*args)

    monkeypatch.setattr(cuts, "_weighed", counting)
    code, out = run(capsys, "cuts", files["ex_c.ckp"], "--family", "all",
                    "--verify")
    assert code == 0 and calls == {}
    assert out == (GOLDEN / "cuts_ex_c_all_verify.txt").read_text()


def test_cuts_serializes_each_distinct_inequality_once(files, capsys,
                                                      monkeypatch, tmp_path):
    """``ckp cuts`` serializes each distinct inequality it lists once, with
    or without ``--verify``, and writes a repeat from that text: on ex_c,
    whose 36 cuts are distinct, the output is the golden one; on seeded
    instances where members repeat an inequality, each block ends in its
    cut's serialization, in listing order."""
    texts = []
    serialize = fileio.serialize_inequality

    def counting(inequality):
        texts.append(inequality.scaled)
        return serialize(inequality)

    def listed(path):
        inst, _ = normalize(parse_instance(Path(path).read_text()))
        return list(cuts.theorem_cuts(inst, FAMILIES, None))

    for flags, golden in (((), "cuts_ex_c_all.txt"),
                          (("--verify",), "cuts_ex_c_all_verify.txt")):
        monkeypatch.setattr(fileio, "serialize_inequality", counting)
        code, out = run(capsys, "cuts", files["ex_c.ckp"], "--family", "all",
                        *flags)
        monkeypatch.undo()
        assert code == 0 and out == (GOLDEN / golden).read_text()
        assert len(texts) == len(set(texts)) == 36
        del texts[:]
    rng, repeating = random.Random(11), 0
    while repeating < 4:
        path = tmp_path / "repeats.ckp"
        path.write_text(serialize_instance(random_instance(rng, max_groups=4)))
        made = listed(path)
        distinct = {cut.inequality.scaled for cut in made}
        if len(distinct) == len(made):
            continue
        repeating += 1
        for flags in ((), ("--verify",)):
            monkeypatch.setattr(fileio, "serialize_inequality", counting)
            code, out = run(capsys, "cuts", str(path), "--family", "all",
                            *flags)
            monkeypatch.undo()
            assert code == 0 and len(texts) == len(distinct)
            assert set(texts) == distinct
            blocks = out[:-1].split("\n\n")  # each block ends in a newline
            assert len(blocks) == len(made)
            for block, cut in zip(blocks, made):
                header, facet, text = block.split("\n", 2)
                assert header == "# " + cut.describe()
                assert facet.startswith("# facet: ")
                assert text + "\n" == serialize(cut.inequality)
            del texts[:]


@pytest.fixture
def oracle_calls(monkeypatch):
    """Calls of the oracle's enumeration and exact maximization, counted
    through ``ckp.oracle``'s module names (where the CLI and the oracle's
    own functions look them up)."""
    counts = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for name in ("enumerate_candidate_vertices", "maximize_over_S"):
        monkeypatch.setattr(oracle, name, counting(name, getattr(oracle, name)))
    return counts


def test_cuts_verify_enumerates_candidates_once(files, capsys, oracle_calls):
    code, out = run(capsys, "cuts", files["ex_c.ckp"], "--family", "all",
                    "--verify")
    assert code == 0
    assert out.count("# facet: ") == 36
    assert oracle_calls == {"enumerate_candidate_vertices": 1}


def test_cuts_lists_members_without_a_point(files, capsys, monkeypatch):
    # which members an item set gives is instance data: listing them makes
    # no point, no point support and no score
    made = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            made[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for name in ("__init__", "from_scaled"):  # both Point constructors
        monkeypatch.setattr(Point, name, counting(name, getattr(Point, name)))
    for name in ("PointSupport", "_score"):
        monkeypatch.setattr(separation, name,
                            counting(name, getattr(separation, name)))
    code, out = run(capsys, "cuts", files["ex_c.ckp"], "--family", "all")
    assert code == 0 and out.count("# facet: ") == 36
    assert made == {}


def test_verify_maximizes_once(files, capsys, oracle_calls):
    code, out = run(capsys, "verify", files["ex_b.ckp"], files["p2b.ineq"])
    assert code == 0
    assert out == "valid: yes\nface-dim: 5\nfacet: no\n"
    assert oracle_calls == {"enumerate_candidate_vertices": 1}


def test_oracle_queries_enumerate_once(files, capsys, oracle_calls, ex_a):
    # ckp oracle reads its count and its maximum off one table; the
    # library's maximum and validity check each build their own
    code, out = run(capsys, "oracle", files["ex_a.ckp"])
    assert code == 0
    assert out.startswith("candidates: 105\nvalue: 21\n")
    assert oracle_calls == {"enumerate_candidate_vertices": 1}
    oracle_calls.clear()
    assert oracle.maximize_over_S(ex_a, {VarRef(1, 1): 1})[0] == 1
    assert oracle_calls == {"enumerate_candidate_vertices": 1,
                            "maximize_over_S": 1}
    oracle_calls.clear()
    assert oracle.check_validity(
        ex_a, LinearInequality({VarRef(1, 1): 1}, 1)).valid
    assert oracle_calls["enumerate_candidate_vertices"] == 1


def test_oracle_counts_candidates_without_points(files, capsys, monkeypatch):
    # the one Point made is the maximizer's; the count of 105 candidates
    # is read off the candidate table.  Points are made by both
    # constructors, from Fractions and from an integer form.
    made = Counter()
    init, from_scaled = Point.__init__, Point.from_scaled

    def counting_init(self, values=()):
        made["Point"] += 1
        init(self, values)

    def counting_from_scaled(scale, entries):
        made["Point"] += 1
        return from_scaled(scale, entries)

    monkeypatch.setattr(Point, "__init__", counting_init)
    monkeypatch.setattr(Point, "from_scaled", counting_from_scaled)
    code, out = run(capsys, "oracle", files["ex_a.ckp"])
    assert code == 0
    assert out.startswith("candidates: 105\n")
    assert made == {"Point": 1}


def test_cuts_verify_without_cuts_enumerates_nothing(tmp_path, capsys):
    # every swap fits, so there is no maximal switching pack: the 2^2
    # subsets fit the limit, the 9 patterns of the candidate enumeration do
    # not, and no cut needs them
    path = tmp_path / "roomy.ckp"
    path.write_text(serialize_instance(make_instance([(3, 1), (4, 2)], 20)))
    code, out = run(capsys, "cuts", str(path), "--family", "pack1",
                    "--verify", "--enumerate-limit", "5")
    assert code == 0
    assert out == "# no cuts\n"
    code, out = run(capsys, "oracle", str(path), "--enumerate-limit", "5")
    assert code == 3  # the enumeration itself would overrun


@pytest.mark.parametrize("family, calls", [("all", 1), ("pack2", 1),
                                           ("lcover1", 0)])
def test_cuts_enumerates_packs_once(files, capsys, monkeypatch, family, calls):
    # the three pack families share one enumeration, made only when a pack
    # family is listed
    counted = []

    def counting(*args, **kwargs):
        counted.append(args)
        return enumerate_maximal_switching_packs(*args, **kwargs)

    monkeypatch.setattr(cuts, "enumerate_maximal_switching_packs", counting)
    code, out = run(capsys, "cuts", files["ex_c.ckp"], "--family", family)
    assert code == 0
    assert len(counted) == calls
    if family == "all":
        assert out == (GOLDEN / "cuts_ex_c_all.txt").read_text()


@pytest.mark.parametrize("family, calls", [("all", 1), ("lcover2", 1),
                                           ("pack1", 0)])
def test_cuts_walks_the_covers_once(files, capsys, monkeypatch, family, calls):
    # the two cover families list from one pattern walk, made at the first
    # of them; the walk's prune reads only that some cover family is asked
    counted = []

    def counting(*args, **kwargs):
        counted.append(args)
        return oracle.walk_patterns(*args, **kwargs)

    monkeypatch.setattr(cuts, "walk_patterns", counting)
    code, out = run(capsys, "cuts", files["ex_c.ckp"], "--family", family)
    assert code == 0
    assert len(counted) == calls
    if family == "all":
        assert out == (GOLDEN / "cuts_ex_c_all.txt").read_text()


def test_cuts_listing_builds_each_printed_cut_once(files, capsys, built,
                                                   monkeypatch):
    # the listing makes each member's integer form once and builds its cut
    # from that form (cuts.member_cut), not again through a public builder
    made = Counter()

    def counting(name, function):
        def wrapper(*args):
            made[name] += 1
            return function(*args)
        return wrapper

    for name in ("_pack_form", "_lcover1_form", "_lcover2_form", "member_cut"):
        monkeypatch.setattr(cuts, name, counting(name, getattr(cuts, name)))
    code, out = run(capsys, "cuts", files["ex_c.ckp"], "--family", "all")
    assert code == 0
    forms = made["_pack_form"] + made["_lcover1_form"] + made["_lcover2_form"]
    assert forms == out.count("# family:") == 36
    assert made["_pack_form"] == out.count("# family: pack") > 0
    assert made["_lcover2_form"] == out.count("# family: lcover2") > 0
    # every member built is printed: none is tried and then skipped
    assert made["member_cut"] == 36 and not built


def test_cuts_listing_matches_building_every_member(tmp_path, capsys):
    # every member of each maximal switching pack and of each cover, in
    # order, on instances that also have single-item covers
    rng = random.Random(7071)
    path = tmp_path / "random.ckp"
    for _ in range(20):
        path.write_text(serialize_instance(random_instance(rng, max_groups=4)))
        inst, _ = normalize(parse_instance(path.read_text()))
        covers = [refs for refs in (
            tuple(VarRef(i, j) for i, j in enumerate(p, start=1) if j)
            for p in iter_patterns(inst)) if refs]
        covers = [c for c in covers if itemset_weight(inst, c) > inst.capacity]
        for family in FAMILIES:
            itemsets = (enumerate_maximal_switching_packs(inst)
                        if family.startswith("pack") else covers)
            expected = ["# " + cut.describe() for itemset in itemsets
                        for cut in family_cuts(inst, itemset, (family,))]
            code, out = run(capsys, "cuts", str(path), "--family", family)
            assert code == 0
            assert [line for line in out.splitlines()
                    if line.startswith("# family:")] == expected


def test_cuts_lcover_count(files, capsys):
    code, out = run(capsys, "cuts", files["ex_b.ckp"], "--family", "lcover1")
    assert code == 0
    assert out.count("# family: lcover1") == 7


def test_cuts_skips_cuts_with_no_terms(tmp_path, capsys):
    # the pack {x11} of a weightless singleton builds the pack1 cut 0 <= 0,
    # valid but cutting nothing: it is built and not listed, and the two
    # cuts with terms are
    path = tmp_path / "weightless.ckp"
    path.write_text("ckp 1\nb 5\ngroup 1 a 0 c 1\ngroup 2 a 7 3 c 7 3\n")
    inst, _ = normalize(parse_instance(path.read_text()))
    packs = enumerate_maximal_switching_packs(inst)
    assert (VarRef(1, 1),) in packs
    assert cuts.pack_inequality_1(inst, (VarRef(1, 1),)).inequality.terms == ()
    for family in ("pack1", "all"):
        code, out = run(capsys, "cuts", str(path), "--family", family,
                        "--verify")
        assert code == 0
        blocks = out.strip().split("\n\n")
        assert all("\nterm " in block for block in blocks), out
    assert [b.splitlines()[0] for b in out.strip().split("\n\n")
            if "family: pack1" in b] == ["# family: pack1; items: (1,1) (2,2)",
                                         "# family: pack1; items: (2,2)"]


def test_cuts_none_found(files, capsys):
    code, out = run(capsys, "cuts", files["sing.ckp"], "--family", "lcover1")
    assert code == 0
    assert out == "# no cuts\n"


def test_separate_exact(files, capsys):
    code, out = run(capsys, "separate", files["ex_c.ckp"], files["frac.point"],
                    "--exact", "--family", "pack2")
    assert code == 0
    assert out.startswith("outcome: found\nviolation: 2\nexamined: 75\n"
                          "# family: pack2; items: (1,1) (2,1) (3,2) (4,2); "
                          "pivot: (4,2)\n")
    assert "rhs 36" in out


def test_separate_greedy(files, capsys):
    code, out = run(capsys, "separate", files["ex_c.ckp"], files["frac.point"],
                    "--greedy", "--family", "all")
    assert code == 0
    assert "outcome: found\nviolation: 2\n" in out
    assert "# family: pack1" in out


def test_separate_none(files, capsys):
    code, out = run(capsys, "separate", files["ex_a.ckp"], files["zero.point"],
                    "--exact", "--family", "all")
    assert code == 0
    assert out == "outcome: none\nexamined: 114\n"


def test_solve(files, capsys):
    code, out = run(capsys, "solve", files["ex_b.ckp"])
    assert code == 0
    assert out == ("status: optimal\nvalue: 22\nbest-bound: 22\nnodes: 1\n"
                   "lp-pivots: 0\n"
                   "cuts-added: pack1=0 pack2=0 pack3=0 lcover1=0 lcover2=0\n"
                   "point:\nval 1 1 1\nval 2 1 1\nval 3 1 6/13\n")


def test_solve_without_cuts(files, capsys):
    code, out = run(capsys, "solve", files["ex_b.ckp"], "--cuts", "none")
    assert code == 0
    assert "value: 22" in out
    assert "cuts-added: pack1=0 pack2=0 pack3=0 lcover1=0 lcover2=0" in out


def test_solve_cuts_all_is_the_default(files, capsys):
    for argv in ([files["ex_b.ckp"]], [files["corr.ckp"], "--exact-sep"]):
        default = run(capsys, "solve", *argv)
        assert default[0] == 0
        assert run(capsys, "solve", *argv, "--cuts", "all") == default
    # the last solve adds cuts, so the family choice shows in its output
    assert "cuts-added: pack1=1 pack2=0 pack3=0 lcover1=3" in default[1]
    assert run(capsys, "solve", *argv, "--cuts", "none") != default


def test_solve_rejects_an_unknown_family_by_name(files, capsys):
    code, out = run(capsys, "solve", files["ex_b.ckp"], "--cuts",
                    "pack1,bogus")
    assert code == 2
    assert out == "error: unknown cut family: 'bogus'\n"


@pytest.mark.parametrize("choice", ["", ",", " , "])
def test_solve_refuses_a_family_list_naming_none(files, capsys, choice):
    # an empty list, as an unset shell variable gives, is not "none"
    code, out = run(capsys, "solve", files["ex_b.ckp"], "--cuts", choice)
    assert code == 2
    assert out == "error: no cut family named; use 'none' for none\n"


def test_solve_rational_output(files, capsys):
    code, out = run(capsys, "solve", files["sing.ckp"])
    assert code == 0
    assert "value: 23/3" in out
    assert "nodes: 1" in out


def test_solve_node_limit_exit_code(files, capsys):
    code, out = run(capsys, "solve", files["corr.ckp"], "--node-limit", "1")
    assert code == 3
    assert out.startswith("status: node-limit\n")
    assert "best-bound: 23" in out


def test_solve_exact_sep_stopped_at_the_limit(files, capsys):
    code, out = run(capsys, "solve", files["corr.ckp"], "--exact-sep",
                    "--enumerate-limit", "26")
    assert code == 0
    assert "value: 22\n" in out
    assert ("exact-sep: stopped, pattern space over the enumeration limit\n"
            in out)
    code, out = run(capsys, "solve", files["corr.ckp"], "--exact-sep")
    assert code == 0 and "exact-sep" not in out


def test_reduce_partition(files, capsys, tmp_path):
    prefix = str(tmp_path / "red")
    code, out = run(capsys, "reduce-partition", "--alphas", "1,1,2",
                    "--beta", "2", "--out", prefix)
    assert code == 0
    assert out == "wrote %s.ckp\nwrote %s.point\n" % (prefix, prefix)
    inst = parse_instance((tmp_path / "red.ckp").read_text())
    point = parse_point((tmp_path / "red.point").read_text())
    assert inst.capacity == 4
    assert inst.groups[3].weights == (3, 1, 1)
    assert dict(point.entries)[VarRef(1, 1)] == Fraction(1, 12)


REDUCED = {  # the files of reduce-partition, byte for byte
    ("1,1,2", "2"): (
        "ckp 1\nb 4\ngroup 1 a 1 c 1\ngroup 1 a 1 c 1\ngroup 1 a 2 c 2\n"
        "group 3 a 3 1 1 c 3 1 1\n",
        "point 1\nval 1 1 1/12\nval 2 1 1/12\nval 3 1 1/12\nval 4 1 1\n"
        "val 4 2 1/3\nval 4 3 1/3\n"),
    ("1,2,3", "3"): (  # 3 divides beta, so the point's form reduces by 3
        "ckp 1\nb 5\ngroup 1 a 1 c 1\ngroup 1 a 2 c 2\ngroup 1 a 3 c 3\n"
        "group 4 a 3 1 1 1 c 3 1 1 1\n",
        "point 1\nval 1 1 1/6\nval 2 1 1/6\nval 3 1 1/6\nval 4 1 1\n"
        "val 4 2 1/3\nval 4 3 1/3\nval 4 4 1/3\n"),
}


@pytest.mark.parametrize("alphas, beta", sorted(REDUCED))
def test_reduce_partition_files_are_pinned(capsys, tmp_path, alphas, beta):
    prefix = str(tmp_path / "red")
    code, _ = run(capsys, "reduce-partition", "--alphas", alphas,
                  "--beta", beta, "--out", prefix)
    assert code == 0
    assert ((tmp_path / "red.ckp").read_bytes().decode(),
            (tmp_path / "red.point").read_bytes().decode()) == REDUCED[
                alphas, beta]


def test_exit_code_missing_file(files, capsys):
    code, out = run(capsys, "check", files["dir"] + "/nope.ckp")
    assert code == 1


def test_exit_code_usage(capsys):
    assert main(["separate", "x", "y"]) == 1  # missing required flags
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("argv, err", [
    (["frobnicate"],
     "usage: ckp [-h] {check,oracle,verify,cuts,separate,solve,"
     "reduce-partition} ...\n"
     "ckp: error: argument command: invalid choice: 'frobnicate' (choose "
     "from 'check', 'oracle', 'verify', 'cuts', 'separate', 'solve', "
     "'reduce-partition')\n"),
    (["cuts", "x.ckp"],
     "usage: ckp cuts [-h] --family {pack1,pack2,pack3,lcover1,lcover2,all}\n"
     "                [--verify] [--enumerate-limit N]\n"
     "                instance\n"
     "ckp cuts: error: the following arguments are required: --family\n"),
], ids=["top-level", "subcommand"])
def test_usage_error_text(capsys, monkeypatch, argv, err):
    # argparse's own usage line, then its "prog: error:" line, on stderr
    # only; main returns 1 for its exit 2.  COLUMNS fixes the usage wrap
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


HELP = """\
usage: ckp [-h] {check,oracle,verify,cuts,separate,solve,reduce-partition} ...

Exact cuts, oracles, separation, and branch-and-cut for the complementarity
knapsack problem.

positional arguments:
  {check,oracle,verify,cuts,separate,solve,reduce-partition}
    check               report standing assumptions
    oracle              enumerate candidate vertices and maximize the profits
                        over S
    verify              check an inequality's validity, face dimension, and
                        facet status
    cuts                generate cuts of a family
    separate            find a violated cut at a point
    solve               exact branch-and-cut
    reduce-partition    build the partition-problem reduction instance

options:
  -h, --help            show this help message and exit
"""


def test_help_exits_zero(capsys, monkeypatch):
    # the help goes to stdout, and argparse's exit 0 after it returns 0
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["--help"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (HELP, "")
    assert main(["cuts", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: ckp cuts [-h]")
    assert captured.err == ""


def test_normalizes_on_load(files, tmp_path, capsys):
    # files are normalized on the way in, so slot order in them is free
    unnorm = tmp_path / "u.ckp"
    unnorm.write_text("ckp 1\nb 4\ngroup 2 a 1 5 c 1 5\n")
    code, out = run(capsys, "solve", str(unnorm))
    assert code == 0
    assert "value: 4" in out
    assert "val 1 1 4/5" in out


def test_exit_code_precondition(files, tmp_path, capsys):
    heavy = tmp_path / "heavy.point"
    heavy.write_text("point 1\nval 3 1 1\nval 4 1 1\nval 5 1 1\n")
    code, out = run(capsys, "separate", files["ex_a.ckp"], str(heavy),
                    "--exact", "--family", "all")
    assert code == 2
    assert "error:" in out


def test_repeated_lines_are_refused(files, tmp_path, capsys):
    # a variable given twice is refused even when one of its lines is 0;
    # keeping the nonzero line would verify 5*x(1,1) <= 3 instead
    ineq = tmp_path / "twice.ineq"
    ineq.write_text("ineq 1\nrhs 3\nterm 1 1 0\nterm 1 1 5\n")
    point = tmp_path / "twice.point"
    point.write_text("point 1\nval 3 1 1/7\nval 3 1 0\n")
    for argv, line in ((("verify", files["ex_a.ckp"], str(ineq)), 4),
                       (("separate", files["ex_c.ckp"], str(point), "--exact",
                         "--family", "all"), 3)):
        code, out = run(capsys, *argv)
        assert code == 1
        assert "line %d: " % line in out and "given twice" in out


@pytest.mark.parametrize("text, line", [
    ("ckp 1\nb -1\ngroup 1 a 2 c 1\n", "error: negative capacity: -1\n"),
    ("ckp 1\nb 5\ngroup 1 a 1 c 1\ngroup 2 a 3 -1/2 c 1 1\n",
     "error: negative weight at group 2 slot 2\n"),
    ("ckp 1\nb 5\ngroup 2 a 1 3 c 1 -2\n",
     "error: negative profit at group 1 slot 2\n"),
], ids=["capacity", "weight", "profit"])
def test_check_refuses_negative_data(tmp_path, capsys, text, line):
    # the file parses and the instance it gives is refused (exit 2), its
    # slots counted as the file gives them, before normalize sorts them
    path = tmp_path / "negative.ckp"
    path.write_text(text)
    assert run(capsys, "check", str(path)) == (2, line)


def test_exit_code_parse_error(tmp_path, capsys):
    broken = tmp_path / "broken.ckp"
    broken.write_text("ckp 2\n")
    code, _ = run(capsys, "check", str(broken))
    assert code == 1


def _bad_file_argv(files, kind, bad):
    """A command that reads ``bad`` as a file of ``kind`` after any
    fixture file it needs."""
    return {"instance": ("check", bad),
            "inequality": ("verify", files["ex_a.ckp"], bad),
            "point": ("separate", files["ex_c.ckp"], bad, "--exact",
                      "--family", "all")}[kind]


@pytest.mark.parametrize("kind", ["instance", "inequality", "point"])
def test_a_file_not_in_utf8_is_a_format_error(files, tmp_path, capsys, kind):
    """Every format is UTF-8: a byte that does not decode is a format
    error, exit 1 with one ``error:`` line that names the file, whichever
    file carries it."""
    bad = tmp_path / "bad"
    bad.write_bytes({"instance": b"ckp 1\nb 5\ngroup 1 a 3 c \xff\n",
                     "inequality": b"ineq 1\nrhs 3\nterm 1 1 \xc3\n",
                     "point": b"point 1\nval 1 1 \x80\n"}[kind])
    assert main(list(_bad_file_argv(files, kind, str(bad)))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: %s: 'utf-8' codec can't decode "
                                   % bad)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("kind, text, line", [
    ("instance", "ckp 1\nb x\n", "line 2: not a rational: 'x'"),
    ("inequality", "ineq 1\nrhs 3\nterm 1 1\n",
     "line 3: expected 'term <i> <j> <rational>'"),
    ("point", "point 2\n", "line 1: expected header 'point 1'"),
], ids=["instance", "inequality", "point"])
def test_a_parse_error_names_its_file_and_line(files, tmp_path, capsys, kind,
                                               text, line):
    """A format error names the file it is in before its line, so with two
    input files the user sees which one is at fault."""
    bad = tmp_path / "bad"
    bad.write_text(text)
    assert main(list(_bad_file_argv(files, kind, str(bad)))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: %s: %s" % (bad, line))
    assert captured.err.count("\n") == 1


def _mutated(rng, data: bytes) -> bytes:
    """``data`` with one seeded byte flipped, inserted or deleted; a new
    byte is any of 0x00-0xff, so about half of them are not ASCII."""
    at = rng.randrange(len(data))
    kind = rng.randrange(3)
    if kind == 0:
        return data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]
    if kind == 1:
        return data[:at] + bytes([rng.randrange(256)]) + data[at:]
    return data[:at] + data[at + 1:]


def test_byte_mutations_of_the_fixtures_never_escape_main(files, tmp_path,
                                                          capsys):
    """Seeded one-byte mutations of the fixture files, run in process
    through every command that reads them: each run returns an exit code
    of the contract, and no exception escapes ``main``."""
    rng = random.Random(5501)
    commands = {
        "ckp": lambda path: [("check", path), ("oracle", path),
                             ("verify", path, files["p1b.ineq"]),
                             ("cuts", path, "--family", "all", "--verify"),
                             ("separate", path, files["frac.point"],
                              "--exact", "--family", "all"),
                             ("solve", path)],
        "ineq": lambda path: [("verify", files["ex_a.ckp"], path)],
        "point": lambda path: [("separate", files["ex_c.ckp"], path,
                                "--exact", "--family", "all")],
    }
    sources = ("ex_a.ckp", "ex_b.ckp", "ex_c.ckp", "sing.ckp", "p1b.ineq",
               "p2b.ineq", "frac.point")
    mutant = tmp_path / "mutant"
    codes = Counter()
    for _ in range(500):
        name = rng.choice(sources)
        mutant.write_bytes(_mutated(rng, Path(files[name]).read_bytes()))
        for argv in commands[name.rsplit(".", 1)[1]](str(mutant)):
            code = main(list(argv))
            assert type(code) is int and code in (0, 1, 2, 3), argv
            codes[code] += 1
    capsys.readouterr()
    assert codes[0] and codes[1]  # some mutants still parse, some do not


def test_exit_code_resource_limit(files, capsys):
    code, out = run(capsys, "oracle", files["ex_a.ckp"],
                    "--enumerate-limit", "5")
    assert code == 3
    assert "exceeds enumeration limit" in out


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_exit_code_nonpositive_enumeration_limit(files, capsys, limit):
    # a limit below 1 is an invalid value, not a resource overrun
    code, out = run(capsys, "cuts", files["ex_c.ckp"], "--family", "lcover1",
                    "--enumerate-limit", limit)
    assert code == 2
    assert "enumeration limit must be positive" in out


@pytest.mark.parametrize("extra", [(), ("--exact-sep",)],
                         ids=["greedy", "exact-sep"])
@pytest.mark.parametrize("limit", ["0", "-5"])
def test_solve_refuses_nonpositive_enumeration_limit(files, capsys, extra,
                                                     limit):
    # refused when the options are read, whether or not exact separation
    # would ever walk
    code, out = run(capsys, "solve", files["corr.ckp"], "--enumerate-limit",
                    limit, *extra)
    assert code == 2
    assert "enumeration limit must be positive, got %s" % limit in out
    assert "status:" not in out


ALPHAS_BAD = "alphas must be a comma-separated integer list"


@pytest.mark.parametrize("argv,code,message", [
    pytest.param(["--alphas", "1_0,\u0663,1", "--beta", "7"], 1, ALPHAS_BAD,
                 id="alphas 1_0 and an Arabic-Indic 3"),
    pytest.param(["--alphas", "+1,1,2", "--beta", "2"], 1, ALPHAS_BAD,
                 id="alphas +1"),
    pytest.param(["--alphas", "1,0,3", "--beta", "2"], 2,
                 "alphas must be positive integers", id="alphas 0"),
    pytest.param(["--alphas", "1,1,2", "--beta", "\u0662"], 1,
                 "argument --beta: invalid int value: '\u0662'",
                 id="beta an Arabic-Indic 2"),
    pytest.param(["--alphas", "1,1,2", "--beta", "+2"], 1,
                 "argument --beta: invalid int value: '+2'", id="beta +2"),
    pytest.param(["--alphas", "1,1,2", "--beta", "4/2"], 1,
                 "argument --beta: invalid int value: '4/2'", id="beta 4/2"),
])
def test_reduce_partition_integers_in_one_grammar(tmp_path, capsys, argv,
                                                  code, message):
    got, out = run(capsys, "reduce-partition", *argv,
                   "--out", str(tmp_path / "red"))
    assert got == code
    assert message in out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("option", ["--node-limit", "--enumerate-limit"])
@pytest.mark.parametrize("value", ["1_0", "+10", "\u0661\u0660", "10/1"])
def test_solve_integer_options_in_one_grammar(files, capsys, option, value):
    code, out = run(capsys, "solve", files["ex_a.ckp"], option, value)
    assert code == 1
    assert "argument %s: invalid int value: %r" % (option, value) in out
    code, out = run(capsys, "solve", files["ex_a.ckp"], option, "10")
    assert code == 0


def test_console_script(files):
    # Run the [project.scripts] target the way pip's wrapper does, so that a
    # source checkout without an install still checks the declared entry point.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["ckp"]
    module, func = target.split(":")
    wrapper = "import sys; from %s import %s; sys.exit(%s())" % (
        module, func, func)
    package_root = str(Path(ckp.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "check", files["ex_a.ckp"]],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "assumption2: holds" in proc.stdout, proc.stderr


@pytest.mark.skipif(shutil.which("ckp") is None,
                    reason="the ckp console script is not installed")
def test_installed_console_script(files):
    proc = subprocess.run(["ckp", "check", files["ex_a.ckp"]],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "assumption2: holds" in proc.stdout, proc.stderr
