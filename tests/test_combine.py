"""Combination engine: propagation, both solve modes, and oracle agreement."""

import dataclasses
import pathlib
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qcsp import _kernels, combine
from qcsp.checking import check_combined_witness, check_part_witness
from qcsp.combine import (
    _decide_parts,
    _entailed_by_a_part,
    CombinedProblem,
    ConvexityFlagFalse,
    ConvexityNotDeclared,
    combined_problem,
    propagate_step,
    solve_auto,
    solve_complete,
    solve_convex,
)
from qcsp.formulas import (
    RelationSymbol,
    UnionFind,
    eq,
    make_instance,
    neq,
    parse_problem,
    rel,
    split_by_signature,
)
from qcsp.oracle import superpose_bruteforce
from qcsp.theories import KINDS, Digraph, SolveResult, TheorySolver, builtin_mi

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

LEQ1 = RelationSymbol("t1", "leq", 2)
LT1 = RelationSymbol("t1", "lt", 2)
LT2 = RelationSymbol("t2", "lt", 2)
LEQ2 = RelationSymbol("t2", "leq", 2)
MI = RelationSymbol("t1", "mi", 3)

PA1 = TheorySolver("t1", "point_algebra", True)
PA2 = TheorySolver("t2", "point_algebra", True)
EQ2 = TheorySolver("t2", "equality", True)
TEMP1 = TheorySolver("t1", "temporal", False, relations={"mi": builtin_mi()})


def _manual_problem(atoms, solvers, shared):
    inst = make_instance(atoms)
    parts, _ = split_by_signature(inst, list(solvers))
    return CombinedProblem(
        instance=inst, parts=parts, shared=frozenset(shared), solvers=solvers
    )


def test_propagate_step_finds_forced_equality():
    problem = _manual_problem(
        [rel(LEQ1, "x", "y"), rel(LEQ1, "y", "x")],
        {"t1": PA1, "t2": EQ2},
        {"x", "y"},
    )
    assert propagate_step(problem, set()) == {eq("x", "y")}


def test_propagate_step_fixpoint_is_empty():
    problem = _manual_problem(
        [rel(LEQ1, "x", "y"), rel(LEQ1, "y", "x")],
        {"t1": PA1, "t2": EQ2},
        {"x", "y"},
    )
    learned = {eq("x", "y")}
    assert propagate_step(problem, learned) == set()


def test_propagate_step_reports_equalities_of_the_instance():
    # the instance's own eq atom joins shared a and b in every part, so
    # each part's decide reports them equal
    problem = _manual_problem(
        [rel(LT1, "a", "c"), eq("a", "b")], {"t1": PA1, "t2": EQ2}, {"a", "b", "c"}
    )
    assert propagate_step(problem, set()) == {eq("a", "b")}


def test_propagate_step_temporal_entailment():
    problem = _manual_problem(
        [rel(MI, "x", "y", "z"), rel(RelationSymbol("t1", "leq", 2), "x", "y"),
         rel(RelationSymbol("t1", "leq", 2), "x", "z")],
        {"t1": TEMP1, "t2": EQ2},
        {"x", "y", "z"},
    )
    assert propagate_step(problem, set()) == {eq("x", "y")}


def test_solve_convex_examples():
    unsat = parse_problem(
        "theory t1 point_algebra\ntheory t2 equality\n"
        "atom t1 leq x y\natom t1 leq y x\nneq x y\n"
    )
    assert not solve_convex(combined_problem(unsat)).sat

    sat = parse_problem(
        "theory t1 point_algebra\ntheory t2 equality\n"
        "atom t1 lt x y\nneq y z\n"
    )
    assert solve_convex(combined_problem(sat)).sat

    two_orders = parse_problem(
        "theory t1 point_algebra\ntheory t2 point_algebra\n"
        "atom t1 lt x y\natom t2 lt y x\n"
    )
    combined = combined_problem(two_orders)
    assert combined.shared == frozenset({"x", "y"})
    assert solve_convex(combined).sat
    assert superpose_bruteforce(combined).sat


def test_solve_convex_requires_flags():
    problem = _manual_problem(
        [rel(MI, "x", "y", "z")], {"t1": TEMP1, "t2": EQ2}, set()
    )
    with pytest.raises(ConvexityNotDeclared):
        solve_convex(problem)


def test_false_convex_flag_is_detected():
    problem = combined_problem(
        parse_problem((FIXTURES / "convex_flag_false.qcsp").read_text())
    )
    assert all(s.convex for s in problem.solvers.values())
    with pytest.raises(ConvexityFlagFalse, match="t1"):
        solve_convex(problem)
    assert not solve_auto(problem).sat
    assert not solve_complete(problem).sat
    assert not superpose_bruteforce(problem).sat


def test_false_convex_flag_is_raised_without_deciding_learned_again(monkeypatch):
    # every part accepts the learned equalities in the pass that finds
    # nothing, so once the arrangement is rejected the flag is false: the
    # final check is the last decide.  Here the one pass decides t1 and then
    # t2 under no equalities
    problem = combined_problem(
        parse_problem((FIXTURES / "convex_flag_false.qcsp").read_text())
    )
    calls = _count_nodes(monkeypatch)
    with pytest.raises(ConvexityFlagFalse):
        solve_convex(problem)
    apart = {neq(u, v) for u, v in combinations("abcd", 2)}
    assert [set(decisions) for _, decisions, *_ in calls] == [set(), set(), apart]


def test_solve_complete_mi_examples():
    base = (
        "theory t1 temporal\n"
        "relation t1 leq/2 ordertypes 0/0,0/1\n"
        "relation t1 mi/3 builtin mi\n"
        "theory t2 equality\n"
        "atom t1 mi a b c\natom t1 mi c d a\natom t1 leq a b\natom t1 leq c d\n"
    )
    sat_problem = combined_problem(parse_problem(base + "neq a b\n"))
    result = solve_complete(sat_problem)
    assert result.sat
    assert check_combined_witness(sat_problem, result)
    # the surviving model merges c and d
    assert result.witness.part_witnesses["t1"]["c"] == result.witness.part_witnesses["t1"]["d"]

    unsat_problem = combined_problem(parse_problem(base + "neq a b\nneq c d\n"))
    assert not solve_complete(unsat_problem).sat
    assert not superpose_bruteforce(unsat_problem).sat


def test_solve_complete_empty():
    problem = combined_problem(parse_problem(""))
    assert solve_complete(problem).sat
    assert solve_auto(problem).sat


def test_neutral_atoms_checked_without_theories():
    # no declared theory sees the atoms, but x=y with x!=y is still absurd
    problem = combined_problem(parse_problem("eq x y\nneq x y\n"))
    assert not solve_complete(problem).sat
    assert not solve_convex(problem).sat
    consistent = combined_problem(parse_problem("neq x y\n"))
    assert solve_complete(consistent).sat
    assert solve_auto(consistent).sat


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_parts_reject_contradicting_neutral_atoms_without_a_collapse(
    kind, monkeypatch
):
    # every part holds the eq/neq atoms and its decide rejects x != x after
    # its own merging, so combine merges the whole instance's equalities
    # only when there is no part; the flag lets convex mode run on every kind
    calls = []
    original = combine.merge_equalities
    monkeypatch.setattr(
        combine, "merge_equalities", lambda inst: calls.append(inst) or original(inst)
    )
    problem = _manual_problem(
        [eq("x", "y"), eq("y", "z"), neq("x", "z")],
        {"t1": TheorySolver("t1", kind, True)},
        {"x", "y", "z"},
    )
    for solve in (solve_complete, solve_convex, solve_auto):
        assert not solve(problem).sat
    assert calls == []


def test_solve_auto_dispatch():
    convex = combined_problem(
        parse_problem(
            "theory t1 point_algebra\ntheory t2 equality\natom t1 lt x y\n"
        )
    )
    assert solve_auto(convex).sat == solve_convex(convex).sat
    nonconvex = combined_problem(
        parse_problem(
            "theory t1 temporal\nrelation t1 mi/3 builtin mi\n"
            "theory t2 equality\natom t1 mi x y z\n"
        )
    )
    assert solve_auto(nonconvex).sat == solve_complete(nonconvex).sat


def _random_pa_pair(rng):
    names = [f"v{i}" for i in range(rng.randint(2, 6))]
    atoms = []
    for _ in range(rng.randint(1, 7)):
        kind = rng.choice(["t1lt", "t1leq", "t2lt", "t2leq", "eq", "neq"])
        x, y = rng.sample(names, 2)
        if kind == "t1lt":
            atoms.append(rel(LT1, x, y))
        elif kind == "t1leq":
            atoms.append(rel(LEQ1, x, y))
        elif kind == "t2lt":
            atoms.append(rel(LT2, x, y))
        elif kind == "t2leq":
            atoms.append(rel(LEQ2, x, y))
        elif kind == "eq":
            atoms.append(eq(x, y))
        else:
            atoms.append(neq(x, y))
    inst = make_instance(atoms)
    parts, shared = split_by_signature(inst, ["t1", "t2"])
    return CombinedProblem(inst, parts, shared, {"t1": PA1, "t2": PA2})


def test_modes_and_oracle_agree_on_random_pa_pairs():
    rng = random.Random(71)
    for _ in range(400):
        problem = _random_pa_pair(rng)
        complete = solve_complete(problem)
        convex = solve_convex(problem)
        oracle = superpose_bruteforce(problem)
        assert complete.sat == oracle.sat == convex.sat
        if complete.sat:
            assert check_combined_witness(problem, complete)
            assert check_combined_witness(problem, convex)


def test_propagation_soundness_asserted_in_loop():
    # every propagated equality is entailed by some part at return time
    rng = random.Random(97)
    for _ in range(100):
        problem = _random_pa_pair(rng)
        learned = set()
        while True:
            new = propagate_step(problem, learned)
            if not new:
                break
            for atom in new:
                x, y = atom.args
                assert any(
                    problem.solvers[tid].entails_eq(
                        make_instance(set(problem.parts[tid].atoms) | learned), x, y
                    )
                    for tid in problem.parts
                )
            learned |= new


def _stack_depth() -> int:
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def _chain_problem(n: int, t1: TheorySolver = PA1) -> CombinedProblem:
    """An lt chain in t1 and a leq chain in t2 over n shared variables: SAT
    with every variable in its own block."""
    names = [f"v{i}" for i in range(n)]
    atoms = []
    for a, b in zip(names, names[1:]):
        atoms += [rel(LT1, a, b), rel(LEQ2, a, b)]
    return _manual_problem(atoms, {"t1": t1, "t2": PA2}, names)


def _count_nodes(monkeypatch) -> list:
    """Record the arguments of every _decide_parts call: one per node of
    the complete search."""
    calls = []
    original = combine._decide_parts

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(combine, "_decide_parts", counting)
    return calls


def test_search_depth_does_not_grow_with_decided_pairs(monkeypatch):
    # a temporal lt chain whose decides drop their facts reports no entailed
    # disequality: every pair is decided by branching, and the equal branch
    # fails.  10 shared variables give 45 decided pairs; a search that
    # recursed once per pair would pass a limit only 40 frames above the
    # caller
    decide = TheorySolver.decide

    def without_facts(self, inst, base=None):
        result = decide(self, inst)
        return SolveResult(result.sat, result.witness)

    monkeypatch.setattr(TheorySolver, "decide", without_facts)
    problem = _chain_problem(10, TheorySolver("t1", "temporal", False))
    nodes = _count_nodes(monkeypatch)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        result = solve_complete(problem)
    finally:
        sys.setrecursionlimit(limit)
    assert result.sat
    assert len(result.witness.arrangement) == 10
    assert check_combined_witness(problem, result)
    assert len(nodes) == 2 * 45 + 1


def test_reported_disequalities_settle_a_chain_in_two_nodes(monkeypatch):
    # t1's lt chain entails every pair distinct; the root decides all of
    # them apart at once, where branching took 2 * C(28, 2) + 1 = 757 nodes
    nodes = _count_nodes(monkeypatch)
    problem = _chain_problem(28)
    result = solve_complete(problem)
    assert result.sat and len(result.witness.arrangement) == 28
    assert check_combined_witness(problem, result)
    assert len(nodes) <= 2


# The mi gadget over 14 shared variables (UNSAT): t1 holds mi/leq atoms
# over a planted order plus the gadget mi v10 v01 v02, mi v02 v04 v10,
# leq v10 v01, leq v02 v04, and t2 holds lt v10 v01, lt v02 v04.
MI_GADGET_14 = """\
theory t1 temporal
relation t1 leq/2 ordertypes 0/0,0/1
relation t1 mi/3 builtin mi
theory t2 point_algebra
atom t1 mi v07 v12 v10
atom t1 leq v08 v05
atom t2 leq v04 v01
atom t1 mi v12 v13 v09
atom t2 leq v05 v08
atom t1 leq v04 v08
atom t1 mi v08 v13 v02
atom t2 lt v11 v02
atom t2 lt v11 v00
atom t1 mi v10 v01 v02
atom t1 mi v02 v04 v10
atom t1 mi v10 v05 v13
atom t1 mi v02 v00 v11
atom t1 leq v04 v06
atom t1 mi v07 v10 v05
atom t2 lt v02 v05
atom t1 leq v11 v06
atom t2 leq v13 v08
atom t2 leq v12 v00
atom t1 mi v04 v11 v13
atom t1 leq v00 v07
atom t1 leq v12 v04
atom t1 mi v01 v12 v00
atom t1 leq v00 v07
atom t1 mi v09 v01 v07
atom t1 mi v00 v11 v01
atom t2 leq v13 v07
atom t2 lt v10 v01
atom t2 lt v13 v09
atom t1 mi v10 v06 v11
atom t2 leq v04 v05
atom t1 mi v06 v08 v01
atom t2 leq v13 v06
atom t2 lt v10 v06
atom t1 mi v03 v12 v05
atom t2 leq v10 v07
atom t2 leq v06 v03
atom t1 leq v02 v04
atom t1 mi v05 v02 v13
atom t1 leq v10 v01
atom t2 lt v02 v04
"""


def test_mi_gadget_is_refuted_near_the_root(monkeypatch):
    # t2's lt atoms entail the gadget's two disequalities; once they are
    # decided apart t1 rejects the node.  Branching on the pairs the search
    # meets first took 2,443 nodes on this instance
    problem = combined_problem(parse_problem(MI_GADGET_14))
    assert len(problem.shared) == 14
    nodes = _count_nodes(monkeypatch)
    assert not solve_complete(problem).sat
    assert len(nodes) <= 3


# A temporal mi/leq part and a point-algebra part over 20 shared variables
# (SAT): perfbench.generators.build_case("mi_complete", "scale:0", 20, True).
MI_SAT_20 = """\
theory t1 temporal
relation t1 leq/2 ordertypes 0/0,0/1
relation t1 mi/3 builtin mi
theory t2 point_algebra
atom t2 lt v07 v02
atom t1 mi v02 v17 v08
atom t1 mi v09 v13 v14
atom t2 leq v10 v00
atom t2 lt v14 v03
atom t1 mi v09 v03 v10
atom t2 lt v09 v03
atom t2 leq v19 v05
atom t1 mi v08 v05 v10
atom t1 mi v11 v14 v18
atom t1 mi v03 v00 v19
atom t1 leq v13 v04
atom t1 leq v10 v06
atom t1 mi v16 v10 v00
atom t1 leq v06 v04
atom t1 mi v13 v10 v18
atom t2 lt v11 v15
atom t1 mi v00 v14 v07
atom t1 mi v07 v01 v18
atom t1 mi v19 v14 v12
atom t2 lt v11 v00
atom t1 mi v15 v00 v12
atom t2 lt v04 v03
atom t1 leq v18 v03
atom t1 mi v12 v04 v09
atom t2 lt v13 v05
atom t1 leq v13 v02
atom t2 lt v08 v02
atom t1 leq v02 v16
atom t1 leq v07 v15
atom t1 leq v02 v17
atom t2 leq v18 v05
atom t1 mi v04 v12 v07
atom t1 mi v05 v02 v09
atom t1 mi v19 v02 v01
atom t2 leq v10 v14
atom t2 lt v13 v06
atom t2 lt v01 v02
atom t1 mi v06 v07 v01
atom t1 leq v14 v02
atom t1 leq v18 v03
atom t2 leq v02 v17
atom t2 lt v06 v16
atom t2 leq v02 v05
atom t1 mi v13 v18 v05
atom t1 mi v16 v03 v09
atom t2 leq v06 v09
atom t2 lt v07 v15
atom t2 leq v09 v12
atom t1 mi v17 v07 v04
"""


# A temporal mi/leq part and a point-algebra part over five shared variables
# (SAT): perfbench.generators.make_case("mi_complete", 1, 16).  The search
# decides v03 != v04 at the root and later merges v03 into v00's class; the
# pair (v00, v04) is then already decided apart.
MI_STALE_APART = """\
theory t1 temporal
relation t1 leq/2 ordertypes 0/0,0/1
relation t1 mi/3 builtin mi
theory t2 point_algebra
atom t1 mi v02 v00 v04
atom t2 leq v00 v02
atom t1 leq v02 v04
atom t2 lt v02 v01
atom t1 leq v04 v01
atom t1 mi v01 v02 v03
atom t1 mi v04 v02 v00
atom t2 leq v00 v02
atom t2 lt v03 v04
atom t1 mi v02 v03 v04
atom t2 leq v04 v01
atom t1 mi v02 v00 v04
"""


def _apart_classes(decisions) -> set:
    """The pairs of classes the neq atoms among the decisions separate,
    under the classes their eq atoms merge."""
    classes = UnionFind({v for atom in decisions for v in atom.args})
    for atom in decisions:
        if atom.kind == "eq":
            classes.union(*atom.args)
    return {
        frozenset(map(classes.find, atom.args))
        for atom in decisions
        if atom.kind == "neq"
    }


def test_no_node_decides_separated_classes_apart_again(monkeypatch):
    # a node's decisions are the eq/neq atoms its parts are handed with
    # their own; each child adds atoms to its parent's, and the parent is
    # the last node decided before it whose decisions it contains.  No
    # child may add a neq atom between two classes its parent already
    # separates
    problem = combined_problem(parse_problem(MI_STALE_APART))
    assert len(problem.shared) == 5
    nodes = []
    original = combine._decide_parts

    def recording(*args):
        ok, contexts = original(*args)
        tid = next(iter(contexts))
        nodes.append(contexts[tid].instance.atoms - problem.parts[tid].atoms)
        return ok, contexts

    monkeypatch.setattr(combine, "_decide_parts", recording)
    assert solve_complete(problem).sat
    assert len(nodes) <= 5
    for i, node in enumerate(nodes[1:], 1):
        parent = next(p for p in reversed(nodes[:i]) if p < node)
        if any(atom.kind == "eq" for atom in node - parent):
            continue
        assert len(_apart_classes(node)) == len(_apart_classes(parent)) + len(
            node - parent
        )


def _kernel_runs(monkeypatch) -> list:
    """Record, for every temporal kernel call, whether it resumed."""
    runs = []
    original = _kernels.temporal_search

    def recording(n, atoms, constraints, start=None):
        runs.append(start is not None)
        return original(n, atoms, constraints, start)

    monkeypatch.setattr(_kernels, "temporal_search", recording)
    return runs


@pytest.mark.parametrize("text", [MI_GADGET_14, MI_SAT_20])
def test_decides_resume_from_the_earlier_decide(text, monkeypatch):
    # after the temporal part's root decide, every kernel run, of a search
    # child or an entailment test, resumes from an earlier decide; a search
    # whose decides all start afresh returns the same with as many runs
    problem = combined_problem(parse_problem(text))
    runs = _kernel_runs(monkeypatch)
    warm = solve_complete(problem)
    resumed = runs[:]
    del runs[:]
    original = TheorySolver.decide
    monkeypatch.setattr(
        TheorySolver, "decide", lambda self, inst, base=None: original(self, inst)
    )
    assert solve_complete(problem) == warm
    assert len(resumed) == len(runs) > 1
    assert resumed[0] is False and all(resumed[1:])
    assert not any(runs)


def test_equal_facts_replace_entailment_tests(monkeypatch):
    # a leq cycle puts x and y in one component: the decide reports them
    # equal, so propagation learns x = y without an entailment test
    calls = []
    monkeypatch.setattr(TheorySolver, "entails_eq", lambda *args: calls.append(args))
    problem = _manual_problem(
        [rel(LEQ1, "x", "y"), rel(LEQ1, "y", "x")],
        {"t1": PA1, "t2": EQ2},
        {"x", "y"},
    )
    assert propagate_step(problem, set()) == {eq("x", "y")}
    assert solve_complete(problem).witness.arrangement == (("x", "y"),)
    assert calls == []


def test_search_tests_entailment_only_where_witnesses_agree(monkeypatch):
    # every part's witness keeps the chain's variables apart, so no shared
    # pair can be entailed equal; asking every part about every pending
    # pair at every node costs 2070 entailment tests here
    calls = []
    original = TheorySolver.entails_eq

    def counting(self, inst, x, y, counter_models=None, base=None):
        calls.append((self.theory_id, x, y))
        return original(self, inst, x, y, counter_models, base)

    monkeypatch.setattr(TheorySolver, "entails_eq", counting)
    result = solve_complete(_chain_problem(10))
    assert result.sat
    assert len(calls) <= 20


# Two point-algebra parts whose tie groups grow over two convex passes: in
# the first, t1 forces a = b and t2, handed a = b in the same pass, forces
# a = b = c = d; in the second, t1 forces e = f and c = e and t2 finds
# nothing.  g < h in t1 keeps two more blocks apart.  The third pass finds
# the fixpoint without deciding or asking either part: the only equalities
# added since each was last asked are its own.
TIE_GROUPS = """\
theory t1 point_algebra
theory t2 point_algebra
atom t1 leq a b
atom t1 leq b a
atom t1 leq c e
atom t1 leq e d
atom t1 leq c f
atom t1 leq f d
atom t1 lt g h
atom t2 leq c a
atom t2 leq b d
atom t2 leq d c
atom t2 leq e x
atom t2 leq f y
atom t2 leq g h
"""


def test_convex_rounds_reuse_results_and_test_only_tied_pairs(monkeypatch):
    # a part whose last witness already satisfies the new equalities is not
    # decided again, a part is asked only about pairs its own witness ties,
    # and a part handed only its own finds since it was asked is skipped
    problem = combined_problem(parse_problem(TIE_GROUPS))
    decides, rounds = _record_decides_and_passes(monkeypatch)
    tied = []
    original_ask = combine._entailed_by_a_part

    def asking(problem, contexts, u, v):
        tied.append(any(c.values[u] == c.values[v] for c in contexts.values()))
        return original_ask(problem, contexts, u, v)

    monkeypatch.setattr(combine, "_entailed_by_a_part", asking)
    result = solve_convex(problem)
    assert result.sat
    assert result.witness.arrangement == (("a", "b", "c", "d", "e", "f"), ("g",), ("h",))
    assert len(rounds) == 3
    # the third pass skips both parts and the final check keeps both results
    assert decides == ["t1", "t2", "t1", "t2"]
    assert tied and all(tied)
    # both parts decided in each pass and in the final check make 2 * (3 + 1)
    every_time = 2 * (len(rounds) + 1)
    # with every base dropped that is what happens, to the same result
    del decides[:]
    monkeypatch.setattr(combine, "_decide_parts", _cold(combine._decide_parts))
    assert solve_convex(problem) == result
    assert len(decides) == every_time


def _record_decides_and_passes(monkeypatch) -> tuple[list, list]:
    """Record the theory id of every decide and the arguments of every
    propagation pass."""
    decides, passes = [], []
    original_decide = TheorySolver.decide
    original_step = combine.propagate_step

    def deciding(self, inst, base=None):
        decides.append(self.theory_id)
        return original_decide(self, inst, base)

    def stepping(*args):
        passes.append(args)
        return original_step(*args)

    monkeypatch.setattr(TheorySolver, "decide", deciding)
    monkeypatch.setattr(combine, "propagate_step", stepping)
    return decides, passes


def _cold(decide_parts):
    """_decide_parts with every base dropped: each part is decided afresh."""
    return lambda problem, decisions, bases=None, tids=None: decide_parts(
        problem, decisions, None, tids
    )


def test_a_pass_hands_each_part_what_the_parts_before_it_found(monkeypatch):
    # t1's leq cycle entails a = b; t2, handed a = b in the same pass,
    # rejects it, so one pass of two decides refutes the problem.  Rounds
    # that hand every part the same learned set take 2 rounds and 3 decides
    problem = combined_problem(parse_problem(
        "theory t1 point_algebra\ntheory t2 point_algebra\n"
        "atom t1 leq a b\natom t1 leq b a\natom t1 leq a c\n"
        "atom t2 lt a b\natom t2 leq b c\n"
    ))
    decides, passes = _record_decides_and_passes(monkeypatch)
    assert not solve_convex(problem).sat
    assert len(passes) == 1
    assert decides == ["t1", "t2"]


def test_one_pass_carries_the_first_parts_finds_to_the_next():
    # t1 alone entails only a = b; handed it, t2 entails c = d and a = c,
    # so the first pass finds all six equalities among a, b, c and d
    problem = combined_problem(parse_problem(TIE_GROUPS))
    assert propagate_step(problem, set()) == {
        eq(x, y) for x, y in combinations("abcd", 2)
    }


# Random combined problems over all four theory kinds, for comparing the
# model-based entailment filter with asking every part about every pair.
E1 = RelationSymbol("t1", "E", 2)
C3 = Digraph(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "a")}))
HENSON1 = TheorySolver("t1", "henson", False, forbidden=(C3,))
# (solvers, relation symbols, symbols whose cycles force equalities)
COMBOS = {
    "point_algebra+equality": ({"t1": PA1, "t2": EQ2}, (LT1, LEQ1), (LEQ1,)),
    "temporal+point_algebra": (
        {"t1": TEMP1, "t2": PA2}, (MI, LEQ1, LT2, LEQ2), (LEQ1, LEQ2)
    ),
    "henson+equality": ({"t1": HENSON1, "t2": EQ2}, (E1,), ()),
}


@st.composite
def _combined_problems(draw):
    solvers, symbols, cyclic = COMBOS[draw(st.sampled_from(sorted(COMBOS)))]
    names = [f"v{i}" for i in range(draw(st.integers(2, 6)))]
    atoms = []
    gadget = draw(st.sampled_from(["none", "cycle", "chain"])) if cyclic else "none"
    if gadget == "cycle":
        # a leq cycle makes a part entail equalities among its members
        cycle = draw(
            st.lists(st.sampled_from(names), min_size=2, max_size=4, unique=True)
        )
        symbol = draw(st.sampled_from(cyclic))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            atoms.append(rel(symbol, a, b))
    elif gadget == "chain":
        # a leq chain that descends in name order: a temporal part's least
        # witness ties its members, though no part entails any of those
        # equalities, so counter-models pile up at one node
        chain = sorted(draw(st.lists(
            st.sampled_from(names), min_size=min(3, len(names)), max_size=5,
            unique=True,
        )))
        for a, b in zip(chain, chain[1:]):
            atoms.append(rel(cyclic[0], b, a))
    kinds = [s for s in symbols if s.arity <= len(names)] + ["eq", "neq"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=7)):
        arity = 2 if isinstance(kind, str) else kind.arity
        args = draw(st.permutations(names))[:arity]
        if kind == "eq":
            atoms.append(eq(*args))
        elif kind == "neq":
            atoms.append(neq(*args))
        else:
            atoms.append(rel(kind, *args))
    # every variable counts as shared, so pairs missing from a part occur
    return _manual_problem(atoms, solvers, names), names


FILTER_SETTINGS = settings(
    derandomize=True, max_examples=300, deadline=None, database=None
)


def _pair_subsets(names, max_size=4):
    return st.lists(
        st.sampled_from(list(combinations(names, 2))), max_size=max_size
    )


def _reference_entailed(problem, atoms, x, y) -> bool:
    """Whether some part, with the given atoms added, entails x = y: the
    part is asked directly, without consulting any witness."""
    for tid in sorted(problem.parts):
        merged = make_instance(set(problem.parts[tid].atoms) | set(atoms))
        if problem.solvers[tid].entails_eq(merged, x, y):
            return True
    return False


def _apart_under(learned, names):
    classes = UnionFind(names)
    for atom in learned:
        classes.union(*atom.args)
    return [(x, y) for x, y in combinations(names, 2)
            if classes.find(x) != classes.find(y)]


def _most_models_held(monkeypatch, check) -> int:
    """Run check(data, problem, names) on every generated combined problem
    and return the most models a part held when one of its entailment tests
    ran: 2 or more means a counter-model kept at a node failed to rule that
    pair out, so the scan over kept models was exercised."""
    held = [0]
    original = TheorySolver.entails_eq

    def spying(self, inst, x, y, counter_models=None, base=None):
        if counter_models is not None:
            held[0] = max(held[0], len(counter_models))
        return original(self, inst, x, y, counter_models, base)

    monkeypatch.setattr(TheorySolver, "entails_eq", spying)

    @FILTER_SETTINGS
    @given(st.data())
    def run(data):
        check(data, *data.draw(_combined_problems()))

    run()
    return held[0]


def _reference_pass(problem, learned, names):
    """One pass asked of the parts directly, without consulting any
    witness: each part in tid order, under learned plus what the parts
    before it found, about every pair those equalities keep apart.  None
    when a part rejects what it is handed; the pass stops once no pair is
    kept apart."""
    found = set()
    for tid in sorted(problem.parts):
        handed = learned | found
        apart = _apart_under(handed, names)
        if not apart:
            break
        merged = make_instance(set(problem.parts[tid].atoms) | handed)
        solver = problem.solvers[tid]
        if not solver.decide(merged).sat:
            return None
        found |= {eq(x, y) for x, y in apart if solver.entails_eq(merged, x, y)}
    return found


def test_propagate_step_matches_asking_every_part(monkeypatch):
    def check(data, problem, names):
        learned = {eq(x, y) for x, y in data.draw(_pair_subsets(names))}
        assert propagate_step(problem, learned) == _reference_pass(
            problem, learned, names
        )

    assert _most_models_held(monkeypatch, check) >= 2


def _node(data, problem, names):
    """Decide the parts under a drawn node: its merges, all its decisions
    (the merges and some neq atoms), the contexts, and whether every part
    accepts it."""
    merges = {eq(x, y) for x, y in data.draw(_pair_subsets(names, 2))}
    decisions = merges | {neq(x, y) for x, y in data.draw(_pair_subsets(names, 2))}
    ok, contexts = _decide_parts(problem, decisions)
    return merges, decisions, contexts, ok


def test_entailed_by_a_part_matches_asking_every_part(monkeypatch):
    # asked about every pair its merges keep apart, in order, the parts
    # answer as asking each of them directly would; they skip the pairs
    # their models refute without a test
    def check(data, problem, names):
        merges, decisions, contexts, ok = _node(data, problem, names)
        if not ok:
            return
        for pair in _apart_under(merges, names):
            expected = _reference_entailed(problem, decisions, *pair)
            assert _entailed_by_a_part(problem, contexts, *pair) == expected, pair

    assert _most_models_held(monkeypatch, check) >= 2


def test_kept_counter_models_replay(monkeypatch):
    # every model a part keeps at a node satisfies the part's instance
    # under that node's decisions, so it may rule pairs out; so does every
    # model a child node carries over from it
    def replays(problem, contexts):
        return all(
            check_part_witness(problem.solvers[tid], instance, model)
            for tid, (instance, _, models, *_) in contexts.items()
            for model in models
        )

    def check(data, problem, names):
        merges, decisions, contexts, ok = _node(data, problem, names)
        if not ok:
            return
        for x, y in _apart_under(merges, names):
            _entailed_by_a_part(problem, contexts, x, y)
        assert replays(problem, contexts)
        child = decisions | {
            (eq if data.draw(st.booleans()) else neq)(x, y)
            for x, y in data.draw(_pair_subsets(names, 2))
        }
        ok, carried = _decide_parts(problem, child, contexts)
        if ok:
            assert replays(problem, carried)

    assert _most_models_held(monkeypatch, check) >= 2


# A temporal mi/leq part and a point-algebra part over five shared variables
# (SAT).  The search's first witnesses make many pairs equal that no part
# entails; with one witness per part the search makes 27 entailment tests,
# keeping the counter-models cuts that to 6.
MI_PA = """\
theory t1 temporal
relation t1 leq/2 ordertypes 0/0,0/1
relation t1 mi/3 builtin mi
theory t2 point_algebra
atom t1 leq v01 v00
atom t2 lt v02 v03
atom t2 lt v02 v01
atom t1 mi v04 v00 v02
atom t1 leq v03 v00
atom t2 leq v00 v03
atom t1 mi v00 v04 v02
atom t1 mi v00 v04 v03
atom t2 leq v04 v01
atom t1 mi v01 v04 v03
atom t2 leq v02 v01
atom t1 mi v03 v02 v01
"""


def test_counter_models_cut_entailment_tests(monkeypatch):
    problem = combined_problem(parse_problem(MI_PA))
    original = TheorySolver.entails_eq
    calls = {True: 0, False: 0}

    def solve(keep_counter_models):
        def counting(self, inst, x, y, counter_models=None, base=None):
            calls[keep_counter_models] += 1
            kept = counter_models if keep_counter_models else None
            return original(self, inst, x, y, kept, base)

        monkeypatch.setattr(TheorySolver, "entails_eq", counting)
        return solve_complete(problem)

    kept, single = solve(True), solve(False)
    assert kept == single and kept.sat
    assert check_combined_witness(problem, kept)
    assert calls[True] < calls[False]


def _record_questions(monkeypatch) -> list:
    """Log, in call order, each node's pending pairs as ("node", pairs) and
    each entailment question the search asks as ("ask", pair)."""
    log = []
    undecided, entailed = combine._undecided_pairs, combine._entailed_by_a_part

    def listing(decisions, rep, shared):
        pending = undecided(decisions, rep, shared)
        log.append(("node", pending))
        return pending

    def asking(problem, contexts, u, v):
        log.append(("ask", (u, v)))
        return entailed(problem, contexts, u, v)

    monkeypatch.setattr(combine, "_undecided_pairs", listing)
    monkeypatch.setattr(combine, "_entailed_by_a_part", asking)
    return log


def test_search_asks_only_about_the_pair_it_would_branch_on(monkeypatch):
    # a node asks at most once whether a part entails a pair equal, and only
    # about its first pending pair: a merge forced on a later pair would
    # only prune, at the cost of a test
    log = _record_questions(monkeypatch)

    def questions(problem) -> int:
        log.clear()
        solve_complete(problem)
        for i, (event, pair) in enumerate(log):
            if event == "ask":
                assert i and log[i - 1][0] == "node" and log[i - 1][1][0] == pair
        return sum(event == "ask" for event, _ in log)

    assert questions(combined_problem(parse_problem(MI_PA))) > 0
    asked = [0]

    @FILTER_SETTINGS
    @given(_combined_problems())
    def run(drawn):
        asked[0] += questions(drawn[0])

    run()
    assert asked[0] > 0


LINK_FIXTURES = ["pa_eq_link_unsat.qcsp", "pa_neq_link_unsat.qcsp"]


@pytest.mark.parametrize("name", LINK_FIXTURES)
def test_variables_linked_only_by_eq_or_neq_are_shared(name):
    problem = combined_problem(parse_problem((FIXTURES / name).read_text()))
    assert problem.shared == frozenset(problem.instance.variables)
    assert not superpose_bruteforce(problem).sat
    for solve in (solve_auto, solve_complete, solve_convex):
        assert not solve(problem).sat


@pytest.mark.parametrize("name", LINK_FIXTURES)
def test_replay_finds_the_variables_two_witnesses_cover(name):
    # with the linking variables left out of the shared set, each part is
    # decided alone and the search accepts; the replay must still refuse
    problem = combined_problem(parse_problem((FIXTURES / name).read_text()))
    blind = dataclasses.replace(problem, shared=frozenset())
    result = solve_complete(blind)
    assert result.sat
    assert not check_combined_witness(blind, result)
