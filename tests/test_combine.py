"""Combination engine: propagation, both solve modes, and oracle agreement."""

import dataclasses
import pathlib
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qcsp import _kernels, combine
from qcsp._kernels import pure
from qcsp.checking import check_combined_witness, check_part_witness
from qcsp.combine import (
    Arrangement,
    _decide_parts,
    _entailed_by_a_part,
    _first_entailed,
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
    collapse_equalities,
    eq,
    make_instance,
    neq,
    parse_problem,
    rel,
    split_by_signature,
)
from qcsp.oracle import superpose_bruteforce
from qcsp.theories import Digraph, TheorySolver, builtin_mi

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
        instance=inst,
        parts=parts,
        shared=frozenset(shared),
        solvers=solvers,
        convex_flags={tid: s.convex for tid, s in solvers.items()},
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
    assert all(problem.convex_flags.values())
    with pytest.raises(ConvexityFlagFalse, match="t1"):
        solve_convex(problem)
    assert not solve_auto(problem).sat
    assert not solve_complete(problem).sat
    assert not superpose_bruteforce(problem).sat


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


def test_arrangement_validation_and_induced_atoms():
    arrangement = Arrangement((("x", "y"), ("z",)))
    induced = arrangement.induced_atoms()
    assert eq("x", "y") in induced
    assert neq("x", "z") in induced and neq("y", "z") in induced
    with pytest.raises(ValueError):
        Arrangement((("x",), ("x",)))


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
    return CombinedProblem(
        inst, parts, shared, {"t1": PA1, "t2": PA2}, {"t1": True, "t2": True}
    )


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
    # a temporal lt chain on a kernel stub that hands back no root state
    # reports no entailed disequality: every pair is decided by branching,
    # and the equal branch fails.  10 shared variables give 45 decided
    # pairs; a search that recursed once per pair would pass a limit only 40
    # frames above the caller
    monkeypatch.setattr(
        _kernels,
        "temporal_search",
        lambda n, atoms, constraints, root=None: pure.temporal_search(
            n, atoms, constraints
        ),
    )
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

    def counting(self, inst, x, y, counter_models=None):
        calls.append((self.theory_id, x, y))
        return original(self, inst, x, y, counter_models)

    monkeypatch.setattr(TheorySolver, "entails_eq", counting)
    result = solve_complete(_chain_problem(10))
    assert result.sat
    assert len(calls) <= 20


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
        collapsed, var_map = collapse_equalities(merged)
        cx, cy = var_map.get(x, x), var_map.get(y, y)
        if cx != cy and problem.solvers[tid].entails_eq(collapsed, cx, cy):
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

    def spying(self, inst, x, y, counter_models=None):
        if counter_models is not None:
            held[0] = max(held[0], len(counter_models))
        return original(self, inst, x, y, counter_models)

    monkeypatch.setattr(TheorySolver, "entails_eq", spying)

    @FILTER_SETTINGS
    @given(st.data())
    def run(data):
        check(data, *data.draw(_combined_problems()))

    run()
    return held[0]


def test_propagate_step_matches_asking_every_part(monkeypatch):
    def check(data, problem, names):
        learned = {eq(x, y) for x, y in data.draw(_pair_subsets(names))}
        found = propagate_step(problem, learned)
        if found is None:
            # a part rejects the learned equalities: the combination is UNSAT
            assert any(
                not problem.solvers[tid].decide(
                    collapse_equalities(make_instance(set(part.atoms) | learned))[0]
                ).sat
                for tid, part in problem.parts.items()
            )
        else:
            assert found == {
                eq(x, y) for x, y in _apart_under(learned, names)
                if _reference_entailed(problem, learned, x, y)
            }

    assert _most_models_held(monkeypatch, check) >= 2


def _node(data, problem, names):
    """Decide the parts under a drawn node: its merges, its distinct pairs,
    the contexts, and whether every part accepts it."""
    merges = {eq(x, y) for x, y in data.draw(_pair_subsets(names, 2))}
    distinct = data.draw(_pair_subsets(names, 2))
    ok, _, contexts = _decide_parts(problem, merges, distinct)
    return merges, distinct, contexts, ok


def test_first_entailed_matches_asking_every_part(monkeypatch):
    def check(data, problem, names):
        merges, distinct, contexts, ok = _node(data, problem, names)
        if not ok:
            return
        node = merges | {neq(x, y) for x, y in distinct}
        pending = _apart_under(merges, names)
        expected = next(
            (p for p in pending if _reference_entailed(problem, node, *p)), None
        )
        assert _first_entailed(problem, contexts, pending) == expected

    assert _most_models_held(monkeypatch, check) >= 2


def test_kept_counter_models_replay(monkeypatch):
    # every model a part keeps at a node satisfies the part's collapsed
    # instance under that node's decisions, so it may rule pairs out
    def check(data, problem, names):
        merges, _, contexts, ok = _node(data, problem, names)
        if not ok:
            return
        for x, y in _apart_under(merges, names):
            _entailed_by_a_part(problem, contexts, x, y)
        for tid, (collapsed, _, _, models, _) in contexts.items():
            for model in models:
                assert check_part_witness(problem.solvers[tid], collapsed, model)

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
        def counting(self, inst, x, y, counter_models=None):
            calls[keep_counter_models] += 1
            kept = counter_models if keep_counter_models else None
            return original(self, inst, x, y, kept)

        monkeypatch.setattr(TheorySolver, "entails_eq", counting)
        return solve_complete(problem)

    kept, single = solve(True), solve(False)
    assert kept == single and kept.sat
    assert check_combined_witness(problem, kept)
    assert calls[True] < calls[False]


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
