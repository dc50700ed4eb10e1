"""Differential layer over the whole solver: random combined problems that
mix all four theory kinds, decided by every mode and by the brute-force
oracle, with every witness replayed.  Each part is also decided alone, by
its own decide and by the oracle, and both witnesses replayed.

Budget: ``derandomize=True`` and 1000 examples of at most 6 variables and
at most 3 theories, about 15 s on one core.
"""

import pytest
from hypothesis import given, settings, strategies as st

from qcsp import combine
from qcsp.checking import check_combined_witness, check_part_witness
from qcsp.combine import CombinedProblem, solve_auto, solve_complete, solve_convex
from qcsp.formulas import (
    RelationSymbol,
    UnionFind,
    eq,
    make_instance,
    neq,
    rel,
    split_by_signature,
)
from qcsp.oracle import brute_decide_theory, enumerate_weak_orders, superpose_bruteforce
from qcsp.theories import (
    Digraph,
    SolveResult,
    TemporalRelation,
    TheorySolver,
    builtin_mi,
)

MAX_VARS = 6
C3 = Digraph(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "a")}))
T3 = Digraph(("a", "b", "c"), frozenset({("a", "b"), ("a", "c"), ("b", "c")}))
DIFFERENTIAL_SETTINGS = settings(
    derandomize=True, max_examples=1000, deadline=None, database=None
)


@st.composite
def _theory(draw, tid):
    """A solver and the relation symbols its atoms may use.  A temporal
    theory of lt/leq only is flagged convex; mi or a random order-type set
    make it non-convex."""
    kind = draw(st.sampled_from(["equality", "point_algebra", "temporal", "henson"]))
    if kind == "equality":
        return TheorySolver(tid, kind, True), []
    order = [RelationSymbol(tid, "lt", 2), RelationSymbol(tid, "leq", 2)]
    if kind == "point_algebra":
        return TheorySolver(tid, kind, True), order
    if kind == "henson":
        forbidden = draw(st.sampled_from([(C3,), (T3,), (C3, T3)]))
        return TheorySolver(tid, kind, False, forbidden=forbidden), [
            RelationSymbol(tid, "E", 2)
        ]
    relations = {}
    flavor = draw(st.sampled_from(["order", "mi", "random"]))
    if flavor == "mi":
        relations["mi"] = builtin_mi()
    elif flavor == "random":
        arity = draw(st.integers(2, 3))
        allowed = draw(
            st.sets(st.sampled_from(list(enumerate_weak_orders(arity))), min_size=1)
        )
        relations["r"] = TemporalRelation(arity, frozenset(allowed))
    symbols = order + [RelationSymbol(tid, n, r.arity) for n, r in relations.items()]
    solver = TheorySolver(tid, kind, flavor == "order", relations=relations)
    return solver, symbols


@st.composite
def _mixed_problems(draw):
    theories = [draw(_theory(f"t{k}")) for k in range(1, draw(st.integers(1, 3)) + 1)]
    solvers = {s.theory_id: s for s, _ in theories}
    symbols = [sym for _, syms in theories for sym in syms]
    names = [f"v{i}" for i in range(draw(st.integers(1, MAX_VARS)))]
    atoms = []
    for choice in draw(st.lists(st.sampled_from(symbols + ["eq", "neq"]), max_size=9)):
        arity = 2 if isinstance(choice, str) else choice.arity
        args = draw(st.lists(st.sampled_from(names), min_size=arity, max_size=arity))
        if choice == "eq":
            atoms.append(eq(*args))
        elif choice == "neq":
            atoms.append(neq(*args))
        else:
            atoms.append(rel(choice, *args))
    inst = make_instance(atoms)
    parts, shared = split_by_signature(inst, list(solvers))
    # extra shared variables are sound and give the search more pairs
    shared |= draw(st.frozensets(st.sampled_from(names)))
    return CombinedProblem(inst, parts, shared, solvers)


def _without_facts(decide):
    """The decide with any earlier result to resume from ignored, and its
    facts and resume token dropped: every decide starts afresh."""

    def plain(self, inst, base=None):
        result = decide(self, inst)
        return SolveResult(result.sat, result.witness)

    return plain


def _without_bases(decide_parts):
    """combine._decide_parts with the earlier contexts it may keep, resume
    or carry models from dropped; the parts it is asked to decide are
    passed on."""

    def cold(problem, decisions, bases=None, tids=None):
        return decide_parts(problem, decisions, None, tids)

    return cold


def _recording_bases(decide_parts, seen):
    """combine._decide_parts appending the bases each call gets to seen."""

    def recording(problem, decisions, bases=None, tids=None):
        seen.append(bases)
        return decide_parts(problem, decisions, bases, tids)

    return recording


def _recording_passes(propagate_step, seen, passes):
    """combine.propagate_step appending to passes, for each pass that
    starts with the shared variables in two classes or more, and so decides
    a part, how many calls seen gained during it."""

    def recording(problem, learned, contexts=None):
        before = len(seen)
        found = propagate_step(problem, learned, contexts)
        classes = UnionFind(problem.shared)
        for atom in learned:
            classes.union(*atom.args)
        if len(set(classes.mapping().values())) > 1:
            passes.append(len(seen) - before)
        return found

    return recording


def test_all_modes_agree_with_the_oracle_and_replay():
    reached = {"sat": 0, "unsat": 0, "convex": 0, "henson+temporal": 0}

    @DIFFERENTIAL_SETTINGS
    @given(_mixed_problems())
    def run(problem):
        expected = superpose_bruteforce(problem, max_vars=MAX_VARS).sat
        results = {"complete": solve_complete(problem), "auto": solve_auto(problem)}
        if all(s.convex for s in problem.solvers.values()):
            results["convex"] = solve_convex(problem)
            reached["convex"] += 1
        for mode, result in results.items():
            assert result.sat == expected, mode
            if result.sat:
                assert check_combined_witness(problem, result), mode
        for tid, part in problem.parts.items():
            solver = problem.solvers[tid]
            oracle = brute_decide_theory(
                solver.kind,
                part,
                relations=solver.relations,
                forbidden=solver.forbidden,
                max_vars=MAX_VARS,
            )
            alone = solver.decide(part)
            assert alone.sat == oracle.sat, tid
            for result in (alone, oracle):
                if result.sat:
                    assert check_part_witness(solver, part, result.witness), tid
        # with the reported facts ignored the search branches on every pair
        # it could have read off, and with every part decided afresh at
        # every node and pass, rather than resumed or kept from an earlier
        # node or pass, both modes must still return the same witness
        seen, passes = [], []
        cold = _without_bases(_recording_bases(combine._decide_parts, seen))
        step = _recording_passes(combine.propagate_step, seen, passes)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TheorySolver, "decide", _without_facts(TheorySolver.decide))
            patch.setattr(combine, "_decide_parts", cold)
            patch.setattr(combine, "propagate_step", step)
            assert solve_complete(problem) == results["complete"]
            if "convex" in results:
                assert solve_convex(problem) == results["convex"]
        # no node, convex pass or final check of the cold runs got a context
        # to keep, resume or carry models from, and every convex pass that
        # decided a part did so through the recorded calls
        assert seen and all(bases is None for bases in seen)
        assert all(passes)
        reached["sat" if expected else "unsat"] += 1
        kinds = {s.kind for s in problem.solvers.values()}
        reached["henson+temporal"] += {"henson", "temporal"} <= kinds

    run()
    assert min(reached.values()) >= 20, reached
