"""Convexity probe and cross prevention verifier."""

import pytest

from qcsp.analysis import (
    ConvexityWitness,
    check_cross_prevention,
    probe_convexity,
)
from qcsp.formulas import PPFormula, RelationSymbol, make_instance, neq, rel
from qcsp.oracle import BoundExceeded, brute_decide_theory
from qcsp.theories import SolveResult, TheorySolver, builtin_mi, relation_for_name

LT = RelationSymbol("t1", "lt", 2)
LEQ = RelationSymbol("t1", "leq", 2)
MI = RelationSymbol("t1", "mi", 3)

PA = TheorySolver("t1", "point_algebra", True)
EQS = TheorySolver("t1", "equality", True)
TEMPORAL = TheorySolver(
    "t1", "temporal", False,
    relations={"leq": relation_for_name("leq"), "mi": builtin_mi()},
)


def test_cross_prevention_order_formula_passes():
    phi = PPFormula(
        ("x", "y", "u", "v"),
        frozenset(),
        frozenset({rel(LT, "x", "v"), rel(LT, "u", "y")}),
    )
    report = check_cross_prevention(PA, phi)
    assert report.passes()
    assert report.cond1 and report.cond2 and report.cond3
    # each condition is replayable from the attached results
    first, second, third = report.results
    assert first.sat and second.sat and not third.sat


def test_cross_prevention_mutants_fail_condition_one():
    lt_only = PPFormula(
        ("x", "y", "u", "v"), frozenset(), frozenset({rel(LT, "x", "y")})
    )
    report = check_cross_prevention(PA, lt_only)
    assert not report.cond1 and not report.passes()

    neq_only = PPFormula(
        ("x", "y", "u", "v"), frozenset(), frozenset({neq("x", "y")})
    )
    report = check_cross_prevention(PA, neq_only)
    assert not report.cond1 and not report.passes()


def test_cross_prevention_extended_formula_consistent_with_solver():
    phi = PPFormula(
        ("x", "y", "u", "v"),
        frozenset(),
        frozenset({rel(LT, "x", "v"), rel(LT, "u", "y"), rel(LT, "u", "v")}),
    )
    report = check_cross_prevention(PA, phi)
    # replay every condition directly against the solver
    from qcsp.formulas import eq as eq_atom
    from qcsp.theories import pa_decide

    body = set(phi.body)
    cond1 = pa_decide(
        make_instance(body | {eq_atom("x", "y"), neq("x", "u"), neq("x", "v"), neq("u", "v")})
    ).sat
    cond3 = not pa_decide(make_instance(body | {eq_atom("x", "y"), eq_atom("u", "v")})).sat
    assert report.cond1 == cond1
    assert report.cond3 == cond3


def test_cross_prevention_wrong_profile():
    phi = PPFormula(("x", "y"), frozenset(), frozenset())
    with pytest.raises(ValueError):
        check_cross_prevention(PA, phi)


def test_cross_prevention_with_existential_variable():
    # x < a and a < y, with a existential: passes nothing like a cross
    phi = PPFormula(
        ("x", "y", "u", "v"),
        frozenset({"a"}),
        frozenset({rel(LT, "x", "a"), rel(LT, "a", "y")}),
    )
    report = check_cross_prevention(PA, phi)
    assert not report.cond1  # x=y forces x < a < x


def test_probe_equality_finds_nothing():
    assert probe_convexity(EQS, max_vars=4, max_atoms=4) is None


def test_probe_point_algebra_small_bounds_finds_nothing():
    assert probe_convexity(PA, max_vars=3, max_atoms=3) is None


def test_probe_random_mode_is_seed_deterministic():
    first = probe_convexity(
        TEMPORAL, max_vars=4, max_atoms=4, mode="random", count=400, seed=7
    )
    second = probe_convexity(
        TEMPORAL, max_vars=4, max_atoms=4, mode="random", count=400, seed=7
    )
    if first is None:
        assert second is None
    else:
        assert second is not None
        assert first.instance == second.instance
        assert first.pair1 == second.pair1 and first.pair2 == second.pair2


def test_probe_random_mode_can_find_the_mi_violation():
    witness = probe_convexity(
        TEMPORAL, max_vars=4, max_atoms=4, mode="random", count=2000, seed=1
    )
    assert witness is not None
    first, second, both = witness.verdicts
    assert first.sat and second.sat and not both.sat


def test_probe_exhaustive_bound_caps():
    with pytest.raises(BoundExceeded):
        probe_convexity(PA, max_vars=6, max_atoms=4)


def test_known_nonconvexity_witness_replays():
    atoms = [
        rel(MI, "a", "b", "c"),
        rel(MI, "c", "d", "a"),
        rel(LEQ, "a", "b"),
        rel(LEQ, "c", "d"),
    ]
    inst = make_instance(atoms)
    rels = TEMPORAL.relations
    verdicts = []
    for extra in ({neq("a", "b")}, {neq("c", "d")}, {neq("a", "b"), neq("c", "d")}):
        verdicts.append(
            brute_decide_theory("temporal", make_instance(set(atoms) | extra), relations=rels)
        )
    assert verdicts[0].sat and verdicts[1].sat and not verdicts[2].sat
    witness = ConvexityWitness(inst, ("a", "b"), ("c", "d"), tuple(verdicts))
    assert witness.pair1 == ("a", "b")


def test_convexity_witness_validates_verdicts():
    inst = make_instance([rel(LEQ, "a", "b")])
    good = (SolveResult(True), SolveResult(True), SolveResult(False))
    ConvexityWitness(inst, ("a", "b"), ("a", "b"), good)
    with pytest.raises(ValueError):
        ConvexityWitness(
            inst, ("a", "b"), ("a", "b"),
            (SolveResult(True), SolveResult(True), SolveResult(True)),
        )
