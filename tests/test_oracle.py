"""Brute-force oracle: enumerators, counts, per-theory enumeration, and the
superposition ground truth."""

import math
import random

import pytest

from qcsp.checking import check_combined_witness, check_part_witness
from qcsp.combine import CombinedProblem
from qcsp.formulas import (
    RelationSymbol,
    eq,
    make_instance,
    neq,
    rel,
    split_by_signature,
)
from qcsp.oracle import (
    BoundExceeded,
    PartitionIterator,
    brute_decide_theory,
    enumerate_partitions,
    enumerate_weak_orders,
    superpose_bruteforce,
)
from qcsp.theories import ContractViolation, Digraph, TheorySolver, builtin_mi

E = RelationSymbol("t1", "E", 2)
LT = RelationSymbol("t1", "lt", 2)
LEQ = RelationSymbol("t1", "leq", 2)
MI = RelationSymbol("t1", "mi", 3)
C3 = Digraph(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "a")}))


def ordered_bell(n: int) -> int:
    # a(n) = sum_k C(n,k) * a(n-k), a(0) = 1
    values = [1]
    for m in range(1, n + 1):
        values.append(sum(math.comb(m, k) * values[m - k] for k in range(1, m + 1)))
    return values[n]


def bell(n: int) -> int:
    # B(n+1) = sum_k C(n,k) * B(k), B(0) = 1
    values = [1]
    for m in range(n):
        values.append(sum(math.comb(m, k) * values[k] for k in range(m + 1)))
    return values[n]


def test_weak_order_counts_match_recurrence():
    for n in range(0, 7):
        assert sum(1 for _ in enumerate_weak_orders(n)) == ordered_bell(n)


def test_weak_order_small_cases():
    assert list(enumerate_weak_orders(0)) == [()]
    assert list(enumerate_weak_orders(2)) == [(0, 0), (0, 1), (1, 0)]


def test_weak_orders_canonical_and_ordered():
    seen = list(enumerate_weak_orders(4))
    assert len(set(seen)) == len(seen)
    assert seen == sorted(seen)
    for ranks in seen:
        assert set(ranks) == set(range(max(ranks) + 1))


def test_weak_order_bound():
    with pytest.raises(BoundExceeded):
        list(enumerate_weak_orders(9))


def test_partition_counts_match_recurrence():
    for n in range(0, 8):
        assert sum(1 for _ in enumerate_partitions(n)) == bell(n)


def test_partition_small_cases():
    assert list(enumerate_partitions(0)) == [()]
    assert list(enumerate_partitions(2)) == [((0, 1),), ((0,), (1,))]


def test_partition_bound():
    with pytest.raises(BoundExceeded):
        list(enumerate_partitions(11))


def test_partition_iterator_on_names():
    blocks = list(PartitionIterator(("x", "y")))
    assert blocks == [(("x", "y"),), (("x",), ("y",))]


def test_brute_equality():
    assert not brute_decide_theory(
        "equality", make_instance([eq("x", "y"), neq("x", "y")])
    ).sat
    assert brute_decide_theory(
        "equality", make_instance([neq("x", "y"), neq("y", "z")])
    ).sat


def test_brute_temporal_example():
    inst = make_instance(
        [rel(MI, "x", "y", "z"), rel(LT, "x", "y"), rel(LT, "x", "z")]
    )
    assert not brute_decide_theory(
        "temporal", inst, relations={"mi": builtin_mi()}
    ).sat


def test_brute_henson_loop_variants():
    loop = make_instance([rel(E, "x", "x")])
    b1 = brute_decide_theory("henson_b1", loop, forbidden=(C3,))
    assert b1.sat
    assert b1.witness.assignment["x"] == "a"
    assert not brute_decide_theory("henson", loop, forbidden=(C3,)).sat


def test_brute_henson_witness_covers_variables_merged_by_eq():
    # z reaches each instance only through an eq atom, so it is collapsed
    # away; the witness must still give it its block's vertex
    cases = [
        ("henson", [rel(E, "x", "y"), eq("y", "z")]),
        ("henson_b1", [rel(E, "x", "x"), rel(E, "y", "y"), eq("x", "z")]),
    ]
    for kind, atoms in cases:
        inst = make_instance(atoms)
        result = brute_decide_theory(kind, inst, forbidden=(C3,))
        assert result.sat, kind
        assert "z" in result.witness.assignment, kind
        solver = TheorySolver("t1", kind, False, forbidden=(C3,))
        assert check_part_witness(solver, inst, result.witness), kind


def test_brute_refuses_bad_input_before_enumerating():
    # neq(x, x) alone admits no partition: each refusal must come first
    contradiction = [neq("x", "x")]
    with pytest.raises(ValueError):
        brute_decide_theory("mystery", make_instance(contradiction))
    unfixed = [
        ("equality", rel(LT, "x", "y")),
        ("point_algebra", rel(MI, "x", "y", "z")),
        ("temporal", rel(MI, "x", "y", "z")),
        ("henson", rel(LT, "x", "y")),
        ("henson_b1", rel(LT, "x", "y")),
    ]
    for kind, atom in unfixed:
        with pytest.raises(ContractViolation):
            brute_decide_theory(kind, make_instance(contradiction + [atom]))
    too_many = make_instance(contradiction + [neq("x", f"v{i}") for i in range(3)])
    for kind in ("equality", "point_algebra", "temporal", "henson", "henson_b1"):
        with pytest.raises(BoundExceeded):
            brute_decide_theory(kind, too_many, max_vars=3)


def test_brute_bound_override():
    inst = make_instance([neq(f"v{i}", f"v{i+1}") for i in range(9)])
    with pytest.raises(BoundExceeded):
        brute_decide_theory("equality", inst)
    assert brute_decide_theory("equality", inst, max_vars=10).sat


def test_brute_unknown_kind():
    with pytest.raises(ValueError):
        brute_decide_theory("mystery", make_instance([]))


def _combined(atoms, solvers):
    inst = make_instance(atoms)
    parts, shared = split_by_signature(inst, list(solvers))
    return CombinedProblem(inst, parts, shared, solvers)


def test_superpose_examples():
    pa1 = TheorySolver("t1", "point_algebra", True)
    pa2 = TheorySolver("t2", "point_algebra", True)
    lt2 = RelationSymbol("t2", "lt", 2)

    independent = _combined(
        [rel(LT, "x", "y"), rel(lt2, "y", "x")], {"t1": pa1, "t2": pa2}
    )
    assert superpose_bruteforce(independent).sat

    eq2 = TheorySolver("t2", "equality", True)
    leq1 = RelationSymbol("t1", "leq", 2)
    forced = _combined(
        [rel(leq1, "x", "y"), rel(leq1, "y", "x"), neq("x", "y")],
        {"t1": pa1, "t2": eq2},
    )
    assert not superpose_bruteforce(forced).sat

    empty = _combined([], {"t1": pa1, "t2": eq2})
    assert superpose_bruteforce(empty).sat


def test_superpose_bound():
    pa1 = TheorySolver("t1", "point_algebra", True)
    eq2 = TheorySolver("t2", "equality", True)
    atoms = [neq(f"v{i}", f"v{i+1}") for i in range(9)]
    problem = _combined(atoms, {"t1": pa1, "t2": eq2})
    with pytest.raises(BoundExceeded):
        superpose_bruteforce(problem)


def test_oracle_bound_env_override(monkeypatch):
    pa1 = TheorySolver("t1", "point_algebra", True)
    eq2 = TheorySolver("t2", "equality", True)
    atoms = [neq(f"v{i}", f"v{i+1}") for i in range(9)]
    problem = _combined(atoms, {"t1": pa1, "t2": eq2})
    monkeypatch.setenv("QCSP_ORACLE_BOUND", "10")
    assert superpose_bruteforce(problem).sat


@pytest.mark.parametrize("kind", ["point_algebra", "henson_b1"])
def test_superpose_witnesses_replay(kind):
    # a SAT witness has the solvers' shape, the partition's blocks as the
    # arrangement and each part's model, so the solvers' replay checks it;
    # t1 is point algebra or the loop-vertex digraphs omitting C3, t2 holds
    # the eq/neq atoms alone
    if kind == "point_algebra":
        t1, symbols = TheorySolver("t1", kind, True), [LT, LEQ]
    else:
        t1, symbols = TheorySolver("t1", kind, False, forbidden=(C3,)), [E]
    solvers = {"t1": t1, "t2": TheorySolver("t2", "equality", True)}
    rng = random.Random(181)
    verdicts = {True: 0, False: 0}
    for _ in range(1500):
        names = [f"v{i}" for i in range(rng.randint(1, 5))]
        atoms = []
        for _ in range(rng.randint(0, 7)):
            x, y = rng.choice(names), rng.choice(names)
            choice = rng.choice(symbols + [eq, neq])
            atoms.append(rel(choice, x, y) if choice in symbols else choice(x, y))
        problem = _combined(atoms, solvers)
        result = superpose_bruteforce(problem)
        if result.sat:
            assert check_combined_witness(problem, result), atoms
        verdicts[result.sat] += 1
    assert min(verdicts.values()) >= 300, verdicts
