"""Per-theory solvers: worked examples, witness replay, monotonicity, and
agreement with the brute-force enumerations."""

import ast
import dataclasses
import pathlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qcsp import _kernels

from qcsp.checking import (
    check_henson_witness,
    check_part_witness,
    check_value_witness,
)
from qcsp.analysis import probe_relations
from qcsp.formulas import (
    EQ,
    NEQ,
    Atom,
    Instance,
    RelationSymbol,
    collapse_equalities,
    eq,
    make_instance,
    neq,
    parse_problem,
    rel,
)
from qcsp.oracle import brute_decide_theory
from qcsp.theories import (
    KINDS,
    ContractViolation,
    Digraph,
    HensonWitness,
    TheorySolver,
    WitnessCheckFailed,
    builtin_mi,
    canonical_ranks,
    eq_decide,
    henson_decide,
    pa_decide,
    relation_from_predicate,
    relation_for_name,
    temporal_decide,
    witness_values,
)

LT = RelationSymbol("t1", "lt", 2)
LEQ = RelationSymbol("t1", "leq", 2)
MI = RelationSymbol("t1", "mi", 3)
E = RelationSymbol("t1", "E", 2)
C3 = Digraph(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "a")}))
T3 = Digraph(("a", "b", "c"), frozenset({("a", "b"), ("a", "c"), ("b", "c")}))
MI_RELS = {"mi": builtin_mi()}


def test_eq_decide_examples():
    assert not eq_decide(make_instance([eq("x", "y"), eq("y", "z"), neq("x", "z")])).sat
    result = eq_decide(make_instance([neq("x", "y"), neq("y", "z"), neq("x", "z")]))
    assert result.sat
    assert len(set(result.witness.values())) == 3
    assert eq_decide(make_instance([])).sat


def test_eq_decide_rejects_rel_atoms():
    with pytest.raises(ContractViolation):
        eq_decide(make_instance([rel(LT, "x", "y")]))


def test_eq_block_numbering_deterministic():
    result = eq_decide(make_instance([eq("m", "z"), neq("a", "z")]))
    # classes ordered by least member: {a} then {m, z}
    assert result.witness == {"a": 0, "m": 1, "z": 1}


def test_pa_decide_examples():
    result = pa_decide(make_instance([rel(LT, "x", "y"), rel(LT, "y", "z")]))
    assert result.sat
    assert result.witness == {"x": 0, "y": 1, "z": 2}
    assert not pa_decide(make_instance([rel(LT, "x", "y"), rel(LT, "y", "x")])).sat
    assert not pa_decide(
        make_instance([rel(LEQ, "x", "y"), rel(LEQ, "y", "x"), neq("x", "y")])
    ).sat

    # a leq cycle b -> c -> e -> b folds into one component named b
    cycle = make_instance(
        [
            rel(LEQ, "b", "c"),
            rel(LEQ, "c", "e"),
            rel(LEQ, "e", "b"),
            rel(LT, "e", "d"),
            rel(LEQ, "a", "d"),
            neq("a", "c"),
            rel(LEQ, "f", "b"),
        ]
    )
    result = pa_decide(cycle)
    assert result.witness == {"a": 0, "b": 2, "c": 2, "d": 3, "e": 2, "f": 1}
    equal = {("b", "c"), ("b", "e"), ("c", "e")}
    distinct = {("a", "b"), ("a", "c"), ("a", "e"), ("b", "d"), ("c", "d")}
    distinct |= {("d", "e"), ("d", "f")}
    for x, y in combinations("abcdef", 2):
        expected = EQ if (x, y) in equal else NEQ if (x, y) in distinct else None
        assert result.facts(x, y) == result.facts(y, x) == expected, (x, y)


def test_pa_decide_rejects_other_relations():
    with pytest.raises(ContractViolation):
        pa_decide(make_instance([rel(MI, "x", "y", "z")]))


def _random_pa_instance_with_equalities(rng):
    names = [chr(97 + i) for i in range(rng.randint(2, 7))]
    atoms = [
        rel(rng.choice((LT, LEQ, LEQ)), *rng.sample(names, 2))
        for _ in range(rng.randint(0, 6))
    ]
    run = rng.sample(names, rng.randint(2, len(names)))
    atoms += [eq(x, y) for x, y in zip(run, run[1:])]  # an eq chain
    x, y, z = (rng.choice(names) for _ in range(3))
    atoms += [rel(LEQ, x, y), rel(LEQ, y, z), eq(z, x)]  # eq closing a leq cycle
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.2:
            v = rng.choice(names)
            atoms.append(Atom(NEQ, None, (v, v)))  # reflexive
        else:
            atoms.append(neq(*rng.sample(names, 2)))  # maybe inside one class
    return make_instance(atoms)


def test_pa_decide_takes_eq_atoms_as_arcs_like_a_collapse():
    # one digraph with each eq atom as an arc both ways decides as the
    # instance whose equalities are collapsed first, read back through the
    # variable map: same verdict, witness and facts
    rng = random.Random(191)
    verdicts = {True: 0, False: 0}
    for _ in range(1500):
        inst = _random_pa_instance_with_equalities(rng)
        collapsed, var_map = collapse_equalities(inst)
        # a class joined only by eq atoms still takes a rank of its own
        reps = Instance(collapsed.atoms, tuple(sorted(set(var_map.values()))))
        expected, result = pa_decide(reps), pa_decide(inst)
        assert result.sat == expected.sat, inst
        verdicts[result.sat] += 1
        if not result.sat:
            continue
        assert list(result.witness.items()) == [
            (v, expected.witness[var_map[v]]) for v in inst.variables
        ], inst
        for x in inst.variables:
            for y in inst.variables:
                assert result.facts(x, y) == expected.facts(var_map[x], var_map[y]), (
                    inst, x, y,
                )
    assert min(verdicts.values()) > 100


def test_temporal_decide_examples():
    unsat = make_instance(
        [rel(MI, "x", "y", "z"), rel(LT, "x", "y"), rel(LT, "x", "z")]
    )
    assert not temporal_decide(unsat, MI_RELS).sat

    sat = make_instance(
        [rel(MI, "x", "y", "z"), rel(LEQ, "x", "y"), rel(LEQ, "x", "z")]
    )
    result = temporal_decide(sat, MI_RELS)
    assert result.sat
    assert result.witness["x"] == result.witness["y"]

    four = make_instance(
        [
            rel(MI, "a", "b", "c"),
            rel(MI, "c", "d", "a"),
            rel(LEQ, "a", "b"),
            rel(LEQ, "c", "d"),
            neq("a", "b"),
            neq("c", "d"),
        ]
    )
    assert not temporal_decide(four, MI_RELS).sat


def test_temporal_decide_unresolved_relation():
    other = RelationSymbol("t1", "mystery", 2)
    with pytest.raises(ContractViolation):
        temporal_decide(make_instance([rel(other, "x", "y")]), {})


def test_temporal_handles_repeated_arguments():
    inst = make_instance([rel(MI, "x", "x", "y"), rel(LT, "x", "y")])
    # x >= x holds, so any order with x < y works
    assert temporal_decide(inst, MI_RELS).sat
    inst2 = make_instance([rel(LT, "x", "x")])
    assert not temporal_decide(inst2, MI_RELS).sat


def test_temporal_facts_on_rows_wider_than_a_machine_word():
    # 30 variables put 90 bits in each row of the kernel's root fixpoint
    names = [f"x{i:02d}" for i in range(30)]
    cycle = make_instance([rel(LEQ, x, y) for x, y in zip(names, names[1:] + names[:1])])
    result = temporal_decide(cycle, {})
    assert result.sat and result.classes == dict.fromkeys(names, "x00")
    chain = make_instance([rel(LT, x, y) for x, y in zip(names, names[1:])])
    result = temporal_decide(chain, {})
    assert result.classes == {v: v for v in names}
    assert all(result.distinct(x, y) for x, y in combinations(names, 2))


def test_henson_decide_examples():
    triangle = make_instance(
        [rel(E, "x", "y"), rel(E, "y", "z"), rel(E, "z", "x")]
    )
    assert not henson_decide(triangle, (C3,)).sat
    path = make_instance([rel(E, "x", "y"), rel(E, "y", "z")])
    assert henson_decide(path, (C3,)).sat
    # a digon is never realizable in the loopless digon-free age
    digon = make_instance(
        [rel(E, "x", "y"), rel(E, "y", "x"), rel(E, "y", "z"), rel(E, "z", "x")]
    )
    assert not henson_decide(digon, (C3,)).sat


def test_henson_decide_collapse_and_loops():
    assert not henson_decide(make_instance([rel(E, "x", "x")]), (C3,)).sat
    merged = make_instance([eq("x", "y"), rel(E, "x", "y")])
    assert not henson_decide(merged, (C3,)).sat
    assert not henson_decide(make_instance([eq("x", "y"), neq("x", "y")]), (C3,)).sat


def test_henson_witness_covers_collapsed_variables():
    inst = make_instance([rel(E, "x", "y"), eq("y", "z"), rel(E, "z", "w")])
    result = henson_decide(inst, (C3,))
    assert result.sat
    assert set(result.witness.assignment) == {"w", "x", "y", "z"}
    assert check_henson_witness((C3,), inst, result.witness)


def test_henson_transitive_tournament():
    chain = make_instance([rel(E, "x", "y"), rel(E, "y", "z"), rel(E, "x", "z")])
    assert not henson_decide(chain, (T3,)).sat
    assert henson_decide(chain, (C3,)).sat


def test_entails_eq_examples():
    pa = TheorySolver("t1", "point_algebra", True)
    inst = make_instance([rel(LEQ, "x", "y"), rel(LEQ, "y", "x")])
    assert pa.entails_eq(inst, "x", "y")
    eqs = TheorySolver("t1", "equality", True)
    assert not eqs.entails_eq(make_instance([neq("x", "y")]), "x", "z")
    temporal = TheorySolver("t1", "temporal", False, relations=MI_RELS)
    inst3 = make_instance(
        [rel(MI, "x", "y", "z"), rel(LEQ, "x", "y"), rel(LEQ, "x", "z")]
    )
    assert temporal.entails_eq(inst3, "x", "y")


def test_wrong_kernel_ranks_fail_the_witness_check(monkeypatch):
    # the kernel's answer is replayed against every atom, also under -O,
    # and also when the decide resumes from an earlier result
    inst = make_instance([rel(LT, "x", "y")])
    relations = {}
    first = temporal_decide(inst, relations)
    assert first.witness == {"x": 0, "y": 1}
    starts = []

    def wrong(n, atoms, start=None):
        starts.append(start)
        return (1, 0), None

    monkeypatch.setattr(_kernels, "temporal_search", wrong)
    with pytest.raises(WitnessCheckFailed, match="lt"):
        temporal_decide(inst, relations)
    extended = make_instance([rel(LT, "x", "y"), eq("x", "y")])
    with pytest.raises(WitnessCheckFailed, match="lt"):
        temporal_decide(extended, relations, first)
    assert starts == [None, first.resume.start]


def test_relation_from_predicate():
    full = relation_from_predicate(3, lambda w: True)
    assert len(full.allowed) == 13
    mi = builtin_mi()
    assert len(mi.allowed) == 9
    lt_rel = relation_from_predicate(2, lambda w: w[0] < w[1])
    assert lt_rel.allowed == frozenset({(0, 1)})
    with pytest.raises(ValueError):
        relation_from_predicate(8, lambda w: True)


def test_builtin_mi_matches_rational_sampling():
    # membership agrees with the defining disjunction on sampled triples
    rng = random.Random(3)
    mi = builtin_mi()
    for _ in range(500):
        triple = tuple(rng.randint(0, 4) for _ in range(3))
        x, y, z = triple
        expected = x >= y or x > z
        assert (canonical_ranks(triple) in mi.allowed) == expected


def test_tournament_validation():
    digon = Digraph(("a", "b"), frozenset({("a", "b"), ("b", "a")}))
    assert not digon.is_tournament()
    assert C3.is_tournament() and T3.is_tournament()


def _random_order_instance(rng, n_max=5):
    names = [chr(97 + i) for i in range(rng.randint(1, n_max))]
    atoms = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(["mi", "lt", "leq", "eq", "neq"])
        if kind == "mi":
            atoms.append(rel(MI, *[rng.choice(names) for _ in range(3)]))
        elif kind in ("lt", "leq"):
            symbol = LT if kind == "lt" else LEQ
            atoms.append(rel(symbol, *[rng.choice(names) for _ in range(2)]))
        elif kind == "eq":
            atoms.append(eq(rng.choice(names), rng.choice(names)))
        else:
            atoms.append(neq(rng.choice(names), rng.choice(names)))
    return make_instance(atoms)


def test_temporal_witness_replay_on_random_instances():
    rng = random.Random(17)
    solver = TheorySolver("t1", "temporal", False, relations=MI_RELS)
    for _ in range(500):
        inst = _random_order_instance(rng)
        result = temporal_decide(inst, MI_RELS)
        if result.sat:
            assert check_value_witness(solver, inst, result.witness)


def test_monotonicity_random_instances():
    rng = random.Random(29)
    for _ in range(300):
        inst = _random_order_instance(rng)
        sub_atoms = [a for a in inst.atoms if rng.random() < 0.6]
        sub = make_instance(sub_atoms)
        if not temporal_decide(sub, MI_RELS).sat:
            assert not temporal_decide(inst, MI_RELS).sat


def test_henson_monotonicity_exhaustive_three_vertices():
    names = ["x", "y", "z"]
    pairs = [(a, b) for a in names for b in names if a != b]
    for mask in range(2 ** len(pairs)):
        atoms = [rel(E, *pairs[i]) for i in range(len(pairs)) if mask >> i & 1]
        inst = make_instance(atoms)
        if not henson_decide(inst, (C3,)).sat:
            for extra in pairs:
                bigger = make_instance(atoms + [rel(E, *extra)])
                assert not henson_decide(bigger, (C3,)).sat


def test_pa_agrees_with_temporal_small_slice():
    # full exhaustive agreement runs in the acceptance suite
    rng = random.Random(41)
    for _ in range(400):
        names = [chr(97 + i) for i in range(rng.randint(1, 4))]
        atoms = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(["lt", "leq", "eq", "neq"])
            x, y = rng.choice(names), rng.choice(names)
            if kind in ("lt", "leq"):
                atoms.append(rel(LT if kind == "lt" else LEQ, x, y))
            elif kind == "eq":
                atoms.append(eq(x, y))
            else:
                atoms.append(neq(x, y))
        inst = make_instance(atoms)
        assert pa_decide(inst).sat == temporal_decide(inst, {}).sat


def test_henson_agrees_with_completion_oracle_exhaustive_four():
    names = [f"x{i}" for i in range(4)]
    pairs = [(a, b) for a in names for b in names if a != b]
    for mask in range(2 ** len(pairs)):
        atoms = [rel(E, *pairs[i]) for i in range(len(pairs)) if mask >> i & 1]
        inst = make_instance(atoms)
        solver_sat = henson_decide(inst, (C3,)).sat
        oracle_sat = brute_decide_theory("henson", inst, forbidden=(C3,)).sat
        assert solver_sat == oracle_sat


def test_henson_agrees_with_completion_oracle_sampled_five():
    rng = random.Random(67)
    names = [f"x{i}" for i in range(5)]
    pairs = [(a, b) for a in names for b in names if a != b]
    for _ in range(500):
        mask = rng.randrange(2 ** len(pairs))
        atoms = [rel(E, *pairs[i]) for i in range(len(pairs)) if mask >> i & 1]
        for _ in range(rng.randint(0, 2)):
            atoms.append(neq(*rng.sample(names, 2)))
        inst = make_instance(atoms)
        solver_sat = henson_decide(inst, (C3,)).sat
        oracle_sat = brute_decide_theory("henson", inst, forbidden=(C3,)).sat
        assert solver_sat == oracle_sat


def test_witness_replay_all_solvers():
    rng = random.Random(53)
    pa = TheorySolver("t1", "point_algebra", True)
    eqs = TheorySolver("t1", "equality", True)
    hens = TheorySolver("t1", "henson", False, forbidden=(C3,))
    for _ in range(300):
        names = [chr(97 + i) for i in range(rng.randint(1, 5))]
        eq_atoms = []
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice(["eq", "neq"])
            x, y = rng.choice(names), rng.choice(names)
            eq_atoms.append(eq(x, y) if kind == "eq" else neq(x, y))
        inst = make_instance(eq_atoms)
        result = eq_decide(inst)
        if result.sat:
            assert check_part_witness(eqs, inst, result.witness)

        pa_atoms = list(eq_atoms)
        for _ in range(rng.randint(0, 4)):
            x, y = rng.choice(names), rng.choice(names)
            pa_atoms.append(rel(rng.choice([LT, LEQ]), x, y))
        inst = make_instance(pa_atoms)
        result = pa_decide(inst)
        if result.sat:
            assert check_part_witness(pa, inst, result.witness)

        arc_atoms = []
        for _ in range(rng.randint(0, 5)):
            x, y = rng.choice(names), rng.choice(names)
            arc_atoms.append(rel(E, x, y))
        inst = make_instance(arc_atoms)
        result = henson_decide(inst, (C3,))
        if result.sat:
            assert check_part_witness(hens, inst, result.witness)


# Entailed facts: every decide reports shared (dis)equalities, a sound subset
BETWEEN = relation_from_predicate(3, lambda w: w[0] < w[1] < w[2] or w[2] < w[1] < w[0])
FACT_RELS = {"mi": builtin_mi(), "between": BETWEEN}
BETWEEN1 = RelationSymbol("t1", "between", 3)
FACT_SOLVERS = {
    "equality": TheorySolver("t1", "equality", True),
    "point_algebra": TheorySolver("t1", "point_algebra", True),
    "temporal": TheorySolver("t1", "temporal", False, relations=FACT_RELS),
    "henson": TheorySolver("t1", "henson", False, forbidden=(C3,)),
}
FACT_SYMBOLS = {
    "equality": (),
    "point_algebra": (LT, LEQ),
    "temporal": (LT, LEQ, MI, BETWEEN1),
    "henson": (E,),
}


def _random_fact_instance(rng, kind):
    names = [chr(97 + i) for i in range(rng.randint(2, 5))]
    atoms = []
    for _ in range(rng.randint(1, 7)):
        symbol = rng.choice(FACT_SYMBOLS[kind] + ("eq", "neq"))
        if symbol in ("eq", "neq"):
            x, y = rng.sample(names, 2)
            atoms.append(eq(x, y) if symbol == "eq" else neq(x, y))
        else:
            atoms.append(rel(symbol, *[rng.choice(names) for _ in range(symbol.arity)]))
    return make_instance(atoms)


@pytest.mark.parametrize("kind", sorted(FACT_SOLVERS))
def test_reported_facts_are_entailed(kind):
    # an equal fact passes entails_eq; a distinct fact makes the instance
    # with x = y added unsatisfiable, by brute force.  The classes cover
    # every variable, each named by its least member
    solver = FACT_SOLVERS[kind]
    rng = random.Random(163)
    found = {EQ: 0, NEQ: 0}
    for _ in range(1000):
        inst = _random_fact_instance(rng, kind)
        result = solver.decide(inst)
        if not result.sat:
            continue
        classes = result.classes
        assert classes.keys() == set(inst.variables), inst
        assert all(classes[c] == c <= v for v, c in classes.items()), inst
        for x, y in combinations(inst.variables, 2):
            fact = result.facts(x, y)
            if fact == EQ:
                assert solver.entails_eq(inst, x, y), (inst, x, y)
            elif fact == NEQ:
                merged = make_instance(set(inst.atoms) | {eq(x, y)})
                assert not brute_decide_theory(
                    kind, merged, relations=FACT_RELS, forbidden=(C3,)
                ).sat, (inst, x, y)
            else:
                assert fact is None
            found[fact] = found.get(fact, 0) + 1
        assert result.facts("a", "unknown") is None
    assert found[EQ] > 0 and found[NEQ] > 0


@pytest.mark.parametrize("kind", ["equality", "point_algebra", "henson"])
def test_partition_kinds_tie_exactly_their_equal_facts(kind):
    # a kind whose facts come from a partition gives two variables one value
    # exactly when it reports them equal, so a pair its witness ties needs no
    # entailment test.  Temporal is left out: its witness may tie a pair its
    # root fixpoint leaves open
    solver = FACT_SOLVERS[kind]
    rng = random.Random(7)
    tied = 0
    for _ in range(2000):
        inst = _random_fact_instance(rng, kind)
        result = solver.decide(inst)
        if not result.sat:
            continue
        values = witness_values(result.witness)
        for x, y in combinations(inst.variables, 2):
            assert (values[x] == values[y]) == (result.facts(x, y) == EQ), (inst, x, y)
            tied += values[x] == values[y]
    assert tied > 0


# Resumed temporal decides: a decide given an earlier result may start from
# that decide's root fixpoint, and returns what a fresh decide returns
def _kernel_starts(monkeypatch) -> list:
    """Record, for every temporal kernel call, whether it resumed."""
    starts = []
    original = _kernels.temporal_search

    def recording(n, atoms, start=None):
        starts.append(start is not None)
        return original(n, atoms, start)

    monkeypatch.setattr(_kernels, "temporal_search", recording)
    return starts


def _assert_same_decide(solver, inst, base):
    """The decide of inst given base equals a fresh one, facts included."""
    warm, cold = solver.decide(inst, base), solver.decide(inst)
    assert warm == cold, (inst, base)
    assert warm.classes == cold.classes, (inst, base)
    for x in inst.variables + ("unknown",):
        for y in inst.variables:
            assert warm.facts(x, y) == cold.facts(x, y), (inst, x, y)
    return warm


def test_resumed_temporal_decide_matches_a_fresh_one(monkeypatch):
    # on 1000 satisfiable instances, chains of two or three extensions,
    # each by one to three eq/neq atoms over the instance's variables and
    # now and then a reflexive neq
    starts = _kernel_starts(monkeypatch)
    solver = FACT_SOLVERS["temporal"]
    rng = random.Random(167)
    bases = resumed = 0
    while bases < 1000:
        inst = _random_fact_instance(rng, "temporal")
        result = solver.decide(inst)
        bases += result.sat
        for _ in range(rng.randint(2, 3)):
            names = inst.variables
            if not result.sat or len(names) < 2:
                break
            pairs = [rng.sample(names, 2) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.1:
                pairs.append([names[0]] * 2)
            extra = {rng.choice([eq, neq])(x, y) for x, y in pairs}
            inst = make_instance(set(inst.atoms) | extra)
            del starts[:]
            result = _assert_same_decide(solver, inst, result)
            resumed += starts == [True, False]
    assert resumed >= 1000


def test_resume_falls_back_to_a_fresh_decide(monkeypatch):
    starts = _kernel_starts(monkeypatch)
    solver = FACT_SOLVERS["temporal"]
    atoms = {rel(MI, "a", "b", "c"), rel(LEQ, "c", "b"), neq("a", "c")}
    base = solver.decide(make_instance(atoms))
    fallbacks = {
        "a new variable": atoms | {eq("a", "d")},
        "a relational atom": atoms | {rel(LT, "a", "b")},
        "a base atom missing": {rel(MI, "a", "b", "c"), eq("a", "b")},
    }
    for case, fallback in fallbacks.items():
        del starts[:]
        _assert_same_decide(solver, make_instance(fallback), base)
        assert starts == [False, False], case
    # a base decided under other relations, or by another kind
    other = TheorySolver("t1", "temporal", False, relations=dict(FACT_RELS))
    extended = make_instance(atoms | {neq("a", "b")})
    equality = eq_decide(make_instance([neq("a", "c")]))
    for foreign in (other.decide(make_instance(atoms)), equality):
        del starts[:]
        _assert_same_decide(solver, extended, foreign)
        assert starts == [False, False]
    del starts[:]
    _assert_same_decide(solver, extended, base)
    assert starts == [True, False]


# One input form: a theory declaring eq and neq with the order types of the
# builtin ones gives each neutral atom a relational twin
TWIN_PROBLEM = parse_problem(
    """theory t1 temporal
relation t1 lt/2 ordertypes 0/1
relation t1 leq/2 ordertypes 0/0,0/1
relation t1 mi/3 builtin mi
relation t1 eq/2 ordertypes 0/0
relation t1 neq/2 ordertypes 0/1,1/0
"""
)
TWIN_SOLVER = TWIN_PROBLEM.theories["t1"]
TWIN = {"eq": eq, "neq": neq}


def _twin_symbol(name):
    return TWIN_PROBLEM.symbols[("t1", name)]


@st.composite
def _twin_cases(draw):
    """A temporal instance over two to five variables, and one to three
    eq/neq pairs over its variables, a pair repeating a variable now and
    then."""
    names = "abcde"[: draw(st.integers(2, 5))]
    var = st.sampled_from(names)
    atoms = draw(st.lists(st.one_of(
        st.tuples(st.just("mi"), var, var, var),
        st.tuples(st.sampled_from(["lt", "leq"]), var, var),
        st.tuples(st.sampled_from(["eq", "neq"]), var, var),
    ), min_size=1, max_size=6))
    inst = make_instance(
        TWIN[name](*args) if name in TWIN else rel(_twin_symbol(name), *args)
        for name, *args in atoms
    )
    used = st.sampled_from(inst.variables)
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(["eq", "neq"]), used, used), min_size=1, max_size=3
    ))
    return inst, pairs


def test_neutral_atoms_and_their_relational_twins_decide_alike(monkeypatch):
    # path A resumes the base decide with neutral eq/neq atoms added; path B
    # adds their relational twins, which forces a fresh decide; both give
    # one verdict, witness and classes
    starts = _kernel_starts(monkeypatch)
    seen = {"sat": 0, "unsat": 0, "resumed": 0}

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(_twin_cases())
    def run(case):
        inst, pairs = case
        base = TWIN_SOLVER.decide(inst)
        neutral = make_instance(inst.atoms | {TWIN[k](x, y) for k, x, y in pairs})
        twins = make_instance(
            inst.atoms | {rel(_twin_symbol(k), x, y) for k, x, y in pairs}
        )
        del starts[:]
        a = TWIN_SOLVER.decide(neutral, base)
        b = TWIN_SOLVER.decide(twins, base)
        assert starts == [base.sat, False], (inst, pairs)
        assert a.sat == b.sat and a.witness == b.witness, (inst, pairs)
        assert a.classes == b.classes, (inst, pairs)
        seen["sat" if a.sat else "unsat"] += 1
        seen["resumed"] += base.sat

    run()
    assert min(seen.values()) >= 100, seen


# The registry of theory kinds: one small SAT instance per kind
KIND_SOLVERS = {
    "equality": TheorySolver("t1", "equality", True),
    "point_algebra": TheorySolver("t1", "point_algebra", True),
    "temporal": TheorySolver("t1", "temporal", False, relations=MI_RELS),
    "henson": TheorySolver("t1", "henson", False, forbidden=(C3,)),
    "henson_b1": TheorySolver("t1", "henson_b1", False, forbidden=(C3,)),
}
KIND_SAT_INSTANCES = {
    "equality": make_instance([eq("x", "y"), neq("y", "z")]),
    "point_algebra": make_instance([rel(LT, "x", "y"), rel(LEQ, "y", "z")]),
    "temporal": make_instance([rel(MI, "x", "y", "z"), neq("x", "y")]),
    "henson": make_instance([rel(E, "x", "y"), rel(E, "y", "z"), neq("x", "z")]),
    "henson_b1": make_instance(
        [rel(E, "x", "x"), rel(E, "y", "z"), neq("x", "y"), neq("x", "z")]
    ),
}


def test_every_registered_kind_has_a_solver_case():
    assert set(KINDS) == set(KIND_SOLVERS) == set(KIND_SAT_INSTANCES)


@pytest.mark.parametrize("kind", sorted(KIND_SOLVERS))
def test_registered_kind_decides_and_replays(kind):
    solver = KIND_SOLVERS[kind]
    inst = KIND_SAT_INSTANCES[kind]
    result = solver.decide(inst)
    assert result.sat
    assert check_part_witness(solver, inst, result.witness)
    assert brute_decide_theory(
        kind, inst, relations=solver.relations, forbidden=solver.forbidden
    ).sat


def test_henson_b1_decides_through_the_henson_module(monkeypatch):
    # the kind reads component_label_solve off the module at each decide,
    # so a patch of the module attribute (as the tracer makes) takes effect
    from qcsp import henson

    calls = []
    original = henson.component_label_solve

    def recording(inst, forbidden):
        calls.append(inst)
        return original(inst, forbidden)

    monkeypatch.setattr(henson, "component_label_solve", recording)
    inst = KIND_SAT_INSTANCES["henson_b1"]
    assert KIND_SOLVERS["henson_b1"].decide(inst).sat
    assert calls == [inst]


# Replay rejections: the relational, eq and neq atoms of each instance below
# use disjoint variables (the loop variable x aside), so moving the value of
# one end of the eq or neq atom breaks that atom only
REPLAY_RELATIONAL = {
    "equality": [],
    "point_algebra": [rel(LT, "a", "b")],
    "temporal": [rel(MI, "a", "b", "g")],
    "henson": [rel(E, "a", "b")],
    "henson_b1": [rel(E, "a", "b"), rel(E, "x", "x")] + [neq("x", v) for v in "abcdef"],
}


def _with_values(witness, values):
    if isinstance(witness, HensonWitness):
        return dataclasses.replace(witness, assignment=values)
    return values


@pytest.mark.parametrize("kind", sorted(KIND_SOLVERS))
def test_replay_rejects_a_witness_that_breaks_an_atom(kind):
    solver = KIND_SOLVERS[kind]
    inst = make_instance(REPLAY_RELATIONAL[kind] + [eq("c", "d"), neq("e", "f")])
    result = solver.decide(inst)
    assert result.sat
    witness = result.witness
    assert check_part_witness(solver, inst, witness)
    values = dict(witness_values(witness))
    fresh = "fresh" if isinstance(witness, HensonWitness) else max(values.values()) + 1
    # the ends of the eq atom apart, the ends of the neq atom together, or
    # one variable without a value
    edits = [{**values, "d": fresh}, {**values, "f": values["e"]}]
    edits += [{u: x for u, x in values.items() if u != v} for v in inst.variables]
    for edited in edits:
        assert not check_part_witness(solver, inst, _with_values(witness, edited)), edited
    if not isinstance(witness, HensonWitness):
        return
    arc = (values["a"], values["b"])
    assert arc in witness.arcs
    broken = [dataclasses.replace(witness, arcs=witness.arcs - {arc})]
    loop = witness.loop_vertex
    if kind == "henson_b1":
        assert loop is not None
        broken += [
            dataclasses.replace(witness, arcs=witness.arcs | {touching})
            for touching in ((loop, values["a"]), (values["c"], loop))
        ]
    for edited in broken:
        assert not check_part_witness(solver, inst, edited), edited


@pytest.mark.parametrize("kind", sorted(KIND_SOLVERS))
def test_probe_relations_read_the_registry(kind):
    solver = KIND_SOLVERS[kind]
    fixed = KINDS[kind].relations
    if fixed is None:  # declared per theory
        fixed = {name: r.arity for name, r in solver.relations.items()}
    assert probe_relations(solver) == sorted(fixed.items())


def test_unknown_kind_fails_at_construction():
    with pytest.raises(ValueError, match="nope"):
        TheorySolver("t1", "nope", True)


@pytest.mark.parametrize("kind", ["equality", "point_algebra", "henson", "henson_b1"])
def test_fixed_relation_kinds_reject_other_relations(kind):
    other = RelationSymbol("t1", "prec", 2)
    inst = make_instance([rel(other, "x", "y")])
    with pytest.raises(ContractViolation):
        KIND_SOLVERS[kind].decide(inst)
    witness = {"x": 0, "y": 1}
    if kind.startswith("henson"):
        # a digraph witness with the atom's arc, so the replay must refuse
        # the relation itself
        witness = HensonWitness({"x": "p", "y": "q", "z": "r"}, frozenset({("p", "q")}))
        wide = make_instance([rel(RelationSymbol("t1", "E", 3), "x", "y", "z")])
        with pytest.raises(ContractViolation):
            KIND_SOLVERS[kind].decide(wide)
        assert not check_part_witness(KIND_SOLVERS[kind], wide, witness)
    assert not check_part_witness(KIND_SOLVERS[kind], inst, witness)


@pytest.mark.parametrize("kind", ["equality", "point_algebra", "henson", "henson_b1"])
def test_other_kinds_ignore_a_base(kind):
    solver = KIND_SOLVERS[kind]
    inst = KIND_SAT_INSTANCES[kind]
    extended = make_instance(set(inst.atoms) | {neq("y", "w")})
    temporal = FACT_SOLVERS["temporal"].decide(make_instance([neq("y", "w")]))
    for base in (solver.decide(inst), temporal):
        _assert_same_decide(solver, extended, base)


# Kept results: combine takes a part's earlier result as it is when the
# part's witness satisfies the eq/neq atoms a later node or round adds, so
# the decide of the extended instance must return that same result
KEEP_SOLVERS = {**FACT_SOLVERS, "henson_b1": KIND_SOLVERS["henson_b1"]}


@pytest.mark.parametrize("kind", sorted(KEEP_SOLVERS))
def test_decisions_the_witness_satisfies_keep_the_result(kind):
    solver = KEEP_SOLVERS[kind]
    rng = random.Random(179)
    kept = 0
    while kept < 1000:
        inst = _random_fact_instance(rng, "henson" if kind == "henson_b1" else kind)
        result = solver.decide(inst)
        pairs = list(combinations(inst.variables, 2))
        if not result.sat or not pairs:
            continue
        values = witness_values(result.witness)
        added = {
            (eq if values[x] == values[y] else neq)(x, y)
            for x, y in rng.sample(pairs, rng.randint(1, len(pairs)))
        }
        extended = make_instance(set(inst.atoms) | added)
        assert solver.decide(extended) == result, (inst, added)
        kept += 1


def test_theories_imports_nothing_from_the_oracle():
    # the solvers stay apart from the ground truth: the weak-order
    # enumerator they build relations with lives in formulas, and the
    # oracle re-exports it
    import qcsp
    from qcsp import formulas, oracle, theories

    source = pathlib.Path(theories.__file__).read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            if node.level == 1 and node.module is None:
                imported.update("." + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if name.endswith("oracle")}
    assert oracle.enumerate_weak_orders is formulas.enumerate_weak_orders
    assert qcsp.enumerate_weak_orders is formulas.enumerate_weak_orders
    assert oracle.BoundExceeded is qcsp.BoundExceeded is formulas.BoundExceeded
