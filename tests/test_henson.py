"""Reductions between the digraph CSP and its loop-vertex combination."""

import hashlib
import os
import pathlib
import random
import subprocess
import sys
from itertools import combinations

from qcsp import _kernels, combine
from qcsp.combine import CombinedProblem, combined_problem, solve_complete
from qcsp.formulas import (
    NEQ,
    REL,
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
from qcsp.henson import (
    build_s_star,
    component_label_solve,
    fresh_loop_variable,
)
from qcsp.oracle import superpose_bruteforce
from qcsp.theories import (
    Digraph,
    HensonWitness,
    SolveResult,
    TheorySolver,
    check_henson_witness,
    henson_decide,
)

E = RelationSymbol("t1", "E", 2)
C3 = Digraph(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "a")}))
T3 = Digraph(("a", "b", "c"), frozenset({("a", "b"), ("a", "c"), ("b", "c")}))
T4 = Digraph(
    ("a", "b", "c", "d"),
    frozenset({("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")}),
)

B1_SOLVERS = {
    "t1": TheorySolver("t1", "henson_b1", False, forbidden=(C3,)),
    "t2": TheorySolver("t2", "equality", True),
}


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _b1_combined(atoms):
    inst = make_instance(atoms)
    parts, shared = split_by_signature(inst, ["t1", "t2"])
    return CombinedProblem(inst, parts, shared, B1_SOLVERS)


def test_build_s_star_example():
    inst = make_instance([rel(E, "x1", "x2")])
    star = build_s_star(inst)
    assert star.atoms == frozenset(
        {
            rel(E, "x0", "x0"),
            neq("x0", "x1"),
            neq("x0", "x2"),
            rel(E, "x1", "x2"),
        }
    )


def test_build_s_star_empty():
    star = build_s_star(make_instance([]))
    assert star.atoms == frozenset({rel(RelationSymbol("t1", "E", 2), "x0", "x0")})


def test_build_s_star_size():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(2, 6)
        names = [f"x{i+1}" for i in range(n)]
        atoms = set()
        for _ in range(rng.randint(1, 8)):
            x, y = rng.sample(names, 2)
            atoms.add(rel(E, x, y))
        # make sure every variable occurs
        for i in range(n - 1):
            atoms.add(rel(E, names[i], names[i + 1]))
        inst = make_instance(atoms)
        star = build_s_star(inst)
        assert len(star.atoms) == len(inst.atoms) + 1 + len(inst.variables)


def test_build_s_star_symbol_ignores_hash_seed():
    # an instance's atoms iterate in an order that follows string hashing,
    # so each seed runs in its own process
    script = (
        "from qcsp.formulas import RelationSymbol, make_instance, rel\n"
        "from qcsp.henson import build_s_star\n"
        "t1, t2 = RelationSymbol('t1', 'E', 2), RelationSymbol('t2', 'E', 2)\n"
        "star = build_s_star(make_instance([rel(t1, 'a', 'b'), rel(t2, 'b', 'c')]))\n"
        "print(sorted(a.symbol.theory_id for a in star.atoms if a.args == ('x0', 'x0')))\n"
    )
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    outputs = set()
    for seed in range(1, 7):
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)},
        )
        outputs.add(result.stdout)
    assert outputs == {"['t1']\n"}


def test_fresh_variable_avoids_collision():
    inst = make_instance([rel(E, "x0", "y")])
    star = build_s_star(inst)
    fresh = fresh_loop_variable(inst)
    assert fresh not in inst.variables
    assert any(a.args == (fresh, fresh) for a in star.atoms if a.kind == "rel")


def test_component_label_examples():
    two_loops = make_instance(
        [rel(E, "x", "x"), neq("x", "y"), rel(E, "y", "y")]
    )
    assert not component_label_solve(two_loops, (C3,)).sat

    one_loop = make_instance([rel(E, "x", "x"), neq("x", "y")])
    result = component_label_solve(one_loop, (C3,))
    assert result.sat
    assert result.witness.assignment["x"] == "a"
    assert result.witness.assignment["y"] != "a"

    triangle_plus = make_instance(
        [
            rel(E, "x", "y"),
            rel(E, "y", "z"),
            rel(E, "z", "x"),
            neq("x", "w"),
            rel(E, "w", "w"),
        ]
    )
    assert not component_label_solve(triangle_plus, (C3,)).sat


def test_component_label_tests_only_components_with_arcs(monkeypatch):
    # a component without arcs has a loopless solution, so it is never
    # labeled and costs no embedding search; the arc component costs one.
    # The empty digraph omits every tournament, so neither the replay nor
    # henson_decide of the arcless instance calls the kernel either
    calls = []
    original = _kernels.find_induced_embedding

    def counting(n, arcs, tournaments):
        calls.append(n)
        return original(n, arcs, tournaments)

    monkeypatch.setattr(_kernels, "find_induced_embedding", counting)
    no_arcs = make_instance([neq("x", "y"), eq("y", "z"), neq("z", "w")])
    result = component_label_solve(no_arcs, (C3,))
    assert calls == []
    assert result.sat and result.witness.loop_vertex is None
    assert check_henson_witness((C3,), no_arcs, result.witness)
    assert calls == []
    assert henson_decide(no_arcs, (C3,)).sat
    assert calls == []
    with_arc = make_instance([rel(E, "a", "b"), neq("b", "c"), neq("c", "d")])
    assert component_label_solve(with_arc, (C3,)).sat
    assert calls == [2]


def test_component_label_neq_inside_labeled_component():
    triangle = [rel(E, "x", "y"), rel(E, "y", "z"), rel(E, "z", "x")]
    assert component_label_solve(make_instance(triangle), (C3,)).sat
    with_neq = make_instance(triangle + [neq("x", "y")])
    assert not component_label_solve(with_neq, (C3,)).sat


def test_component_label_collapses_equalities():
    inst = make_instance([eq("x", "y"), rel(E, "x", "y")])
    # collapse yields a loop, so the component maps to the loop vertex
    assert component_label_solve(inst, (C3,)).sat
    inst2 = make_instance([eq("x", "y"), rel(E, "x", "y"), neq("y", "z"), rel(E, "z", "z")])
    assert not component_label_solve(inst2, (C3,)).sat


def test_component_label_covers_a_class_with_only_equalities():
    # x and y meet no arc, as when a search node's merged equality reaches
    # a henson_b1 part: they form a component of their own in the witness
    inst = make_instance([rel(E, "a", "b"), eq("x", "y")])
    result = component_label_solve(inst, (C3,))
    assert result.sat
    assert result.witness.assignment["x"] == result.witness.assignment["y"]
    assert check_henson_witness((C3,), inst, result.witness)


def _arc_subsets(names):
    pairs = [(a, b) for a in names for b in names if a != b]
    for mask in range(2 ** len(pairs)):
        yield [rel(E, *pairs[i]) for i in range(len(pairs)) if mask >> i & 1]


def test_round_trip_exhaustive_up_to_four():
    for n in range(1, 5):
        names = [f"x{i+1}" for i in range(n)]
        for atoms in _arc_subsets(names):
            inst = make_instance(atoms)
            direct = henson_decide(inst, (C3,)).sat
            reduced = component_label_solve(build_s_star(inst), (C3,)).sat
            assert direct == reduced


def test_round_trip_transitive_tournament():
    names = ["x1", "x2", "x3", "x4"]
    for atoms in _arc_subsets(names):
        inst = make_instance(atoms)
        direct = henson_decide(inst, (T3,)).sat
        reduced = component_label_solve(build_s_star(inst), (T3,)).sat
        assert direct == reduced


def test_extra_disequalities_preserve_sat_exhaustive_four():
    for n in range(2, 5):
        names = [f"x{i+1}" for i in range(n)]
        all_neqs = [neq(a, b) for a, b in combinations(names, 2)]
        for atoms in _arc_subsets(names):
            inst = make_instance(atoms)
            if any(a.args[0] == a.args[1] for a in inst.atoms):
                continue
            if henson_decide(inst, (C3,)).sat:
                harder = make_instance(list(atoms) + all_neqs)
                assert henson_decide(harder, (C3,)).sat


def test_extra_disequalities_preserve_sat_sampled_five():
    rng = random.Random(77)
    names = [f"x{i+1}" for i in range(5)]
    pairs = [(a, b) for a in names for b in names if a != b]
    all_neqs = [neq(a, b) for a, b in combinations(names, 2)]
    for _ in range(800):
        mask = rng.randrange(2 ** len(pairs))
        atoms = [rel(E, *pairs[i]) for i in range(len(pairs)) if mask >> i & 1]
        inst = make_instance(atoms)
        if henson_decide(inst, (C3,)).sat:
            harder = make_instance(atoms + all_neqs)
            assert henson_decide(harder, (C3,)).sat


def test_component_label_matches_superposition_exhaustive_three():
    names = ["x1", "x2", "x3"]
    neq_pairs = list(combinations(names, 2))
    for atoms in _arc_subsets(names):
        for k in range(0, 4):
            for chosen in combinations(neq_pairs, k):
                instance_atoms = list(atoms) + [neq(*p) for p in chosen]
                problem = _b1_combined(instance_atoms)
                left = component_label_solve(problem.instance, (C3,)).sat
                right = superpose_bruteforce(problem).sat
                assert left == right == solve_complete(problem).sat


def test_component_label_matches_superposition_sampled():
    rng = random.Random(61)
    for n in (4, 5):
        names = [f"x{i+1}" for i in range(n)]
        pairs = [(a, b) for a in names for b in names if a != b]
        neq_pairs = list(combinations(names, 2))
        for _ in range(400):
            mask = rng.randrange(2 ** len(pairs))
            atoms = [rel(E, *pairs[i]) for i in range(len(pairs)) if mask >> i & 1]
            atoms += [neq(*p) for p in rng.sample(neq_pairs, rng.randint(0, 3))]
            problem = _b1_combined(atoms)
            left = component_label_solve(problem.instance, (C3,)).sat
            right = superpose_bruteforce(problem).sat
            assert left == right == solve_complete(problem).sat


def _component_label_by_decides(inst, forbidden) -> SolveResult:
    """Component labeling as first written: collapse the instance, then
    label a component when ``henson_decide`` rejects an instance of its
    arcs alone.  The reference for the arc-set check that replaced it."""
    collapsed, var_map = collapse_equalities(inst)
    arcs, neqs = [], []
    for atom in collapsed.atoms:
        if atom.kind == NEQ:
            if atom.args[0] == atom.args[1]:
                return SolveResult(False)
            neqs.append(atom.args)
        elif atom.kind == REL:
            arcs.append(atom.args)
    reps = sorted(set(var_map.values()))
    components = UnionFind(reps)
    for a, b in arcs:
        components.union(a, b)
    index: dict[str, int] = {}
    comp_of = {
        v: index.setdefault(r, len(index)) for v, r in components.mapping().items()
    }
    comp_atoms = [[] for _ in index]
    for atom in collapsed.atoms:
        if atom.kind == REL:
            comp_atoms[comp_of[atom.args[0]]].append(atom)
    labeled = [
        not henson_decide(make_instance(atoms), forbidden).sat for atoms in comp_atoms
    ]
    for x, y in neqs:
        if labeled[comp_of[x]] and labeled[comp_of[y]]:
            return SolveResult(False)
    assignment = {}
    for v in reps:
        assignment[v] = "a" if labeled[comp_of[v]] else f"n_{v}"
    witness_arcs = {
        (assignment[a], assignment[b]) for a, b in arcs if not labeled[comp_of[a]]
    }
    for original, rep in var_map.items():
        assignment[original] = assignment[rep]
    loop = "a" if any(labeled) else None
    return SolveResult(True, HensonWitness(assignment, frozenset(witness_arcs), loop))


def test_component_label_matches_labeling_by_decides():
    rng = random.Random(2024)
    forbidden_sets = [(C3,), (T4,), (C3, T4)]
    sat = 0
    for trial in range(2000):
        names = [f"x{i}" for i in range(rng.randint(3, 6))]
        atoms = [rel(E, rng.choice(names), rng.choice(names))
                 for _ in range(rng.randint(0, 9))]  # loops and digons included
        for _ in range(rng.randint(0, 2)):
            atoms.append(eq(*rng.sample(names, 2)))
        for _ in range(rng.randint(0, 3)):
            atoms.append(neq(*rng.sample(names, 2)))
        inst = make_instance(atoms)
        forbidden = forbidden_sets[trial % 3]
        result = component_label_solve(inst, forbidden)
        assert result == _component_label_by_decides(inst, forbidden)
        if result.sat:
            sat += 1
            assert check_henson_witness(forbidden, inst, result.witness)
    assert 0 < sat < 2000


def test_single_part_root_decide_builds_no_instance(monkeypatch):
    problem = combined_problem(parse_problem(
        "theory t1 henson forbid a>b,b>c,c>a\n"
        "atom t1 E x y\natom t1 E y z\nneq x z\n"
    ))

    def no_rebuild(atoms):
        raise AssertionError("make_instance called")

    monkeypatch.setattr(combine, "make_instance", no_rebuild)
    assert solve_complete(problem).sat


def _digraph_path_corpus():
    """Every digraph on 1-3 named vertices, loops included, under C3 and
    T3, each alone and with an eq, a neq, and an eq plus a neq added (on
    fewer than three vertices these may be reflexive); then 2,000 seeded
    instances on 4-6 vertices with digons, some loops, eq and neq atoms."""
    for n in (1, 2, 3):
        names = [f"x{i+1}" for i in range(n)]
        pairs = [(a, b) for a in names for b in names]
        x, y, z = names[0], names[1 % n], names[-1]
        extras = ([], [eq(x, z)], [neq(x, z)], [eq(x, y), neq(y, z)])
        for mask in range(2 ** len(pairs)):
            arcs = [rel(E, *pairs[i]) for i in range(len(pairs)) if mask >> i & 1]
            for extra in extras:
                for forbidden in ((C3,), (T3,)):
                    yield make_instance(arcs + extra), forbidden
    rng = random.Random(4242)
    forbidden_sets = [(C3,), (T4,), (C3, T4)]
    for trial in range(2000):
        names = [f"x{i}" for i in range(rng.randint(4, 6))]
        atoms = [rel(E, *rng.sample(names, 2)) for _ in range(rng.randint(0, 8))]
        if rng.random() < 0.15:
            atoms.append(rel(E, *[rng.choice(names)] * 2))
        for _ in range(rng.randint(0, 2)):
            atoms.append(eq(*rng.sample(names, 2)))
        for _ in range(rng.randint(0, 3)):
            atoms.append(neq(*rng.sample(names, 2)))
        yield make_instance(atoms), forbidden_sets[trial % 3]


def _result_record(result: SolveResult):
    if not result.sat:
        return None
    w = result.witness
    names = sorted(set(result.classes.values()))
    return (
        sorted(w.assignment.items()),
        sorted(w.arcs),
        w.loop_vertex,
        sorted(result.classes.items()),
        [result.distinct(a, b) for a in names for b in names if a != b],
    )


# henson_decide, the reduction build_s_star -> component_label_solve and
# component_label_solve of the instance itself on _digraph_path_corpus:
# verdict, witness, classes, and distinct on every ordered pair of class
# names; recorded before the digraph path was rewritten into one pass
DIGRAPH_PATH_DIGEST = (
    "caea366f4acbaf9aa83d11929533ef64019ddfc0d5859e797dda045caa2806bc"
)


def test_digraph_path_results_pinned():
    records = []
    for inst, forbidden in _digraph_path_corpus():
        records.append(_result_record(henson_decide(inst, forbidden)))
        reduced = component_label_solve(build_s_star(inst), forbidden)
        records.append(_result_record(reduced))
        records.append(_result_record(component_label_solve(inst, forbidden)))
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == DIGRAPH_PATH_DIGEST
