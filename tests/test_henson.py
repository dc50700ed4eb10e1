"""Reductions between the digraph CSP and its loop-vertex combination."""

import random
from itertools import combinations

from qcsp import combine
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
