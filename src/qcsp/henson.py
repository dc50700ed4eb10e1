"""Reductions between a forbidden-tournament digraph CSP and its combination
with the equality theory.

The upward reduction attaches a fresh loop variable and separates it from
everything else; the downward reduction labels weakly connected components
whose edge constraints are unsatisfiable in the loopless digraph and rejects
exactly when a disequality joins two labeled components.
"""

from __future__ import annotations

from .formulas import (
    NEQ,
    REL,
    Atom,
    Instance,
    RelationSymbol,
    UnionFind,
    collapse_equalities,
    make_instance,
    neq,
)
from .theories import (
    HensonWitness,
    SolveResult,
    WitnessCheckFailed,
    check_relations,
    henson_decide,
)

DEFAULT_E = RelationSymbol("t1", "E", 2)


def fresh_loop_variable(inst: Instance) -> str:
    name = "x0"
    while name in inst.variables:
        name += "_"
    return name


def build_s_star(inst: Instance, e_symbol: RelationSymbol | None = None) -> Instance:
    """Attach a fresh loop variable: the result is the input plus E(x0, x0)
    and x0 != xi for every variable xi of the input."""
    symbol = e_symbol
    if symbol is None:
        for atom in inst.atoms:
            if atom.kind == REL:
                symbol = atom.symbol
                break
        else:
            symbol = DEFAULT_E
    x0 = fresh_loop_variable(inst)
    if x0 in inst.variables:
        raise WitnessCheckFailed(f"loop variable {x0!r} is not fresh")
    atoms = set(inst.atoms)
    atoms.add(Atom(REL, symbol, (x0, x0)))
    for v in inst.variables:
        atoms.add(neq(x0, v))
    return make_instance(atoms)


def component_label_solve(inst: Instance, forbidden) -> SolveResult:
    """Decide the combined loop-vertex/equality problem by component labeling.

    A component whose edge constraints have no loopless solution can only be
    mapped to the loop vertex, so a disequality with both ends in labeled
    components is a contradiction; everything else is satisfiable.
    """
    check_relations(inst, "henson_b1")
    collapsed, var_map = collapse_equalities(inst)
    arcs = []
    neqs = []
    for atom in collapsed.atoms:
        if atom.kind == NEQ:
            if atom.args[0] == atom.args[1]:
                return SolveResult(False)
            neqs.append(atom.args)
        elif atom.kind == REL:
            arcs.append(atom.args)

    # a class whose every atom is an equality is a component of its own
    reps = sorted(set(var_map.values()))
    components = UnionFind(reps)
    for a, b in arcs:
        components.union(a, b)
    index: dict[str, int] = {}
    comp_of = {
        v: index.setdefault(r, len(index)) for v, r in components.mapping().items()
    }
    n_comps = len(index)
    comp_atoms: list[list[Atom]] = [[] for _ in range(n_comps)]
    for atom in collapsed.atoms:
        if atom.kind == REL:
            comp_atoms[comp_of[atom.args[0]]].append(atom)

    labeled = [
        not henson_decide(make_instance(atoms), forbidden).sat
        for atoms in comp_atoms
    ]

    for x, y in neqs:
        if labeled[comp_of[x]] and labeled[comp_of[y]]:
            return SolveResult(False)

    assignment = {}
    witness_arcs = set()
    any_labeled = any(labeled)
    for v in reps:
        assignment[v] = "a" if labeled[comp_of[v]] else f"n_{v}"
    for a, b in arcs:
        if not labeled[comp_of[a]]:
            witness_arcs.add((assignment[a], assignment[b]))
    for original, rep in var_map.items():
        assignment[original] = assignment[rep]
    witness = HensonWitness(
        assignment, frozenset(witness_arcs), "a" if any_labeled else None
    )
    return SolveResult(True, witness)
