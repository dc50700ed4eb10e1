"""Reductions between a forbidden-tournament digraph CSP and its combination
with the equality theory.

The upward reduction attaches a fresh loop variable and separates it from
everything else; the downward reduction labels weakly connected components
whose edge constraints are unsatisfiable in the loopless digraph and rejects
exactly when a disequality joins two labeled components.
"""

from __future__ import annotations

from .formulas import (
    REL,
    Atom,
    Instance,
    RelationSymbol,
    UnionFind,
    collapse_equalities,  # bound here for perfbench/spans.py's tracer
    make_instance,
    neq,
)
from .theories import (
    HensonWitness,
    SolveResult,
    WitnessCheckFailed,
    arcs_consistent,
    check_relations,
    henson_decide,  # bound here for perfbench/spans.py's tracer
    henson_graph,
    prepare_tournaments,
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
    graph = henson_graph(inst)
    if graph is None:
        return SolveResult(False)
    var_map, arcs, neqs = graph

    # a class whose every atom is an equality is a component of its own
    reps = sorted(set(var_map.values()))
    components = UnionFind(reps)
    for a, b in arcs:
        components.union(a, b)
    index: dict[str, int] = {}
    comp_of = {
        v: index.setdefault(r, len(index)) for v, r in components.mapping().items()
    }
    comp_arcs: list[set[tuple[str, str]]] = [set() for _ in index]
    for arc in arcs:
        comp_arcs[comp_of[arc[0]]].add(arc)
    prepared = prepare_tournaments(forbidden)
    labeled = [not arcs_consistent(own, prepared) for own in comp_arcs]

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
