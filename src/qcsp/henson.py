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
    collapse_equalities,  # bound here for perfbench/spans.py's tracer
    make_instance,  # bound here for perfbench/spans.py's tracer
    merge_equalities,
    neq,
)
from .theories import (
    KINDS,
    UNSAT,
    HensonWitness,
    SolveResult,
    WitnessCheckFailed,
    arcs_consistent,
    henson_decide,  # bound here for perfbench/spans.py's tracer
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
    and x0 != xi for every variable xi of the input.  Without ``e_symbol``
    the loop takes the input's least relation symbol (else ``t1.E``), so the
    choice does not follow the set's iteration order."""
    symbol = e_symbol or min(
        (atom.symbol for atom in inst.atoms if atom.kind == REL), default=DEFAULT_E
    )
    x0 = fresh_loop_variable(inst)
    if x0 in inst.variables:
        raise WitnessCheckFailed(f"loop variable {x0!r} is not fresh")
    added = [Atom(REL, symbol, (x0, x0))]
    added += [neq(x0, v) for v in inst.variables]
    return Instance(inst.atoms.union(added), tuple(sorted((*inst.variables, x0))))


def component_label_solve(inst: Instance, forbidden) -> SolveResult:
    """Decide the combined loop-vertex/equality problem by component labeling.

    A component whose edge constraints have no loopless solution can only be
    mapped to the loop vertex, so a disequality with both ends in labeled
    components is a contradiction; everything else is satisfiable.
    """
    merged = merge_equalities(inst, KINDS["henson_b1"].relations, "henson_b1")
    if merged is None:
        return UNSAT
    var_map, arcs, neqs = merged
    # weakly connected components, grown as the arcs are read: each end maps
    # to its component's (ends, arcs), and a join moves the smaller one into
    # the larger; a class no arc touches has a loopless solution: unlabeled
    component: dict[str, tuple[list[str], set[tuple[str, str]]]] = {}
    for arc in arcs:
        a, b = arc
        ca = component.get(a)
        if ca is None:
            ca = component[a] = ([a], set())
        cb = component.get(b)
        if cb is None:
            ca[0].append(b)
            component[b] = ca
        elif cb is not ca:
            if len(ca[0]) < len(cb[0]):
                ca, cb = cb, ca
            ca[0].extend(cb[0])
            ca[1].update(cb[1])
            for v in cb[0]:
                component[v] = ca
        ca[1].add(arc)
    prepared = prepare_tournaments(forbidden)
    on_loop: set[str] = set()
    for v, (ends, own) in component.items():
        # a component is met once at its first end, which a join keeps
        if ends[0] == v and not arcs_consistent(own, prepared):
            on_loop.update(ends)
    for x, y in neqs:
        if x in on_loop and y in on_loop:
            return UNSAT

    assignment = {v: "a" if r in on_loop else f"n_{r}" for v, r in var_map.items()}
    witness_arcs = frozenset((f"n_{a}", f"n_{b}") for a, b in arcs if a not in on_loop)
    witness = HensonWitness(assignment, witness_arcs, "a" if on_loop else None)
    return SolveResult(True, witness)
