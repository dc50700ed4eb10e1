"""Witness replay: every SAT result must replay against every atom it covers.

Witnesses are finite certificates: block indices for equality, ranks in a
weak order for the order theories, and a vertex assignment into a finite
digraph for the henson theories.
"""

from __future__ import annotations

from typing import Mapping

from .formulas import EQ, NEQ, Instance
from .theories import (
    HensonWitness,
    TheorySolver,
    arcs_admissible,
    canonical_ranks,
    prepare_tournaments,
    relation_for_name,
    witness_values,
)


def check_value_witness(
    solver: TheorySolver, inst: Instance, values: Mapping[str, int]
) -> bool:
    """Replay an integer-valued witness (blocks or ranks) against every atom."""
    for atom in inst.atoms:
        if any(v not in values for v in atom.args):
            return False
        if atom.kind == EQ:
            if values[atom.args[0]] != values[atom.args[1]]:
                return False
        elif atom.kind == NEQ:
            if values[atom.args[0]] == values[atom.args[1]]:
                return False
        else:
            if solver.kind == "equality":
                return False
            relation = solver.relations.get(atom.symbol.name) or relation_for_name(
                atom.symbol.name
            )
            if relation is None:
                return False
            if canonical_ranks(tuple(values[v] for v in atom.args)) not in relation.allowed:
                return False
    return True


def check_henson_witness(
    solver_or_forbidden, inst: Instance, witness: HensonWitness
) -> bool:
    """Replay a digraph witness: atoms hold under the assignment, the loop
    vertex (when present) is isolated from the rest, and the loopless part
    omits every forbidden tournament."""
    forbidden = getattr(solver_or_forbidden, "forbidden", solver_or_forbidden)
    assignment = witness.assignment
    loop = witness.loop_vertex
    for atom in inst.atoms:
        if any(v not in assignment for v in atom.args):
            return False
        if atom.kind == EQ:
            if assignment[atom.args[0]] != assignment[atom.args[1]]:
                return False
        elif atom.kind == NEQ:
            if assignment[atom.args[0]] == assignment[atom.args[1]]:
                return False
        else:
            a, b = assignment[atom.args[0]], assignment[atom.args[1]]
            if a == loop and b == loop:
                continue  # the loop vertex carries its own edge
            if a == loop or b == loop:
                return False
            if (a, b) not in witness.arcs:
                return False
    vertices = tuple(sorted({v for arc in witness.arcs for v in arc}))
    for a, b in witness.arcs:
        if a == loop or b == loop or a == b:
            return False
        if (b, a) in witness.arcs:
            return False
    prepared = prepare_tournaments(forbidden)
    return arcs_admissible(vertices, set(witness.arcs), prepared)


def check_part_witness(solver: TheorySolver, inst: Instance, witness) -> bool:
    if isinstance(witness, HensonWitness):
        return check_henson_witness(solver, inst, witness)
    if isinstance(witness, Mapping):
        return check_value_witness(solver, inst, witness)
    return False


def check_combined_witness(problem, result) -> bool:
    """Replay a combined witness: each part's atoms against its own witness,
    and each part's values realize the arrangement exactly on the shared
    variables (equal inside a block, distinct across blocks)."""
    if not result.sat:
        return False
    witness = result.witness
    block_of: dict[str, int] = {}
    for index, block in enumerate(witness.arrangement):
        for v in block:
            block_of[v] = index
    for tid, part in problem.parts.items():
        part_witness = witness.part_witnesses[tid]
        if not check_part_witness(problem.solvers[tid], part, part_witness):
            return False
        values = witness_values(part_witness)
        shared_here = [v for v in problem.shared if v in values]
        for i in range(len(shared_here)):
            for j in range(i + 1, len(shared_here)):
                u, v = shared_here[i], shared_here[j]
                same_block = block_of.get(u) == block_of.get(v)
                if same_block != (values[u] == values[v]):
                    return False
    return True
