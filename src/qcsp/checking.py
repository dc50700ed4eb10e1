"""Witness replay: every SAT result must replay against every atom it covers.

Witnesses are finite certificates: block indices for equality, ranks in a
weak order for the order theories, and a vertex assignment into a finite
digraph for the henson theories.  Each kind's record in ``theories.KINDS``
names the replay of its part witnesses; this module replays combined ones.
"""

from __future__ import annotations

from collections import Counter

from .formulas import Instance
# the part replays live with the kinds; they are re-exported from here
from .theories import (
    KINDS,
    TheorySolver,
    check_henson_witness,
    check_value_witness,
    witness_values,
)


def check_part_witness(solver: TheorySolver, inst: Instance, witness) -> bool:
    return KINDS[solver.kind].replay(solver, inst, witness)


def check_combined_witness(problem, result) -> bool:
    """Replay a combined witness: each part's atoms against its own witness,
    and each part's values realize the arrangement exactly on every variable
    that two part witnesses both cover (equal inside a block, distinct across
    blocks).  Those variables are found from the witnesses, not read from
    ``problem.shared``, so an arrangement that leaves one out fails."""
    if not result.sat:
        return False
    witness = result.witness
    block_of: dict[str, int] = {}
    for index, block in enumerate(witness.arrangement):
        for v in block:
            block_of[v] = index
    part_values = []
    for tid, part in problem.parts.items():
        part_witness = witness.part_witnesses[tid]
        if not check_part_witness(problem.solvers[tid], part, part_witness):
            return False
        part_values.append(witness_values(part_witness))
    covered = Counter(v for values in part_values for v in values)
    common = sorted(v for v, n in covered.items() if n >= 2)
    if any(v not in block_of for v in common):
        return False
    for values in part_values:
        here = [v for v in common if v in values]
        for i in range(len(here)):
            for j in range(i + 1, len(here)):
                u, v = here[i], here[j]
                if (block_of[u] == block_of[v]) != (values[u] == values[v]):
                    return False
    return True
