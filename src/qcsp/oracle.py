"""Independent brute-force ground truth.

Everything here enumerates finite candidate models directly: weak orders for
the order theories, set partitions for equality patterns, and loop-vertex /
digraph candidates for the henson theories.  The solvers in qcsp.theories and
qcsp.combine are validated against these enumerations; nothing in this module
shares search code with them, and it stays pure Python by design.
"""

from __future__ import annotations

import os
from itertools import permutations
from typing import Iterable, Iterator, Mapping

from .formulas import EQ, NEQ, REL, Atom, Instance, collapse_equalities, make_instance
from .theories import (
    ContractViolation,
    HensonWitness,
    SolveResult,
    canonical_ranks,
    prepare_tournaments,
    relation_for_name,
)

WEAK_ORDER_BOUND = 8
PARTITION_BOUND = 10


class BoundExceeded(ValueError):
    """The requested enumeration is over the configured size limit."""


def default_oracle_bound() -> int:
    """The oracle's variable limit: ``QCSP_ORACLE_BOUND`` when set, else 8."""
    raw = os.environ.get("QCSP_ORACLE_BOUND", "8")
    try:
        bound = int(raw)
    except ValueError:
        raise BoundExceeded(f"QCSP_ORACLE_BOUND={raw!r} is not an integer") from None
    if bound < 0:
        raise BoundExceeded(f"QCSP_ORACLE_BOUND={raw!r} is negative")
    return bound


def enumerate_weak_orders(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every weak order on n positions exactly once, as canonical rank
    lists in lexicographic order."""
    if n < 0 or n > WEAK_ORDER_BOUND:
        raise BoundExceeded(f"weak-order enumeration bound is {WEAK_ORDER_BOUND}")
    if n == 0:
        yield ()
        return
    ranks = [0] * n
    used = [False] * n

    def rec(pos: int, top: int, gaps: int) -> Iterator[tuple[int, ...]]:
        if pos == n:
            if gaps == 0:
                yield tuple(ranks)
            return
        remaining = n - pos - 1
        for v in range(n):
            if used[v]:
                new_top, new_gaps = top, gaps
            elif v > top:
                new_top = v
                new_gaps = gaps + (v - top - 1)
            else:
                new_top = top
                new_gaps = gaps - 1
            if new_gaps > remaining:
                continue
            ranks[pos] = v
            was_used = used[v]
            used[v] = True
            yield from rec(pos + 1, new_top, new_gaps)
            used[v] = was_used
        ranks[pos] = 0

    yield from rec(0, -1, 0)


def enumerate_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every set partition of range(n) exactly once, in restricted
    growth string order."""
    if n < 0 or n > PARTITION_BOUND:
        raise BoundExceeded(f"partition enumeration bound is {PARTITION_BOUND}")
    if n == 0:
        yield ()
        return
    code = [0] * n

    def rec(i: int, top: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(top + 1)]
            for pos, block in enumerate(code):
                blocks[block].append(pos)
            yield tuple(tuple(b) for b in blocks)
            return
        for v in range(top + 2):
            code[i] = v
            yield from rec(i + 1, max(top, v))

    yield from rec(1, 0)


class PartitionIterator:
    """Iterator over all set partitions of a ground set, in restricted growth
    string order; blocks come back as tuples of ground-set elements."""

    def __init__(self, ground_set: Iterable[str]):
        self.ground_set = tuple(ground_set)
        self._inner = enumerate_partitions(len(self.ground_set))

    def __iter__(self):
        return self

    def __next__(self):
        index_blocks = next(self._inner)
        items = self.ground_set
        return tuple(tuple(items[i] for i in block) for block in index_blocks)


def _resolve(atom: Atom, relations: Mapping[str, object]):
    relation = None
    if relations:
        relation = relations.get(atom.symbol.name)
    if relation is None:
        relation = relation_for_name(atom.symbol.name)
    if relation is None:
        raise ContractViolation(f"unresolved relation {atom.symbol.name!r}")
    return relation


def _order_model_satisfies(inst: Instance, relations, ranks: dict[str, int]) -> bool:
    for atom in inst.atoms:
        if atom.kind == REL:
            relation = _resolve(atom, relations)
            if canonical_ranks(tuple(ranks[v] for v in atom.args)) not in relation.allowed:
                return False
        elif atom.kind == EQ:
            if ranks[atom.args[0]] != ranks[atom.args[1]]:
                return False
        else:
            if ranks[atom.args[0]] == ranks[atom.args[1]]:
                return False
    return True


def _brute_order(inst: Instance, relations, all_distinct: bool) -> SolveResult:
    variables = inst.variables
    n = len(variables)
    if all_distinct:
        candidates: Iterable[tuple[int, ...]] = permutations(range(n))
    else:
        candidates = enumerate_weak_orders(n)
    for ranks_tuple in candidates:
        ranks = {v: ranks_tuple[i] for i, v in enumerate(variables)}
        if _order_model_satisfies(inst, relations, ranks):
            return SolveResult(True, ranks)
    return SolveResult(False)


def _brute_equality(inst: Instance, all_distinct: bool) -> SolveResult:
    for atom in inst.atoms:
        if atom.kind == REL:
            raise ContractViolation("equality oracle got a relational atom")
    variables = inst.variables
    if all_distinct:
        candidates: Iterable = [tuple((v,) for v in variables)]
    else:
        candidates = PartitionIterator(variables)
    for blocks in candidates:
        block_of = {v: i for i, block in enumerate(blocks) for v in block}
        ok = True
        for atom in inst.atoms:
            same = block_of[atom.args[0]] == block_of[atom.args[1]]
            if atom.kind == EQ and not same:
                ok = False
                break
            if atom.kind == NEQ and same:
                ok = False
                break
        if ok:
            return SolveResult(True, dict(block_of))
    return SolveResult(False)


def _loopless_candidate(
    variables: tuple[str, ...],
    arcs: set[tuple[str, str]],
    b1: bool,
    prepared_forbidden,
) -> HensonWitness | None:
    """Check pairwise-distinct realizability of a collapsed edge instance.

    Candidate models extend the asserted arcs; since added arcs can only
    create embeddings (asserted arcs persist in every superset) and the age
    is loopless and digon-free, the asserted digraph itself decides.
    """
    from . import _kernels

    loops = sorted({a for a, b in arcs if a == b})
    a_vertex = None
    if loops:
        if not b1 or len(loops) > 1:
            return None
        a_vertex = loops[0]
        for a, b in arcs:
            if (a == a_vertex) != (b == a_vertex):
                return None  # the loop vertex has no arcs to other vertices
    plain = [v for v in variables if v != a_vertex]
    idx = {v: i for i, v in enumerate(plain)}
    n = len(plain)
    adj = bytearray(n * n)
    for a, b in arcs:
        if a == a_vertex:
            continue
        if (b, a) in arcs and a != b:
            return None  # digon between distinct vertices
        adj[idx[a] * n + idx[b]] = 1
    if _kernels.find_induced_embedding(n, adj, prepared_forbidden):
        return None
    assignment = {v: ("a" if v == a_vertex else f"n_{v}") for v in variables}
    named_arcs = frozenset(
        (assignment[a], assignment[b]) for a, b in arcs if a != a_vertex
    )
    return HensonWitness(assignment, named_arcs, "a" if a_vertex else None)


def _brute_henson(
    inst: Instance, forbidden, b1: bool, all_distinct: bool
) -> SolveResult:
    for atom in inst.atoms:
        if atom.kind == REL and (atom.symbol.name != "E" or len(atom.args) != 2):
            raise ContractViolation(f"henson oracle got {atom.symbol.name!r}")
    collapsed, _ = collapse_equalities(inst)
    neqs = []
    arcs: set[tuple[str, str]] = set()
    for atom in collapsed.atoms:
        if atom.kind == NEQ:
            if atom.args[0] == atom.args[1]:
                return SolveResult(False)
            neqs.append(atom.args)
        elif atom.kind == REL:
            arcs.add(atom.args)
    prepared = prepare_tournaments(forbidden)
    variables = collapsed.variables

    if all_distinct:
        witness = _loopless_candidate(variables, arcs, b1, prepared)
        if witness is None:
            return SolveResult(False)
        return SolveResult(True, witness)

    for blocks in PartitionIterator(variables):
        rep = {}
        for block in blocks:
            block_rep = min(block)
            for v in block:
                rep[v] = block_rep
        if any(rep[x] == rep[y] for x, y in neqs):
            continue
        merged_arcs = {(rep[a], rep[b]) for a, b in arcs}
        reps = tuple(sorted({rep[v] for v in variables}))
        witness = _loopless_candidate(reps, merged_arcs, b1, prepared)
        if witness is not None:
            assignment = {v: witness.assignment[rep[v]] for v in variables}
            return SolveResult(
                True, HensonWitness(assignment, witness.arcs, witness.loop_vertex)
            )
    return SolveResult(False)


def brute_decide_theory(
    kind: str,
    inst: Instance,
    relations: Mapping[str, object] | None = None,
    forbidden: Iterable = (),
    all_distinct: bool = False,
    max_vars: int | None = None,
) -> SolveResult:
    """Decide a pure instance by direct model enumeration."""
    limit = max_vars if max_vars is not None else default_oracle_bound()
    if len(inst.variables) > limit:
        raise BoundExceeded(
            f"{len(inst.variables)} variables exceed oracle bound {limit}"
        )
    if kind == "equality":
        return _brute_equality(inst, all_distinct)
    if kind == "point_algebra":
        for atom in inst.atoms:
            if atom.kind == REL and atom.symbol.name not in ("lt", "leq"):
                raise ContractViolation(
                    f"point algebra oracle got {atom.symbol.name!r}"
                )
        return _brute_order(inst, relations or {}, all_distinct)
    if kind == "temporal":
        return _brute_order(inst, relations or {}, all_distinct)
    if kind == "henson":
        return _brute_henson(inst, forbidden, b1=False, all_distinct=all_distinct)
    if kind == "henson_b1":
        return _brute_henson(inst, forbidden, b1=True, all_distinct=all_distinct)
    raise ValueError(f"unknown theory kind {kind!r}")


def _collapse_part(part: Instance, rep: Mapping[str, str]) -> Instance:
    out = []
    for atom in part.atoms:
        if atom.kind == EQ:
            continue
        mapped = tuple(rep[v] for v in atom.args)
        if atom.kind == REL:
            out.append(Atom(REL, atom.symbol, mapped))
        else:
            from .formulas import neq

            out.append(neq(*mapped))
    return make_instance(out)


def superpose_bruteforce(problem, max_vars: int | None = None) -> SolveResult:
    """Definitional ground truth for the combined problem: some partition of
    all variables, consistent with the Eq/Neq atoms, must make every collapsed
    part satisfiable on pairwise-distinct representatives."""
    limit = max_vars if max_vars is not None else default_oracle_bound()
    variables = problem.instance.variables
    if len(variables) > limit:
        raise BoundExceeded(
            f"{len(variables)} variables exceed oracle bound {limit}"
        )
    eqs = [a.args for a in problem.instance.atoms if a.kind == EQ]
    neqs = [a.args for a in problem.instance.atoms if a.kind == NEQ]

    for blocks in PartitionIterator(variables):
        rep: dict[str, str] = {}
        for block in blocks:
            block_rep = min(block)
            for v in block:
                rep[v] = block_rep
        if any(rep[x] != rep[y] for x, y in eqs):
            continue
        if any(rep[x] == rep[y] for x, y in neqs):
            continue
        witnesses = {}
        ok = True
        for tid, part in problem.parts.items():
            solver = problem.solvers[tid]
            collapsed = _collapse_part(part, rep)
            result = brute_decide_theory(
                solver.kind,
                collapsed,
                relations=solver.relations,
                forbidden=solver.forbidden,
                all_distinct=True,
                max_vars=limit,
            )
            if not result.sat:
                ok = False
                break
            witnesses[tid] = result.witness
        if ok:
            block_index = {v: i for i, block in enumerate(blocks) for v in block}
            return SolveResult(True, {"partition": block_index, "parts": witnesses})
    return SolveResult(False)
