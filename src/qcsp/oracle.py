"""Independent brute-force ground truth.

Both deciders state the superposition definition (Nelson & Oppen 1979) by
one enumeration, ``_superpose``: walk the set partitions of the variables,
skip those that break the ``eq``/``neq`` atoms, collapse each block to its
least member, and accept the first partition under which every part passes
its kind's injective check, a model that gives distinct blocks distinct
values.  Equality gives every block its own value, the order kinds take the
first permutation of the blocks that every relational atom allows, and the
henson kinds test the asserted digraph itself.  ``superpose_bruteforce``
runs the loop over the parts of a combined problem and
``brute_decide_theory`` over one part.  ``enumerate_weak_orders``,
re-exported from ``formulas`` with ``BoundExceeded``, builds temporal
relations and feeds tests; no decision here enumerates weak orders.

The solvers in qcsp.theories and qcsp.combine are validated against this
enumeration.  One kernel is shared with them: the henson check tests a
candidate against its forbidden tournaments with
``_kernels.find_induced_embedding``.  That kernel is checked
on its own against a brute-force reference in
``tests/test_kernels.py::test_induced_embedding_matches_brute_force``.
"""

from __future__ import annotations

import os
from itertools import permutations
from typing import Iterable, Iterator, Mapping

from . import _kernels
from .combine import CombinedWitness
from .formulas import EQ, NEQ, REL, Atom, BoundExceeded, Instance, enumerate_weak_orders
from .theories import (
    ContractViolation,
    HensonWitness,
    SolveResult,
    canonical_ranks,
    relation_for_name,
)

PARTITION_BOUND = 10


def default_oracle_bound() -> int:
    """The oracle's variable limit: ``QCSP_ORACLE_BOUND`` when set, else 8.
    The value must be ASCII digits, as the parser reads numbers."""
    raw = os.environ.get("QCSP_ORACLE_BOUND", "8")
    if not (raw.isascii() and raw.isdigit()):
        raise BoundExceeded(f"QCSP_ORACLE_BOUND={raw!r} is not a non-negative integer")
    return int(raw)


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
    relation = relations.get(atom.symbol.name) or relation_for_name(atom.symbol.name)
    if relation is None:
        raise ContractViolation(f"unresolved relation {atom.symbol.name!r}")
    return relation


def _loopless_candidate(
    rep: Mapping[str, str],
    arcs: set[tuple[str, str]],
    b1: bool,
    forbidden,
) -> HensonWitness | None:
    """Check pairwise-distinct realizability of a collapsed edge instance:
    ``rep`` sends each variable to its block's name and ``arcs`` are over
    those names.  The witness assigns every variable its block's vertex.

    Candidate models extend the asserted arcs; since added arcs can only
    create embeddings (asserted arcs persist in every superset) and the age
    is loopless and digon-free, the asserted digraph itself decides.
    """
    loops = sorted({a for a, b in arcs if a == b})
    a_vertex = None
    if loops:
        if not b1 or len(loops) > 1:
            return None
        a_vertex = loops[0]
        for a, b in arcs:
            if (a == a_vertex) != (b == a_vertex):
                return None  # the loop vertex has no arcs to other vertices
    plain = sorted(set(rep.values()) - {a_vertex})
    idx = {v: i for i, v in enumerate(plain)}
    pairs = []
    for a, b in arcs:
        if a == a_vertex:
            continue
        if (b, a) in arcs and a != b:
            return None  # digon between distinct vertices
        pairs.append((idx[a], idx[b]))
    if _kernels.find_induced_embedding(len(plain), pairs, forbidden):
        return None
    loop = None if a_vertex is None else "a"
    assignment = {v: loop if r == a_vertex else f"n_{r}" for v, r in rep.items()}
    named_arcs = frozenset((f"n_{a}", f"n_{b}") for a, b in arcs if a != a_vertex)
    return HensonWitness(assignment, named_arcs, loop)


def _distinct_values(rep: Mapping[str, str]) -> dict[str, int]:
    """Equality's injective check: every block gets its own value."""
    value: dict[str, int] = {}
    return {v: value.setdefault(r, len(value)) for v, r in rep.items()}


def _order_check(atoms: list[tuple[frozenset, tuple[str, ...]]]):
    """The order kinds' injective check over (allowed order types, args)
    pairs: the ranks of the first permutation of the blocks that every
    atom allows."""

    def check(rep: Mapping[str, str]) -> dict[str, int] | None:
        names = sorted(set(rep.values()))
        mapped = [(allowed, tuple(rep[v] for v in args)) for allowed, args in atoms]
        for perm in permutations(range(len(names))):
            rank = dict(zip(names, perm))
            if all(
                canonical_ranks(tuple(rank[v] for v in args)) in allowed
                for allowed, args in mapped
            ):
                return {v: rank[r] for v, r in rep.items()}
        return None

    return check


def _injective_check(kind: str, part: Instance, relations, forbidden):
    """Refuse a part with atoms its kind cannot read, then return the kind's
    injective check of it: given the map sending each of the part's
    variables to its block's least member, a witness over those variables
    that gives distinct blocks distinct values, or None when the collapsed
    part has no such model."""
    rels = [atom for atom in part.atoms if atom.kind == REL]
    if kind == "equality":
        if rels:
            raise ContractViolation("equality oracle got a relational atom")
        return _distinct_values
    if kind in ("point_algebra", "temporal"):
        for atom in rels:
            if kind == "point_algebra" and atom.symbol.name not in ("lt", "leq"):
                raise ContractViolation(
                    f"point algebra oracle got {atom.symbol.name!r}"
                )
        return _order_check([(_resolve(a, relations).allowed, a.args) for a in rels])
    if kind in ("henson", "henson_b1"):
        for atom in rels:
            if atom.symbol.name != "E" or len(atom.args) != 2:
                raise ContractViolation(f"henson oracle got {atom.symbol.name!r}")
        arcs = [atom.args for atom in rels]
        forbidden = tuple(forbidden)
        b1 = kind == "henson_b1"
        return lambda rep: _loopless_candidate(
            rep, {(rep[a], rep[b]) for a, b in arcs}, b1, forbidden
        )
    raise ValueError(f"unknown theory kind {kind!r}")


def _superpose(instance: Instance, parts: Mapping, limit: int | None):
    """The one enumeration: the first partition of the instance's variables
    that meets its eq/neq atoms and whose collapse passes the injective
    check of every part, as ``(blocks, {key: witness})``, or None.  ``parts``
    maps a key to a part and its check; ``limit`` (None reads
    ``QCSP_ORACLE_BOUND``) caps the number of variables."""
    limit = limit if limit is not None else default_oracle_bound()
    variables = instance.variables
    if len(variables) > limit:
        raise BoundExceeded(f"{len(variables)} variables exceed oracle bound {limit}")
    eqs = [a.args for a in instance.atoms if a.kind == EQ]
    neqs = [a.args for a in instance.atoms if a.kind == NEQ]

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
        for key, (part, check) in parts.items():
            witness = check({v: rep[v] for v in part.variables})
            if witness is None:
                break
            witnesses[key] = witness
        else:
            return blocks, witnesses
    return None


def brute_decide_theory(
    kind: str,
    inst: Instance,
    relations: Mapping[str, object] | None = None,
    forbidden: Iterable = (),
    max_vars: int | None = None,
) -> SolveResult:
    """Decide a pure instance as the one-part superposition: its witness
    gives every variable the value of its block."""
    check = _injective_check(kind, inst, relations or {}, forbidden)
    found = _superpose(inst, {kind: (inst, check)}, max_vars)
    if found is None:
        return SolveResult(False)
    return SolveResult(True, found[1][kind])


def superpose_bruteforce(problem, max_vars: int | None = None) -> SolveResult:
    """Definitional ground truth for the combined problem: some partition of
    all variables, consistent with the Eq/Neq atoms, must make every collapsed
    part satisfiable on pairwise-distinct representatives.  A SAT witness
    has the solvers' shape: the partition's blocks as the arrangement and
    each part's model."""
    parts = {}
    for tid, part in problem.parts.items():
        solver = problem.solvers[tid]
        check = _injective_check(solver.kind, part, solver.relations, solver.forbidden)
        parts[tid] = (part, check)
    found = _superpose(problem.instance, parts, max_vars)
    if found is None:
        return SolveResult(False)
    blocks, witnesses = found
    return SolveResult(True, CombinedWitness(arrangement=blocks, part_witnesses=witnesses))
