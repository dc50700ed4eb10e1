"""Per-theory decision procedures behind a uniform solver contract.

``KINDS`` registers every theory kind: equality (the pure-equality
structure), point_algebra (the order relations lt/leq over a dense order),
temporal (relations given extensionally as sets of allowed order types),
henson (digraphs omitting a fixed set of finite tournaments) and henson_b1
(the same digraphs plus one loop vertex, used by the reduction machinery).
Each record holds the relations the kind fixes, its decide and its witness
replay.  Every decide merges the ``eq`` atoms of its instance itself (point
algebra as arcs, temporal as constraints, the rest by ``merge_equalities``),
so on SAT it returns a replayable witness over every variable of the instance
and, as data keyed by those same names, the facts it reads off its own
fixpoint: the partition of the variables into entailed-equal classes and a
test of which classes are entailed distinct.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple

from . import _kernels
from ._kernels import EQB, GT, LT
from .formulas import (
    EQ,
    NEQ,
    REL,
    Atom,
    ContractViolation,
    Instance,
    UnionFind,
    collapse_equalities,  # bound here for perfbench/spans.py's tracer
    enumerate_weak_orders,
    is_weak_order,
    make_instance,
    merge_equalities,
    neq,
    realizes,
)


class WitnessCheckFailed(RuntimeError):
    """A witness or a constructed instance failed an internal soundness
    check.  The checks are explicit, so they also run under ``python -O``."""


@lru_cache(maxsize=4096)
def canonical_ranks(values: tuple[int, ...]) -> tuple[int, ...]:
    """Rank-compress values to the canonical weak order (contiguous from 0).
    Memoized: witness replay asks for the same few short tuples many times."""
    rank_of = {v: r for r, v in enumerate(sorted(set(values)))}
    return tuple(rank_of[v] for v in values)


@dataclass(frozen=True)
class TemporalRelation:
    """A relation over the dense order, given as its set of allowed order types."""

    arity: int
    allowed: frozenset[tuple[int, ...]]

    def __post_init__(self):
        for ranks in self.allowed:
            if len(ranks) != self.arity or not is_weak_order(ranks):
                raise ValueError(f"bad order type {ranks} for arity {self.arity}")


@dataclass(frozen=True)
class Digraph:
    vertices: tuple[str, ...]
    arcs: frozenset[tuple[str, str]]

    def __post_init__(self):
        for a, b in self.arcs:
            if a not in self.vertices or b not in self.vertices:
                raise ValueError(f"arc ({a},{b}) uses unknown vertex")

    def is_tournament(self) -> bool:
        if len(self.vertices) < 2:
            return False
        for a, b in self.arcs:
            if a == b or (b, a) in self.arcs:
                return False
        expected = len(self.vertices) * (len(self.vertices) - 1) // 2
        return len(self.arcs) == expected


@dataclass(frozen=True)
class HensonWitness:
    """A finite digraph in the age plus a variable-to-vertex assignment."""

    assignment: dict[str, str]
    arcs: frozenset[tuple[str, str]]
    loop_vertex: str | None = None


def witness_values(witness) -> Mapping[str, object]:
    """The value a part witness gives each variable it covers: the integer
    of a block or rank, or the vertex of a henson assignment."""
    if isinstance(witness, HensonWitness):
        return witness.assignment
    return witness or {}


@dataclass(frozen=True)
class SolveResult:
    """A verdict, its witness, and on SAT the entailed facts of the decided
    instance as data.  ``classes`` maps each variable to the least member of
    its class, the variables every model makes equal, and is empty when the
    decide reports nothing; ``distinct(cx, cy)`` holds for two class names
    when no model makes the classes equal.  The facts are a sound subset,
    and ``facts`` is their one reader.  ``resume`` is an opaque token a
    later decide of a larger instance may start from."""

    sat: bool
    witness: object | None = None
    classes: Mapping[str, str] = field(default_factory=dict, compare=False, repr=False)
    distinct: Callable[[str, str], bool] | None = field(
        default=None, compare=False, repr=False
    )
    resume: object | None = field(default=None, compare=False, repr=False)

    @property
    def verdict(self) -> str:
        return "SAT" if self.sat else "UNSAT"

    def facts(self, x: str, y: str) -> str | None:
        """``EQ`` when every model has x = y, ``NEQ`` when none has, and
        None when the decide reported neither or does not know x or y."""
        cx, cy = self.classes.get(x), self.classes.get(y)
        if cx is None or cy is None:
            return None
        if cx == cy:
            return EQ
        return NEQ if self.distinct(cx, cy) else None


UNSAT = SolveResult(False, None)


PREDICATE_ARITY_BOUND = 7


def relation_from_predicate(
    arity: int, predicate: Callable[[tuple[int, ...]], bool]
) -> TemporalRelation:
    """Build a temporal relation extensionally by filtering all weak orders on
    ``arity`` positions through the predicate."""
    if arity > PREDICATE_ARITY_BOUND:
        raise ValueError(
            f"arity {arity} exceeds enumeration bound {PREDICATE_ARITY_BOUND}"
        )
    allowed = frozenset(w for w in enumerate_weak_orders(arity) if predicate(w))
    return TemporalRelation(arity, allowed)


@cache
def builtin_mi() -> TemporalRelation:
    """The ternary relation holding when x >= y or x > z (ranks compare values)."""
    return relation_from_predicate(3, lambda w: w[0] >= w[1] or w[0] > w[2])


_BINARY_RELATIONS = {
    "lt": TemporalRelation(2, frozenset({(0, 1)})),
    "leq": TemporalRelation(2, frozenset({(0, 1), (0, 0)})),
    "eq": TemporalRelation(2, frozenset({(0, 0)})),
    "neq": TemporalRelation(2, frozenset({(0, 1), (1, 0)})),
}


def relation_for_name(name: str) -> TemporalRelation | None:
    return _BINARY_RELATIONS.get(name)


def eq_decide(inst: Instance) -> SolveResult:
    """Equality theory over an infinite domain: UNSAT iff a disequality links
    one equality class to itself."""
    merged = merge_equalities(inst, KINDS["equality"].relations, "equality")
    if merged is None:
        return UNSAT
    rep_of, _, apart = merged
    # blocks are numbered in the order of their least members
    index = {rep: i for i, rep in enumerate(sorted(set(rep_of.values())))}
    witness = {v: index[rep] for v, rep in rep_of.items()}
    return SolveResult(
        True, witness, rep_of, lambda a, b: (a, b) in apart or (b, a) in apart
    )


def pa_decide(inst: Instance) -> SolveResult:
    """Point algebra over lt/leq: contract the strongly connected components
    of the weak-order digraph, each named by its least member, then reject
    strict or disequality atoms that fold into a single component.  One
    pass over the atoms checks their relations, as ``merge_equalities``
    does for the other kinds, and builds the digraph, an ``eq`` atom as an
    arc each way, so no merge of the equalities runs.  The witness ranks
    the components along the topological order that takes the least name
    first.

    Facts: one component entails equal.  Two components are entailed
    distinct when a disequality joins them or a path with a strict edge runs
    from one to the other."""
    fixed = KINDS["point_algebra"].relations
    succ: dict[str, set[str]] = {v: set() for v in inst.variables}
    strict: list[tuple[str, str]] = []
    neqs: list[tuple[str, str]] = []
    for kind, symbol, args in inst.atoms:
        if kind == NEQ:
            neqs.append(args)
            continue
        if kind == REL and fixed.get(symbol.name) != len(args):
            msg = f"point_algebra solver got relation {symbol.name!r}/{len(args)}"
            raise ContractViolation(msg)
        a, b = args
        succ[a].add(b)
        if kind == EQ:
            succ[b].add(a)
        elif symbol.name == "lt":
            strict.append((a, b))

    comp = _components(succ)

    strict_comps = {(comp[a], comp[b]) for a, b in strict}
    neq_comps = {(comp[a], comp[b]) for a, b in neqs}
    if any(ca == cb for ca, cb in strict_comps | neq_comps):
        return UNSAT
    neq_comps |= {(cb, ca) for ca, cb in neq_comps}

    # rank components along a topological order, least name first
    out: dict[str, set[str]] = {c: set() for c in comp.values()}
    indegree = dict.fromkeys(out, 0)
    for a, targets in succ.items():
        ca = comp[a]
        for b in targets:
            cb = comp[b]
            if ca != cb and cb not in out[ca]:
                out[ca].add(cb)
                indegree[cb] += 1
    heap = [c for c, d in indegree.items() if d == 0]
    heapq.heapify(heap)
    rank_of: dict[str, int] = {}
    while heap:
        c = heapq.heappop(heap)
        rank_of[c] = len(rank_of)
        for d in out[c]:
            indegree[d] -= 1
            if indegree[d] == 0:
                heapq.heappush(heap, d)

    witness = {v: rank_of[c] for v, c in comp.items()}
    below: dict[str, set[str]] = {}

    def strictly_below(c: str) -> set[str]:
        """The components a path from c with a strict edge reaches."""
        found = below.get(c)
        if found is None:
            found = below[c] = set()
            plain = {c}
            stack = [(c, False)]
            while stack:
                d, through_strict = stack.pop()
                for e in out[d]:
                    now_strict = through_strict or (d, e) in strict_comps
                    seen = found if now_strict else plain
                    if e not in seen:
                        seen.add(e)
                        stack.append((e, now_strict))
        return found

    def distinct(cx: str, cy: str) -> bool:
        return (
            (cx, cy) in neq_comps
            or cy in strictly_below(cx)
            or cx in strictly_below(cy)
        )

    return SolveResult(True, witness, comp, distinct)


def _components(succ: Mapping[str, set[str]]) -> dict[str, str]:
    """Each node of the digraph ``succ`` mapped to the least member of its
    strongly connected component, by two searches (Sharir 1981): one over
    ``succ`` records the order in which nodes finish, and one over the
    reversed arcs, from the nodes in reverse finish order, reaches exactly
    one component from each node it starts at."""
    finished: list[str] = []
    seen: set[str] = set()
    for root in succ:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    break
            else:
                work.pop()
                finished.append(node)

    pred: dict[str, list[str]] = {v: [] for v in succ}
    for a, targets in succ.items():
        for b in targets:
            pred[b].append(a)
    components = UnionFind(succ)
    seen.clear()
    for root in reversed(finished):
        if root in seen:
            continue
        seen.add(root)
        stack = [root]
        while stack:
            for u in pred[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    components.union(root, u)
                    stack.append(u)
    return components.mapping()


@lru_cache(maxsize=256)
def _atom_patterns(
    relation: TemporalRelation, shape: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The argument-slot pairs an atom of this relation constrains and each
    allowed pattern packed as the kernel takes it, with the status bit pair
    t gets in bits 3t..3t+2.  ``shape[u]`` is the first slot holding the
    same argument as slot u; slots holding the same argument form no pair,
    and patterns that tell them apart are dropped."""
    k = len(shape)
    slots = tuple(
        (u, w) for u in range(k) for w in range(u + 1, k) if shape[u] != shape[w]
    )
    patterns = []
    for p in sorted(relation.allowed):
        if any(p[u] != p[shape[u]] for u in range(k)):
            continue
        packed = 0
        for t, (u, w) in enumerate(slots):
            packed |= (LT if p[u] < p[w] else EQB if p[u] == p[w] else GT) << 3 * t
        patterns.append(packed)
    return slots, tuple(patterns)


class _Resume(NamedTuple):
    """What a later temporal decide resumes from: the decided atoms and
    relations, the index map, and the kernel's root, which already meets
    every atom decided."""

    atoms: frozenset[Atom]
    relations: Mapping[str, TemporalRelation]
    idx: dict[str, int]
    start: tuple


def temporal_decide(
    inst: Instance,
    relations: Mapping[str, TemporalRelation],
    base: SolveResult | None = None,
) -> SolveResult:
    """Branch-and-prune search for a weak order over all variables satisfying
    every atom's order-type set, merging Eq pairs and separating Neq pairs.

    Each relational atom goes to the kernel as variable-index pairs plus the
    allowed patterns of its shape, packed, in the order ``inst.atoms``
    iterates: the kernel's root fixpoint and result do not depend on that
    order (see ``_kernels.pure``).

    Facts are read off the kernel's root fixpoint, one row per variable
    with the status of its pair with variable k in bits 3k..3k+2: a pair
    left at exactly ``=`` is entailed equal, a pair without ``=`` entailed
    distinct.  Path consistency makes exactly ``=`` transitive, and the
    indices follow the sorted variables, so the lowest exact-``=`` field of
    a variable's row is the least member of its class; two classes are
    distinct when the field of their names lacks ``=``.

    ``base`` is an earlier result of this decide.  When inst holds base's
    atoms plus only ``eq``/``neq`` atoms over base's variables, the decide
    keeps base's index map, and the kernel resumes from base's root
    fixpoint with just the added atoms' constraints, which reaches the root
    fixpoint and result of a fresh decide (see ``_kernels.pure``).
    Otherwise (no token, other relations, an atom of base missing, an added
    relational atom or variable) the decide starts afresh, and all of inst's
    atoms count as added.  Either way the witness is replayed against every
    atom of inst.
    """
    prior = base.resume if base is not None else None
    if prior is not None:
        added = inst.atoms - prior.atoms
        idx = prior.idx
        if (
            prior.relations is not relations
            or len(inst.atoms) - len(added) != len(prior.atoms)
            or any(a.kind == REL or not idx.keys() >= set(a.args) for a in added)
        ):
            prior = None
    atoms = []
    if prior is None:
        added = inst.atoms
        idx = {v: i for i, v in enumerate(inst.variables)}
        for atom in inst.atoms:
            if atom.kind != REL:
                continue
            name = atom.symbol.name
            relation = relations.get(name) or relation_for_name(name)
            if relation is None:
                raise ContractViolation(f"unresolved relation {name!r}")
            if relation.arity != len(atom.args):
                raise ContractViolation(f"relation {name!r} arity mismatch")
            args = atom.args
            slots, patterns = _atom_patterns(relation, tuple(map(args.index, args)))
            pairs = tuple([(idx[args[u]], idx[args[w]]) for u, w in slots])
            atoms.append((pairs, patterns))
    n = len(idx)

    constraints = []
    for atom in added:
        if atom.kind == REL:
            continue
        i, j = idx[atom.args[0]], idx[atom.args[1]]
        if atom.kind == NEQ:
            if i == j:
                return UNSAT
            constraints.append((i, j, LT | GT))
        elif i != j:
            constraints.append((i, j, EQB))

    start = prior.start if prior else None
    ranks, root = _kernels.temporal_search(n, tuple(atoms), tuple(constraints), start)
    if ranks is None:
        return UNSAT

    witness = {v: ranks[idx[v]] for v in inst.variables}
    violated = _violated_atom(inst, witness, relations, None)
    if violated is not None:
        raise WitnessCheckFailed(f"temporal witness violates {violated}")
    if not realizes(witness, inst):
        raise WitnessCheckFailed("temporal witness violates an eq or neq atom")
    rows = root[0]
    names = list(idx)
    ones = (1 << 3 * n) // 7  # bit 3k of every field k
    classes = {}
    for v, i in idx.items():
        row = rows[i]
        equal = row >> 1 & ~(row | row >> 2) & ones
        classes[v] = names[((equal & -equal).bit_length() - 1) // 3]

    def distinct(cx: str, cy: str) -> bool:
        return not rows[idx[cx]] >> 3 * idx[cy] & EQB

    resume = _Resume(inst.atoms, relations, idx, root)
    return SolveResult(True, witness, classes, distinct, resume)


def prepare_tournaments(
    forbidden: Iterable[Digraph],
) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The tournaments as the embedding kernel takes them, each set computed
    once while it stays in a small cache."""
    return _prepared(tuple(forbidden))


@lru_cache(maxsize=64)
def _prepared(forbidden: tuple[Digraph, ...]):
    prepared = []
    for t in forbidden:
        order = {v: i for i, v in enumerate(t.vertices)}
        prepared.append(
            (len(t.vertices), tuple(sorted((order[a], order[b]) for a, b in t.arcs)))
        )
    return tuple(prepared)


def arcs_consistent(arcs: set[tuple[str, str]], prepared_forbidden) -> bool:
    """True when the digraph on these arcs has no loop and no digon and
    omits every forbidden tournament (induced match).  The empty digraph
    omits every tournament, so it costs no kernel call."""
    if not arcs:
        return True
    for a, b in arcs:
        if a == b or (b, a) in arcs:
            return False
    idx = {v: i for i, v in enumerate(sorted({v for arc in arcs for v in arc}))}
    pairs = [(idx[a], idx[b]) for a, b in arcs]
    return not _kernels.find_induced_embedding(len(idx), pairs, prepared_forbidden)


def henson_decide(inst: Instance, forbidden: Iterable[Digraph]) -> SolveResult:
    """Satisfiability over the homogeneous digraph omitting the given
    tournaments.  The age is loopless and digon-free, so an instance is
    unsatisfiable exactly when merging its equalities yields a reflexive
    disequality, a loop, a digon, or an embedded forbidden tournament.
    Facts: variables merged onto one vertex are equal; the ends of an arc,
    in either direction, and of a disequality are distinct."""
    merged = merge_equalities(inst, KINDS["henson"].relations, "henson")
    if merged is None:
        return UNSAT
    var_map, arcs, neqs = merged
    if not arcs_consistent(arcs, prepare_tournaments(forbidden)):
        return UNSAT

    def distinct(a: str, b: str) -> bool:
        return any((a, b) in s or (b, a) in s for s in (neqs, arcs))

    # every input variable goes to its class representative's vertex
    return SolveResult(True, HensonWitness(var_map, arcs), var_map, distinct)


def check_value_witness(
    solver: TheorySolver, inst: Instance, values: Mapping[str, int]
) -> bool:
    """Replay an integer-valued witness (blocks or ranks) against every atom."""
    if not isinstance(values, Mapping) or not realizes(values, inst):
        return False
    fixed = KINDS[solver.kind].relations
    return _violated_atom(inst, values, solver.relations, fixed) is None


def _violated_atom(
    inst: Instance,
    values: Mapping[str, int],
    relations: Mapping[str, TemporalRelation],
    fixed: Mapping[str, int] | None,
) -> Atom | None:
    """The first relational atom of inst whose values' order type its
    relation does not allow, or None.  A relation comes from ``relations``
    or else the builtin binary ones; an atom whose name resolves to neither,
    or that ``fixed`` (when not None) does not name, counts as violated."""
    for atom in inst.atoms:
        if atom.kind != REL:
            continue
        name = atom.symbol.name
        relation = relations.get(name) or relation_for_name(name)
        if relation is None or (fixed is not None and name not in fixed):
            return atom
        if canonical_ranks(tuple(values[v] for v in atom.args)) not in relation.allowed:
            return atom
    return None


def check_henson_witness(forbidden, inst: Instance, witness: HensonWitness) -> bool:
    """Replay a digraph witness: every relational atom is an arc of the
    relation the henson kinds fix, atoms hold under the assignment, the loop
    vertex (when present) is isolated from the rest, and the loopless part
    omits every forbidden tournament."""
    if not isinstance(witness, HensonWitness) or not realizes(witness.assignment, inst):
        return False
    fixed = KINDS["henson"].relations
    assignment = witness.assignment
    loop = witness.loop_vertex
    for atom in inst.atoms:
        if atom.kind != REL:
            continue
        if fixed.get(atom.symbol.name) != len(atom.args):
            return False
        a, b = assignment[atom.args[0]], assignment[atom.args[1]]
        if a == loop and b == loop:
            continue  # the loop vertex carries its own edge
        if a == loop or b == loop:
            return False
        if (a, b) not in witness.arcs:
            return False
    if any(loop in arc for arc in witness.arcs):
        return False
    return arcs_consistent(witness.arcs, prepare_tournaments(forbidden))


@dataclass(frozen=True)
class TheorySolver:
    """One declared theory: its kind, read from ``KINDS``, supplies the
    decide; ``relations`` holds the relations a temporal theory declares and
    ``forbidden`` the tournaments a henson theory omits."""

    theory_id: str
    kind: str
    convex: bool
    relations: Mapping[str, TemporalRelation] = field(default_factory=dict)
    forbidden: tuple[Digraph, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown theory kind {self.kind!r}")

    def decide(self, inst: Instance, base: SolveResult | None = None) -> SolveResult:
        """Decide inst.  ``base``, an earlier result of this solver on a
        subset of inst's atoms, may let the decide resume from it; the result
        is the same either way, and kinds other than temporal ignore it."""
        return KINDS[self.kind].decide(self, inst, base)

    def entails_eq(
        self,
        inst: Instance,
        x: str,
        y: str,
        counter_models: list | None = None,
        base: SolveResult | None = None,
    ) -> bool:
        """Whether inst entails x = y, that is, inst with x != y added is
        unsatisfiable.  When it is satisfiable and ``counter_models`` is
        given, the witness separating x and y is appended to that list.
        ``base`` is passed on to the decide of the extended instance."""
        extended = make_instance(set(inst.atoms) | {neq(x, y)})
        result = self.decide(extended, base)
        if result.sat and counter_models is not None:
            counter_models.append(result.witness)
        return not result.sat


def _b1_decide(solver: TheorySolver, inst: Instance, base) -> SolveResult:
    return henson.component_label_solve(inst, solver.forbidden)


class Kind(NamedTuple):
    """What a theory kind is: the relations it fixes, name to arity (None
    when each theory declares its own), its decide, its witness replay and
    the convex flag a declaration of it carries unless it says otherwise.
    The decide also gets an earlier result it may resume from, or None."""

    relations: Mapping[str, int] | None
    decide: Callable[[TheorySolver, Instance, SolveResult | None], SolveResult]
    replay: Callable[[TheorySolver, Instance, object], bool]
    convex: bool


def _replay_henson(solver: TheorySolver, inst: Instance, witness) -> bool:
    return check_henson_witness(solver.forbidden, inst, witness)


KINDS: dict[str, Kind] = {
    "equality": Kind({}, lambda s, inst, _: eq_decide(inst), check_value_witness, True),
    "point_algebra": Kind(
        {"lt": 2, "leq": 2}, lambda s, inst, _: pa_decide(inst), check_value_witness, True
    ),
    "temporal": Kind(
        None,
        lambda s, inst, base: temporal_decide(inst, s.relations, base),
        check_value_witness,
        False,
    ),
    "henson": Kind(
        {"E": 2}, lambda s, inst, _: henson_decide(inst, s.forbidden), _replay_henson, False
    ),
    "henson_b1": Kind({"E": 2}, _b1_decide, _replay_henson, False),
}


# last: henson imports this module, and the henson_b1 kind decides through it
from . import henson  # noqa: E402
