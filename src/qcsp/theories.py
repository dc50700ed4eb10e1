"""Per-theory decision procedures behind a uniform solver contract.

``KINDS`` registers every theory kind: equality (the pure-equality
structure), point_algebra (the order relations lt/leq over a dense order),
temporal (relations given extensionally as sets of allowed order types),
henson (digraphs omitting a fixed set of finite tournaments) and henson_b1
(the same digraphs plus one loop vertex, used by the reduction machinery).
Each record holds the relations the kind fixes, its decide and its witness
replay.  Every decide rewrites the ``eq`` atoms of its instance itself, so
on SAT it returns a replayable witness over every variable of the instance
and, keyed by those same names, the (dis)equalities it can read off its own
fixpoint.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple

from . import _kernels
from .formulas import (
    EQ,
    NEQ,
    REL,
    Atom,
    Instance,
    UnionFind,
    collapse_equalities,  # bound here for perfbench/spans.py's tracer
)

LT_BIT = 1
EQ_BIT = 2
GT_BIT = 4


class ContractViolation(ValueError):
    """An instance contains atoms outside the solver's signature."""


class WitnessCheckFailed(RuntimeError):
    """A witness or a constructed instance failed an internal soundness
    check.  The checks are explicit, so they also run under ``python -O``."""


@lru_cache(maxsize=4096)
def canonical_ranks(values: tuple[int, ...]) -> tuple[int, ...]:
    """Rank-compress values to the canonical weak order (contiguous from 0).
    Memoized: witness replay asks for the same few short tuples many times."""
    rank_of = {v: r for r, v in enumerate(sorted(set(values)))}
    return tuple(rank_of[v] for v in values)


def is_weak_order(ranks: tuple[int, ...]) -> bool:
    used = set(ranks)
    return used == set(range(len(used)))


@dataclass(frozen=True)
class TemporalRelation:
    """A relation over the dense order, given as its set of allowed order types."""

    arity: int
    allowed: frozenset[tuple[int, ...]]

    def __post_init__(self):
        for ranks in self.allowed:
            if len(ranks) != self.arity or not is_weak_order(ranks):
                raise ValueError(f"bad order type {ranks} for arity {self.arity}")

    def admits(self, values: tuple[int, ...]) -> bool:
        return canonical_ranks(values) in self.allowed


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


def _no_facts(x: str, y: str) -> str | None:
    return None


@dataclass(frozen=True)
class SolveResult:
    """A verdict, its witness, and on SAT the entailed facts of the decided
    instance: ``facts(x, y)`` is ``EQ`` when every model has x = y, ``NEQ``
    when none has, and None when the solver cannot tell cheaply.  The facts
    are a sound subset, read off lazily, one pair per call.  ``resume`` is
    an opaque token a later decide of a larger instance may start from."""

    sat: bool
    witness: object | None = None
    facts: Callable[[str, str], str | None] = field(
        default=_no_facts, compare=False, repr=False
    )
    resume: object | None = field(default=None, compare=False, repr=False)

    @property
    def verdict(self) -> str:
        return "SAT" if self.sat else "UNSAT"


UNSAT = SolveResult(False, None)


def relation_from_predicate(
    arity: int, predicate: Callable[[tuple[int, ...]], bool], bound: int = 7
) -> TemporalRelation:
    """Build a temporal relation extensionally by filtering all weak orders on
    ``arity`` positions through the predicate."""
    from .oracle import enumerate_weak_orders

    if arity > bound:
        raise ValueError(f"arity {arity} exceeds enumeration bound {bound}")
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


def _partition_facts(
    rep: Mapping[str, str], *apart: set[tuple[str, str]]
) -> Callable[[str, str], str | None]:
    """Facts of a partition: one class entails equal, and a pair of classes
    held, in either order, in one of the ``apart`` sets entails distinct."""

    def facts(x: str, y: str) -> str | None:
        rx, ry = rep.get(x), rep.get(y)
        if rx is None or ry is None:
            return None
        if rx == ry:
            return EQ
        for pairs in apart:
            if (rx, ry) in pairs or (ry, rx) in pairs:
                return NEQ
        return None

    return facts


def eq_decide(inst: Instance) -> SolveResult:
    """Equality theory over an infinite domain: UNSAT iff a disequality links
    one equality class to itself."""
    check_relations(inst, "equality")
    uf = UnionFind(inst.variables)
    for atom in inst.atoms:
        if atom.kind == EQ:
            uf.union(*atom.args)
    rep_of = uf.mapping()
    apart: set[tuple[str, str]] = set()
    for atom in inst.atoms:
        if atom.kind == NEQ:
            a, b = rep_of[atom.args[0]], rep_of[atom.args[1]]
            if a == b:
                return UNSAT
            apart.add((a, b))
    classes: dict[str, list[str]] = {}
    for v in inst.variables:
        classes.setdefault(rep_of[v], []).append(v)
    witness: dict[str, int] = {}
    for index, rep in enumerate(sorted(classes)):
        for v in classes[rep]:
            witness[v] = index
    return SolveResult(True, witness, _partition_facts(rep_of, apart))


def pa_decide(inst: Instance) -> SolveResult:
    """Point algebra over lt/leq: contract strongly connected components of
    the weak-order digraph, then reject strict or disequality atoms that fold
    into a single component.

    Facts: one component entails equal.  Two components are entailed
    distinct when a disequality joins them or a path with a strict edge runs
    from one to the other."""
    check_relations(inst, "point_algebra")
    uf = UnionFind(inst.variables)
    for atom in inst.atoms:
        if atom.kind == EQ:
            uf.union(*atom.args)

    reps = sorted({uf.find(v) for v in inst.variables})
    succ: dict[str, set[str]] = {r: set() for r in reps}
    strict: list[tuple[str, str]] = []
    for atom in inst.atoms:
        if atom.kind != REL:
            continue
        a, b = uf.find(atom.args[0]), uf.find(atom.args[1])
        succ[a].add(b)
        if atom.symbol.name == "lt":
            strict.append((a, b))

    comp = _tarjan_components(reps, succ)

    strict_comps: set[tuple[int, int]] = set()
    for a, b in strict:
        if comp[a] == comp[b]:
            return UNSAT
        strict_comps.add((comp[a], comp[b]))
    neq_comps: set[tuple[int, int]] = set()
    for atom in inst.atoms:
        if atom.kind == NEQ:
            ca, cb = comp[uf.find(atom.args[0])], comp[uf.find(atom.args[1])]
            if ca == cb:
                return UNSAT
            neq_comps.update(((ca, cb), (cb, ca)))

    # rank components along a deterministic topological order
    n_comps = max(comp.values()) + 1 if comp else 0
    members: list[list[str]] = [[] for _ in range(n_comps)]
    for r in reps:
        members[comp[r]].append(r)
    indegree = [0] * n_comps
    out: list[set[int]] = [set() for _ in range(n_comps)]
    for a in reps:
        for b in succ[a]:
            ca, cb = comp[a], comp[b]
            if ca != cb and cb not in out[ca]:
                out[ca].add(cb)
                indegree[cb] += 1
    heap = [(min(members[c]), c) for c in range(n_comps) if indegree[c] == 0]
    heapq.heapify(heap)
    rank_of_comp: dict[int, int] = {}
    rank = 0
    while heap:
        _, c = heapq.heappop(heap)
        rank_of_comp[c] = rank
        rank += 1
        for d in sorted(out[c]):
            indegree[d] -= 1
            if indegree[d] == 0:
                heapq.heappush(heap, (min(members[d]), d))

    comp_of = {v: comp[uf.find(v)] for v in inst.variables}
    witness = {v: rank_of_comp[c] for v, c in comp_of.items()}
    below: dict[int, set[int]] = {}

    def strictly_below(c: int) -> set[int]:
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

    def facts(x: str, y: str) -> str | None:
        cx, cy = comp_of.get(x), comp_of.get(y)
        if cx is None or cy is None:
            return None
        if cx == cy:
            return EQ
        if (
            (cx, cy) in neq_comps
            or cy in strictly_below(cx)
            or cx in strictly_below(cy)
        ):
            return NEQ
        return None

    return SolveResult(True, witness, facts)


def _tarjan_components(nodes: list[str], succ: Mapping[str, set[str]]) -> dict[str, int]:
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    comp: dict[str, int] = {}
    counter = [0]
    comp_counter = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(sorted(succ[root])))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = lowlink[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(succ[nxt]))))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                while True:
                    v = stack.pop()
                    on_stack.discard(v)
                    comp[v] = comp_counter[0]
                    if v == node:
                        break
                comp_counter[0] += 1
    return comp


@lru_cache(maxsize=256)
def _atom_patterns(
    relation: TemporalRelation, shape: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
    """The argument-slot pairs an atom of this relation constrains and the
    status bits each allowed pattern induces on them.  ``shape[u]`` is the
    first slot holding the same argument as slot u; slots holding the same
    argument form no pair, and patterns that tell them apart are dropped."""
    k = len(shape)
    slots = tuple(
        (u, w) for u in range(k) for w in range(u + 1, k) if shape[u] != shape[w]
    )
    patterns = []
    for p in sorted(relation.allowed):
        if any(p[u] != p[shape[u]] for u in range(k)):
            continue
        patterns.append(
            tuple(
                LT_BIT if p[u] < p[w] else (EQ_BIT if p[u] == p[w] else GT_BIT)
                for u, w in slots
            )
        )
    return slots, tuple(patterns)


class _Resume(NamedTuple):
    """What a later temporal decide resumes from: the decided atoms and
    relations, how they went to the kernel, and the kernel's root."""

    atoms: frozenset[Atom]
    relations: Mapping[str, TemporalRelation]
    idx: dict[str, int]
    kernel_atoms: tuple
    resolved: list[tuple[Atom, TemporalRelation]]
    constraints: list[tuple[int, int, int]]
    start: tuple


def temporal_decide(
    inst: Instance,
    relations: Mapping[str, TemporalRelation],
    base: SolveResult | None = None,
) -> SolveResult:
    """Branch-and-prune search for a weak order over all variables satisfying
    every atom's order-type set, merging Eq pairs and separating Neq pairs.

    Each atom goes to the kernel as variable-index pairs plus the status bits
    each allowed pattern induces on them.  A relation is resolved once per
    call, together with the patterns of its atoms with distinct arguments;
    only an atom that repeats an argument looks up the patterns of its shape.

    Facts are read off the kernel's root fixpoint: a pair left at exactly
    ``=`` is entailed equal, a pair without ``=`` entailed distinct.  A
    kernel that hands back no root state gives no facts.

    ``base`` is an earlier result of this decide.  When inst holds base's
    atoms plus only ``eq``/``neq`` atoms over base's variables, the decide
    keeps base's index map and kernel atoms and the kernel resumes from
    base's root fixpoint, which reaches the root fixpoint and result of a
    fresh decide (see ``_kernels.pure``).  Otherwise (no token, other
    relations, an atom of base missing, an added relational atom or
    variable) the decide starts afresh.  Either way the witness is replayed
    against every atom of inst.
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
    if prior is None:
        idx = {v: i for i, v in enumerate(inst.variables)}
        ordered = inst.sorted_atoms()
        atoms = []
        resolved: list[tuple[Atom, TemporalRelation]] = []
        by_name: dict[str, tuple[TemporalRelation, tuple]] = {}
        for atom in ordered:
            if atom.kind != REL:
                continue
            name = atom.symbol.name
            entry = by_name.get(name)
            if entry is None:
                relation = relations.get(name) or relation_for_name(name)
                if relation is None:
                    raise ContractViolation(f"unresolved relation {name!r}")
                distinct = _atom_patterns(relation, tuple(range(relation.arity)))
                entry = by_name[name] = (relation, distinct)
            relation, (slots, patterns) = entry
            if relation.arity != len(atom.args):
                raise ContractViolation(f"relation {name!r} arity mismatch")
            positions = [idx[v] for v in atom.args]
            if len(set(positions)) != len(positions):
                shape = tuple(map(positions.index, positions))
                slots, patterns = _atom_patterns(relation, shape)
            resolved.append((atom, relation))
            atoms.append(
                (tuple([(positions[u], positions[w]) for u, w in slots]), patterns)
            )
        atoms = tuple(atoms)
        constraints = []
    else:
        # only the added eq/neq atoms need turning into constraints
        atoms, resolved, ordered = prior.kernel_atoms, prior.resolved, added
        constraints = list(prior.constraints)
    n = len(idx)

    for atom in ordered:
        if atom.kind == EQ:
            i, j = idx[atom.args[0]], idx[atom.args[1]]
            if i != j:
                constraints.append((i, j, EQ_BIT))
        elif atom.kind == NEQ:
            i, j = idx[atom.args[0]], idx[atom.args[1]]
            if i == j:
                return UNSAT
            constraints.append((i, j, LT_BIT | GT_BIT))

    root: list[tuple] = []
    start = prior.start if prior else None
    ranks = _kernels.temporal_search(n, atoms, tuple(constraints), root, start)
    if ranks is None:
        return UNSAT

    witness = {v: ranks[idx[v]] for v in inst.variables}
    for atom, relation in resolved:
        if not relation.admits(tuple(witness[v] for v in atom.args)):
            raise WitnessCheckFailed(f"temporal witness violates {atom}")
    for atom in inst.atoms:
        if atom.kind == REL:
            continue
        same = witness[atom.args[0]] == witness[atom.args[1]]
        if same != (atom.kind == EQ):
            raise WitnessCheckFailed(f"temporal witness violates {atom}")
    if not root:
        return SolveResult(True, witness)
    state = root[0][0]

    def facts(x: str, y: str) -> str | None:
        i, j = idx.get(x), idx.get(y)
        if i is None or j is None:
            return None
        status = state[i * n + j]
        if status == EQ_BIT:
            return EQ
        return None if status & EQ_BIT else NEQ

    resume = _Resume(inst.atoms, relations, idx, atoms, resolved, constraints, root[0])
    return SolveResult(True, witness, facts, resume)


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


def henson_graph(
    inst: Instance,
) -> tuple[dict[str, str], set[tuple[str, str]], set[tuple[str, str]]] | None:
    """Merge the ``eq`` atoms of a digraph instance without rebuilding it:
    ``(var_map, arcs, neqs)``, where var_map sends every variable to the
    least name of its class and arcs and neqs are over those names; None
    when a disequality joins one class."""
    equalities = [atom.args for atom in inst.atoms if atom.kind == EQ]
    if equalities:
        classes = UnionFind(inst.variables)
        for x, y in equalities:
            classes.union(x, y)
        var_map = classes.mapping()
    else:
        var_map = {v: v for v in inst.variables}
    arcs: set[tuple[str, str]] = set()
    neqs: set[tuple[str, str]] = set()
    for atom in inst.atoms:
        if atom.kind == EQ:
            continue
        pair = (var_map[atom.args[0]], var_map[atom.args[1]])
        if atom.kind == REL:
            arcs.add(pair)
        elif pair[0] == pair[1]:
            return None
        else:
            neqs.add(pair)
    return var_map, arcs, neqs


def arcs_consistent(arcs: set[tuple[str, str]], prepared_forbidden) -> bool:
    """True when the digraph on these arcs has no loop and no digon and
    omits every forbidden tournament (induced match)."""
    for a, b in arcs:
        if a == b or (b, a) in arcs:
            return False
    idx = {v: i for i, v in enumerate(sorted({v for arc in arcs for v in arc}))}
    n = len(idx)
    adj = bytearray(n * n)
    for a, b in arcs:
        adj[idx[a] * n + idx[b]] = 1
    return not _kernels.find_induced_embedding(n, adj, prepared_forbidden)


def henson_decide(inst: Instance, forbidden: Iterable[Digraph]) -> SolveResult:
    """Satisfiability over the homogeneous digraph omitting the given
    tournaments.  The age is loopless and digon-free, so an instance is
    unsatisfiable exactly when merging its equalities yields a reflexive
    disequality, a loop, a digon, or an embedded forbidden tournament.
    Facts: variables merged onto one vertex are equal; the ends of an arc,
    in either direction, and of a disequality are distinct."""
    check_relations(inst, "henson")
    graph = henson_graph(inst)
    if graph is None:
        return UNSAT
    var_map, arcs, neqs = graph
    if not arcs_consistent(arcs, prepare_tournaments(forbidden)):
        return UNSAT
    # every input variable goes to its class representative's vertex
    witness = HensonWitness(assignment=var_map, arcs=frozenset(arcs))
    return SolveResult(True, witness, _partition_facts(var_map, neqs, arcs))


def check_value_witness(
    solver: TheorySolver, inst: Instance, values: Mapping[str, int]
) -> bool:
    """Replay an integer-valued witness (blocks or ranks) against every atom."""
    if not isinstance(values, Mapping):
        return False
    fixed = KINDS[solver.kind].relations
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
            name = atom.symbol.name
            if fixed is not None and name not in fixed:
                return False
            relation = solver.relations.get(name) or relation_for_name(name)
            if relation is None:
                return False
            if canonical_ranks(tuple(values[v] for v in atom.args)) not in relation.allowed:
                return False
    return True


def check_henson_witness(forbidden, inst: Instance, witness: HensonWitness) -> bool:
    """Replay a digraph witness: atoms hold under the assignment, the loop
    vertex (when present) is isolated from the rest, and the loopless part
    omits every forbidden tournament."""
    if not isinstance(witness, HensonWitness):
        return False
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
        from .formulas import make_instance, neq

        extended = make_instance(set(inst.atoms) | {neq(x, y)})
        result = self.decide(extended, base)
        if result.sat and counter_models is not None:
            counter_models.append(result.witness)
        return not result.sat


def _b1_decide(solver: TheorySolver, inst: Instance, base) -> SolveResult:
    from .henson import component_label_solve  # henson imports this module

    return component_label_solve(inst, solver.forbidden)


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


def check_relations(inst: Instance, kind: str) -> None:
    """Raise ContractViolation unless every relational atom uses a relation
    the kind fixes, with its arity."""
    fixed = KINDS[kind].relations
    for atom in inst.atoms:
        if atom.kind == REL and fixed.get(atom.symbol.name) != len(atom.args):
            raise ContractViolation(
                f"{kind} solver got relation {atom.symbol.name!r}/{len(atom.args)}"
            )
