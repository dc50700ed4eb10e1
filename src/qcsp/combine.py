"""Nelson-Oppen style combination engine.

Two modes decide the combined problem: convex equality propagation, complete
only when every theory is convex, and a complete arrangement search that
branches on the equality pattern of the shared variables.  Once shared
variables are made pairwise distinct, per-theory satisfiability implies joint
satisfiability, so exhausting arrangements is complete.  Convex mode checks
the arrangement it ends with in every part, so a false convexity flag is
detected rather than trusted; ``solve_auto`` then falls back to the search.

A node's decisions, and a round's learned equalities, are one set of ``eq``
and ``neq`` atoms over the shared variables, and each part is handed exactly
that set with its own atoms.  The ``eq`` atoms merge the shared variables
into classes; a ``neq`` atom separates the classes of its two variables, read
under the node's current classes, so a later merge never leaves a decision
stale.

Both modes use theory propagation (Nieuwenhuis, Oliveras & Tinelli 2006):
every decide also reports shared (dis)equalities its part entails, so an
entailed equality needs no entailment test and the search decides an
entailed disequality apart without trying the equal branch.  Both keep a
part's model while it agrees with the new decisions (de Moura & Bjorner
2007): a search child or a later round keeps a part's earlier result when
its witness already satisfies the part's extended instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple

from .formulas import (
    EQ,
    NEQ,
    Atom,
    Instance,
    Problem,
    UnionFind,
    collapse_equalities,  # bound here for perfbench/spans.py's tracer
    eq,
    make_instance,
    merge_equalities,
    neq,
    realizes,
    split_by_signature,
)
from .theories import SolveResult, TheorySolver, witness_values


class ConvexityNotDeclared(ValueError):
    """Convex mode was requested for a theory not flagged convex."""


class ConvexityFlagFalse(ConvexityNotDeclared):
    """A theory flagged convex proved not to be while deciding an instance."""


@dataclass(frozen=True)
class CombinedProblem:
    instance: Instance
    parts: dict[str, Instance]
    shared: frozenset[str]
    solvers: dict[str, TheorySolver]


@dataclass(frozen=True)
class CombinedWitness:
    arrangement: tuple[tuple[str, ...], ...]
    part_witnesses: dict[str, object]


def combined_problem(problem: Problem) -> CombinedProblem:
    parts, shared = split_by_signature(problem.instance, problem.theories)
    return CombinedProblem(
        instance=problem.instance,
        parts=parts,
        shared=shared,
        solvers=dict(problem.theories),
    )


def _neutral_atoms_consistent(instance: Instance) -> bool:
    """Every part's decide rejects a reflexive disequality of its copy of the
    Eq/Neq atoms, but a problem with no theories has no part; check here."""
    _, _, neqs = merge_equalities(instance)
    return all(x != y for x, y in neqs)


def propagate_step(
    problem: CombinedProblem,
    learned: set[Atom],
    results: dict[str, SolveResult] | None = None,
) -> set[Atom] | None:
    """One propagation round: all shared equalities newly entailed by some
    theory under the learned set.  Empty result signals a fixpoint.  None
    signals that a part rejects the learned equalities; each of them is
    entailed, so the combined problem is unsatisfiable.  Only pairs that
    some part's witness ties and the learned set keeps apart can be
    entailed, so only those are asked about.  ``results``, when given, holds
    each part's result of the round before, which this round may keep, and
    is updated in place with this round's results."""
    shared = sorted(problem.shared)
    rep = _reps(learned, shared)
    if len(set(rep.values())) < 2:
        return set()
    ok, decided, contexts = _decide_parts(problem, learned, results)
    if results is not None:
        results.update(decided)
    if not ok:
        return None
    return {
        eq(x, y)
        for x, y in sorted(_tied_pairs(contexts, shared, rep))
        if _entailed_by_a_part(problem, contexts, x, y)
    }


def _tied_pairs(
    contexts: Mapping[str, _Context], shared: list[str], rep: Mapping[str, str]
) -> set[tuple[str, str]]:
    """The pairs of shared variables in distinct classes of rep that some
    part's witness gives one value, each in the order of ``shared``.  Only
    these can be entailed equal: a part entails nothing its witness
    refutes."""
    tied: set[tuple[str, str]] = set()
    for ctx in contexts.values():
        by_value: dict[object, list[str]] = {}
        for v in shared:
            if v in ctx.values:
                by_value.setdefault(ctx.values[v], []).append(v)
        for group in by_value.values():
            if len(group) > 1:
                tied.update((u, v) for u, v in combinations(group, 2) if rep[u] != rep[v])
    return tied


class _Context(NamedTuple):
    """A part under a node's decisions: its instance (the part's atoms plus
    the node's ``eq`` and ``neq`` atoms), the values of the witness the
    part was decided with, the models of the part known at this node (that
    witness first, then every counter-model an entailment test returned) and
    the result of its decide, whose facts the search reads and from which
    the part's entailment tests resume (values and models empty when the
    part rejected the node).  The decide rewrites the equalities itself, so
    every name is the variable's own.  Counter-models are never carried to
    another node or round: a later node or round adds atoms, which a kept
    model need not satisfy."""

    instance: Instance
    values: Mapping[str, object]
    models: list[object]
    result: SolveResult


def _decide_parts(
    problem: CombinedProblem,
    decisions: frozenset[Atom] | set[Atom],
    bases: Mapping[str, SolveResult] | None = None,
) -> tuple[bool, dict[str, SolveResult], dict[str, _Context]]:
    """Decide every part under the given ``eq``/``neq`` decisions, which each
    part's decide sees as plain atoms added to its own.

    ``bases`` holds a result of each part decided under a subset of the
    decisions.  A SAT base whose witness covers the part's instance and
    meets every decision is taken as it is: the decide would return that
    same witness (the temporal kernel returns the least solution in its
    fixed pair order; the other kinds build theirs from classes, components
    or arcs such decisions do not move), and its facts stay sound.  Any
    other part's decide may resume from its base."""
    results: dict[str, SolveResult] = {}
    contexts: dict[str, _Context] = {}
    bases = bases or {}
    for tid in sorted(problem.parts):
        part = problem.parts[tid]
        # no decisions: the part is its own instance
        merged = make_instance(part.atoms | decisions) if decisions else part
        base = bases.get(tid)
        if base is not None and base.sat and realizes(
            witness_values(base.witness), merged
        ):
            result = base
        else:
            result = problem.solvers[tid].decide(merged, base)
        results[tid] = result
        models = [result.witness] if result.sat else []
        contexts[tid] = _Context(
            merged, witness_values(result.witness), models, result
        )
        if not result.sat:
            return False, results, contexts
    return True, results, contexts


def _entailed_by_a_part(
    problem: CombinedProblem, contexts: dict[str, _Context], u: str, v: str
) -> bool:
    """Whether some part entails u = v under its node's decisions.

    Model-based combination: a part entails u = v only if every model it
    has at this node gives u and v the same value, so only those pairs are
    tested, and a test that answers no adds its counter-model to the part's
    models.  A pair the part's decide reported equal needs no test; the
    report is read only after the models agree, since that check is cheaper
    and rules out most pairs; a pair the part's own ``eq`` atoms join is
    reported equal.  A variable the witness lacks occurs in no atom of the
    part; every theory has infinite models (an isolated fresh vertex stays
    in a henson age), so that variable can differ from all others and the
    part cannot entail the equality.  A test resumes from the part's decide
    at this node.  The parts are asked in the order they were decided.
    """
    for tid, (instance, values, models, result) in contexts.items():
        if u not in values or v not in values:
            continue
        # the decided witness alone rules out most pairs; scan the
        # counter-models only when it agrees
        if values[u] != values[v] or any(
            m[u] != m[v] for m in map(witness_values, models[1:])
        ):
            continue
        if result.facts(u, v) == EQ or problem.solvers[tid].entails_eq(
            instance, u, v, models, base=result
        ):
            return True
    return False


def _sat(
    blocks: tuple[tuple[str, ...], ...], results: dict[str, SolveResult]
) -> SolveResult:
    """A SAT result holding each part witness as its decide returned it."""
    witness = CombinedWitness(
        arrangement=blocks,
        part_witnesses={tid: result.witness for tid, result in results.items()},
    )
    return SolveResult(True, witness)


def _reps(decisions: Iterable[Atom], variables: Iterable[str]) -> dict[str, str]:
    """Representative of each variable under the ``eq`` atoms among the
    decisions."""
    classes = UnionFind(variables)
    for atom in decisions:
        if atom.kind == EQ:
            classes.union(*atom.args)
    return classes.mapping()


def _blocks(rep: dict[str, str], shared: list[str]) -> tuple[tuple[str, ...], ...]:
    blocks: dict[str, list[str]] = {}
    for v in shared:
        blocks.setdefault(rep[v], []).append(v)
    return tuple(tuple(sorted(blocks[r])) for r in sorted(blocks))


def _undecided_pairs(
    decisions: frozenset[Atom], rep: dict[str, str], shared: list[str]
) -> list[tuple[str, str]]:
    """The pairs of shared variables, in pair order, whose classes under rep
    are distinct and separated by no ``neq`` decision."""
    apart: dict[str, set[str]] = {}
    for kind, _, (x, y) in decisions:
        if kind == NEQ:
            apart.setdefault(rep[x], set()).add(rep[y])
            apart.setdefault(rep[y], set()).add(rep[x])
    return [
        (u, v)
        for u, v in combinations(shared, 2)
        if rep[u] != rep[v] and rep[v] not in apart.get(rep[u], ())
    ]


def _first_entailed(
    problem: CombinedProblem,
    contexts: dict[str, _Context],
    pairs: list[tuple[str, str]],
) -> tuple[str, str] | None:
    """The first pair some part already entails equal, if any.  A part
    whose models give a pair two values is not asked about it, so only the
    pairs some part's witness ties are tested."""
    for u, v in pairs:
        if _entailed_by_a_part(problem, contexts, u, v):
            return u, v
    return None


def _reported_apart(
    contexts: dict[str, _Context],
    pairs: list[tuple[str, str]],
    rep: dict[str, str],
) -> set[Atom]:
    """One ``neq`` atom between the representatives of the classes of each
    given pair some part reported distinct."""
    return {
        neq(rep[u], rep[v])
        for u, v in pairs
        if any(ctx.result.facts(u, v) == NEQ for ctx in contexts.values())
    }


def solve_complete(problem: CombinedProblem) -> SolveResult:
    """Complete arrangement search over the shared variables.

    Depth first over an explicit stack of nodes, each a set of ``eq``/``neq``
    decisions over the shared variables, read under the classes its ``eq``
    atoms merge.  Each node decides every part and then, in this order,
    merges a pending pair some part entails equal (the first in pair
    order), or decides apart the classes of every pending pair some part
    reported distinct, or branches on the first pending pair, the equal
    branch first.  A pair is pending while its classes are distinct and no
    ``neq`` decision separates them.

    The search returns the least accepted arrangement in pair order, equal
    before distinct, and a leaf's part witnesses depend only on its
    partition.  A forced merge or apart decision is entailed at its node, so
    it cuts only subtrees that hold no accepted leaf, and the result is the
    one plain branching would find.  A pending pair no part entails equal
    (none is left once no merge is forced) cannot be reported equal by a
    sound part, so a distinct report there needs no conflict check.  A
    child only adds decisions, so each part keeps its result at the parent
    node when that result's witness satisfies the child's decisions, and
    otherwise resumes its decide from it.
    """
    if not problem.parts and not _neutral_atoms_consistent(problem.instance):
        return SolveResult(False)
    shared = sorted(problem.shared)
    stack: list[tuple[frozenset[Atom], dict[str, SolveResult]]] = [(frozenset(), {})]
    while stack:
        decisions, parent = stack.pop()
        ok, results, contexts = _decide_parts(problem, decisions, parent)
        if not ok:
            continue
        rep = _reps(decisions, shared)
        pending = _undecided_pairs(decisions, rep, shared)
        if not pending:
            return _sat(_blocks(rep, shared), results)
        forced = _first_entailed(problem, contexts, pending)
        if forced is not None:
            stack.append((decisions | {eq(*forced)}, results))
            continue
        apart = _reported_apart(contexts, pending, rep)
        if apart:
            stack.append((decisions | apart, results))
            continue
        u, v = pending[0]
        stack.append((decisions | {neq(rep[u], rep[v])}, results))
        stack.append((decisions | {eq(u, v)}, results))
    return SolveResult(False)


def solve_convex(problem: CombinedProblem) -> SolveResult:
    """Equality propagation to fixpoint, then one satisfiability check per
    part under the propagated arrangement: learned equalities inside blocks,
    disequalities across them.  Requires every theory to be flagged convex;
    raises ConvexityFlagFalse when a part rejects the arrangement although it
    accepts the learned equalities alone, which a convex theory cannot do.
    Each round's decides, and the final check, start from the part results
    of the round before, decided under fewer equalities."""
    not_convex = [tid for tid, s in problem.solvers.items() if not s.convex]
    if not_convex:
        raise ConvexityNotDeclared(
            f"theories not declared convex: {', '.join(sorted(not_convex))}"
        )
    if not problem.parts and not _neutral_atoms_consistent(problem.instance):
        return SolveResult(False)
    learned: set[Atom] = set()
    results: dict[str, SolveResult] = {}
    while True:
        new = propagate_step(problem, learned, results)
        if new is None:
            return SolveResult(False)
        if not new:
            break
        learned |= new

    shared = sorted(problem.shared)
    blocks = _blocks(_reps(learned, shared), shared)
    apart = {neq(a[0], b[0]) for i, a in enumerate(blocks) for b in blocks[i + 1 :]}
    ok, final, _ = _decide_parts(problem, learned | apart, results)
    if not ok:
        # with one block the check was the decide of learned itself; with
        # more, the round that reached the fixpoint accepted learned
        if not apart:
            return SolveResult(False)
        failed = next(tid for tid, result in final.items() if not result.sat)
        raise ConvexityFlagFalse(
            f"theory {failed} is flagged convex but entails a disjunction of "
            "shared equalities and none of them alone"
        )
    return _sat(blocks, final)


def solve_auto(problem: CombinedProblem) -> SolveResult:
    """Convex propagation when every theory is declared convex, complete
    arrangement search otherwise or when a convex flag proves false."""
    if all(s.convex for s in problem.solvers.values()):
        try:
            return solve_convex(problem)
        except ConvexityFlagFalse:
            pass
    return solve_complete(problem)
