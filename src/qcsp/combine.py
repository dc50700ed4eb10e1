"""Nelson-Oppen style combination engine.

Two modes decide the combined problem: convex equality propagation, complete
only when every theory is convex, and a complete arrangement search that
branches on the equality pattern of the shared variables.  Once shared
variables are made pairwise distinct, per-theory satisfiability implies joint
satisfiability, so exhausting arrangements is complete.  Convex mode checks
the arrangement it ends with in every part, so a false convexity flag is
detected rather than trusted; ``solve_auto`` then falls back to the search.

A node's decisions, and the equalities a propagation pass hands a part, are
one set of ``eq`` and ``neq`` atoms over the shared variables, and each part
is handed exactly that set with its own atoms.  The ``eq`` atoms merge the
shared variables into classes; a ``neq`` atom separates the classes of its
two variables, read under the node's current classes, so a later merge
never leaves a decision stale.

Convex propagation runs Gauss-Seidel passes: the parts are asked in turn,
each under the equalities learned so far plus those the parts before it
found in the same pass, so an equality reaches the next part at once.

Both modes use theory propagation (Nieuwenhuis, Oliveras & Tinelli 2006):
every decide also reports shared (dis)equalities its part entails, so an
entailed equality needs no entailment test and the search decides an
entailed disequality apart without trying the equal branch.  Both keep a
part's model while it agrees with the new decisions (de Moura & Bjorner
2007): a search child or a later pass keeps a part's earlier result when
its witness already satisfies the part's extended instance, and carries
over every earlier model that does, so an entailment test runs only where
all of them agree.
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


def propagate_step(
    problem: CombinedProblem,
    learned: set[Atom],
    contexts: dict[str, _Context] | None = None,
) -> set[Atom] | None:
    """One Gauss-Seidel propagation pass: the shared equalities newly
    entailed by the parts, each asked in ``tid`` order under the learned set
    plus what the parts before it found in this pass, and only about the
    pairs its own models tie and its classes keep apart.  Empty result
    signals a fixpoint; None, that a part rejects the equalities it is
    handed, all entailed, so the combined problem is unsatisfiable.  One
    union-find of the shared variables takes each part's finds as they are
    added; the pass stops once it holds one class.

    ``contexts`` holds each part's context from the passes before, to keep,
    resume or carry models from, and is updated in place.  A part adds its
    finds to its context's decisions: they are entailed, so its models stay
    models.  A part whose context's decisions hold every equality it is
    handed, because the only ones added since it was asked are its own, is
    skipped."""
    shared = sorted(problem.shared)
    contexts = {} if contexts is None else contexts
    found: set[Atom] = set()
    classes = _classes(learned, shared)
    for tid in sorted(problem.parts):
        rep = classes.mapping()
        if len(set(rep.values())) < 2:
            break
        decisions = learned | found
        ok, decided = _decide_parts(problem, decisions, contexts, (tid,))
        if not ok:
            return None
        ctx = decided[tid]
        if ctx is contexts.get(tid):
            continue
        contexts[tid] = ctx
        single = {tid: ctx}
        own = {
            eq(x, y)
            for x, y in sorted(_tied_pairs(ctx.values, shared, rep))
            if _entailed_by_a_part(problem, single, x, y)
        }
        if own:
            contexts[tid] = ctx._replace(decisions=ctx.decisions | own)
            found |= own
            for atom in own:
                classes.union(*atom.args)
    return found


def _tied_pairs(
    values: Mapping[str, object], shared: list[str], rep: Mapping[str, str]
) -> set[tuple[str, str]]:
    """The pairs of shared variables in distinct classes of rep that the
    values give one value, each in the order of ``shared``.  Only these can
    be entailed equal: a part entails nothing its witness refutes."""
    by_value: dict[object, list[str]] = {}
    for v in shared:
        if v in values:
            by_value.setdefault(values[v], []).append(v)
    return {
        (u, v)
        for group in by_value.values()
        for u, v in combinations(group, 2)
        if rep[u] != rep[v]
    }


class _Context(NamedTuple):
    """A part under a node's decisions: its instance (the part's atoms plus
    the node's ``eq`` and ``neq`` atoms), the values of the witness the
    part was decided with, the models of the part known under that instance
    and the result of its decide, whose facts the search reads and from
    which the part's entailment tests resume (values and models empty when
    the part rejected the node).  The decide rewrites the equalities itself,
    so every name is the variable's own.

    The models are that witness first, then every model of the context the
    part was decided from (a parent node or an earlier pass) that meets the
    instance's ``eq``/``neq`` atoms, then every counter-model an entailment
    test under this instance returned.  The carried models are models: the
    relational atoms are the same.  ``decisions`` are the node's atoms, to
    which a propagation pass adds the equalities it found the part to
    entail; every model meets them."""

    instance: Instance
    values: Mapping[str, object]
    models: list[object]
    result: SolveResult
    decisions: frozenset[Atom] | set[Atom]


def _decide_parts(
    problem: CombinedProblem,
    decisions: frozenset[Atom] | set[Atom],
    bases: Mapping[str, _Context] | None = None,
    tids: Iterable[str] | None = None,
) -> tuple[bool, dict[str, _Context]]:
    """Decide the parts named in ``tids`` (every part when None), in
    ``tid`` order, under the given ``eq``/``neq`` decisions, which each
    part's decide sees as plain atoms added to its own; stop at the first
    part that rejects them.

    ``bases`` holds a context of each part decided under a subset of the
    decisions.  A base whose decisions already hold every decision has the
    models of the part's instance, and is the part's context as it is.  A
    SAT base whose witness covers the part's instance and meets every
    decision gives its result as it is: the decide would return that same
    witness (the temporal kernel returns the least solution in its fixed
    pair order; the other kinds build theirs from classes, components or
    arcs such decisions do not move), and its facts stay sound.  Any other
    part's decide may resume from its base's result."""
    contexts: dict[str, _Context] = {}
    bases = bases or {}
    for tid in sorted(problem.parts if tids is None else tids):
        ctx = base = bases.get(tid)
        if base is None or not decisions <= base.decisions:
            part = problem.parts[tid]
            # no decisions: the part is its own instance
            merged = make_instance(part.atoms | decisions) if decisions else part
            if base is not None and base.result.sat and realizes(base.values, merged):
                result = base.result
            else:
                result = problem.solvers[tid].decide(merged, base and base.result)
            models = [result.witness] if result.sat else []
            if models and base is not None:
                # the base's own witness is this result or fails the decisions
                models += [
                    m for m in base.models[1:] if realizes(witness_values(m), merged)
                ]
            values = witness_values(result.witness)
            ctx = _Context(merged, values, models, result, decisions)
        contexts[tid] = ctx
        if not ctx.result.sat:
            return False, contexts
    return True, contexts


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
    for tid, (instance, values, models, result, _) in contexts.items():
        if u not in values or v not in values:
            continue
        # the decided witness alone rules out most pairs; scan the other
        # models only when it agrees
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
    blocks: tuple[tuple[str, ...], ...], contexts: dict[str, _Context]
) -> SolveResult:
    """A SAT result holding each part witness as its decide returned it."""
    witness = CombinedWitness(
        arrangement=blocks,
        part_witnesses={tid: ctx.result.witness for tid, ctx in contexts.items()},
    )
    return SolveResult(True, witness)


def _classes(decisions: Iterable[Atom], variables: Iterable[str]) -> UnionFind:
    """The variables' classes under the ``eq`` atoms among the decisions."""
    classes = UnionFind(variables)
    for atom in decisions:
        if atom.kind == EQ:
            classes.union(*atom.args)
    return classes


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
    atoms merge.  Each node decides every part and then asks only about the
    first pending pair, the one it would branch on: it merges that pair when
    some part entails it equal, or else decides apart the classes of every
    pending pair some part reported distinct, or else branches on that pair,
    the equal branch first.  A pair is pending while its classes are
    distinct and no ``neq`` decision separates them.

    The search returns the least accepted arrangement in pair order, equal
    before distinct, and a leaf's part witnesses depend only on its
    partition.  A forced merge or apart decision is entailed at its node, so
    it cuts only subtrees that hold no accepted leaf, and the result is the
    one plain branching would find; a merge forced on a later pair would
    only prune more, at the cost of a test per pair.  An apart decision is
    sound alone: if another part entails that pair equal, the apart child
    fails at that part's decide.  A child only adds decisions, so each part
    keeps its result at the parent node when that result's witness
    satisfies the child's decisions, and otherwise resumes its decide from
    it; either way it carries over the parent's models that satisfy them.
    """
    # each part's decide rejects a reflexive disequality of its eq/neq atoms;
    # a problem with no theories has no part, so the check runs here
    if not problem.parts and merge_equalities(problem.instance) is None:
        return SolveResult(False)
    shared = sorted(problem.shared)
    stack: list[tuple[frozenset[Atom], dict[str, _Context]]] = [(frozenset(), {})]
    while stack:
        decisions, parent = stack.pop()
        ok, contexts = _decide_parts(problem, decisions, parent)
        if not ok:
            continue
        if not shared:  # one arrangement, so the root is the only node
            return _sat((), contexts)
        rep = _classes(decisions, shared).mapping()
        pending = _undecided_pairs(decisions, rep, shared)
        if not pending:
            return _sat(_blocks(rep, shared), contexts)
        u, v = pending[0]
        if _entailed_by_a_part(problem, contexts, u, v):
            stack.append((decisions | {eq(u, v)}, contexts))
            continue
        apart = _reported_apart(contexts, pending, rep)
        if apart:
            stack.append((decisions | apart, contexts))
            continue
        stack.append((decisions | {neq(rep[u], rep[v])}, contexts))
        stack.append((decisions | {eq(u, v)}, contexts))
    return SolveResult(False)


def solve_convex(problem: CombinedProblem) -> SolveResult:
    """Equality propagation by passes until one finds nothing, then one
    satisfiability check per part under the propagated arrangement: learned
    equalities inside blocks, disequalities across them.  Requires every
    theory to be flagged convex; raises ConvexityFlagFalse when a part
    rejects the arrangement although it accepts the learned equalities
    alone, which a convex theory cannot do.  Each pass, and the final check,
    starts from the part contexts of the passes before, decided under fewer
    equalities.  The passes end with the classes that rounds asking every
    part under one learned set reach, so the order does not move a verdict
    or a witness."""
    not_convex = [tid for tid, s in problem.solvers.items() if not s.convex]
    if not_convex:
        raise ConvexityNotDeclared(
            f"theories not declared convex: {', '.join(sorted(not_convex))}"
        )
    if not problem.parts and merge_equalities(problem.instance) is None:
        return SolveResult(False)  # as in solve_complete
    learned: set[Atom] = set()
    contexts: dict[str, _Context] = {}
    while True:
        new = propagate_step(problem, learned, contexts)
        if new is None:
            return SolveResult(False)
        if not new:
            break
        learned |= new

    shared = sorted(problem.shared)
    blocks = _blocks(_classes(learned, shared).mapping(), shared)
    apart = {neq(a[0], b[0]) for i, a in enumerate(blocks) for b in blocks[i + 1 :]}
    ok, final = _decide_parts(problem, learned | apart, contexts)
    if not ok:
        # with one block the check was the decide of learned itself; with
        # more, every part accepted learned in the pass that found nothing
        if not apart:
            return SolveResult(False)
        failed = next(tid for tid, ctx in final.items() if not ctx.result.sat)
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
