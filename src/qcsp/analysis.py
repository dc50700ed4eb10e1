"""Structural analysis tools: a bounded convexity refuter and a verifier for
cross prevention formulas.

Convexity fails exactly when some satisfiable instance tolerates each of two
disequalities separately but not together; the probe searches bounded
instances for such a pair and re-verifies any hit against the brute-force
oracle before reporting it.  Absence of a hit proves nothing (the search is
bounded), which is why convexity remains a declared flag on theories.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Sequence

from .formulas import Atom, Instance, PPFormula, REL, RelationSymbol, eq, make_instance, neq
from .oracle import brute_decide_theory
from .theories import KINDS, SolveResult, TheorySolver, WitnessCheckFailed

EXHAUSTIVE_MAX_VARS = 5
EXHAUSTIVE_MAX_ATOMS = 5

_VAR_NAMES = "abcdefgh"


@dataclass(frozen=True)
class ConvexityWitness:
    """An instance plus two disequality pairs with verdicts SAT, SAT, UNSAT."""

    instance: Instance
    pair1: tuple[str, str]
    pair2: tuple[str, str]
    verdicts: tuple[SolveResult, SolveResult, SolveResult]

    def __post_init__(self):
        first, second, both = self.verdicts
        if not (first.sat and second.sat and not both.sat):
            raise ValueError("convexity witness verdicts must be SAT, SAT, UNSAT")


def probe_relations(solver: TheorySolver) -> list[tuple[str, int]]:
    """The relations the solver's kind fixes, or those its theory declares."""
    fixed = KINDS[solver.kind].relations
    if fixed is None:
        fixed = {name: rel.arity for name, rel in solver.relations.items()}
    return sorted(fixed.items())


def _atom_universe(
    solver: TheorySolver, relations: Sequence[tuple[str, int]], variables: Sequence[str]
) -> list[Atom]:
    """All relational atoms over distinct-variable tuples, then all
    disequalities, in a fixed canonical order.  Eq atoms are excluded: they
    only shrink instances after collapse."""
    universe: list[Atom] = []
    for name, arity in sorted(relations):
        symbol = RelationSymbol(solver.theory_id, name, arity)
        for args in permutations(variables, arity):
            universe.append(Atom(REL, symbol, args))
    for x, y in combinations(variables, 2):
        universe.append(neq(x, y))
    return universe


def _violation(
    solver: TheorySolver, instance: Instance
) -> tuple[tuple[str, str], tuple[str, str], tuple] | None:
    if not solver.decide(instance).sat:
        return None
    variables = instance.variables
    pairs = list(combinations(variables, 2))
    single: dict[tuple[str, str], SolveResult] = {}
    for pair in pairs:
        single[pair] = solver.decide(
            make_instance(set(instance.atoms) | {neq(*pair)})
        )
    sat_pairs = [p for p in pairs if single[p].sat]
    for pair1, pair2 in combinations(sat_pairs, 2):
        both = solver.decide(
            make_instance(set(instance.atoms) | {neq(*pair1), neq(*pair2)})
        )
        if not both.sat:
            return pair1, pair2, (single[pair1], single[pair2], both)
    return None


def _verified_witness(
    solver: TheorySolver, instance: Instance, hit
) -> ConvexityWitness:
    pair1, pair2, verdicts = hit
    replay = []
    for extra in ({neq(*pair1)}, {neq(*pair2)}, {neq(*pair1), neq(*pair2)}):
        replay.append(
            brute_decide_theory(
                solver.kind,
                make_instance(set(instance.atoms) | extra),
                relations=solver.relations,
                forbidden=solver.forbidden,
            )
        )
    if not (replay[0].sat and replay[1].sat and not replay[2].sat):
        raise WitnessCheckFailed(
            "solver and oracle disagree on a convexity witness"
        )
    return ConvexityWitness(instance, pair1, pair2, tuple(verdicts))


def probe_convexity(
    solver: TheorySolver,
    relations: Sequence[tuple[str, int]] | None = None,
    max_vars: int = 4,
    max_atoms: int = 4,
    mode: str = "exhaustive",
    count: int = 1000,
    seed: int = 0,
) -> ConvexityWitness | None:
    """Search bounded instances for a convexity violation.

    A returned witness proves non-convexity (and has been replayed against
    the oracle); None proves nothing.  Exhaustive mode enumerates instances
    by variable count, then atom subsets of the canonical universe in
    lexicographic order, then disequality pair choices lexicographically, so
    the first witness is reproducible.
    """
    if relations is None:
        relations = probe_relations(solver)
    if mode == "exhaustive":
        if max_vars > EXHAUSTIVE_MAX_VARS or max_atoms > EXHAUSTIVE_MAX_ATOMS:
            raise ValueError(
                f"exhaustive probe caps: {EXHAUSTIVE_MAX_VARS} vars, "
                f"{EXHAUSTIVE_MAX_ATOMS} atoms"
            )
        for n in range(1, max_vars + 1):
            variables = list(_VAR_NAMES[:n])
            universe = _atom_universe(solver, relations, variables)
            needed = set(variables)
            for k in range(1, max_atoms + 1):
                for combo in combinations(range(len(universe)), k):
                    atoms = [universe[i] for i in combo]
                    used: set[str] = set()
                    for atom in atoms:
                        used.update(atom.args)
                    if used != needed:
                        continue
                    instance = make_instance(atoms)
                    hit = _violation(solver, instance)
                    if hit is not None:
                        return _verified_witness(solver, instance, hit)
        return None
    if mode == "random":
        if count < 1:
            raise ValueError(f"random probe needs count >= 1, got {count}")
        if max_vars < 2:
            raise ValueError(f"random probe needs max_vars >= 2, got {max_vars}")
        if max_atoms < 1:
            raise ValueError(f"random probe needs max_atoms >= 1, got {max_atoms}")
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(2, max_vars)
            variables = list(_VAR_NAMES[:n])
            universe = _atom_universe(solver, relations, variables)
            k = rng.randint(1, min(max_atoms, len(universe)))
            atoms = rng.sample(universe, k)
            instance = make_instance(atoms)
            hit = _violation(solver, instance)
            if hit is not None:
                return _verified_witness(solver, instance, hit)
        return None
    raise ValueError(f"unknown probe mode {mode!r}")


@dataclass(frozen=True)
class CrossPreventionReport:
    """Outcome of the three cross prevention conditions, with the deciding
    results attached so each can be replayed."""

    formula: PPFormula
    cond1: bool
    cond2: bool
    cond3: bool
    results: tuple[SolveResult, SolveResult, SolveResult]

    def passes(self) -> bool:
        return self.cond1 and self.cond2 and self.cond3


def check_cross_prevention(
    solver: TheorySolver, formula: PPFormula
) -> CrossPreventionReport:
    """Verify the three conditions on a candidate cross prevention formula
    with free variables (x, y, u, v):

    1. the formula with x=y has a solution injective on (x, u, v);
    2. the formula with u=v has a solution injective on (x, y, u);
    3. the formula with x=y and u=v has no solution.
    """
    if len(formula.free_vars) != 4:
        raise ValueError("cross prevention formulas have free variables (x, y, u, v)")
    x, y, u, v = formula.free_vars
    body = set(formula.body)

    first = solver.decide(
        make_instance(body | {eq(x, y), neq(x, u), neq(x, v), neq(u, v)})
    )
    second = solver.decide(
        make_instance(body | {eq(u, v), neq(x, y), neq(x, u), neq(y, u)})
    )
    third = solver.decide(make_instance(body | {eq(x, y), eq(u, v)}))
    return CrossPreventionReport(
        formula=formula,
        cond1=first.sat,
        cond2=second.sat,
        cond3=not third.sat,
        results=(first, second, third),
    )
