"""Command-line front end.

Exit codes: 0 a verdict was produced, 2 parse error, 3 mode precondition
violated (convex mode on a theory not flagged convex, or whose convex flag
proved false), 4 resource bound exceeded, 5 internal error (a witness or a
constructed instance failed an internal check, including the replay of every
SAT witness ``solve`` and ``henson solve|reduce-down`` make before they print;
no verdict is printed).
"""

from __future__ import annotations

import argparse
import sys

from .analysis import probe_convexity, check_cross_prevention
from .checking import check_combined_witness, check_part_witness
from .combine import (
    ConvexityNotDeclared,
    combined_problem,
    solve_auto,
    solve_complete,
    solve_convex,
)
from .formulas import (
    PPFormula,
    ParseError,
    Problem,
    REL,
    RelationSymbol,
    is_identifier,
    parse_problem,
    render_atom,
    render_problem,
)
from .henson import build_s_star, component_label_solve
from .oracle import BoundExceeded, superpose_bruteforce
from .theories import SolveResult, TheorySolver, WitnessCheckFailed, witness_values

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MODE = 3
EXIT_BOUND = 4
EXIT_INTERNAL = 5

# The errors a command may raise: the prefix of each message and its exit code.
ERRORS = {
    ParseError: ("parse error", EXIT_PARSE),
    ConvexityNotDeclared: ("mode error", EXIT_MODE),
    BoundExceeded: ("bound error", EXIT_BOUND),
    WitnessCheckFailed: ("internal error", EXIT_INTERNAL),
}


def _load(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(str(exc))
    return parse_problem(text)


def _print_witness(result: SolveResult) -> None:
    witness = result.witness
    block_of = {}
    for index, block in enumerate(witness.arrangement):
        for v in block:
            block_of[v] = index
    for v in sorted(block_of):
        print(f"arrangement {v} {block_of[v]}")
    for tid in sorted(witness.part_witnesses):
        values = witness_values(witness.part_witnesses[tid])
        for var in sorted(values):
            print(f"model {tid} {var} {values[var]}")


def cmd_solve(args) -> int:
    combined = combined_problem(_load(args.file))
    if args.mode == "convex":
        result = solve_convex(combined)
    elif args.mode == "complete":
        result = solve_complete(combined)
    else:
        result = solve_auto(combined)
    if result.sat and not check_combined_witness(combined, result):
        raise WitnessCheckFailed("the SAT witness does not replay against the input")
    print(result.verdict)
    if args.witness and result.sat:
        _print_witness(result)
    return EXIT_OK


def cmd_oracle(args) -> int:
    combined = combined_problem(_load(args.file))
    result = superpose_bruteforce(combined)
    print(result.verdict)
    return EXIT_OK


def _single_solver(problem: Problem) -> TheorySolver:
    if len(problem.theories) != 1:
        raise ParseError("this command needs a file declaring exactly one theory")
    return next(iter(problem.theories.values()))


def cmd_probe(args) -> int:
    solver = _single_solver(_load(args.file))
    mode = "random" if args.random is not None else "exhaustive"
    witness = probe_convexity(
        solver,
        max_vars=args.max_vars,
        max_atoms=args.max_atoms,
        mode=mode,
        count=args.random or 0,
        seed=args.seed,
    )
    if witness is None:
        print("none")
        return EXIT_OK
    print("witness")
    for atom in witness.instance.sorted_atoms():
        print(render_atom(atom))
    print(f"pair1 {witness.pair1[0]} {witness.pair1[1]}")
    print(f"pair2 {witness.pair2[0]} {witness.pair2[1]}")
    print(
        "verdicts "
        + " ".join(v.verdict for v in witness.verdicts)
    )
    return EXIT_OK


def _free_variables(text: str) -> tuple[str, ...]:
    """The free variables x,y,u,v of a cross-check: four distinct names that
    follow the instance format's identifier rule."""
    free = tuple(name.strip() for name in text.split(","))
    for name in free:
        if not is_identifier(name):
            raise ParseError(f"invalid free variable {name!r}")
    if len(free) != 4 or len(set(free)) != 4:
        raise ParseError("cross-check needs four distinct free variables x,y,u,v")
    return free


def cmd_cross(args) -> int:
    problem = _load(args.file)
    solver = _single_solver(problem)
    free = _free_variables(args.free)
    existential = frozenset(set(problem.instance.variables) - set(free))
    formula = PPFormula(free, existential, problem.instance.atoms)
    report = check_cross_prevention(solver, formula)
    print("pass" if report.passes() else "fail")
    print(f"cond1 {str(report.cond1).lower()}")
    print(f"cond2 {str(report.cond2).lower()}")
    print(f"cond3 {str(report.cond3).lower()}")
    return EXIT_OK


def _henson_context(problem: Problem) -> TheorySolver:
    """The one theory of the file that forbids tournaments; every relational
    atom must be one of its own."""
    found = [s for s in problem.theories.values() if s.forbidden]
    if len(found) != 1:
        raise ParseError("henson commands need exactly one henson theory")
    tid = found[0].theory_id
    for atom in problem.instance.atoms:
        if atom.kind == REL and atom.symbol.theory_id != tid:
            raise ParseError(
                f"henson commands take only atoms of theory {tid}, "
                f"not {atom.symbol.theory_id}.{atom.symbol.name}"
            )
    return found[0]


def cmd_henson(args) -> int:
    problem = _load(args.file)
    solver = _henson_context(problem)
    tid = solver.theory_id
    if args.action == "reduce-up":
        symbol = problem.symbols.get((tid, "E"), RelationSymbol(tid, "E", 2))
        enlarged = build_s_star(problem.instance, e_symbol=symbol)
        out = Problem(problem.theories, problem.symbols, enlarged)
        sys.stdout.write(render_problem(out))
        return EXIT_OK
    if args.action == "solve":
        result = solver.decide(problem.instance)
    else:  # reduce-down
        result = component_label_solve(problem.instance, solver.forbidden)
    witness = result.witness
    if result.sat and not check_part_witness(solver, problem.instance, witness):
        raise WitnessCheckFailed("the SAT witness does not replay against the input")
    print(result.verdict)
    if args.witness and result.sat:
        assignment = witness_values(witness)
        for var in sorted(assignment):
            print(f"model {tid} {var} {assignment[var]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcsp")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide a combined instance file")
    p_solve.add_argument("file")
    p_solve.add_argument("--mode", choices=["auto", "convex", "complete"], default="auto")
    p_solve.add_argument("--witness", action="store_true")
    p_solve.set_defaults(fn=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="brute-force superposition verdict")
    p_oracle.add_argument("file")
    p_oracle.set_defaults(fn=cmd_oracle)

    p_probe = sub.add_parser("probe-convexity", help="search for a convexity violation")
    p_probe.add_argument("file")
    p_probe.add_argument("--max-vars", type=int, required=True)
    p_probe.add_argument("--max-atoms", type=int, required=True)
    group = p_probe.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--random", type=int, default=None, metavar="N")
    p_probe.add_argument("--seed", type=int, default=0)
    p_probe.set_defaults(fn=cmd_probe)

    p_cross = sub.add_parser("cross-check", help="verify a cross prevention formula")
    p_cross.add_argument("file")
    p_cross.add_argument("--free", required=True, metavar="x,y,u,v")
    p_cross.set_defaults(fn=cmd_cross)

    p_henson = sub.add_parser("henson", help="forbidden-tournament digraph commands")
    p_henson.add_argument("action", choices=["solve", "reduce-up", "reduce-down"])
    p_henson.add_argument("file")
    p_henson.add_argument("--witness", action="store_true")
    p_henson.set_defaults(fn=cmd_henson)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
    except tuple(ERRORS) as exc:
        prefix, code = next(v for cls, v in ERRORS.items() if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
