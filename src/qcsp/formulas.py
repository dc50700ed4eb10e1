"""Core data model: relation symbols, atoms, instances, and the instance file format.

An instance is a finite conjunction of theory-tagged relational atoms plus
theory-neutral equality/disequality atoms over named variables.  This module
also owns the two structural operations every solver path relies on:
collapsing equality atoms by substitution and splitting an instance into
per-theory parts for combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:
    from .theories import Digraph, TheorySolver

REL = "rel"
EQ = "eq"
NEQ = "neq"


class ParseError(ValueError):
    """Malformed instance file; carries the 1-based source line when known."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class RelationSymbol(NamedTuple):
    theory_id: str
    name: str
    arity: int


class Atom(NamedTuple):
    kind: str  # REL, EQ or NEQ
    symbol: RelationSymbol | None
    args: tuple[str, ...]

    def sort_key(self):
        if self.kind == REL:
            return (0, self.symbol.theory_id, self.symbol.name, self.args)
        return (1 if self.kind == EQ else 2, "", "", self.args)


def rel(symbol: RelationSymbol, *args: str) -> Atom:
    if len(args) != symbol.arity:
        raise ValueError(
            f"{symbol.name} expects {symbol.arity} arguments, got {len(args)}"
        )
    return Atom(REL, symbol, tuple(args))


def eq(x: str, y: str) -> Atom:
    return Atom(EQ, None, (x, y) if x <= y else (y, x))


def neq(x: str, y: str) -> Atom:
    return Atom(NEQ, None, (x, y) if x <= y else (y, x))


@dataclass(frozen=True)
class Instance:
    """An immutable finite set of atoms; variables are exactly those occurring."""

    atoms: frozenset[Atom]
    variables: tuple[str, ...] = field(compare=False)

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self):
        return len(self.atoms)

    def sorted_atoms(self) -> list[Atom]:
        return sorted(self.atoms, key=Atom.sort_key)


def make_instance(atoms: Iterable[Atom]) -> Instance:
    atom_set = frozenset(atoms)
    seen: set[str] = set()
    for atom in atom_set:
        seen.update(atom.args)
    return Instance(atom_set, tuple(sorted(seen)))


class UnionFind:
    """Equivalence classes over names, each represented by its least name."""

    __slots__ = ("parent",)

    def __init__(self, items: Iterable[str] = ()):
        self.parent = {v: v for v in items}

    def find(self, v: str) -> str:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def mapping(self) -> dict[str, str]:
        """``{name: representative}`` for every name, in insertion order."""
        find = self.find
        return {v: find(v) for v in self.parent}


def collapse_equalities(inst: Instance) -> tuple[Instance, dict[str, str]]:
    """Remove all Eq atoms by substituting each equality class with its
    lexicographically least member.

    Returns the rewritten instance and the full substitution map (identity
    entries included).  A Neq whose endpoints collapse together is kept as
    Neq(v, v); solvers treat it as unsatisfiable.  Without Eq atoms the
    instance itself is returned: ``neq`` already orders its arguments.
    """
    equalities = [atom for atom in inst.atoms if atom.kind == EQ]
    if not equalities:
        return inst, {v: v for v in inst.variables}
    classes = UnionFind(inst.variables)
    for atom in equalities:
        classes.union(*atom.args)

    var_map = classes.mapping()
    out: set[Atom] = set()
    for atom in inst.atoms:
        if atom.kind == EQ:
            continue
        mapped = tuple(var_map[v] for v in atom.args)
        if atom.kind == REL:
            out.add(Atom(REL, atom.symbol, mapped))
        else:
            out.add(neq(*mapped))
    return make_instance(out), var_map


def split_by_signature(
    inst: Instance, theory_ids: Iterable[str]
) -> tuple[dict[str, Instance], frozenset[str]]:
    """Route Rel atoms to their theory's part and copy Eq/Neq atoms into every
    part.  Shared variables are those occurring in the parts of at least two
    distinct theories, so a variable that reaches a theory only through an
    Eq/Neq atom is shared too (Nelson & Oppen 1979)."""
    theory_ids = list(theory_ids)
    neutral = [a for a in inst.atoms if a.kind != REL]
    by_theory: dict[str, list[Atom]] = {tid: [] for tid in theory_ids}
    for atom in inst.atoms:
        if atom.kind != REL:
            continue
        tid = atom.symbol.theory_id
        if tid not in by_theory:
            raise ValueError(f"atom references undeclared theory {tid!r}")
        by_theory[tid].append(atom)
    parts = {
        tid: make_instance(by_theory[tid] + neutral) for tid in theory_ids
    }
    seen: set[str] = set()
    shared: set[str] = set()
    for part in parts.values():
        shared.update(seen.intersection(part.variables))
        seen.update(part.variables)
    return parts, frozenset(shared)


@dataclass(frozen=True)
class PPFormula:
    """Primitive positive formula: existentially quantified conjunction of atoms."""

    free_vars: tuple[str, ...]
    existential_vars: frozenset[str]
    body: frozenset[Atom]

    def __post_init__(self):
        free = set(self.free_vars)
        if len(free) != len(self.free_vars):
            raise ValueError("free variables repeat")
        if free & self.existential_vars:
            raise ValueError("free and existential variables overlap")
        scope = free | self.existential_vars
        for atom in self.body:
            for v in atom.args:
                if v not in scope:
                    raise ValueError(f"unbound variable {v!r} in formula body")


@dataclass(frozen=True)
class Problem:
    theories: dict[str, TheorySolver]
    symbols: dict[tuple[str, str], RelationSymbol]
    instance: Instance


def is_identifier(token: str) -> bool:
    """The format's identifier rule: an ASCII letter or underscore, then
    ASCII letters, digits or underscores."""
    return token.isascii() and token.isidentifier()


def _check_ident(token: str, what: str, line_no: int | None = None) -> str:
    if not is_identifier(token):
        raise ParseError(f"invalid {what} {token!r}", line_no)
    return token


def _parse_ordertype(token: str, arity: int, line_no: int) -> tuple[int, ...]:
    from .theories import is_weak_order

    ranks = []
    for piece in token.split("/"):
        if not piece.isdigit():
            raise ParseError(f"bad rank {piece!r} in order type", line_no)
        ranks.append(int(piece))
    if len(ranks) != arity:
        raise ParseError(
            f"order type {token!r} has length {len(ranks)}, expected {arity}", line_no
        )
    ranks = tuple(ranks)
    if not is_weak_order(ranks):
        raise ParseError(f"order type {token!r} has non-contiguous ranks", line_no)
    return ranks


def _parse_tournament(token: str, line_no: int) -> Digraph:
    try:
        return _tournament(token)
    except ParseError as exc:
        raise ParseError(str(exc), line_no) from None


@lru_cache(maxsize=256)
def _tournament(token: str) -> Digraph:
    """The tournament a ``forbid`` token names; a Digraph is frozen, so one
    parse serves every line that repeats the token.  Errors carry no line
    and are not cached."""
    from .theories import Digraph

    arcs = set()
    vertices = set()
    for arc in token.split(","):
        if ">" not in arc:
            raise ParseError(f"bad tournament arc {arc!r}")
        a, b = arc.split(">", 1)
        a, b = a.strip(), b.strip()
        _check_ident(a, "vertex")
        _check_ident(b, "vertex")
        arcs.add((a, b))
        vertices.update((a, b))
    graph = Digraph(tuple(sorted(vertices)), frozenset(arcs))
    if not graph.is_tournament():
        raise ParseError(f"{token!r} is not a tournament")
    return graph


def parse_problem(text: str) -> Problem:
    """Parse the line-oriented instance file format into a resolved Problem."""
    from .theories import KINDS, TemporalRelation, TheorySolver, builtin_mi

    theories: dict[str, TheorySolver] = {}
    symbols: dict[tuple[str, str], RelationSymbol] = {}
    atoms: list[Atom] = []
    names: set[str] = set()  # variable names already checked

    def variable(token: str, line_no: int) -> str:
        if token not in names:
            names.add(_check_ident(token, "variable", line_no))
        return token

    def declare(tid: str, name: str, arity: int, line_no: int,
                semantics=None) -> None:
        key = (tid, name)
        if key in symbols:
            raise ParseError(f"duplicate relation declaration {tid}.{name}", line_no)
        symbols[key] = RelationSymbol(tid, name, arity)
        if semantics is not None:
            theories[tid].relations[name] = semantics

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]

        if head == "theory":
            if len(tokens) < 3:
                raise ParseError("theory line needs an id and a kind", line_no)
            tid = _check_ident(tokens[1], "theory id", line_no)
            kind, tail = tokens[2], tokens[3:]
            if tid in theories:
                raise ParseError(f"duplicate theory declaration {tid}", line_no)
            record = KINDS.get(kind)
            if record is None:
                raise ParseError(f"unknown theory kind {kind!r}", line_no)
            convex, forbidden = record.convex, ()
            # grammar tails: a temporal theory may be declared convex, and a
            # henson kind lists the tournaments it forbids
            if kind == "temporal" and tail == ["convex"]:
                convex, tail = True, []
            elif kind in ("henson", "henson_b1"):
                if tail[:1] != ["forbid"] or len(tail) < 2:
                    raise ParseError(
                        f"{kind} theory needs: forbid <tournament>[;<tournament>]",
                        line_no,
                    )
                forbidden = tuple(
                    _parse_tournament(part.strip(), line_no)
                    for part in " ".join(tail[1:]).split(";")
                    if part.strip()
                )
                if not forbidden:
                    raise ParseError(f"{kind} theory forbids nothing", line_no)
                tail = []
            if tail:
                raise ParseError(f"trailing tokens after {kind} theory", line_no)
            theories[tid] = TheorySolver(tid, kind, convex, {}, forbidden)
            for name, arity in (record.relations or {}).items():
                declare(tid, name, arity, line_no)

        elif head == "relation":
            if len(tokens) < 4:
                raise ParseError("relation line too short", line_no)
            tid = tokens[1]
            if tid not in theories:
                raise ParseError(f"undeclared theory {tid!r}", line_no)
            if KINDS[theories[tid].kind].relations is not None:
                raise ParseError(f"theory {tid} fixes its relations", line_no)
            if "/" not in tokens[2]:
                raise ParseError("relation needs a <name>/<arity> token", line_no)
            name, arity_s = tokens[2].rsplit("/", 1)
            _check_ident(name, "relation name", line_no)
            if not arity_s.isdigit() or int(arity_s) < 1:
                raise ParseError(f"bad arity {arity_s!r}", line_no)
            arity = int(arity_s)
            mode = tokens[3]
            if mode == "ordertypes":
                if len(tokens) != 5:
                    raise ParseError("ordertypes needs one comma-separated list", line_no)
                allowed = frozenset(
                    _parse_ordertype(piece, arity, line_no)
                    for piece in tokens[4].split(",")
                )
                declare(tid, name, arity, line_no, TemporalRelation(arity, allowed))
            elif mode == "builtin":
                if len(tokens) != 5 or tokens[4] != "mi":
                    raise ParseError("only 'builtin mi' is available", line_no)
                if arity != 3:
                    raise ParseError("builtin mi has arity 3", line_no)
                declare(tid, name, 3, line_no, builtin_mi())
            else:
                raise ParseError(f"unknown relation mode {mode!r}", line_no)

        elif head == "atom":
            if len(tokens) < 3:
                raise ParseError("atom line too short", line_no)
            tid, name = tokens[1], tokens[2]
            if tid not in theories:
                raise ParseError(f"undeclared theory {tid!r}", line_no)
            key = (tid, name)
            if key not in symbols:
                raise ParseError(f"undeclared relation {tid}.{name}", line_no)
            args = [variable(t, line_no) for t in tokens[3:]]
            symbol = symbols[key]
            if len(args) != symbol.arity:
                raise ParseError(
                    f"{tid}.{name} expects {symbol.arity} arguments, got {len(args)}",
                    line_no,
                )
            atoms.append(Atom(REL, symbol, tuple(args)))

        elif head in (EQ, NEQ):
            if len(tokens) != 3:
                raise ParseError(f"{head} needs exactly two variables", line_no)
            x = variable(tokens[1], line_no)
            y = variable(tokens[2], line_no)
            atoms.append(eq(x, y) if head == EQ else neq(x, y))

        else:
            raise ParseError(f"unknown directive {head!r}", line_no)

    return Problem(theories, symbols, make_instance(atoms))


def render_problem(problem: Problem) -> str:
    """Canonical serializer; parse_problem(render_problem(p)) round-trips."""
    from .theories import KINDS

    lines: list[str] = []
    for tid in sorted(problem.theories):
        solver = problem.theories[tid]
        line = f"theory {tid} {solver.kind}"
        if solver.forbidden:
            tournaments = (
                ",".join(f"{a}>{b}" for a, b in sorted(t.arcs)) for t in solver.forbidden
            )
            line += " forbid " + ";".join(tournaments)
        elif solver.convex and not KINDS[solver.kind].convex:
            line += " convex"
        lines.append(line)
    for tid in sorted(problem.theories):
        for name, relation in sorted(problem.theories[tid].relations.items()):
            ots = ",".join(
                "/".join(str(r) for r in ranks) for ranks in sorted(relation.allowed)
            )
            lines.append(f"relation {tid} {name}/{relation.arity} ordertypes {ots}")
    for atom in problem.instance.sorted_atoms():
        if atom.kind == REL:
            lines.append(
                f"atom {atom.symbol.theory_id} {atom.symbol.name} " + " ".join(atom.args)
            )
        else:
            lines.append(f"{atom.kind} {atom.args[0]} {atom.args[1]}")
    return "\n".join(lines) + "\n"
