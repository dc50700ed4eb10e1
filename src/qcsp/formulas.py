"""Core data model: relation symbols, atoms, instances, and the instance file format.

An instance is a finite conjunction of theory-tagged relational atoms plus
theory-neutral equality/disequality atoms over named variables.  This module
also owns the structural operations every solver path relies on: merging
the equality atoms, checking values against the equality/disequality atoms
and splitting an instance into per-theory parts for combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

if TYPE_CHECKING:
    from .theories import Digraph, TheorySolver

REL = "rel"
EQ = "eq"
NEQ = "neq"


class ContractViolation(ValueError):
    """An instance contains atoms outside the solver's signature."""


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


def merge_equalities(
    inst: Instance, fixed: Mapping[str, int] | None = None, kind: str = ""
) -> tuple[dict[str, str], frozenset[tuple[str, ...]], set[tuple[str, str]]] | None:
    """Merge the Eq atoms of an instance by one union-find, without
    rebuilding it: ``(var_map, rels, neqs)``, where var_map sends every
    variable to the least name of its class, and rels (the argument tuples
    of every relational atom) and neqs (the Neq pairs) are over those
    names; None once a Neq falls inside one class.  The one pass that sorts
    the atoms raises ContractViolation, naming ``kind``, at a relational
    atom outside ``fixed`` (name to arity) when given: before any Neq ends
    the merge, every atom is checked."""
    equalities, rels, neqs = [], [], []
    for atom_kind, symbol, args in inst.atoms:
        if atom_kind == REL:
            if fixed is not None and fixed.get(symbol.name) != len(args):
                msg = f"{kind} solver got relation {symbol.name!r}/{len(args)}"
                raise ContractViolation(msg)
            rels.append(args)
        elif atom_kind == NEQ:
            neqs.append(args)
        else:
            equalities.append(args)
    var_map = _class_map(inst.variables, equalities)
    apart = set()
    for x, y in neqs:
        if equalities:
            x, y = var_map[x], var_map[y]
        if x == y:
            return None
        apart.add((x, y))
    if equalities:
        rels = [
            (var_map[args[0]], var_map[args[1]]) if len(args) == 2  # most atoms
            else tuple([var_map[v] for v in args])
            for args in rels
        ]
    return var_map, frozenset(rels), apart


def _class_map(variables: Iterable[str], equalities: list) -> dict[str, str]:
    """Each variable to the least name of its class under the equalities, by
    one union-find, whose own map is that when there are none."""
    classes = UnionFind(variables)
    for x, y in equalities:
        classes.union(x, y)
    return classes.mapping() if equalities else classes.parent


def realizes(values: Mapping[str, object], inst: Instance) -> bool:
    """Whether values cover the instance's variables and meet its Eq/Neq atoms."""
    return values.keys() >= set(inst.variables) and all(
        (values[a.args[0]] == values[a.args[1]]) == (a.kind == EQ)
        for a in inst.atoms
        if a.kind != REL
    )


def collapse_equalities(inst: Instance) -> tuple[Instance, dict[str, str]]:
    """Remove all Eq atoms by substituting each equality class with its
    lexicographically least member.

    Returns the rewritten instance and the full substitution map (identity
    entries included).  A Neq whose endpoints collapse together is kept as
    Neq(v, v); solvers treat it as unsatisfiable.  Without Eq atoms the
    instance itself is returned: ``neq`` already orders its arguments.
    """
    equalities = [atom.args for atom in inst.atoms if atom.kind == EQ]
    var_map = _class_map(inst.variables, equalities)
    if not equalities:
        return inst, var_map
    out = [
        Atom(REL, symbol, tuple([var_map[v] for v in args])) if kind == REL
        else neq(var_map[args[0]], var_map[args[1]])
        for kind, symbol, args in inst.atoms
        if kind != EQ
    ]
    return make_instance(out), var_map


def split_by_signature(
    inst: Instance, theory_ids: Iterable[str]
) -> tuple[dict[str, Instance], frozenset[str]]:
    """Route Rel atoms to their theory's part and copy Eq/Neq atoms into every
    part.  Shared variables are those occurring in the parts of at least two
    distinct theories, so a variable that reaches a theory only through an
    Eq/Neq atom is shared too (Nelson & Oppen 1979)."""
    by_theory: dict[str, list[Atom]] = {tid: [] for tid in theory_ids}
    neutral: list[Atom] = []
    for atom in inst.atoms:
        if atom.kind != REL:
            neutral.append(atom)
            continue
        tid = atom.symbol.theory_id
        own = by_theory.get(tid)
        if own is None:
            raise ValueError(f"atom references undeclared theory {tid!r}")
        own.append(atom)
    # a part that holds every atom of the instance is the instance itself
    parts = {
        tid: inst if len(own) + len(neutral) == len(inst) else make_instance(own + neutral)
        for tid, own in by_theory.items()
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


def is_weak_order(ranks: tuple[int, ...]) -> bool:
    used = set(ranks)
    return used == set(range(len(used)))


WEAK_ORDER_BOUND = 8


class BoundExceeded(ValueError):
    """The requested enumeration is over the configured size limit."""


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


def _parse_ordertype(token: str, arity: int, line_no: int) -> tuple[int, ...]:
    ranks = []
    for piece in token.split("/"):
        if not (piece.isascii() and piece.isdigit()):
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


@lru_cache(maxsize=256)
def _forbidden(spec: str) -> tuple[Digraph, ...]:
    """The tournaments of a ``;``-separated ``forbid`` tail; errors carry no line."""
    return tuple(_tournament(part.strip()) for part in spec.split(";") if part.strip())


def _tournament(token: str) -> Digraph:
    """The tournament one ``forbid`` token names."""
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
    graph = theories.Digraph(tuple(sorted(vertices)), frozenset(arcs))
    if not graph.is_tournament():
        raise ParseError(f"{token!r} is not a tournament")
    return graph


def parse_problem(text: str) -> Problem:
    """Parse the line-oriented instance file format into a resolved Problem,
    building the instance as the lines are read."""
    declared: dict[str, TheorySolver] = {}
    symbols: dict[tuple[str, str], RelationSymbol] = {}
    atoms: list[Atom] = []
    names: set[str] = set()  # variable names checked: the instance's variables

    def declare(tid: str, name: str, arity: int, line_no: int,
                semantics=None) -> None:
        key = (tid, name)
        if key in symbols:
            raise ParseError(f"duplicate relation declaration {tid}.{name}", line_no)
        symbols[key] = RelationSymbol(tid, name, arity)
        if semantics is not None:
            declared[tid].relations[name] = semantics

    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = (line.split("#", 1)[0] if "#" in line else line).split()
        if not tokens:
            continue
        head = tokens[0]

        if head == "atom":
            if len(tokens) < 3:
                raise ParseError("atom line too short", line_no)
            tid, name = tokens[1], tokens[2]
            symbol = symbols.get((tid, name))
            if symbol is None:
                if tid not in declared:
                    raise ParseError(f"undeclared theory {tid!r}", line_no)
                raise ParseError(f"undeclared relation {tid}.{name}", line_no)
            args = tuple(tokens[3:])
            for token in args:
                if token not in names:
                    names.add(_check_ident(token, "variable", line_no))
            if len(args) != symbol.arity:
                raise ParseError(
                    f"{tid}.{name} expects {symbol.arity} arguments, got {len(args)}",
                    line_no,
                )
            atoms.append(Atom(REL, symbol, args))

        elif head in (EQ, NEQ):
            if len(tokens) != 3:
                raise ParseError(f"{head} needs exactly two variables", line_no)
            for token in tokens[1:]:
                if token not in names:
                    names.add(_check_ident(token, "variable", line_no))
            atoms.append((eq if head == EQ else neq)(tokens[1], tokens[2]))

        elif head == "theory":
            if len(tokens) < 3:
                raise ParseError("theory line needs an id and a kind", line_no)
            tid = _check_ident(tokens[1], "theory id", line_no)
            kind, tail = tokens[2], tokens[3:]
            if tid in declared:
                raise ParseError(f"duplicate theory declaration {tid}", line_no)
            record = theories.KINDS.get(kind)
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
                try:
                    forbidden = _forbidden(" ".join(tail[1:]))
                except ParseError as exc:
                    raise ParseError(str(exc), line_no) from None
                if not forbidden:
                    raise ParseError(f"{kind} theory forbids nothing", line_no)
                tail = []
            if tail:
                raise ParseError(f"trailing tokens after {kind} theory", line_no)
            declared[tid] = theories.TheorySolver(tid, kind, convex, {}, forbidden)
            for name, arity in (record.relations or {}).items():
                declare(tid, name, arity, line_no)

        elif head == "relation":
            if len(tokens) < 4:
                raise ParseError("relation line too short", line_no)
            tid = tokens[1]
            if tid not in declared:
                raise ParseError(f"undeclared theory {tid!r}", line_no)
            if theories.KINDS[declared[tid].kind].relations is not None:
                raise ParseError(f"theory {tid} fixes its relations", line_no)
            if "/" not in tokens[2]:
                raise ParseError("relation needs a <name>/<arity> token", line_no)
            name, arity_s = tokens[2].rsplit("/", 1)
            _check_ident(name, "relation name", line_no)
            if not (arity_s.isascii() and arity_s.isdigit()) or int(arity_s) < 1:
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
                declare(tid, name, arity, line_no, theories.TemporalRelation(arity, allowed))
            elif mode == "builtin":
                if len(tokens) != 5 or tokens[4] != "mi":
                    raise ParseError("only 'builtin mi' is available", line_no)
                if arity != 3:
                    raise ParseError("builtin mi has arity 3", line_no)
                declare(tid, name, 3, line_no, theories.builtin_mi())
            else:
                raise ParseError(f"unknown relation mode {mode!r}", line_no)

        else:
            raise ParseError(f"unknown directive {head!r}", line_no)

    return Problem(declared, symbols, Instance(frozenset(atoms), tuple(sorted(names))))


def render_problem(problem: Problem) -> str:
    """Canonical serializer; parse_problem(render_problem(p)) round-trips."""
    lines: list[str] = []
    for tid in sorted(problem.theories):
        solver = problem.theories[tid]
        line = f"theory {tid} {solver.kind}"
        if solver.forbidden:
            tournaments = (
                ",".join(f"{a}>{b}" for a, b in sorted(t.arcs)) for t in solver.forbidden
            )
            line += " forbid " + ";".join(tournaments)
        elif solver.convex and not theories.KINDS[solver.kind].convex:
            line += " convex"
        lines.append(line)
    for tid in sorted(problem.theories):
        for name, relation in sorted(problem.theories[tid].relations.items()):
            ots = ",".join(
                "/".join(str(r) for r in ranks) for ranks in sorted(relation.allowed)
            )
            lines.append(f"relation {tid} {name}/{relation.arity} ordertypes {ots}")
    lines += map(render_atom, problem.instance.sorted_atoms())
    return "\n".join(lines) + "\n"


def render_atom(atom: Atom) -> str:
    """One atom as a line of the instance format."""
    if atom.kind == REL:
        return f"atom {atom.symbol.theory_id} {atom.symbol.name} " + " ".join(atom.args)
    return f"{atom.kind} {atom.args[0]} {atom.args[1]}"


# last: theories imports this module, and the parser reads its kinds
from . import theories  # noqa: E402
