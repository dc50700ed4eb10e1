"""Seeded instance generators for the qcsp benchmark.

Every instance is built around a planted model, so its verdict is known by
construction: a SAT instance only states facts that the planted model makes
true, and an UNSAT instance adds a small gadget that no model satisfies.
``evaluate`` checks a planted model against instance text with its own
parser and semantics; it never calls the solver.

Instance ``index`` of a workload is drawn from its own generator seeded with
``(workload, seed, index)``, so any prefix of the stream is reproducible and
the size/verdict schedule is the same for every seed: instance ``index``
takes entry ``index % len(schedule)`` of the workload's ``SCHEDULES``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import combinations, permutations

C3 = "a>b,b>c,c>a"
T4 = "a>b,a>c,a>d,b>c,b>d,c>d"
FORBIDDEN_CHOICES = ((C3,), (T4,), (C3, T4))

TEMPORAL_MI_HEADER = (
    "theory t1 temporal",
    "relation t1 leq/2 ordertypes 0/0,0/1",
    "relation t1 mi/3 builtin mi",
    "theory t2 point_algebra",
)
CHAIN_HEADER = (
    "theory t1 temporal",
    "relation t1 lt/2 ordertypes 0/1",
    "theory t2 point_algebra",
    "theory t3 equality",
)
PA_HEADER = ("theory t1 point_algebra", "theory t2 point_algebra")


def _repeat(*entries) -> tuple[tuple[int, bool], ...]:
    return tuple((n, sat) for n, sat, count in entries for _ in range(count))


# (shared-variable count, expected verdict) entries, cycled by instance
# index; henson sizes count variables.  Runs cover whole cycles, and each
# cycle puts p50 and p90 inside a populous class of similar cost rather than
# on the edge between two: the spread of a percentile across seeds is set by
# how many instances of its class a run holds.  The rare largest instances
# sit above p90 and weigh in instances_per_s.  Below, nT / nU stands for a
# SAT / UNSAT entry with n shared variables.
SCHEDULES = {
    # Half UNSAT.  With the gadget at a random place in the search order,
    # refutation times spread widely and overlap 5T, so p50 falls where 6U
    # and 5T meet and p90 inside 6T.  At 7 shared variables SAT costs vary
    # threefold (p10-p90) and UNSAT has a tail to over a second, which made
    # p90 and instances_per_s vary by up to a fifth between seeds; from 8
    # on, single instances take seconds.
    "mi_complete": _repeat((6, False, 5), (5, True, 2), (6, True, 3)),
    # UNSAT refutes in about 1 ms at any size, so it sits below p50.  In a
    # pass of 40, 5T holds ranks 15-26 around p50 and 7T ranks 34-39 around
    # p90; one 10T, about 1 s, is the largest.
    "chain_complete": _repeat(
        (6, False, 2), (8, False, 2), (10, False, 2), (12, False, 2),
        (4, True, 6), (5, True, 12), (6, True, 7), (7, True, 6), (10, True, 1),
    ),
    # p50 among 12T/16U (about 30 ms); in a pass of 40, 20T/24U hold ranks
    # 33-38 around p90, and the two 28-variable instances sit on top.
    "pa_convex": _repeat(
        (12, True, 16), (16, False, 16), (20, True, 3), (24, False, 3),
        (28, True, 1), (28, False, 1),
    ),
    "henson_roundtrip": _repeat(*((n, sat, 1) for n in range(3, 8) for sat in (True, False))),
}
WORKLOADS = tuple(SCHEDULES)


@dataclass(frozen=True)
class Case:
    workload: str
    index: int
    size: int
    expect_sat: bool
    text: str
    # Order workloads: variable -> rank.  henson: (assignment, arcs).
    # For an UNSAT case this is the model of the instance without its gadget.
    planted: object

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def make_case(workload: str, seed: int, index: int) -> Case:
    schedule = SCHEDULES[workload]
    size, expect_sat = schedule[index % len(schedule)]
    return build_case(workload, f"{workload}:{seed}:{index}", size, expect_sat, index)


def build_case(workload: str, rng_seed: str, size: int, expect_sat: bool,
               index: int = -1) -> Case:
    """One instance of the workload's family at any size."""
    lines, planted = _BUILDERS[workload](random.Random(rng_seed), size, expect_sat)
    return Case(workload, index, size, expect_sat, "\n".join(lines) + "\n", planted)


def _names(n: int) -> list[str]:
    return [f"v{i:02d}" for i in range(n)]


def _planted_ranks(rng: random.Random, variables, levels: int) -> dict:
    """A random weak order with ties and at least three levels, compressed to
    ranks 0..k-1."""
    while True:
        raw = [rng.randrange(levels) for _ in variables]
        used = sorted(set(raw))
        if len(used) >= 3:
            break
    compress = {r: i for i, r in enumerate(used)}
    return {v: compress[r] for v, r in zip(variables, raw)}


def _order_atom(tid: str, rank: dict[str, int], x: str, y: str, rng) -> str:
    """An lt/leq atom between x and y that the planted ranks make true."""
    if rank[x] > rank[y]:
        x, y = y, x
    if rank[x] == rank[y]:
        return f"atom {tid} leq {x} {y}"
    return f"atom {tid} {rng.choice(('lt', 'leq'))} {x} {y}"


def _build_mi(rng: random.Random, n: int, sat: bool):
    """Temporal leq/mi plus point algebra, every variable in both theories.

    The UNSAT gadget ``mi a b c, mi c d a, leq a b, leq c d`` (t1) with
    ``lt a b, lt c d`` (t2) has no model, yet each theory alone is satisfiable
    and the planted ranks violate only ``mi c d a``, so only the arrangement
    search refutes it.
    """
    ids = range(n)
    while True:
        rank_of = _planted_ranks(rng, ids, max(3, (7 * n + 9) // 10))
        quads = [
            (a, b, c, d)
            for a, b, c, d in permutations(ids, 4)
            if rank_of[c] < rank_of[a] < rank_of[b] and rank_of[c] < rank_of[d]
        ]
        if quads:
            break
    gadget = () if sat else rng.choice(quads)
    # Names are a random permutation, so the gadget's pairs sit anywhere in
    # the order in which the arrangement search meets the shared variables.
    name = {i: f"v{k:02d}" for k, i in enumerate(rng.sample(ids, n))}
    names = [name[i] for i in ids]
    rank = {name[i]: rank_of[i] for i in ids}
    atoms = []
    for v in rng.sample(names, n):
        while True:
            x, y, z = rng.sample(names, 3)
            if v not in (x, y, z):
                x = v
            if _mi((rank[x], rank[y], rank[z])):
                break
        atoms.append(f"atom t1 mi {x} {y} {z}")
        w = rng.choice([u for u in names if u != v])
        atoms.append(_order_atom("t2", rank, v, w, rng))
    for _ in range(n // 2):
        x, y = rng.sample(names, 2)
        if rank[x] > rank[y]:
            x, y = y, x
        atoms.append(f"atom t1 leq {x} {y}")
    if not sat:
        a, b, c, d = (name[i] for i in gadget)
        atoms += [
            f"atom t1 mi {a} {b} {c}",
            f"atom t1 mi {c} {d} {a}",
            f"atom t1 leq {a} {b}",
            f"atom t1 leq {c} {d}",
            f"atom t2 lt {a} {b}",
            f"atom t2 lt {c} {d}",
        ]
    rng.shuffle(atoms)
    return list(TEMPORAL_MI_HEADER) + atoms, rank


def _build_chain(rng: random.Random, n: int, sat: bool):
    """A temporal lt chain and a point-algebra leq chain along one planted
    order, plus an empty equality theory.  UNSAT closes the leq chain into a
    cycle: t2 then forces all variables equal, which only the lt chain in t1
    contradicts."""
    order = rng.sample(_names(n), n)
    rank = {v: i for i, v in enumerate(order)}
    atoms = []
    for i in range(n - 1):
        atoms.append(f"atom t1 lt {order[i]} {order[i + 1]}")
        atoms.append(f"atom t2 leq {order[i]} {order[i + 1]}")
    if not sat:
        atoms.append(f"atom t2 leq {order[-1]} {order[0]}")
    rng.shuffle(atoms)
    return list(CHAIN_HEADER) + atoms, rank


def _build_pa(rng: random.Random, n: int, sat: bool):
    """Two point-algebra theories over planted ranks with ties.

    Inside each tie group g0..gk, t1 asserts g0 <= g1 <= g0 and then the two
    theories take turns asserting g_i <= g_(i+1) <= g_(i-1).  Each theory
    entails the next equality of the group only after it has learned the
    previous one from the other theory, so propagation needs several rounds.
    UNSAT adds ``t2 lt g0 g1``, an order t1 forces to be an equality.
    """
    names = rng.sample(_names(n), n)
    groups: list[list[str]] = []
    rest = names[:]
    while rest:
        k = min(len(rest), rng.choice((1, 2, 2, 3, 4)))
        groups.append(rest[:k])
        rest = rest[k:]
    if all(len(g) < 2 for g in groups):
        groups[0] = groups[0] + groups.pop(1)
    rank = {v: r for r, group in enumerate(groups) for v in group}
    atoms = []
    for g in groups:
        if len(g) < 2:
            continue
        atoms += [f"atom t1 leq {g[0]} {g[1]}", f"atom t1 leq {g[1]} {g[0]}"]
        for i in range(1, len(g) - 1):
            tid = "t2" if i % 2 else "t1"
            atoms += [
                f"atom {tid} leq {g[i]} {g[i + 1]}",
                f"atom {tid} leq {g[i + 1]} {g[i - 1]}",
            ]
    for lower, upper in zip(groups, groups[1:]):
        for tid in ("t1", "t2"):
            atoms.append(
                _order_atom(tid, rank, rng.choice(lower), rng.choice(upper), rng)
            )
    for tid in ("t1", "t2"):
        mentioned = {
            token
            for line in atoms
            if line.startswith(f"atom {tid} ")
            for token in line.split()[3:]
        }
        for v in names:
            if v not in mentioned:
                w = rng.choice([u for u in names if u != v])
                atoms.append(_order_atom(tid, rank, v, w, rng))
    if not sat:
        g = rng.choice([g for g in groups if len(g) >= 2])
        atoms.append(f"atom t2 lt {g[0]} {g[1]}")
    rng.shuffle(atoms)
    return list(PA_HEADER) + atoms, rank


def _k4_free(edges: set[frozenset], vertices: range) -> bool:
    return not any(
        all(frozenset(p) in edges for p in combinations(quad, 2))
        for quad in combinations(vertices, 4)
    )


def _build_henson(rng: random.Random, n: int, sat: bool):
    """A digraph instance over n variables mapped onto a planted digraph.

    The planted digraph is acyclic when the 3-cycle is forbidden and has no
    4-clique when the transitive 4-tournament is, so it omits every forbidden
    tournament.  UNSAT gadgets embed a forbidden tournament or force a loop,
    a digon or a reflexive disequality.
    """
    forbidden = rng.choice(FORBIDDEN_CHOICES)
    names = _names(n)
    m = n - rng.randint(0, min(2, n - 3))
    vertex_of = {v: (i if i < m else rng.randrange(m)) for i, v in enumerate(names)}
    order = rng.sample(range(m), m)
    arcs: set[tuple[int, int]] = set()
    edges: set[frozenset] = set()
    for i, j in combinations(range(m), 2):
        if rng.random() < 0.55:
            u, w = order[i], order[j]
            if C3 not in forbidden and rng.random() < 0.5:
                u, w = w, u
            edges.add(frozenset((u, w)))
            if T4 in forbidden and not _k4_free(edges, range(m)):
                edges.discard(frozenset((u, w)))
                continue
            arcs.add((u, w))
    members = {x: [v for v in names if vertex_of[v] == x] for x in range(m)}
    atoms = []
    for u, w in sorted(arcs):
        if rng.random() < 0.85:
            atoms.append(f"atom t1 E {rng.choice(members[u])} {rng.choice(members[w])}")
    for group in members.values():
        if len(group) >= 2:
            atoms.append(f"eq {group[0]} {group[1]}")
    for _ in range(rng.randint(1, 2)):
        x, y = rng.sample(range(m), 2)
        atoms.append(f"neq {rng.choice(members[x])} {rng.choice(members[y])}")
    if not sat:
        atoms += _henson_gadget(rng, names, forbidden)
    rng.shuffle(atoms)
    header = f"theory t1 henson forbid {';'.join(forbidden)}"
    return [header] + atoms, (vertex_of, frozenset(arcs))


def _henson_gadget(rng: random.Random, names: list[str], forbidden) -> list[str]:
    fits = [t for t in forbidden if len(_tournament_vertices(t)) <= len(names)]
    kind = rng.choice(("tournament", "tournament", "loop", "digon", "neq"))
    if kind == "tournament" and fits:
        spec = rng.choice(fits)
        vertices = _tournament_vertices(spec)
        image = dict(zip(vertices, rng.sample(names, len(vertices))))
        return [f"atom t1 E {image[a]} {image[b]}" for a, b in _tournament_arcs(spec)]
    x, y, z = rng.sample(names, 3)
    if kind == "digon":
        return [f"atom t1 E {x} {y}", f"atom t1 E {y} {x}"]
    if kind == "loop":
        return [f"atom t1 E {x} {y}", f"eq {y} {z}", f"eq {z} {x}"]
    return [f"eq {x} {y}", f"eq {y} {z}", f"neq {x} {z}"]


def _tournament_arcs(spec: str) -> list[tuple[str, str]]:
    return [tuple(arc.split(">")) for arc in spec.split(",")]


def _tournament_vertices(spec: str) -> list[str]:
    return sorted({v for arc in _tournament_arcs(spec) for v in arc})


_BUILDERS = {
    "mi_complete": _build_mi,
    "chain_complete": _build_chain,
    "pa_convex": _build_pa,
    "henson_roundtrip": _build_henson,
}


def _mi(w) -> bool:
    """The builtin mi relation: x >= y or x > z."""
    return w[0] >= w[1] or w[0] > w[2]


def _order_type(values) -> tuple[int, ...]:
    levels = sorted(set(values))
    return tuple(levels.index(v) for v in values)


def evaluate(text: str, planted) -> bool:
    """True when the planted model satisfies every atom of the instance text.

    Order instances take a rank per variable, read by every theory; henson
    instances take (variable -> vertex, arcs), and the planted digraph must
    itself be loopless, digon-free and omit every forbidden tournament.
    """
    relations: dict[tuple[str, str], object] = {}
    kinds: dict[str, str] = {}
    forbidden: list[str] = []
    atoms = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "theory":
            kinds[tokens[1]] = tokens[2]
            if tokens[2] == "henson":
                forbidden = " ".join(tokens[4:]).split(";")
        elif tokens[0] == "relation":
            name = tokens[2].split("/")[0]
            if tokens[3] == "builtin":
                relations[tokens[1], name] = _mi
            else:
                allowed = {
                    tuple(int(r) for r in ot.split("/")) for ot in tokens[4].split(",")
                }
                relations[tokens[1], name] = lambda w, allowed=allowed: (
                    _order_type(w) in allowed
                )
        else:
            atoms.append(tokens)
    if "henson" in kinds.values():
        vertex_of, arcs = planted
        if not _digraph_admissible(arcs, forbidden):
            return False
        value = vertex_of
    else:
        value = planted
    for tokens in atoms:
        if tokens[0] in ("eq", "neq"):
            same = value[tokens[1]] == value[tokens[2]]
            if same != (tokens[0] == "eq"):
                return False
            continue
        tid, name, args = tokens[1], tokens[2], tokens[3:]
        values = tuple(value[a] for a in args)
        if kinds[tid] == "henson":
            ok = values in arcs
        elif kinds[tid] == "point_algebra":
            ok = values[0] < values[1] if name == "lt" else values[0] <= values[1]
        else:
            ok = relations[tid, name](values)
        if not ok:
            return False
    return True


def _digraph_admissible(arcs, forbidden: list[str]) -> bool:
    if any(u == w or (w, u) in arcs for u, w in arcs):
        return False
    vertices = sorted({x for arc in arcs for x in arc})
    for spec in forbidden:
        t_vertices = _tournament_vertices(spec)
        t_arcs = _tournament_arcs(spec)
        for image in permutations(vertices, len(t_vertices)):
            where = dict(zip(t_vertices, image))
            if all((where[a], where[b]) in arcs for a, b in t_arcs):
                return False
    return True
