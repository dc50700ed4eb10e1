"""Kernel tests: the temporal search against a brute-force least solution,
its propagation fixpoint, the root fixpoint and facts it returns and a
search resumed from it, also with rows wider than a machine word, and the
induced-embedding search against a brute-force reference and under
relabelling.  The references read atoms as order types and tournaments as
digraphs, the forms the kernels take."""

import random
from itertools import combinations, permutations

import pytest

from qcsp import _kernels
from qcsp.oracle import enumerate_weak_orders
from qcsp.theories import Digraph, canonical_ranks

# the order types of one pair: (0, 1) is <, (0, 0) is =, (1, 0) is >
LESS, SAME, MORE = (0, 1), (0, 0), (1, 0)
LEQ = frozenset({LESS, SAME})
NEQ = frozenset({LESS, MORE})


def _pair_atom(i, j, mask):
    """The one-pair atom allowing (i, j) the statuses of a kernel mask."""
    bits = ((_kernels.LT, LESS), (_kernels.EQB, SAME), (_kernels.GT, MORE))
    return (i, j), frozenset(t for bit, t in bits if mask & bit)


def _random_order_types(rng, arity):
    """One to five order types of random ranks, so some may tell apart
    positions that an atom fills with one variable."""
    return frozenset(
        canonical_ranks(tuple(rng.randrange(arity) for _ in range(arity)))
        for _ in range(rng.randint(1, 5))
    )


def _random_temporal_case(rng):
    """Up to 6 variables, up to five atoms of two or three random (maybe
    repeated) arguments and up to four one-pair restrictions."""
    n = rng.randint(0, 6)
    atoms = []
    for _ in range(rng.randint(0, 5)):
        if n == 0:
            break
        arity = rng.choice([2, 3])
        args = tuple(rng.randrange(n) for _ in range(arity))
        atoms.append((args, _random_order_types(rng, arity)))
    for _ in range(rng.randint(0, 4)):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        atoms.append(_pair_atom(i, j, rng.choice([2, 5, 1, 4, 3, 6])))
    return n, tuple(atoms)


def _digraph(k, arcs):
    """A pattern on vertices named "0".."k-1", listed in that order."""
    return Digraph(
        tuple(str(u) for u in range(k)),
        frozenset((str(u), str(w)) for u, w in arcs),
    )


def _embeds(n, adj, tournaments):
    """Brute force: some vertex subset, in some order, carries every arc of
    a tournament one way only."""
    arcs = {(a, b) for a in range(n) for b in range(n) if adj[a * n + b]}
    for t in tournaments:
        order = {v: u for u, v in enumerate(t.vertices)}
        tarcs = [(order[a], order[b]) for a, b in t.arcs]
        for subset in combinations(range(n), len(order)):
            for image in permutations(subset):
                if all(
                    (image[u], image[w]) in arcs
                    and (image[w], image[u]) not in arcs
                    for u, w in tarcs
                ):
                    return True
    return False


def _tournaments(k):
    """Every tournament on vertices 0..k-1, one per way to orient the pairs."""
    pairs = list(combinations(range(k), 2))
    for bits in range(1 << len(pairs)):
        yield _digraph(
            k, [(u, w) if bits >> i & 1 else (w, u) for i, (u, w) in enumerate(pairs)]
        )


# 1 + 1 + 2 + 8 + 64 tournaments on 0-4 vertices
TOURNAMENTS = [t for k in range(5) for t in _tournaments(k)]


def _random_pattern(rng):
    """Mostly a tournament; now and then any arc set on up to 4 vertices,
    with loops, digons and missing pairs, for which the answer stays exact."""
    if rng.random() < 0.8:
        return rng.choice(TOURNAMENTS)
    k = rng.randint(1, 4)
    return _digraph(k, [(u, w) for u in range(k) for w in range(k) if rng.random() < 0.3])


def _random_embedding_case(rng):
    """Up to 7 vertices, a table at a random density with loops and digons,
    and up to 4 patterns."""
    n = rng.randint(0, 7)
    density = rng.random()
    adj = bytearray(rng.random() < density for _ in range(n * n))
    return n, adj, tuple(_random_pattern(rng) for _ in range(rng.randint(0, 4)))


def _arcs(n, adj):
    """The table's arcs as the kernel takes them, in a shuffled order."""
    arcs = [(a, b) for a in range(n) for b in range(n) if adj[a * n + b]]
    random.Random(n * len(arcs)).shuffle(arcs)
    return arcs


def test_induced_embedding_matches_brute_force():
    rng = random.Random(137)
    found = 0
    for _ in range(3000):
        n, adj, tournaments = _random_embedding_case(rng)
        expected = _embeds(n, adj, tournaments)
        assert _kernels.find_induced_embedding(n, _arcs(n, adj), tournaments) == expected, (
            n, bytes(adj), tournaments
        )
        found += expected
    assert 0 < found < 3000
    # the 0-vertex tournament embeds into every digraph, the empty one too
    assert _kernels.find_induced_embedding(0, [], (_digraph(0, ()),))


def test_induced_embedding_ignores_labels_and_tournament_order():
    # relabelling the digraph, reordering the tournaments and listing each
    # tournament's vertices in another order change no answer
    rng = random.Random(139)
    for _ in range(1000):
        n, adj, tournaments = _random_embedding_case(rng)
        perm = rng.sample(range(n), n)
        arcs = _arcs(n, adj)
        relabelled = [(perm[a], perm[b]) for a, b in arcs]
        shuffled = tuple(
            Digraph(tuple(rng.sample(t.vertices, len(t.vertices))), t.arcs)
            for t in rng.sample(tournaments, len(tournaments))
        )
        assert _kernels.find_induced_embedding(
            n, relabelled, shuffled
        ) == _kernels.find_induced_embedding(n, arcs, tournaments), (
            n, bytes(adj), tournaments, perm
        )


def _status(ranks, i, j):
    if ranks[i] < ranks[j]:
        return _kernels.LT
    return _kernels.EQB if ranks[i] == ranks[j] else _kernels.GT


def _meets(ranks, atoms):
    """Whether the weak order gives every atom's arguments an order type it
    allows."""
    return all(
        canonical_ranks(tuple(ranks[a] for a in args)) in allowed
        for args, allowed in atoms
    )


def _solutions(n, atoms):
    """Brute force: the weak orders meeting every atom."""
    for ranks in enumerate_weak_orders(n):
        if _meets(ranks, atoms):
            yield ranks


def _least_solution(n, atoms):
    """Among the solutions, the one whose comparisons on (0, 1), (0, 2),
    ..., (n-2, n-1) are least, with < before = before >; None when there is
    none."""
    best = None
    for ranks in _solutions(n, atoms):
        key = tuple(
            (ranks[i] > ranks[j]) - (ranks[i] < ranks[j])
            for i in range(n)
            for j in range(i + 1, n)
        )
        if best is None or key < best[0]:
            best = (key, ranks)
    return None if best is None else best[1]


def test_temporal_search_returns_the_least_solution():
    rng = random.Random(139)
    checked = 0
    while checked < 1000:
        n, atoms = _random_temporal_case(rng)
        if n > 5:
            continue
        checked += 1
        assert _kernels.temporal_search(n, atoms)[0] == _least_solution(n, atoms), (
            n, atoms
        )


def _table(n, rows):
    """The kernel's rows as the n*n table of pair statuses: table[i*n+j] is
    field j of row i, the status of (i, j)."""
    return bytes(rows[i] >> 3 * j & 7 for i in range(n) for j in range(n))


def _root_table(n, root):
    """The root fixpoint's table, None for no root."""
    return None if root is None else _table(n, root[0])


def _count_propagations(monkeypatch):
    """Record (result, table after) of every _propagate call."""
    calls = []
    original = _kernels._propagate

    def counted(n, rows, *rest):
        ok = original(n, rows, *rest)
        calls.append((ok, _table(n, rows)))
        return ok

    monkeypatch.setattr(_kernels, "_propagate", counted)
    return calls


def _composition(a, b):
    """The statuses (x ? z) allows given (x ? y) in a and (y ? z) in b."""
    out = 0
    for ranks in enumerate_weak_orders(3):
        if _status(ranks, 0, 1) & a and _status(ranks, 1, 2) & b:
            out |= _status(ranks, 0, 2)
    return out


def _is_fixpoint(n, state, atoms, compose):
    """Every pair is path consistent and every atom supports the statuses of
    its pairs of distinct arguments: each status is taken by some allowed
    order type that fills repeated arguments alike and fits the table."""
    for i in range(n):
        for j in range(n):
            for k in range(n):
                implied = compose[state[i * n + j], state[j * n + k]]
                if state[i * n + k] & ~implied:
                    return False
    for args, allowed in atoms:
        positions = list(combinations(range(len(args)), 2))
        slots = [(u, w) for u, w in positions if args[u] != args[w]]
        masks = [state[args[u] * n + args[w]] for u, w in slots]
        support = [0] * len(slots)
        for p in allowed:
            if any(p[u] != p[w] for u, w in positions if args[u] == args[w]):
                continue
            bits = [_status(p, u, w) for u, w in slots]
            if all(m & b for m, b in zip(masks, bits)):
                support = [s | b for s, b in zip(support, bits)]
        if any(m & ~s for m, s in zip(masks, support)):
            return False
    return True


def test_every_node_reaches_the_propagation_fixpoint(monkeypatch):
    # the worklist revises every pair and atom a change can affect, so each
    # node, the root and every branch child alike, ends at the fixpoint
    calls = _count_propagations(monkeypatch)
    compose = {(a, b): _composition(a, b) for a in range(8) for b in range(8)}
    rng = random.Random(149)
    for _ in range(3000):
        n, atoms = _random_temporal_case(rng)
        calls.clear()
        _kernels.temporal_search(n, atoms)
        for ok, state in calls:
            assert not ok or _is_fixpoint(n, state, atoms, compose), (n, atoms)


def _flip(status):
    """The status of (j, i) given that of (i, j)."""
    return (status & _kernels.LT) << 2 | status & _kernels.EQB | status >> 2


def _planted_case(rng, n):
    """n atoms over n variables and up to four one-pair restrictions, all
    met by a random planted weak order: each atom of two or three distinct
    variables allows the planted order type and up to three random ones,
    and each restriction the planted status and maybe one more."""
    planted = [rng.randrange(n // 2) for _ in range(n)]
    atoms = []
    for _ in range(n):
        args = tuple(rng.sample(range(n), rng.choice([2, 3])))
        allowed = {canonical_ranks(tuple(planted[a] for a in args))}
        for _ in range(rng.randint(0, 3)):
            allowed.add(canonical_ranks(tuple(rng.randrange(3) for _ in args)))
        atoms.append((args, frozenset(allowed)))
    for _ in range(rng.randint(0, 4)):
        i, j = rng.sample(range(n), 2)
        mask = _status(planted, i, j) | rng.choice([0, 1, 2, 4])
        atoms.append(_pair_atom(i, j, mask))
    return tuple(atoms)


def test_rows_wider_than_a_machine_word(monkeypatch):
    # at 22-32 variables a row holds 66-96 bits: the root is a fixpoint and
    # moves with a relabelling of the indices, the solution meets every
    # atom, and every propagation leaves each field's flip in place
    calls = _count_propagations(monkeypatch)
    compose = {(a, b): _composition(a, b) for a in range(8) for b in range(8)}
    rng = random.Random(167)
    for _ in range(12):
        n = rng.randint(22, 32)
        atoms = _planted_case(rng, n)
        calls.clear()
        ranks, root = _kernels.temporal_search(n, atoms)
        assert ranks is not None and _meets(ranks, atoms), (n, atoms)
        table = _root_table(n, root)
        assert _is_fixpoint(n, table, atoms, compose), (n, atoms)
        for _, after in calls:
            assert all(
                after[k * n + i] == _flip(after[i * n + k])
                for i in range(n)
                for k in range(n)
            ), (n, atoms)

        perm = rng.sample(range(n), n)
        moved_atoms = tuple(
            (tuple(perm[a] for a in args), allowed) for args, allowed in atoms
        )
        _, moved = _kernels.temporal_search(n, moved_atoms)
        moved_table = _root_table(n, moved)
        assert all(
            moved_table[perm[i] * n + perm[j]] == table[i * n + j]
            for i in range(n)
            for j in range(n)
        ), (n, atoms, perm)


def test_leq_cycle_with_a_neq_fails_at_the_root(monkeypatch):
    # x0 <= x1 <= ... <= x27 <= x0 forces all equal, so x0 != x14 is refuted
    # by propagation alone, without a branch
    calls = _count_propagations(monkeypatch)
    n = 28
    atoms = tuple(((k, (k + 1) % n), LEQ) for k in range(n))
    assert _kernels.temporal_search(n, atoms + (((0, n // 2), NEQ),)) == (None, None)
    assert [ok for ok, _ in calls] == [False]


def test_leq_chain_closed_into_a_cycle_is_equal_at_the_root(monkeypatch):
    # x <= y <= z composes to x <= z; with z <= x every pair is =
    calls = _count_propagations(monkeypatch)
    atoms = (((0, 1), LEQ), ((1, 2), LEQ), ((2, 0), LEQ))
    assert _kernels.temporal_search(3, atoms)[0] == (0, 0, 0)
    assert len(calls) == 1
    ok, state = calls[0]
    assert ok and set(state) == {_kernels.EQB}


def test_search_returns_the_root_fixpoint(monkeypatch):
    # the root is the table the single root _propagate left, untouched by
    # the branches below it, and None exactly when that propagation fails,
    # so every solution comes with its root; the order of the atoms changes
    # neither (chaotic iteration reaches one fixpoint in any order)
    calls = _count_propagations(monkeypatch)
    rng = random.Random(151)
    roots = 0
    for _ in range(3000):
        n, atoms = _random_temporal_case(rng)
        calls.clear()
        ranks, root = _kernels.temporal_search(n, atoms)
        if calls and calls[0][0]:
            assert _root_table(n, root) == calls[0][1]
            roots += 1
        else:
            assert root is None and ranks is None
        reversed_ranks, reversed_root = _kernels.temporal_search(n, atoms[::-1])
        assert reversed_ranks == ranks
        assert _root_table(n, reversed_root) == _root_table(n, root)
    assert 0 < roots < 3000


def _extra_restrictions(rng, n, state):
    """One to three restrictions (i, j, mask) on random pairs: each mask
    either random, the statuses the pair lacks in the table (it empties the
    pair) or statuses the pair has and more (it changes nothing)."""
    extra = []
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(n), 2)
        status = state[i * n + j]
        extra.append((i, j, rng.choice([
            rng.randint(1, 7), _kernels.ALL & ~status, status | rng.randint(0, 7)
        ])))
    return extra


def test_resumed_search_matches_a_fresh_one():
    # a search resumed from a root fixpoint with just the new one-pair atoms
    # returns the ranks and the root fixpoint of a fresh search that gets
    # them all, through chains of resumes too
    rng = random.Random(163)
    outcomes = {"emptied": 0, "unchanged": 0, "changed": 0}
    for _ in range(3000):
        n, atoms = _random_temporal_case(rng)
        _, root = _kernels.temporal_search(n, atoms)
        while root is not None and n >= 2:
            table = _root_table(n, root)
            extra = _extra_restrictions(rng, n, table)
            added = tuple(_pair_atom(*restriction) for restriction in extra)
            atoms += added
            expected, fresh = _kernels.temporal_search(n, atoms)
            got, root = _kernels.temporal_search(n, added, root)
            assert got == expected, (n, atoms)
            assert _root_table(n, root) == _root_table(n, fresh)
            kept = [table[i * n + j] & mask for i, j, mask in extra]
            if 0 in kept:
                assert got is None and root is None
                outcomes["emptied"] += 1
            elif kept == [table[i * n + j] for i, j, _ in extra]:
                assert _root_table(n, root) == table
                outcomes["unchanged"] += 1
            else:
                outcomes["changed"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_resumed_search_refuses_an_atom_of_more_than_one_pair():
    # a start shares its laid-out atoms and watch lists with every search
    # resumed from it, so a resume takes only restrictions of one pair: an
    # atom of more cells raises before anything is applied, and the start
    # resumes afterwards as before
    between = frozenset({(0, 1, 2), (2, 1, 0)})
    atoms = (((0, 1, 2), between), ((0, 1), LEQ))
    _, root = _kernels.temporal_search(4, atoms)
    rows, laid_out, watch = list(root[0]), list(root[1]), list(root[2])
    for added in (
        [((1, 2, 3), between)],
        [((0, 3), NEQ), ((1, 3, 3, 2), frozenset({(0, 1, 1, 2)}))],
    ):
        with pytest.raises(ValueError):
            _kernels.temporal_search(4, added, root)
        assert (root[0], root[1], root[2]) == (rows, laid_out, watch)
    got, resumed = _kernels.temporal_search(4, [((0, 3), NEQ)], root)
    expected, fresh = _kernels.temporal_search(4, atoms + (((0, 3), NEQ),))
    assert got == expected and resumed[0] == fresh[0]


def test_root_fixpoint_statuses_hold_in_every_solution():
    # a status left at exactly = is equal, and a status without = is
    # distinct, in every weak order meeting the atoms; root_facts names
    # each class by its least exactly-= index and reports the distinct pairs
    rng = random.Random(157)
    for _ in range(1000):
        n, atoms = _random_temporal_case(rng)
        if n > 5:
            continue
        _, root = _kernels.temporal_search(n, atoms)
        if root is None:
            continue
        state = _root_table(n, root)
        least, distinct = _kernels.root_facts(root)
        for i in range(n):
            assert least[i] == min(j for j in range(n) if state[i * n + j] == _kernels.EQB)
            for j in range(n):
                assert distinct(i, j) == (not state[i * n + j] & _kernels.EQB)
        for ranks in _solutions(n, atoms):
            for i in range(n):
                assert ranks[i] == ranks[least[i]]
                for j in range(n):
                    assert _status(ranks, i, j) & state[i * n + j]


def test_pure_temporal_search_basics():
    lt = frozenset({LESS})
    # x < y < z has the unique canonical solution (0, 1, 2)
    assert _kernels.temporal_search(3, (((0, 1), lt), ((1, 2), lt)))[0] == (0, 1, 2)
    # x < y and y < x is empty
    assert _kernels.temporal_search(2, (((0, 1), lt), ((1, 0), lt)))[0] is None
    # a repeated neq keeps no order type and fails at the root, fresh or
    # resumed; a repeated eq holds
    eq = frozenset({SAME})
    assert _kernels.temporal_search(2, (((1, 1), NEQ),)) == (None, None)
    ranks, root = _kernels.temporal_search(2, (((1, 1), eq), ((0, 1), lt)))
    assert ranks == (0, 1)
    assert _kernels.temporal_search(2, (((0, 0), NEQ),), root) == (None, None)
    assert _kernels.temporal_search(2, (((0, 0), eq),), root)[0] == (0, 1)


def test_pure_embedding_basics():
    c3 = Digraph(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "a")}))
    arcs = [(0, 1), (1, 2), (2, 0)]
    assert _kernels.find_induced_embedding(3, arcs, (c3,))
    arcs.append((1, 0))  # digon on (0, 1) blocks the induced match
    assert not _kernels.find_induced_embedding(3, arcs, (c3,))
