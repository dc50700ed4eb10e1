"""Kernel tests: the temporal search against a brute-force least solution,
its propagation fixpoint, the root fixpoint it returns and a search resumed
from it, also with rows wider than a machine word, and the induced-embedding
search against a brute-force reference and under relabelling."""

import random
from itertools import combinations, permutations

from qcsp._kernels import pure
from qcsp.oracle import enumerate_weak_orders


def _pack(bits):
    """A pattern as the kernel takes it: pair t's status bit in bits 3t..3t+2."""
    return sum(bit << 3 * t for t, bit in enumerate(bits))


def _bits(pattern, count):
    """The status bits of a packed pattern's first count pairs."""
    return [pattern >> 3 * t & 7 for t in range(count)]


def _random_temporal_case(rng):
    n = rng.randint(0, 6)
    atoms = []
    for _ in range(rng.randint(0, 5)):
        if n == 0:
            break
        arity = rng.choice([2, 3])
        args = [rng.randrange(n) for _ in range(arity)]
        pair_slots = [
            (u, w)
            for u in range(arity)
            for w in range(u + 1, arity)
            if args[u] != args[w]
        ]
        pairs = tuple((args[u], args[w]) for u, w in pair_slots)
        pats = []
        for _ in range(rng.randint(1, 5)):
            ranks = [rng.randrange(arity) for _ in range(arity)]
            bits = [
                1 if ranks[u] < ranks[w] else (2 if ranks[u] == ranks[w] else 4)
                for u, w in pair_slots
            ]
            pats.append(_pack(bits))
        atoms.append((pairs, tuple(pats)))
    constraints = []
    for _ in range(rng.randint(0, 4)):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        constraints.append((i, j, rng.choice([2, 5, 1, 4, 3, 6])))
    return n, tuple(atoms), tuple(constraints)


def _embeds(n, adj, tournaments):
    """Brute force: some vertex subset, in some order, carries every arc of
    a tournament one way only."""
    arcs = {(a, b) for a in range(n) for b in range(n) if adj[a * n + b]}
    for k, tarcs in tournaments:
        for subset in combinations(range(n), k):
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
        yield k, tuple(
            (u, w) if bits >> i & 1 else (w, u) for i, (u, w) in enumerate(pairs)
        )


# 1 + 1 + 2 + 8 + 64 tournaments on 0-4 vertices
TOURNAMENTS = [t for k in range(5) for t in _tournaments(k)]


def _random_pattern(rng):
    """Mostly a tournament; now and then any arc set on up to 4 vertices,
    with loops, digons and missing pairs, for which the answer stays exact."""
    if rng.random() < 0.8:
        return rng.choice(TOURNAMENTS)
    k = rng.randint(1, 4)
    arcs = [(u, w) for u in range(k) for w in range(k) if rng.random() < 0.3]
    return k, tuple(arcs)


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
        assert pure.find_induced_embedding(n, _arcs(n, adj), tournaments) == expected, (
            n, bytes(adj), tournaments
        )
        found += expected
    assert 0 < found < 3000
    # the 0-vertex tournament embeds into every digraph, the empty one too
    assert pure.find_induced_embedding(0, [], ((0, ()),))


def test_induced_embedding_ignores_labels_and_tournament_order():
    rng = random.Random(139)
    for _ in range(1000):
        n, adj, tournaments = _random_embedding_case(rng)
        perm = rng.sample(range(n), n)
        arcs = _arcs(n, adj)
        relabelled = [(perm[a], perm[b]) for a, b in arcs]
        shuffled = rng.sample(tournaments, len(tournaments))
        assert pure.find_induced_embedding(
            n, relabelled, tuple(shuffled)
        ) == pure.find_induced_embedding(n, arcs, tournaments), (
            n, bytes(adj), tournaments, perm
        )


def _status(ranks, i, j):
    if ranks[i] < ranks[j]:
        return pure.LT
    return pure.EQB if ranks[i] == ranks[j] else pure.GT


def _meets(ranks, atoms, constraints):
    """Whether the weak order meets every constraint and atom."""
    return all(_status(ranks, i, j) & mask for i, j, mask in constraints) and all(
        any(
            all(
                _status(ranks, i, j) & b
                for (i, j), b in zip(pairs, _bits(pattern, len(pairs)))
            )
            for pattern in packed
        )
        for pairs, packed in atoms
    )


def _solutions(n, atoms, constraints):
    """Brute force: the weak orders meeting every constraint and atom."""
    for ranks in enumerate_weak_orders(n):
        if _meets(ranks, atoms, constraints):
            yield ranks


def _least_solution(n, atoms, constraints):
    """Among the solutions, the one whose statuses on (0, 1), (0, 2), ...,
    (n-2, n-1) are least, with < before = before >; None when there is
    none."""
    best = None
    for ranks in _solutions(n, atoms, constraints):
        key = tuple(
            _status(ranks, i, j) for i in range(n) for j in range(i + 1, n)
        )
        if best is None or key < best[0]:
            best = (key, ranks)
    return None if best is None else best[1]


def test_temporal_search_returns_the_least_solution():
    rng = random.Random(139)
    checked = 0
    while checked < 1000:
        n, atoms, constraints = _random_temporal_case(rng)
        if n > 5:
            continue
        checked += 1
        assert pure.temporal_search(n, atoms, constraints)[0] == _least_solution(
            n, atoms, constraints
        ), (n, atoms, constraints)


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
    original = pure._propagate

    def counted(n, rows, *rest):
        ok = original(n, rows, *rest)
        calls.append((ok, _table(n, rows)))
        return ok

    monkeypatch.setattr(pure, "_propagate", counted)
    return calls


def _composition(a, b):
    """The statuses (x ? z) allows given (x ? y) in a and (y ? z) in b."""
    out = 0
    for ranks in enumerate_weak_orders(3):
        if _status(ranks, 0, 1) & a and _status(ranks, 1, 2) & b:
            out |= _status(ranks, 0, 2)
    return out


def _is_fixpoint(n, state, atoms, compose):
    """Every pair is path consistent and every atom supports its masks."""
    for i in range(n):
        for j in range(n):
            for k in range(n):
                implied = compose[state[i * n + j], state[j * n + k]]
                if state[i * n + k] & ~implied:
                    return False
    for pairs, packed in atoms:
        masks = [state[i * n + j] for i, j in pairs]
        support = [0] * len(pairs)
        for pattern in packed:
            bits = _bits(pattern, len(pairs))
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
        n, atoms, constraints = _random_temporal_case(rng)
        calls.clear()
        pure.temporal_search(n, atoms, constraints)
        for ok, state in calls:
            assert not ok or _is_fixpoint(n, state, atoms, compose), (
                n, atoms, constraints
            )


def _flip(status):
    """The status of (j, i) given that of (i, j)."""
    return (status & pure.LT) << 2 | status & pure.EQB | status >> 2


def _planted_case(rng, n):
    """n atoms over n variables and up to four constraints, all met by a
    random planted weak order: each atom of two or three variables allows
    the planted pattern and up to three random ones, and each constraint
    the planted status and maybe one more."""
    planted = [rng.randrange(n // 2) for _ in range(n)]
    atoms = []
    for _ in range(n):
        pairs = tuple(combinations(rng.sample(range(n), rng.choice([2, 3])), 2))
        patterns = {_pack([_status(planted, i, j) for i, j in pairs])}
        for _ in range(rng.randint(0, 3)):
            values = {v: rng.randrange(3) for pair in pairs for v in pair}
            patterns.add(_pack([_status(values, i, j) for i, j in pairs]))
        atoms.append((pairs, tuple(sorted(patterns))))
    constraints = []
    for _ in range(rng.randint(0, 4)):
        i, j = rng.sample(range(n), 2)
        constraints.append((i, j, _status(planted, i, j) | rng.choice([0, 1, 2, 4])))
    return tuple(atoms), tuple(constraints)


def test_rows_wider_than_a_machine_word(monkeypatch):
    # at 22-32 variables a row holds 66-96 bits: the root is a fixpoint and
    # moves with a relabelling of the indices, the solution meets every atom
    # and constraint, and every propagation leaves each field's flip in
    # place
    calls = _count_propagations(monkeypatch)
    compose = {(a, b): _composition(a, b) for a in range(8) for b in range(8)}
    rng = random.Random(167)
    for _ in range(12):
        n = rng.randint(22, 32)
        atoms, constraints = _planted_case(rng, n)
        calls.clear()
        ranks, root = pure.temporal_search(n, atoms, constraints)
        assert ranks is not None and _meets(ranks, atoms, constraints), (n, atoms)
        table = _root_table(n, root)
        assert _is_fixpoint(n, table, atoms, compose), (n, atoms, constraints)
        for _, after in calls:
            assert all(
                after[k * n + i] == _flip(after[i * n + k])
                for i in range(n)
                for k in range(n)
            ), (n, atoms, constraints)

        perm = rng.sample(range(n), n)
        moved_atoms = tuple(
            (tuple((perm[i], perm[j]) for i, j in pairs), packed)
            for pairs, packed in atoms
        )
        moved_constraints = tuple((perm[i], perm[j], m) for i, j, m in constraints)
        _, moved = pure.temporal_search(n, moved_atoms, moved_constraints)
        moved_table = _root_table(n, moved)
        assert all(
            moved_table[perm[i] * n + perm[j]] == table[i * n + j]
            for i in range(n)
            for j in range(n)
        ), (n, atoms, constraints, perm)

LEQ = (pure.LT, pure.EQB)  # one-pair patterns: x < y or x = y


def test_leq_cycle_with_a_neq_fails_at_the_root(monkeypatch):
    # x0 <= x1 <= ... <= x27 <= x0 forces all equal, so x0 != x14 is refuted
    # by propagation alone, without a branch
    calls = _count_propagations(monkeypatch)
    n = 28
    atoms = tuple((((k, (k + 1) % n),), LEQ) for k in range(n))
    neq = (0, n // 2, pure.LT | pure.GT)
    assert pure.temporal_search(n, atoms, (neq,)) == (None, None)
    assert [ok for ok, _ in calls] == [False]


def test_leq_chain_closed_into_a_cycle_is_equal_at_the_root(monkeypatch):
    # x <= y <= z composes to x <= z; with z <= x every pair is =
    calls = _count_propagations(monkeypatch)
    chain = ((0, 1, pure.LT | pure.EQB), (1, 2, pure.LT | pure.EQB))
    atoms = ((((2, 0),), LEQ),)
    assert pure.temporal_search(3, atoms, chain)[0] == (0, 0, 0)
    assert len(calls) == 1
    ok, state = calls[0]
    assert ok and set(state) == {pure.EQB}


def test_search_returns_the_root_fixpoint(monkeypatch):
    # the root is the table the single root _propagate left, untouched by
    # the branches below it, and None exactly when that propagation fails,
    # so every solution comes with its root; the order of the atoms and
    # constraints changes neither (chaotic iteration reaches one fixpoint
    # in any order)
    calls = _count_propagations(monkeypatch)
    rng = random.Random(151)
    roots = 0
    for _ in range(3000):
        n, atoms, constraints = _random_temporal_case(rng)
        calls.clear()
        ranks, root = pure.temporal_search(n, atoms, constraints)
        if calls and calls[0][0]:
            assert _root_table(n, root) == calls[0][1]
            roots += 1
        else:
            assert root is None and ranks is None
        reversed_ranks, reversed_root = pure.temporal_search(
            n, atoms[::-1], constraints[::-1]
        )
        assert reversed_ranks == ranks
        assert _root_table(n, reversed_root) == _root_table(n, root)
    assert 0 < roots < 3000


def _extra_restrictions(rng, n, state):
    """One to three restrictions on random pairs: each either a random
    mask, the mask of the statuses the pair lacks in the table (it empties
    the pair) or a mask of statuses the pair has and more (it changes
    nothing)."""
    extra = []
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(n), 2)
        status = state[i * n + j]
        extra.append((i, j, rng.choice([
            rng.randint(1, 7), pure.ALL & ~status, status | rng.randint(0, 7)
        ])))
    return tuple(extra)


def test_resumed_search_matches_a_fresh_one():
    # a search resumed from a root fixpoint with just the new restrictions,
    # and no atoms, returns the ranks and the root fixpoint of a fresh search
    # that gets them all as constraints, through chains of resumes too
    rng = random.Random(163)
    outcomes = {"emptied": 0, "unchanged": 0, "changed": 0}
    for _ in range(3000):
        n, atoms, constraints = _random_temporal_case(rng)
        _, root = pure.temporal_search(n, atoms, constraints)
        while root is not None and n >= 2:
            table = _root_table(n, root)
            extra = _extra_restrictions(rng, n, table)
            constraints += extra
            expected, fresh = pure.temporal_search(n, atoms, constraints)
            got, root = pure.temporal_search(n, (), extra, root)
            assert got == expected, (n, atoms, constraints)
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


def test_root_fixpoint_statuses_hold_in_every_solution():
    # a status left at exactly = is equal, and a status without = is
    # distinct, in every weak order meeting the atoms and constraints
    rng = random.Random(157)
    for _ in range(1000):
        n, atoms, constraints = _random_temporal_case(rng)
        if n > 5:
            continue
        _, root = pure.temporal_search(n, atoms, constraints)
        if root is None:
            continue
        state = _root_table(n, root)
        for ranks in _solutions(n, atoms, constraints):
            for i in range(n):
                for j in range(n):
                    assert _status(ranks, i, j) & state[i * n + j]


def test_pure_temporal_search_basics():
    # x < y < z has the unique canonical solution (0, 1, 2)
    atoms = (
        (((0, 1),), (1,)),
        (((1, 2),), (1,)),
    )
    assert pure.temporal_search(3, atoms, ())[0] == (0, 1, 2)
    # x < y and y < x is empty
    atoms = (
        (((0, 1),), (1,)),
        (((1, 0),), (1,)),
    )
    assert pure.temporal_search(2, atoms, ())[0] is None


def test_pure_embedding_basics():
    c3 = (3, ((0, 1), (1, 2), (2, 0)))
    arcs = [(0, 1), (1, 2), (2, 0)]
    assert pure.find_induced_embedding(3, arcs, (c3,))
    arcs.append((1, 0))  # digon on (0, 1) blocks the induced match
    assert not pure.find_induced_embedding(3, arcs, (c3,))
