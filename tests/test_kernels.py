"""Kernel tests: the temporal search against a brute-force least solution,
its propagation fixpoint and the root fixpoint it hands back, and the
induced-embedding search against a brute-force reference."""

import random
from itertools import combinations, permutations

from qcsp._kernels import pure
from qcsp.oracle import enumerate_weak_orders


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
            bits = tuple(
                1 if ranks[u] < ranks[w] else (2 if ranks[u] == ranks[w] else 4)
                for u, w in pair_slots
            )
            pats.append(bits)
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


def test_induced_embedding_matches_brute_force():
    rng = random.Random(137)
    c3 = (3, ((0, 1), (1, 2), (2, 0)))
    t3 = (3, ((0, 1), (0, 2), (1, 2)))
    arc2 = (2, ((0, 1),))
    found = 0
    for _ in range(3000):
        n = rng.randint(0, 6)
        adj = bytearray(n * n)
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.4:
                    adj[i * n + j] = 1
        tournaments = tuple(
            t for t in (c3, t3, arc2) if rng.random() < 0.7
        )
        expected = _embeds(n, adj, tournaments)
        assert pure.find_induced_embedding(n, adj, tournaments) == expected, (
            n, bytes(adj), tournaments
        )
        found += expected
    assert 0 < found < 3000


def _status(ranks, i, j):
    if ranks[i] < ranks[j]:
        return pure.LT
    return pure.EQB if ranks[i] == ranks[j] else pure.GT


def _solutions(n, atoms, constraints):
    """Brute force: the weak orders meeting every constraint and atom."""
    for ranks in enumerate_weak_orders(n):
        if any(not _status(ranks, i, j) & mask for i, j, mask in constraints):
            continue
        if all(
            any(
                all(_status(ranks, i, j) & b for (i, j), b in zip(pairs, bits))
                for bits in patbits
            )
            for pairs, patbits in atoms
        ):
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
        assert pure.temporal_search(n, atoms, constraints) == _least_solution(
            n, atoms, constraints
        ), (n, atoms, constraints)


def _count_propagations(monkeypatch):
    """Record (result, state after) of every _propagate call."""
    calls = []
    original = pure._propagate

    def counted(n, state, *rest):
        ok = original(n, state, *rest)
        calls.append((ok, bytes(state)))
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
    for pairs, patbits in atoms:
        masks = [state[i * n + j] for i, j in pairs]
        support = [0] * len(pairs)
        for bits in patbits:
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


LEQ = ((pure.LT,), (pure.EQB,))  # one-pair patterns: x < y or x = y


def test_leq_cycle_with_a_neq_fails_at_the_root(monkeypatch):
    # x0 <= x1 <= ... <= x27 <= x0 forces all equal, so x0 != x14 is refuted
    # by propagation alone, without a branch
    calls = _count_propagations(monkeypatch)
    n = 28
    atoms = tuple((((k, (k + 1) % n),), LEQ) for k in range(n))
    neq = (0, n // 2, pure.LT | pure.GT)
    assert pure.temporal_search(n, atoms, (neq,)) is None
    assert [ok for ok, _ in calls] == [False]


def test_leq_chain_closed_into_a_cycle_is_equal_at_the_root(monkeypatch):
    # x <= y <= z composes to x <= z; with z <= x every pair is =
    calls = _count_propagations(monkeypatch)
    chain = ((0, 1, pure.LT | pure.EQB), (1, 2, pure.LT | pure.EQB))
    atoms = ((((2, 0),), LEQ),)
    assert pure.temporal_search(3, atoms, chain) == (0, 0, 0)
    assert len(calls) == 1
    ok, state = calls[0]
    assert ok and set(state) == {pure.EQB}


def test_root_list_receives_the_root_fixpoint(monkeypatch):
    # root gets the table the single root _propagate left, untouched by the
    # branches below it, and stays empty when the root fails; asking for it
    # changes no result
    calls = _count_propagations(monkeypatch)
    rng = random.Random(151)
    roots = 0
    for _ in range(3000):
        n, atoms, constraints = _random_temporal_case(rng)
        calls.clear()
        root = []
        result = pure.temporal_search(n, atoms, constraints, root)
        if calls and calls[0][0]:
            assert len(root) == 1 and bytes(root[0]) == calls[0][1]
            roots += 1
        else:
            assert root == []
        assert result == pure.temporal_search(n, atoms, constraints)
    assert 0 < roots < 3000


def test_root_fixpoint_statuses_hold_in_every_solution():
    # a status left at exactly = is equal, and a status without = is
    # distinct, in every weak order meeting the atoms and constraints
    rng = random.Random(157)
    for _ in range(1000):
        n, atoms, constraints = _random_temporal_case(rng)
        if n > 5:
            continue
        root = []
        pure.temporal_search(n, atoms, constraints, root)
        if not root:
            continue
        state = root[0]
        for ranks in _solutions(n, atoms, constraints):
            for i in range(n):
                for j in range(n):
                    assert _status(ranks, i, j) & state[i * n + j]


def test_pure_temporal_search_basics():
    # x < y < z has the unique canonical solution (0, 1, 2)
    atoms = (
        (((0, 1),), ((1,),)),
        (((1, 2),), ((1,),)),
    )
    assert pure.temporal_search(3, atoms, ()) == (0, 1, 2)
    # x < y and y < x is empty
    atoms = (
        (((0, 1),), ((1,),)),
        (((1, 0),), ((1,),)),
    )
    assert pure.temporal_search(2, atoms, ()) is None


def test_pure_embedding_basics():
    c3 = (3, ((0, 1), (1, 2), (2, 0)))
    adj = bytearray(9)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        adj[i * 3 + j] = 1
    assert pure.find_induced_embedding(3, adj, (c3,))
    adj[1 * 3 + 0] = 1  # digon on (0, 1) blocks the induced match
    assert not pure.find_induced_embedding(3, adj, (c3,))
