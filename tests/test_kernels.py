"""Pure and compiled kernels must agree exactly, witnesses included."""

import random

import pytest

from qcsp._kernels import pure


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


def test_temporal_search_backends_identical():
    speed = pytest.importorskip("qcsp._kernels._speed")
    rng = random.Random(131)
    for _ in range(3000):
        n, atoms, constraints = _random_temporal_case(rng)
        assert pure.temporal_search(n, atoms, constraints) == speed.temporal_search(
            n, atoms, constraints
        )


def test_induced_embedding_backends_identical():
    speed = pytest.importorskip("qcsp._kernels._speed")
    rng = random.Random(137)
    c3 = (3, ((0, 1), (1, 2), (2, 0)))
    t3 = (3, ((0, 1), (0, 2), (1, 2)))
    arc2 = (2, ((0, 1),))
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
        assert pure.find_induced_embedding(n, adj, tournaments) == \
            speed.find_induced_embedding(n, adj, tournaments)


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
