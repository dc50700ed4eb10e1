"""The kernels for the hot solver loops, in pure Python.

Pair statuses are bitmasks over {1: <, 2: =, 4: >} for ordered variable
pairs, in a flat n*n byte table with table[j*n+i] the flip of table[i*n+j].
The temporal search enforces path consistency over the full point-algebra
composition (Vilain & Kautz 1986; van Beek 1992) plus support for every
atom, driven by a worklist of changed pairs, and then branches.  It returns
the least solution in the fixed pair order, witness included, together with
the root fixpoint: a status left at exactly ``=`` is entailed equal, one
without ``=`` entailed distinct, since propagation removes only statuses
that no solution has.  A later search over the same atoms with more
constraints resumes from that root: it copies the table, applies the
constraints and queues only the pairs they change and the atoms watching
them.  The old root is a fixpoint of a subset of the new propagators above
the new greatest fixpoint, so chaotic iteration from it reaches that same
fixpoint (Apt, TCS 1999), as a branch child does from its parent, and the
search below it finds what a fresh search finds.

The tournament-embedding search takes the digraph as its arcs and
backtracks over vertex sets held as integers, one bit per vertex,
intersecting the one-way arc sets of the vertices placed so far.
"""

from __future__ import annotations

from functools import lru_cache

LT = 1
EQB = 2
GT = 4
ALL = LT | EQB | GT

_FLIP = bytes((0, 4, 2, 6, 1, 5, 3, 7))

# composition of single statuses: (xi ? xj) o (xj ? xk) -> allowed (xi ? xk)
_BASE = {
    (LT, LT): LT,
    (LT, EQB): LT,
    (LT, GT): ALL,
    (EQB, LT): LT,
    (EQB, EQB): EQB,
    (EQB, GT): GT,
    (GT, LT): ALL,
    (GT, EQB): GT,
    (GT, GT): GT,
}


def _compose(a, b):
    out = 0
    for x in (LT, EQB, GT):
        for y in (LT, EQB, GT):
            if a & x and b & y:
                out |= _BASE[x, y]
    return out


# _COMPOSE[a * 8 + b]: the union of the base compositions over the bits of
# a and of b
_COMPOSE = bytes(_compose(a, b) for a in range(8) for b in range(8))

# masks with more than one status left
_OPEN = bytes(bin(m).count("1") > 1 for m in range(8))


@lru_cache(maxsize=1024)
def _kernel_atom(n, pairs, packed):
    """An atom as the cells of its pairs in the n*n table, their flips, their
    i < j queue keys, and its packed patterns; a pattern fits the slots'
    masks packed the same way exactly when masks & pattern == pattern."""
    return (
        tuple(i * n + j for i, j in pairs),
        tuple(j * n + i for i, j in pairs),
        tuple(i * n + j if i < j else j * n + i for i, j in pairs),
        packed,
    )


def _propagate(n, state, atoms, watch, pairs, pending):
    """Tighten pair masks to a fixpoint; False when some pair empties.

    pairs holds the changed pairs (as i*n+j with i < j) and pending the
    indices of the atoms to revise.  A changed pair (i, j) revises (i, k)
    from (i, j) o (j, k) and (k, j) from (k, i) o (i, j) for every other k;
    a pair that tightens is queued together with the atoms watching it.
    """
    comp = _COMPOSE
    flip = _FLIP
    while pairs or pending:
        while pairs:
            p = pairs.pop()
            i, j = divmod(p, n)
            rij = state[p]
            if rij == ALL:
                continue
            row = rij << 3
            bi = i * n
            bj = j * n
            for k in range(n):
                if k == i or k == j:
                    continue
                bk = k * n
                rjk = state[bj + k]
                if rjk != ALL:
                    old = state[bi + k]
                    new = old & comp[row | rjk]
                    if new != old:
                        if not new:
                            return False
                        state[bi + k] = new
                        state[bk + i] = flip[new]
                        key = bi + k if i < k else bk + i
                        pairs.add(key)
                        pending.update(watch[key])
                rki = state[bk + i]
                if rki != ALL:
                    old = state[bk + j]
                    new = old & comp[rki << 3 | rij]
                    if new != old:
                        if not new:
                            return False
                        state[bk + j] = new
                        state[bj + k] = flip[new]
                        key = bk + j if k < j else bj + k
                        pairs.add(key)
                        pending.update(watch[key])
        if pending:
            cells, flips, keys, packed = atoms[pending.pop()]
            masks = 0
            shift = 0
            for c in cells:
                masks |= state[c] << shift
                shift += 3
            support = 0
            for pattern in packed:
                if masks & pattern == pattern:
                    support |= pattern
            if not support:
                return False
            if masks & support == masks:
                continue
            shift = 0
            for t, c in enumerate(cells):
                old = state[c]
                new = old & (support >> shift)
                shift += 3
                if new != old:
                    if not new:
                        return False
                    state[c] = new
                    state[flips[t]] = flip[new]
                    pairs.add(keys[t])
                    pending.update(watch[keys[t]])
    return True


def _first_open_pair(n, state, i, j):
    """The first open pair at or after (i, j) in the order (0, 1), (0, 2), ..."""
    while i < n:
        for j in range(j, n):
            if _OPEN[state[i * n + j]]:
                return i, j
        i += 1
        j = i + 1
    return None


def _ranks_of(n, state):
    # key[i] = number of elements strictly below i; rank-compressing the keys
    # yields the canonical weak order since the relation is a total preorder
    keys = [0] * n
    for i in range(n):
        count = 0
        for j in range(n):
            if j != i and state[j * n + i] == LT:
                count += 1
        keys[i] = count
    distinct = sorted(set(keys))
    rank_of = {v: r for r, v in enumerate(distinct)}
    return tuple(rank_of[k] for k in keys)


def temporal_search(n, atoms, constraints, start=None):
    """Deterministic branch-and-prune over pairwise statuses.

    atoms: sequence of (pairs, packed) where pairs is a tuple of (i, j)
    variable-index pairs and packed a tuple of the allowed patterns, each an
    integer with the status bit of pair t in bits 3t..3t+2.  constraints:
    (i, j, mask) initial restrictions.  Returns (ranks, root): ranks is the
    canonical rank tuple of the first solution in <, =, > branch order, or
    None.  Branching fixes the first open pair in the order (0, 1), (0, 2),
    ..., and propagation removes only statuses that no solution below the
    node has, so that solution is the least in this order.  The pairs before
    a node's open pair are fixed, and stay so in its children, so a child
    scans on from the pair its parent fixed.  root is the root fixpoint as a
    (table, prepared atoms, watch lists) start, None only when the root
    propagation fails, so a search with a solution always has one.  Given
    such a start, atoms is ignored: the search applies the constraints to
    that root and resumes from it, with the result of a fresh search over
    the start's atoms and constraints plus these.
    """
    if start is None:
        state = bytearray([ALL]) * (n * n)
        state[:: n + 1] = bytes([EQB]) * n
        restrictions = list(constraints)
        prepared = []
        watch = [()] * (n * n)
        for pairs, packed in atoms:
            if len(pairs) == 1:
                # a one-pair atom is a plain restriction: apply it once
                mask = 0
                for pattern in packed:
                    mask |= pattern
                restrictions.append((*pairs[0], mask))
            elif pairs:
                atom = _kernel_atom(n, pairs, packed)
                for key in set(atom[2]):
                    watch[key] += (len(prepared),)
                prepared.append(atom)
            elif not packed:
                return None, None
        pending = set(range(len(prepared)))
    else:
        # the start's root meets every atom; only new constraints change it
        table, prepared, watch = start
        state = bytearray(table)
        restrictions = constraints
        pending = set()
    changed = set()
    for i, j, mask in restrictions:
        old = state[i * n + j]
        new = old & mask
        if new == old:
            continue
        if new == 0:
            return None, None
        state[i * n + j] = new
        state[j * n + i] = _FLIP[new]
        key = i * n + j if i < j else j * n + i
        changed.add(key)
        pending.update(watch[key])

    root = None
    stack = [(state, changed, pending, (0, 1))]
    while stack:
        current, pairs, pending, first = stack.pop()
        if not _propagate(n, current, prepared, watch, pairs, pending):
            continue
        if root is None:
            # the first fixpoint is the root's; children copy this table, so
            # it is never written again
            root = (current, prepared, watch)
        open_pair = _first_open_pair(n, current, *first)
        if open_pair is None:
            return _ranks_of(n, current), root
        i, j = open_pair
        key = i * n + j
        mask = current[key]
        # push in reverse so < is explored first, then =, then >; a child
        # starts from this fixpoint, so only the fixed pair is queued
        for bit in (GT, EQB, LT):
            if mask & bit:
                child = bytearray(current)
                child[key] = bit
                child[j * n + i] = _FLIP[bit]
                stack.append((child, {key}, set(watch[key]), (i, j + 1)))
    return None, root


@lru_cache(maxsize=256)
def _placements(k, arcs):
    """The steps placing a pattern's vertices 0..k-1: steps[t] gives each
    s < t the side of s's sets that must hold t (0 in, 1 out, 2 all but s).
    None when a loop or an arc both ways can map to no one-way arc."""
    if any((w, u) in arcs for u, w in arcs):
        return None
    side = {(w, u): 0 for u, w in arcs} | dict.fromkeys(arcs, 1)
    return tuple(tuple((s, side.get((s, t), 2)) for s in range(t)) for t in range(k))


def find_induced_embedding(n, arcs, tournaments):
    """True when some forbidden tournament embeds into the digraph on
    vertices 0..n-1 with these distinct arcs (vertex-index pairs):
    injectively, each tournament arc onto an arc whose reverse is absent.

    A tournament with more vertices than n or more arcs than the digraph
    is skipped before any set is built.  Vertex a's one-way out- and
    in-sets hold one bit per vertex (a loop is never one-way).  Tournament
    vertices are placed in order on the intersection of the sets their
    arcs pick from the earlier images (Ullmann, JACM 1976).
    """
    sets = None
    for k, tarcs in tournaments:
        if k > n or len(tarcs) > len(arcs) or (steps := _placements(k, tarcs)) is None:
            continue
        if sets is None:
            out, into = [0] * n, [0] * n
            for a, b in arcs:
                out[a] |= 1 << b
                into[b] |= 1 << a
            full = (1 << n) - 1
            sets = [(into[a] & ~out[a], out[a] & ~into[a], ~(1 << a)) for a in range(n)]
        stack = [()]
        while stack:
            image = stack.pop()
            if len(image) == len(steps):
                return True
            cands = full
            for s, side in steps[len(image)]:
                cands &= image[s][side]
            while cands:
                low = cands & -cands
                cands ^= low
                stack.append(image + (sets[low.bit_length() - 1],))
    return False
