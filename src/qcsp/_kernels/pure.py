"""The kernels for the hot solver loops, in pure Python.

Pair statuses are bitmasks over {1: <, 2: =, 4: >} for ordered variable
pairs, held in a flat n*n byte table with table[j*n+i] the flip of
table[i*n+j].  The temporal search enforces path consistency over the full
point-algebra composition (Vilain & Kautz 1986; van Beek 1992) plus support
for every atom, driven by a worklist of changed pairs, and then branches.
On request it also hands back the fixpoint reached at the root: a status
left at exactly ``=`` is entailed equal, one without ``=`` entailed
distinct, since propagation removes only statuses that no solution has.
The search returns the solution that is least in the fixed pair order, so
its result, witness included, is deterministic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

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
def _kernel_atom(n, pairs, patbits):
    """An atom as the cells of its pairs in the n*n table, their flips, their
    i < j queue keys, and its patterns packed into integers with slot t's
    status bit in bits 3t..3t+2; a pattern fits the slots' masks packed the
    same way exactly when masks & pattern == pattern."""
    return (
        tuple(i * n + j for i, j in pairs),
        tuple(j * n + i for i, j in pairs),
        tuple(i * n + j if i < j else j * n + i for i, j in pairs),
        tuple(
            sum(bit << 3 * t for t, bit in enumerate(bits)) for bits in patbits
        ),
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


def _first_open_pair(n, state):
    for i in range(n):
        for j in range(i + 1, n):
            if _OPEN[state[i * n + j]]:
                return i, j
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


def temporal_search(n, atoms, constraints, root=None):
    """Deterministic branch-and-prune over pairwise statuses.

    atoms: sequence of (pairs, patbits) where pairs is a tuple of (i, j)
    variable-index pairs and patbits a tuple giving each allowed pattern as a
    tuple of one status bit per pair, aligned with pairs.  constraints:
    (i, j, mask) initial restrictions.  Returns the
    canonical rank tuple of the first solution in <, =, > branch order, or
    None.  Branching fixes the first open pair in the order (0, 1), (0, 2),
    ..., and propagation removes only statuses that no solution below the
    node has, so that solution is the least in this order.  When root is a
    list, the n*n status table of the root fixpoint is appended to it once
    the root propagation succeeds; it stays empty when the root fails.
    """
    state = bytearray([ALL]) * (n * n)
    state[:: n + 1] = bytes([EQB]) * n
    restrictions = list(constraints)
    prepared = []
    watch = [()] * (n * n)
    for pairs, patbits in atoms:
        if len(pairs) == 1:
            # a one-pair atom is a plain restriction: apply it once
            mask = 0
            for bits in patbits:
                mask |= bits[0]
            restrictions.append((*pairs[0], mask))
        elif pairs:
            atom = _kernel_atom(n, pairs, patbits)
            for key in set(atom[2]):
                watch[key] += (len(prepared),)
            prepared.append(atom)
        elif not patbits:
            return None
    constrained = set()
    for i, j, mask in restrictions:
        new = state[i * n + j] & mask
        if new == 0:
            return None
        state[i * n + j] = new
        state[j * n + i] = _FLIP[new]
        constrained.add(i * n + j if i < j else j * n + i)

    stack = [(state, constrained, set(range(len(prepared))))]
    while stack:
        current, pairs, pending = stack.pop()
        if not _propagate(n, current, prepared, watch, pairs, pending):
            continue
        if root is not None:
            # hand back the root once; children copy this table, so it is
            # never written again
            root.append(current)
            root = None
        open_pair = _first_open_pair(n, current)
        if open_pair is None:
            return _ranks_of(n, current)
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
                stack.append((child, {key}, set(watch[key])))
    return None


def find_induced_embedding(n, adj, tournaments):
    """True when some forbidden tournament embeds into the n-vertex digraph.

    adj is a flat n*n 0/1 table; an embedding is injective, maps every
    tournament arc to a present arc whose reverse is absent.
    """
    for k, arcs in tournaments:
        if k > n:
            continue
        for image in permutations(range(n), k):
            ok = True
            for u, w in arcs:
                a, b = image[u], image[w]
                if not adj[a * n + b] or adj[b * n + a]:
                    ok = False
                    break
            if ok:
                return True
    return False
