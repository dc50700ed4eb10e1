"""The kernels for the hot solver loops, in pure Python.

Pair statuses are bitmasks over {1: <, 2: =, 4: >} for ordered variable
pairs.  The temporal search keeps one integer row per variable: bits
3k..3k+2 of row i hold the status of (i, k), the packing of an atom's
patterns, and field i of row k holds its flip.  It enforces path
consistency over the point algebra (Vilain & Kautz 1986; van Beek 1992) a
whole row at a time, as bit-vector reasoners do (GQR; Gantner, Westphal &
Woelfl 2008), plus support for every atom, driven by a worklist of changed
pairs, and then branches.  It returns the least solution in the fixed pair
order, witness included, together with the root fixpoint: a status left at
exactly ``=`` is entailed equal, one without ``=`` entailed distinct, since
propagation removes only statuses that no solution has.  A later search
over the same atoms with more constraints resumes from that root: it copies
the rows, applies the constraints and queues only the pairs they change and
the atoms watching them.  The old root is a fixpoint of a subset of the new
propagators above the new greatest fixpoint, so chaotic iteration from it
reaches that same fixpoint (Apt, TCS 1999), as a branch child does from its
parent, and the search below it finds what a fresh search finds.  Counting
a row's bits uses ``int.bit_count`` (Python 3.10).

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


@lru_cache(maxsize=1024)
def _kernel_atom(n, pairs, packed):
    """An atom as its cells, each a pair (i, j) with its i < j queue key, and
    its packed patterns; a pattern fits the cells' statuses packed the same
    way exactly when statuses & pattern == pattern."""
    return tuple((i, j, i * n + j if i < j else j * n + i) for i, j in pairs), packed


def _propagate(n, rows, atoms, watch, pairs, pending):
    """Tighten the rows to a fixpoint; False when some pair empties.

    pairs holds the changed pairs (as i*n+j with i < j) and pending the
    indices of the atoms to revise.  A changed pair (i, j) revises all of
    row i from (i, j) o (j, k), then all of row j from (j, i) o (i, k); each
    field that tightens clears its flip and is queued together with the
    atoms watching it.
    """
    ones = (1 << 3 * n) // 7  # bit 3k of every field k
    flip = _FLIP
    while pairs or pending:
        while pairs:
            i, j = divmod(pairs.pop(), n)
            rij = rows[i] >> 3 * j & 7
            if rij == ALL:
                continue
            for a, b, r in ((i, j, rij), (j, i, flip[rij])):
                # where (a, b) allows <, (a, k) keeps < everywhere and = and >
                # where (b, k) has >; = keeps row b; > mirrors <
                row = rows[b]
                allowed = row if r & EQB else 0
                if r & LT:
                    allowed |= ones | (row >> 2 & ones) * 7
                if r & GT:
                    allowed |= ones << 2 | (row & ones) * 7
                old = rows[a]
                removed = old & ~allowed
                if not removed:
                    continue
                new = old ^ removed
                if (new | new >> 1 | new >> 2) & ones != ones:
                    return False
                rows[a] = new
                fields = (removed | removed >> 1 | removed >> 2) & ones
                while fields:
                    low = fields & -fields
                    fields ^= low
                    shift = low.bit_length() - 1
                    k = shift // 3
                    rows[k] &= ~(flip[removed >> shift & 7] << 3 * a)
                    key = a * n + k if a < k else k * n + a
                    pairs.add(key)
                    pending.update(watch[key])
        if pending:
            cells, packed = atoms[pending.pop()]
            statuses = 0
            shift = 0
            for i, j, _ in cells:
                statuses |= (rows[i] >> 3 * j & 7) << shift
                shift += 3
            support = 0
            for pattern in packed:
                if statuses & pattern == pattern:
                    support |= pattern
            if not support:
                return False
            # a fitting pattern has a status in every cell, so none empties
            removed = statuses & ~support
            shift = 0
            for i, j, key in cells:
                r = removed >> shift & 7
                shift += 3
                if r:
                    rows[i] &= ~(r << 3 * j)
                    rows[j] &= ~(flip[r] << 3 * i)
                    pairs.add(key)
                    pending.update(watch[key])
    return True


def _first_open_pair(rows, ones, i, j):
    """The first open pair at or after (i, j) in the order (0, 1), (0, 2), ..."""
    while i < len(rows):
        rest = rows[i] >> 3 * j
        eq, gt = rest >> 1 & ones, rest >> 2 & ones
        open_fields = rest & ones & (eq | gt) | eq & gt
        if open_fields:
            return i, j + ((open_fields & -open_fields).bit_length() - 1) // 3
        i += 1
        j = i + 1
    return None


def _ranks_of(rows, ones):
    # at a leaf every status is one bit, so the > bits of row i count the
    # elements strictly below i; rank-compressing the counts yields the
    # canonical weak order since the relation is a total preorder
    below = [(row >> 2 & ones).bit_count() for row in rows]
    rank_of = {v: r for r, v in enumerate(sorted(set(below)))}
    return tuple(rank_of[k] for k in below)


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
    (rows, prepared atoms, watch lists) start, with bits 3k..3k+2 of rows[i]
    the status of (i, k); it is None only when the root propagation fails,
    so a search with a solution always has one.  Given such a start, atoms
    is ignored: the search applies the constraints to that root and resumes
    from it, with the result of a fresh search over the start's atoms and
    constraints plus these.
    """
    ones = (1 << 3 * n) // 7  # bit 3k of every field k
    if start is None:
        rows = [ALL * ones ^ (LT | GT) << 3 * i for i in range(n)]
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
                for key in {key for _, _, key in atom[0]}:
                    watch[key] += (len(prepared),)
                prepared.append(atom)
            elif not packed:
                return None, None
        pending = set(range(len(prepared)))
    else:
        # the start's root meets every atom; only new constraints change it
        root_rows, prepared, watch = start
        rows = list(root_rows)
        restrictions = constraints
        pending = set()
    changed = set()
    for i, j, mask in restrictions:
        old = rows[i] >> 3 * j & 7
        removed = old & ~mask
        if not removed:
            continue
        if removed == old:
            return None, None
        rows[i] ^= removed << 3 * j
        rows[j] ^= _FLIP[removed] << 3 * i
        key = i * n + j if i < j else j * n + i
        changed.add(key)
        pending.update(watch[key])

    root = None
    stack = [(rows, changed, pending, (0, 1))]
    while stack:
        current, pairs, pending, first = stack.pop()
        if not _propagate(n, current, prepared, watch, pairs, pending):
            continue
        if root is None:
            # the first fixpoint is the root's; children copy these rows, so
            # they are never written again
            root = (current, prepared, watch)
        open_pair = _first_open_pair(current, ones, *first)
        if open_pair is None:
            return _ranks_of(current, ones), root
        i, j = open_pair
        key = i * n + j
        mask = current[i] >> 3 * j & 7
        # push in reverse so < is explored first, then =, then >; a child
        # starts from this fixpoint, so only the fixed pair is queued
        for bit in (GT, EQB, LT):
            if mask & bit:
                child = current.copy()
                child[i] ^= (mask ^ bit) << 3 * j
                child[j] ^= _FLIP[mask ^ bit] << 3 * i
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
