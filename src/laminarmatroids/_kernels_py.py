"""Pure-Python kernels over bitmask-encoded set families.

Masks are plain ints with bit i standing for the i-th ground element;
callers keep ground sets within the 16-element cap.  Enumeration order is
part of the output contract: subsets of a fixed size are visited in
ascending bit-pattern order, and searches return their first witness or
first violating pair in loop order, which is what the CLI prints.

Dependence is read off one bitmap: a family of masks on n elements is
an int of 2**n bits, and D, the dependent sets, is the up-closure of the
circuits, n shift-or steps (the zeta transform; Bjorklund, Husfeldt,
Kaski and Koivisto, "Fourier meets Mobius", STOC 2007).  R_k, the
up-closure of the independent k-sets, holds the masks of rank >= k.
Reading a bit of such an int costs O(2**n), so per-mask tests read one
0/1 byte per mask instead.  check_circuits decides the circuit axioms on
these bitmaps and, only when they fail, names the violation from the
failing region rather than by scanning every pair of circuits.

Closure reads D too: with B a basis of X grown greedily, e lies in
cl(X) iff e is in X or B + e is dependent.  cyclic_flat_masks closes
joins of circuit closures that way.
"""

from __future__ import annotations

import re


def popcount(x):
    return x.bit_count()


def submasks_of_size(universe, k):
    """Yield the size-k submasks of `universe` in ascending numeric order."""
    positions = []
    u = universe
    while u:
        b = u & -u
        positions.append(b.bit_length() - 1)
        u ^= b
    m = len(positions)
    if k < 0 or k > m:
        return
    if k == 0:
        yield 0
        return
    v = (1 << k) - 1
    limit = 1 << m
    while v < limit:
        x = v
        out = 0
        while x:
            b = x & -x
            out |= 1 << positions[b.bit_length() - 1]
            x ^= b
        yield out
        u = v & -v
        t = v + u
        v = t | (((v ^ t) // u) >> 2)


def minimal_sets(masks):
    """Inclusion-minimal members, deduplicated, ascending numeric order."""
    uniq = sorted(set(masks), key=lambda m: (popcount(m), m))
    kept = []
    for m in uniq:
        ok = True
        for f in kept:
            if f & m == f:
                ok = False
                break
        if ok:
            kept.append(m)
    kept.sort()
    return kept


def _greedy_basis(dep, x):
    """A basis of x, grown in ascending index order, reading dependence
    from `dep` (one 0/1 byte per mask, as dependents gives it)."""
    cur = 0
    while x:
        b = x & -x
        x ^= b
        if not dep[cur | b]:
            cur |= b
    return cur


def greedy_rank(dep, x):
    """Rank of x, the size of its greedy basis."""
    return popcount(_greedy_basis(dep, x))


def closure_mask(dep, x, n):
    """x plus every e that makes the greedy basis of x dependent."""
    b = _greedy_basis(dep, x)
    out = x
    rest = ((1 << n) - 1) & ~x
    while rest:
        e = rest & -rest
        rest ^= e
        if dep[b | e]:
            out |= e
    return out


_TABLES = {}


def _tables(n):
    """(notbit, layers) for n elements, built once per n.

    notbit[i] marks the masks without element i and layers[k] the masks
    of size k, both as bitmaps over the 2**n masks.
    """
    t = _TABLES.get(n)
    if t is None:
        size = 1 << n
        notbit = []
        for i in range(n):
            pattern, span = (1 << (1 << i)) - 1, 2 << i
            while span < size:
                pattern |= pattern << span
                span <<= 1
            notbit.append(pattern)
        layers = [1]
        for i in range(n):
            layers = [a | b << (1 << i) for a, b in zip(layers + [0], [0] + layers)]
        t = _TABLES[n] = (notbit, layers)
    return t


def _up(bitmap, notbit):
    """Bitmap of every superset of a member of `bitmap`."""
    for i, nb in enumerate(notbit):
        bitmap |= (bitmap & nb) << (1 << i)
    return bitmap


def _family(masks, n):
    """Bitmap with bit x set for each mask x in `masks`."""
    raw = bytearray(((1 << n) + 7) >> 3)
    for c in masks:
        raw[c >> 3] |= 1 << (c & 7)
    return int.from_bytes(raw, "little")


def _at_least(indep, k, n):
    """R_k: the masks of rank >= k, as the up-closure of the size-k
    members of the independent-set bitmap `indep`."""
    notbit, layers = _tables(n)
    return _up(indep & layers[k], notbit)


_BYTE_OF_DIGIT = bytes.maketrans(b"01", b"\0\1")


def _bytes(bitmap, n):
    """A bitmap over the 2**n masks as one 0/1 byte per mask."""
    return format(bitmap, f"0{1 << n}b")[::-1].encode().translate(_BYTE_OF_DIGIT)


def _members(bitmap):
    """The masks set in `bitmap`, ascending."""
    return [m.start() for m in re.finditer("1", format(bitmap, "b")[::-1])]


def _dependent_bitmap(circuits, n):
    return _up(_family(circuits, n), _tables(n)[0])


def dependents(circuits, n):
    """D, the masks containing a member of `circuits`, as one 0/1 byte
    per mask: byte x is 1 when mask x is dependent."""
    return _bytes(_dependent_bitmap(circuits, n), n)


def check_circuits(circuits, n):
    """(D, None) when distinct nonempty masks on n elements are a matroid's
    circuits, D as dependents gives it; else (None, violation).

    D is the up-closure of the circuits, and the family is an antichain
    unless a circuit lies in D grown by one element; the violation is then
    (i, j), the first circuit i inside another and the first j holding it.
    R_k, the up-closure of the size-k masks outside D, holds the X with
    r(X) >= k.  An antichain is a circuit family exactly when no X, e, f
    have r(X) = r(X+e) = r(X+f) < r(X+e+f) (Oxley, *Matroid Theory*, 2nd
    ed., Ch. 1): one AND of shifted bitmaps per rank k and pair e < f.  At
    the first failing (k, e, f), with X the smallest failing mask, the
    circuits inside X+e+f fail elimination on their own, and the violation
    is what verify_elimination names on them, in storage indices.
    """
    notbit, layers = _tables(n)
    members = _family(circuits, n)
    dep = _up(members, notbit)
    above = 0
    for i, nb in enumerate(notbit):
        above |= (dep & nb) << (1 << i)
    if members & above:
        return None, _first_containment(circuits, members, notbit, n)
    indep = ~dep
    below = (1 << (1 << n)) - 1  # R_0 holds every X
    k = 1
    while k <= n and indep & layers[k]:
        at = _at_least(indep, k, n)
        # up[e] at X: X+e in R_k; flat[e] at X: X avoids e, r(X) = r(X+e) = k-1
        up = [at >> (1 << e) for e in range(n)]
        flat = [below & notbit[e] & ~up[e] for e in range(n)]
        for e in range(n):
            if not flat[e]:
                continue
            for f in range(e + 1, n):
                bad = flat[e] & flat[f] & up[e] >> (1 << f)
                if bad:
                    y = min(_members(bad), key=lambda m: (popcount(m), m)) | 1 << e | 1 << f
                    keep = [i for i, c in enumerate(circuits) if not c & ~y]
                    i, j, g = verify_elimination([circuits[i] for i in keep], n)
                    return None, (keep[i], keep[j], g)
        below = at
        k += 1
    return _bytes(dep, n), None


def _first_containment(circuits, members, notbit, n):
    """(i, j) for the first circuit i inside another and the first circuit j
    holding it, read off the masks strictly inside some circuit."""
    down = members
    for i, nb in enumerate(notbit):
        down |= (down >> (1 << i)) & nb
    inside = 0
    for i, nb in enumerate(notbit):
        inside |= (down >> (1 << i)) & nb
    inside = _bytes(inside, n)
    i = next(i for i, c in enumerate(circuits) if inside[c])
    small = circuits[i]
    return i, next(j for j, c in enumerate(circuits) if c & small == small and j != i)


def verify_elimination(circuits, n):
    """First elimination-axiom violation as (i, j, element index), or None.

    Reads dependence off D.  check_circuits runs it only on the circuits
    inside a region its bitmap test has already found failing.
    """
    dep = dependents(circuits, n)
    for i, ci in enumerate(circuits):
        for j in range(i + 1, len(circuits)):
            cj = circuits[j]
            inter = ci & cj
            if not inter:
                continue
            union = ci | cj
            rest = inter
            while rest:
                b = rest & -rest
                rest ^= b
                if not dep[union & ~b]:
                    return (i, j, b.bit_length() - 1)
    return None


def cocircuit_masks(n, circuits, rank):
    """Circuits of the dual, smallest first, then ascending numeric order.

    Each is the complement of a hyperplane: a mask that does not span but
    spans once grown by any one element outside it (Oxley, *Matroid
    Theory*, 2nd ed., Ch. 2), read off the spanning bitmap R_rank.
    """
    notbit, _ = _tables(n)
    spans = _at_least(~_dependent_bitmap(circuits, n), rank, n)
    hyper = ((1 << (1 << n)) - 1) & ~spans
    for e, nb in enumerate(notbit):
        hyper &= ~nb | spans >> (1 << e)
    full = (1 << n) - 1
    return sorted((full & ~h for h in _members(hyper)), key=lambda c: (popcount(c), c))


def truncation_circuits(n, circuits, rank):
    """Circuit masks after one truncation, ascending: small circuits plus
    the bases (none contains another, so the union is an antichain)."""
    _, layers = _tables(n)
    bases = layers[rank] & ~_dependent_bitmap(circuits, n)
    out = [c for c in circuits if popcount(c) <= rank] + _members(bases)
    out.sort()
    return out


def compress(masks, keep):
    """Each mask's bits inside `keep`, renumbered by their position within
    `keep`: the j-th lowest bit of `keep` becomes bit j."""
    slot = {}
    rest = keep
    while rest:
        b = rest & -rest
        rest ^= b
        slot[b] = 1 << len(slot)
    out = []
    for m in masks:
        m &= keep
        x = 0
        while m:
            b = m & -m
            m ^= b
            x |= slot[b]
        out.append(x)
    return out


def minor_circuits(circuits, delete_mask, contract_mask):
    """Circuit masks of (M delete D) contract T for disjoint masks D, T."""
    cand = []
    for c in circuits:
        if c & delete_mask:
            continue
        c &= ~contract_mask
        if c:
            cand.append(c)
    return minimal_sets(cand)


def cyclic_flat_masks(n, dep, closures):
    """Cyclic flats in ascending numeric order, as joins of circuit closures.

    `dep` is D as dependents gives it, and `closures` holds cl(C) for
    every circuit C.  The cyclic flats form a lattice with join cl(X | Y)
    whose least member is cl(empty), the loop set, and every other one is
    the join of the closures of its circuits (Bonin and de Mier, Ann.
    Comb. 12, 2008).  So the worklist joins each new flat with each
    distinct closure, closing each distinct union once.
    """
    atoms = set(closures)
    flats = {closure_mask(dep, 0, n)} | atoms
    seen = set(flats)
    todo = list(flats)
    while todo:
        f = todo.pop()
        for a in atoms:
            if f | a in seen:
                continue
            seen.add(f | a)
            g = closure_mask(dep, f | a, n)
            if g not in flats:
                flats.add(g)
                seen.add(g)
                todo.append(g)
    return sorted(flats)


def _element_signatures(n, circuits):
    sigs = []
    for i in range(n):
        b = 1 << i
        sizes = sorted(popcount(c) for c in circuits if c & b)
        sigs.append(tuple(sizes))
    return sigs


def iso_bijection(n1, circuits1, n2, circuits2):
    """Index permutation mapping circuits1 onto circuits2, or None.

    Backtracking over element images, pruned by per-element signatures
    (multiset of sizes of the circuits through the element); a completed
    circuit must map onto a circuit.  First witness in index order wins.
    """
    if n1 != n2:
        return None
    if len(circuits1) != len(circuits2):
        return None
    if sorted(popcount(c) for c in circuits1) != sorted(
        popcount(c) for c in circuits2
    ):
        return None
    n = n1
    sig1 = _element_signatures(n, circuits1)
    sig2 = _element_signatures(n, circuits2)
    if sorted(sig1) != sorted(sig2):
        return None
    through = [[c for c in circuits1 if c & (1 << i)] for i in range(n)]
    target = set(circuits2)
    perm = [-1] * n

    def place(i, used, assigned):
        if i == n:
            return True
        si = sig1[i]
        for j in range(n):
            bj = 1 << j
            if used & bj or sig2[j] != si:
                continue
            perm[i] = j
            na = assigned | (1 << i)
            ok = True
            for c in through[i]:
                if c & ~na:
                    continue
                img = 0
                rest = c
                while rest:
                    b = rest & -rest
                    rest ^= b
                    img |= 1 << perm[b.bit_length() - 1]
                if img not in target:
                    ok = False
                    break
            if ok and place(i + 1, used | bj, na):
                return True
        perm[i] = -1
        return False

    if place(0, 0, 0):
        return list(perm)
    return None


def find_minor(n, circuits, rank, n_target, circuits_target, rank_target):
    """First (delete_mask, contract_mask, bijection) presenting the target
    as a minor, or None.

    Contract sets T are independent, delete sets D are coindependent (E
    minus D spans); any minor admits such a representation.  T ascends over
    bit patterns, then D ascends over bit patterns disjoint from T; the
    bijection maps the kept elements (compressed in ascending index order)
    onto the target.  Independence reads D and spanning reads R_rank.
    """
    t = rank - rank_target
    d = n - n_target - t
    if t < 0 or d < 0:
        return None
    full = (1 << n) - 1
    dep = _dependent_bitmap(circuits, n)
    spans = _bytes(_at_least(~dep, rank, n), n)
    dep = _bytes(dep, n)
    target_sizes = sorted(popcount(c) for c in circuits_target)
    for tm in submasks_of_size(full, t):
        if dep[tm]:
            continue
        contracted = minor_circuits(circuits, 0, tm)
        for dm in submasks_of_size(full & ~tm, d):
            if not spans[full & ~dm]:
                continue
            cand = [c for c in contracted if not (c & dm)]
            if len(cand) != len(circuits_target):
                continue
            compressed = compress(cand, full & ~tm & ~dm)
            if sorted(popcount(c) for c in compressed) != target_sizes:
                continue
            perm = iso_bijection(n_target, compressed, n_target, circuits_target)
            if perm is not None:
                return (dm, tm, perm)
    return None
