"""Pure-Python kernels over bitmask-encoded set families.

Masks are plain ints with bit i standing for the i-th ground element;
callers keep ground sets within the 16-element cap.  Enumeration order is
part of the output contract: subsets of a fixed size are visited in
ascending bit-pattern order, and searches return their first witness or
first violating pair in loop order, which is what the CLI prints.

A mask's bits are listed in one place: _bits and _indices join the
entries of two 256-entry tables, one for the low byte and one for the
high byte, so no loop strips bits one at a time.  submasks_of_size takes
the size-k submasks as complements: complementing within the universe
reverses numeric order, and itertools.combinations over the universe's
bits taken from the top lists the (m - k)-subsets in descending order, so
their complements ascend.

Dependence is read off one bitmap: a family of masks on n elements is
an int of 2**n bits, and D, the dependent sets, is the up-closure of the
circuits, n shift-or steps (the zeta transform; Bjorklund, Husfeldt,
Kaski and Koivisto, "Fourier meets Mobius", STOC 2007).  R_k, the
up-closure of the independent k-sets, holds the masks of rank >= k.
Reading a bit of such an int costs O(2**n), so per-mask tests read one
0/1 byte per mask instead.  check_circuits decides the circuit axioms on
these bitmaps and, only when they fail, names the violation from the
failing region rather than by scanning every pair of circuits.

Closure and contraction read D too: with B a basis of X grown greedily,
e lies in cl(X) iff e is in X or B + e is dependent, and a set avoiding X
is dependent in M/X iff it is dependent in M once B is added.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import combinations

# _LOW[b] and _HIGH[b]: the element indices of byte b as the low and the
# high byte of a 16-bit mask; _LOW_BITS and _HIGH_BITS hold them as
# one-bit masks.
_LOW = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))
_HIGH = tuple(tuple(i + 8 for i in t) for t in _LOW)
_LOW_BITS = tuple(tuple(1 << i for i in t) for t in _LOW)
_HIGH_BITS = tuple(tuple(1 << i for i in t) for t in _HIGH)
# _REVERSED[b]: byte b with its bit order reversed.
_REVERSED = tuple(sum(1 << 7 - i for i in t) for t in _LOW)


def _bits(mask):
    """The one-bit masks of `mask`, ascending.  Only for masks within the
    16-element cap: callers pass masks of capped structures."""
    return _LOW_BITS[mask & 255] + _HIGH_BITS[mask >> 8]


def _indices(mask):
    """The element indices of `mask`, ascending, at any width: uncapped
    ground sets decode masks too, before any cap check."""
    try:
        return _LOW[mask & 255] + _HIGH[mask >> 8]
    except IndexError:
        rest = _indices(mask >> 16)
        return _LOW[mask & 255] + _HIGH[mask >> 8 & 255] + tuple(i + 16 for i in rest)


def _storage_key(mask):
    """An int that orders nonempty 16-bit masks as their ascending index
    tuples order lexicographically.

    With r the mask's bits reversed in 16 bits, lower indices are higher
    bits of r, so a larger r comes first except where one tuple extends
    the other: the extension adds bits below r's lowest set bit, which
    stay under r + (r & -r), and popcount breaks the one tie left.
    """
    r = _REVERSED[mask & 255] << 8 | _REVERSED[mask >> 8]
    return mask.bit_count() - r - (r & -r)


def submasks_of_size(universe, k):
    """The size-k submasks of `universe` in ascending numeric order, lazily:
    the complements of the (m - k)-subsets, which descend."""
    top = _bits(universe)[::-1]
    if not 0 <= k <= len(top):
        return iter(())
    return (universe - s for s in map(sum, combinations(top, len(top) - k)))


def _greedy_basis(dep, x):
    """A basis of x, grown in ascending index order, reading dependence
    from `dep` (one 0/1 byte per mask, as dependents gives it)."""
    cur = 0
    for b in _bits(x):
        if not dep[cur | b]:
            cur |= b
    return cur


def greedy_rank(dep, x):
    """Rank of x, the size of its greedy basis."""
    return _greedy_basis(dep, x).bit_count()


def closure_mask(dep, x, n):
    """x plus every e that makes the greedy basis of x dependent."""
    b = _greedy_basis(dep, x)
    out = x
    for e in _bits(((1 << n) - 1) & ~x):
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
_DIGIT_OF_BYTE = bytes.maketrans(b"\0\1", b"01")


def _bytes(bitmap, n):
    """A bitmap over the 2**n masks as one 0/1 byte per mask."""
    return format(bitmap, f"0{1 << n}b")[::-1].encode().translate(_BYTE_OF_DIGIT)


def _bitmap(flags):
    """The bitmap whose bytes, as _bytes gives them, are `flags`."""
    return int(flags.translate(_DIGIT_OF_BYTE)[::-1], 2)


def _members(bitmap):
    """The masks set in `bitmap`, ascending."""
    return [m.start() for m in re.finditer("1", format(bitmap, "b")[::-1])]


def _dependent_bitmap(circuits, n):
    return _up(_family(circuits, n), _tables(n)[0])


def dependents(circuits, n):
    """D, the masks containing a member of `circuits`, as one 0/1 byte
    per mask: byte x is 1 when mask x is dependent."""
    return _bytes(_dependent_bitmap(circuits, n), n)


def spanning(dep, n):
    """R_r, the spanning masks of a rank-r matroid on n elements, as one
    0/1 byte per mask, read off `dep`, D as dependents gives it."""
    return _bytes(_at_least(~_bitmap(dep), greedy_rank(dep, (1 << n) - 1), n), n)


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
                    y = min(_members(bad), key=lambda m: (m.bit_count(), m)) | 1 << e | 1 << f
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
            union = ci | cj
            for g in _indices(ci & cj):
                if not dep[union & ~(1 << g)]:
                    return (i, j, g)
    return None


def cocircuit_masks(n, spans):
    """Circuits of the dual, smallest first, then ascending numeric order.

    Each is the complement of a hyperplane: a mask that does not span but
    spans once grown by any one element outside it (Oxley, *Matroid
    Theory*, 2nd ed., Ch. 2), read off the spanning bytes `spans`, R_rank
    as spanning gives it.
    """
    notbit, _ = _tables(n)
    spans = _bitmap(spans)
    hyper = ((1 << (1 << n)) - 1) & ~spans
    for e, nb in enumerate(notbit):
        hyper &= ~nb | spans >> (1 << e)
    full = (1 << n) - 1
    return sorted((full & ~h for h in _members(hyper)), key=lambda c: (c.bit_count(), c))


def truncation_circuits(n, circuits, dep, rank):
    """Circuit masks after one truncation, ascending: small circuits plus
    the bases (none contains another, so the union is an antichain), read
    off `dep`, D as dependents gives it."""
    _, layers = _tables(n)
    bases = layers[rank] & ~_bitmap(dep)
    out = [c for c in circuits if c.bit_count() <= rank] + _members(bases)
    out.sort()
    return out


def compress(masks, keep):
    """Each mask's bits inside `keep`, renumbered by their position within
    `keep`: the j-th lowest bit of `keep` becomes bit j."""
    slot = {b: 1 << j for j, b in enumerate(_bits(keep))}.__getitem__
    return [sum(map(slot, _bits(m & keep))) for m in masks]


def minor_circuits(dep, circuits, delete_mask, contract_mask):
    """Circuit masks of (M delete D) contract T for disjoint masks D, T,
    ascending, with `dep` M's D as dependents gives it: each distinct
    nonempty C - T, C avoiding D, that no one element's removal leaves
    dependent in M/T (Oxley, *Matroid Theory*, Ch. 3)."""
    b = _greedy_basis(dep, contract_mask)
    out = []
    for x in {c & ~contract_mask for c in circuits if not c & delete_mask} - {0}:
        for e in _bits(x):
            if dep[x ^ e | b]:
                break
        else:
            out.append(x)
    return sorted(out)


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
    sizes = [[] for _ in range(n)]
    for c in circuits:
        for i in _indices(c):
            sizes[i].append(c.bit_count())
    return [tuple(sorted(s)) for s in sizes]


def iso_bijection(n1, circuits1, n2, circuits2):
    """Index permutation mapping circuits1 onto circuits2, or None.

    Backtracking over element images, pruned by per-element signatures
    (sizes of the circuits through the element), which also fix the count
    of circuits of each size.  Each circuit is checked once, when its top
    (highest element) is placed.  First witness in index order wins.
    """
    if n1 != n2 or len(circuits1) != len(circuits2):
        return None
    n = n1
    sig1 = _element_signatures(n, circuits1)
    sig2 = _element_signatures(n, circuits2)
    if sorted(sig1) != sorted(sig2):
        return None
    below = [[] for _ in range(n)]
    for c in circuits1:
        *rest, top = _indices(c)
        below[top].append(rest)
    target = set(circuits2)
    perm = []

    def place(i, used):
        if i == n:
            return True
        images = [sum(1 << perm[k] for k in rest) for rest in below[i]]
        for j in range(n):
            bj = 1 << j
            if used & bj or sig2[j] != sig1[i]:
                continue
            if all(image | bj in target for image in images):
                perm.append(j)
                if place(i + 1, used | bj):
                    return True
                perm.pop()
        return False

    return perm if place(0, 0) else None


def find_minor(dep, spans, n, circuits, rank, n_target, circuits_target, rank_target):
    """First (delete_mask, contract_mask, bijection) presenting the target
    as a minor of the host with dependent-set bytes `dep` and spanning-set
    bytes `spans` (as dependents and spanning give them), or None.

    Contract sets T are independent, delete sets D are coindependent (E
    minus D spans); any minor admits such a representation.  T ascends over
    bit patterns, then D ascends over bit patterns disjoint from T; the
    bijection maps the kept elements (compressed in ascending index order)
    onto the target.  Independence and circuits read D, spanning R_rank.
    compress keeps sizes, so a D is renumbered and matched only once its
    kept circuits have the target's count and sizes.

    Three rules skip only pairs that cannot present the target, so the
    first hit is the one the plain loop finds (Oxley, *Matroid Theory*,
    Ch. 3):
    - the circuits of M delete D contract T are those of M/T that miss D,
      and compress keeps sizes, so a T whose M/T has fewer s-circuits
      than the target, for some size s, is skipped before its D loop;
    - a kept coloop stays a coloop and a coindependent D holds none, so
      when every target element lies in a circuit, T holds all of M's
      coloops;
    - a kept loop stays a loop and an independent T holds none, so when
      the target has no loop, D holds all of M's loops.
    The forced elements are added to subsets of the others; adding a
    fixed set disjoint from both keeps ascending order.
    """
    t = rank - rank_target
    d = n - n_target - t
    if t < 0 or d < 0:
        return None
    full = (1 << n) - 1
    target_sizes = sorted(c.bit_count() for c in circuits_target)
    need = Counter(target_sizes).items()
    covered = target_covered = 0
    for c in circuits:
        covered |= c
    for c in circuits_target:
        target_covered |= c
    coloops = full & ~covered if target_covered == (1 << n_target) - 1 else 0
    loops = 0 if 1 in target_sizes else sum(c for c in circuits if c.bit_count() == 1)
    for tm in submasks_of_size(full & ~coloops, t - coloops.bit_count()):
        tm |= coloops
        if dep[tm]:
            continue
        contracted = minor_circuits(dep, circuits, 0, tm)
        have = Counter(map(int.bit_count, contracted))
        if any(have[s] < k for s, k in need):
            continue
        for dm in submasks_of_size(full & ~tm & ~loops, d - loops.bit_count()):
            dm |= loops
            if not spans[full & ~dm]:
                continue
            cand = [c for c in contracted if not (c & dm)]
            if len(cand) != len(target_sizes) or sorted(map(int.bit_count, cand)) != target_sizes:
                continue
            compressed = compress(cand, full & ~tm & ~dm)
            perm = iso_bijection(n_target, compressed, n_target, circuits_target)
            if perm is not None:
                return (dm, tm, perm)
    return None
