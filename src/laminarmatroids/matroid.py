"""Explicit matroids stored as circuit families over a fixed ground order.

A matroid is held as its ground set (an ordered tuple of identifier strings)
plus the family of circuits, encoded internally as bitmasks.  The ground order
doubles as the identifier order used for every deterministic output and greedy
tie-break.  Ground sets are capped at 16 elements by _check_size alone, which
every constructor calls, and so do the input readers (build_matroid,
parse_ckt, canonicalize, to_explicit), whose max_n may lower the cap.
Construction decides the circuit axioms on one bitmap of the 2**n subsets,
names a violating pair from that test when they fail, and keeps the bitmap.
Each matroid holds its dependent sets as one byte per subset, kept from
validation or built on first use; rank, independence, closure and minors read
it.  Its spanning sets, built from those on first use, serve every minor
search and the dual.  Element names are decoded only at the API; minors
renumber circuit masks onto the kept elements with compress.
has_minor answers a simple connected target with None, before any search,
when no connectivity block of the host has a simplification large enough
in size, rank and corank to hold it; it reads only masks: the blocks, the
elements simplify drops, and ranks off the stored dependent sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._backend import kernels as K
from .errors import (
    BadBasepoint,
    EliminationFails,
    ForeignElement,
    MatroidError,
    NotAnAntichain,
    OverlappingSets,
    RankZero,
    TooLarge,
    TooSmall,
)

HARD_CAP = 16
DESK_CAP = 12


class GroundSet:
    """Ordered, duplicate-free element identifiers with mask codecs."""

    __slots__ = ("elements", "_index")

    def __init__(self, elements):
        elements = tuple(elements)
        index = {}
        for i, e in enumerate(elements):
            if not isinstance(e, str) or not e:
                raise MatroidError(f"bad element identifier {e!r}")
            if e in index:
                raise MatroidError(f"duplicate element {e!r}")
            index[e] = i
        self.elements = elements
        self._index = index

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, e):
        return e in self._index

    def __eq__(self, other):
        return isinstance(other, GroundSet) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"GroundSet({list(self.elements)!r})"

    def index(self, e):
        try:
            return self._index[e]
        except KeyError:
            raise ForeignElement(e) from None

    def mask_of(self, items):
        m = 0
        for e in items:
            m |= 1 << self.index(e)
        return m

    def set_of(self, mask):
        return frozenset(self.tuple_of(mask))

    def tuple_of(self, mask):
        return tuple(map(self.elements.__getitem__, K._indices(mask)))

    @property
    def full_mask(self):
        return (1 << len(self.elements)) - 1


def _sort_masks(masks):
    """Storage order: lexicographic on ascending index tuples."""
    return tuple(sorted(masks, key=K._indices))


class ExplicitMatroid:
    """A matroid given by its circuits.

    Instances are immutable values: equality and hashing compare the
    ground order and the circuit family exactly.  Use build_matroid to
    construct one with full axiom validation.
    """

    __slots__ = ("ground", "_masks", "_dep", "_spans", "_cyclic_flats", "_closures")

    def __init__(self, ground, masks, _trusted=False):
        if not _trusted:
            raise MatroidError("use build_matroid to construct matroids")
        _check_size(len(ground))
        self.ground = ground
        self._masks = _sort_masks(masks)
        self._dep = None
        self._spans = None
        self._cyclic_flats = None
        self._closures = None

    @classmethod
    def _from_masks(cls, ground, masks):
        return cls(ground, masks, _trusted=True)

    @property
    def elements(self):
        return self.ground.elements

    @property
    def n(self):
        return len(self.ground)

    @property
    def circuits(self):
        return tuple(self.ground.set_of(m) for m in self._masks)

    def __eq__(self, other):
        return (
            isinstance(other, ExplicitMatroid)
            and self.ground == other.ground
            and self._masks == other._masks
        )

    def __hash__(self):
        return hash((self.ground, self._masks))

    def __repr__(self):
        cs = [set(c) if c else "{}" for c in self.circuits]
        return f"ExplicitMatroid({list(self.elements)!r}, circuits={cs!r})"

    # -- queries ---------------------------------------------------------

    def _dependents(self):
        """Dependent sets, one 0/1 byte per subset mask; computed once."""
        if self._dep is None:
            self._dep = K.dependents(self._masks, self.n)
        return self._dep

    def _spanning(self):
        """Spanning sets, one 0/1 byte per subset mask; computed once."""
        if self._spans is None:
            self._spans = K.spanning(self._dependents(), self.n)
        return self._spans

    def is_independent(self, items):
        return not self._dependents()[self.ground.mask_of(items)]

    def rank(self, items=None):
        x = self.ground.full_mask if items is None else self.ground.mask_of(items)
        return K.greedy_rank(self._dependents(), x)

    def closure(self, items):
        m = K.closure_mask(self._dependents(), self.ground.mask_of(items), self.n)
        return self.ground.set_of(m)

    def _circuit_closures(self):
        """Closure mask of each circuit, in storage order; computed once.

        A circuit spans exactly when it has rank() + 1 elements, so its
        closure is the whole ground without a kernel call.
        """
        if self._closures is None:
            r, full, dep = self.rank(), self.ground.full_mask, self._dependents()
            self._closures = tuple(
                full if c.bit_count() > r else K.closure_mask(dep, c, self.n)
                for c in self._masks
            )
        return self._closures

    def _loop_mask(self):
        m = 0
        for c in self._masks:
            if c.bit_count() == 1:
                m |= c
        return m

    def loops(self):
        return self.ground.set_of(self._loop_mask())

    def coloops(self):
        m = 0
        for c in self._masks:
            m |= c
        return self.ground.set_of(self.ground.full_mask & ~m)

    # -- derived matroids ------------------------------------------------

    def dual(self):
        masks = K.cocircuit_masks(self.n, self._spanning())
        return ExplicitMatroid._from_masks(self.ground, masks)

    def minor(self, delete=(), contract=()):
        return self._minor(self.ground.mask_of(delete), self.ground.mask_of(contract))

    def _minor(self, dm, tm):
        if dm & tm:
            raise OverlappingSets(self.ground.set_of(dm & tm))
        if not dm | tm:
            return self
        keep = self.ground.full_mask & ~dm & ~tm
        masks = K.compress(K.minor_circuits(self._dependents(), self._masks, dm, tm), keep)
        return ExplicitMatroid._from_masks(GroundSet(self.ground.tuple_of(keep)), masks)

    def restrict(self, keep):
        return self._minor(self.ground.full_mask & ~self.ground.mask_of(keep), 0)

    def truncate(self):
        r = self.rank()
        if r == 0:
            raise RankZero("cannot truncate a rank-zero matroid")
        masks = K.truncation_circuits(self.n, self._masks, self._dependents(), r)
        return ExplicitMatroid._from_masks(self.ground, masks)

    def simplify(self):
        """Restriction to the least representative of each parallel class.

        Drops the largest element of every circuit of size at most two:
        that is each loop, and each element parallel to a smaller one
        (parallel classes are cliques of 2-circuits, none through a loop).
        """
        return self._minor(self._parallel_mask(), 0)

    def _parallel_mask(self):
        """The elements simplify drops: the largest of each circuit of
        size at most two."""
        drop = 0
        for c in self._masks:
            if c.bit_count() <= 2:
                drop |= 1 << (c.bit_length() - 1)
        return drop

    def components(self):
        """Partition of the ground into connectivity blocks.

        Elements are related when a circuit contains both, an equivalence
        (Oxley, *Matroid Theory*, Prop. 4.1.2), so each block is a union of
        meeting circuits; loops and coloops end up in singleton blocks.
        Blocks come in order of their least element.
        """
        return tuple(self.ground.set_of(b) for b in self._block_masks())

    def _block_masks(self):
        """The masks of the components() blocks, in the same order."""
        blocks = []
        for c in self._masks:
            rest = []
            for b in blocks:
                if b & c:
                    c |= b
                else:
                    rest.append(b)
            blocks = rest + [c]
        uncovered = self.ground.full_mask
        for b in blocks:
            uncovered &= ~b
        blocks += K._bits(uncovered)
        blocks.sort(key=lambda b: b & -b)
        return blocks

    def is_connected(self):
        return len(self.components()) <= 1

    def cyclic_flats(self):
        """Flats that are unions of their circuits, smallest first."""
        if self._cyclic_flats is None:
            masks = K.cyclic_flat_masks(self.n, self._dependents(), self._circuit_closures())
            masks.sort(key=lambda m: (m.bit_count(), K._indices(m)))
            self._cyclic_flats = tuple(self.ground.set_of(m) for m in masks)
        return self._cyclic_flats


def build_matroid(ground, circuits, max_n=HARD_CAP):
    """Validated construction from an iterable of circuits.

    Checks the cap, membership and the circuit axioms.  One dependent-set
    bitmap decides the axioms and is kept for rank and independence; a
    rejected family is named from the bitmap test that failed.
    """
    gs = _capped_ground(ground, max_n)
    return _validated(gs, {_circuit_mask(gs, c) for c in circuits})


def _check_size(n, max_n=HARD_CAP):
    """Refuse n elements past min(max_n, HARD_CAP): the one size cap of
    every constructor and input reader."""
    cap = min(max_n, HARD_CAP)
    if n > cap:
        raise TooLarge(n, cap)


def _capped_ground(ground, max_n):
    """The GroundSet of `ground`, refused when a name repeats or it has
    more than min(max_n, HARD_CAP) elements."""
    gs = ground if isinstance(ground, GroundSet) else GroundSet(ground)
    _check_size(len(gs), max_n)
    return gs


def _circuit_mask(gs, circuit):
    """The mask of a circuit's elements on gs, refused when one is foreign
    (the first such) or there are none."""
    m = gs.mask_of(circuit)
    if m == 0:
        raise MatroidError("the empty set cannot be a circuit")
    return m


def _validated(gs, masks):
    """The matroid on GroundSet gs whose circuits are the distinct nonempty
    `masks`, once check_circuits accepts them; else the axiom error."""
    out = ExplicitMatroid._from_masks(gs, masks)
    out._dep, bad = K.check_circuits(out._masks, len(gs))
    if bad is None:
        return out
    named = [gs.set_of(out._masks[i]) for i in bad[:2]]
    if len(bad) == 2:
        raise NotAnAntichain(*named)
    raise EliminationFails(*named, gs.elements[bad[2]])


def _fresh_names(taken, names):
    """`names` in order, each primed until it collides with nothing in
    `taken` and no earlier name."""
    taken = set(taken)
    out = []
    for name in names:
        while name in taken:
            name = name + "'"
        taken.add(name)
        out.append(name)
    return out


def direct_sum(m1, m2):
    """Disjoint union; colliding identifiers from the right get primes."""
    renamed = _fresh_names(m1.elements, m2.elements)
    ground = GroundSet(m1.elements + tuple(renamed))
    shift = m1.n
    masks = list(m1._masks) + [c << shift for c in m2._masks]
    return ExplicitMatroid._from_masks(ground, masks)


def _check_basepoint(m, p):
    if p in m.loops():
        raise BadBasepoint(p, "loop")
    if p in m.coloops():
        raise BadBasepoint(p, "coloop")


def parallel_connection(m1, m2, p1, p2):
    """Glue m1 and m2 at a shared basepoint (keeps p1's identifier).

    Circuits: both original families plus, for every pair of circuits
    through the basepoint, their union minus the basepoint.
    """
    pbit = 1 << m1.ground.index(p1)
    qbit = 1 << m2.ground.index(p2)
    _check_basepoint(m1, p1)
    _check_basepoint(m2, p2)
    others = m2.ground.full_mask & ~qbit
    names = _fresh_names(m1.elements, m2.ground.tuple_of(others))
    ground = GroundSet(m1.elements + tuple(names))
    left = list(m1._masks)
    right = [
        x << m1.n | (pbit if c & qbit else 0)
        for x, c in zip(K.compress(m2._masks, others), m2._masks)
    ]
    masks = left + right
    for c1 in left:
        if not (c1 & pbit):
            continue
        for c2 in right:
            if c2 & pbit:
                masks.append((c1 | c2) & ~pbit)
    return ExplicitMatroid._from_masks(ground, masks)


def two_sum(m1, m2, p1, p2):
    """Parallel connection followed by deletion of the basepoint."""
    if m1.n < 3 or m2.n < 3:
        raise TooSmall("both operands of a 2-sum need at least 3 elements")
    return parallel_connection(m1, m2, p1, p2).minor(delete=(p1,))


def is_isomorphic(m1, m2):
    """An element bijection carrying circuits onto circuits, or None."""
    perm = K.iso_bijection(m1.n, list(m1._masks), m2.n, list(m2._masks))
    if perm is None:
        return None
    return {m1.elements[i]: m2.elements[j] for i, j in enumerate(perm)}


@dataclass(frozen=True)
class MinorWitness:
    """A minor certificate: delete, contract, and a bijection onto the target.

    Re-verify with apply_witness, which replays the minor and checks the
    mapped circuits coincide with the target's.
    """

    delete: frozenset
    contract: frozenset
    mapping: tuple

    def as_dict(self):
        return dict(self.mapping)


def has_minor(m, target):
    """Search for the target as a minor of m.

    Only pairs (delete, contract) with an independent contract set and a
    coindependent delete set are tried (every minor admits one); pairs
    are scanned in ascending bit-pattern order and the first isomorphism
    found is returned.  The search reads m's stored dependent and spanning
    sets.  A nonempty simple connected target that no block of m can hold
    is answered None before the search (see _no_block_fits), which only
    ever misses there, so every hit is the search's own.
    """
    if _no_block_fits(m, target):
        return None
    res = K.find_minor(
        m._dependents(), m._spanning(), m.n, m._masks, m.rank(),
        target.n, target._masks, target.rank(),
    )
    if res is None:
        return None
    dm, tm, perm = res
    kept = m.ground.tuple_of(m.ground.full_mask & ~dm & ~tm)
    mapping = tuple(
        (kept[i], target.elements[j]) for i, j in enumerate(perm)
    )
    return MinorWitness(
        delete=m.ground.set_of(dm),
        contract=m.ground.set_of(tm),
        mapping=mapping,
    )


def _no_block_fits(m, target):
    """True when the target is nonempty, simple and connected and no block
    B of m has a simplification si(m|B) with at least the target's size,
    rank and corank.

    A connected minor of m is a minor of one block, a simple minor of a
    matroid is a minor of its simplification, and a minor of si(m|B) that
    contracts an independent T and deletes a coindependent D loses |T|
    from the rank and |D| from the corank (Oxley, *Matroid Theory*,
    Ch. 3-4).  The parallel classes and loops of m|B are m's inside B, so
    si(m|B) is m restricted to B minus m's simplify drops.
    """
    n = target.n
    if not n or any(c.bit_count() <= 2 for c in target._masks) or len(target._block_masks()) > 1:
        return False
    r, drop, dep = target.rank(), m._parallel_mask(), m._dependents()
    for b in m._block_masks():
        keep = b & ~drop
        size = keep.bit_count()
        if size >= n:
            rank = K.greedy_rank(dep, keep)
            if rank >= r and size - rank >= n - r:
                return False
    return True


def apply_witness(m, witness, target):
    """True when the witness really presents the target as a minor of m;
    False also when it names a foreign element or overlaps its sets."""
    try:
        got = m.minor(delete=witness.delete, contract=witness.contract)
    except (ForeignElement, OverlappingSets):
        return False
    trans = witness.as_dict()
    if sorted(trans) != sorted(got.elements):
        return False
    if sorted(trans.values()) != sorted(target.elements):
        return False
    mapped = {frozenset(trans[e] for e in c) for c in got.circuits}
    return mapped == set(target.circuits)
