"""Explicit matroids stored as circuit families over a fixed ground order.

A matroid is held as its ground set (an ordered tuple of identifier
strings) plus the family of circuits, encoded internally as bitmasks.
The ground order doubles as the identifier order used for every
deterministic output and greedy tie-break.  Ground sets are capped at 16
elements; construction validates the circuit axioms exhaustively.
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
        out = []
        while mask:
            b = mask & -mask
            out.append(self.elements[b.bit_length() - 1])
            mask ^= b
        return tuple(out)

    @property
    def full_mask(self):
        return (1 << len(self.elements)) - 1


def _index_tuple(mask):
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def _sort_masks(masks):
    """Storage order: lexicographic on ascending index tuples."""
    return tuple(sorted(masks, key=_index_tuple))


class ExplicitMatroid:
    """A matroid given by its circuits.

    Instances are immutable values: equality and hashing compare the
    ground order and the circuit family exactly.  Use build_matroid to
    construct one with full axiom validation.
    """

    __slots__ = ("ground", "_masks", "_rank", "_cyclic_flats")

    def __init__(self, ground, masks, _trusted=False):
        if not _trusted:
            raise MatroidError("use build_matroid to construct matroids")
        self.ground = ground
        self._masks = _sort_masks(masks)
        self._rank = None
        self._cyclic_flats = None

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

    def is_independent(self, items):
        return not K.contains_member(self._masks, self.ground.mask_of(items))

    def rank(self, items=None):
        if items is None:
            if self._rank is None:
                self._rank = K.greedy_rank(
                    self._masks, self.ground.full_mask, self.n
                )
            return self._rank
        return K.greedy_rank(self._masks, self.ground.mask_of(items), self.n)

    def closure(self, items):
        m = K.closure_mask(self._masks, self.ground.mask_of(items), self.n)
        return self.ground.set_of(m)

    def loops(self):
        m = 0
        for c in self._masks:
            if K.popcount(c) == 1:
                m |= c
        return self.ground.set_of(m)

    def coloops(self):
        m = 0
        for c in self._masks:
            m |= c
        return self.ground.set_of(self.ground.full_mask & ~m)

    # -- derived matroids ------------------------------------------------

    def dual(self):
        masks = K.cocircuit_masks(self.n, self._masks, self.rank())
        out = ExplicitMatroid._from_masks(self.ground, masks)
        out._rank = self.n - self.rank()
        return out

    def minor(self, delete=(), contract=()):
        dm = self.ground.mask_of(delete)
        tm = self.ground.mask_of(contract)
        if dm & tm:
            raise OverlappingSets(self.ground.set_of(dm & tm))
        if not dm | tm:
            return self
        keep = self.ground.full_mask & ~dm & ~tm
        new_ground = GroundSet(self.ground.tuple_of(keep))
        slot = {p: s for s, p in enumerate(_index_tuple(keep))}
        masks = []
        for c in K.minor_circuits(self._masks, dm, tm):
            x = 0
            for p in _index_tuple(c):
                x |= 1 << slot[p]
            masks.append(x)
        return ExplicitMatroid._from_masks(new_ground, masks)

    def restrict(self, keep):
        km = self.ground.mask_of(keep)
        return self.minor(delete=self.ground.set_of(self.ground.full_mask & ~km))

    def truncate(self):
        r = self.rank()
        if r == 0:
            raise RankZero("cannot truncate a rank-zero matroid")
        masks = K.truncation_circuits(self.n, self._masks, r)
        out = ExplicitMatroid._from_masks(self.ground, masks)
        out._rank = r - 1
        return out

    def simplify(self):
        """Restriction to the least representative of each parallel class.

        Drops the largest element of every circuit of size at most two:
        that is each loop, and each element parallel to a smaller one
        (parallel classes are cliques of 2-circuits, none through a loop).
        """
        drop = 0
        for c in self._masks:
            if K.popcount(c) <= 2:
                drop |= 1 << (c.bit_length() - 1)
        return self.minor(delete=self.ground.set_of(drop))

    def components(self):
        """Partition of the ground into connectivity blocks.

        Elements are related when a circuit contains both; loops and
        coloops end up in singleton blocks.
        """
        parent = list(range(self.n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for c in self._masks:
            idx = _index_tuple(c)
            for j in idx[1:]:
                ra, rb = find(idx[0]), find(j)
                if ra != rb:
                    parent[rb] = ra
        blocks = {}
        for i in range(self.n):
            blocks.setdefault(find(i), []).append(i)
        out = []
        for root in sorted(blocks, key=lambda r: min(blocks[r])):
            m = 0
            for i in blocks[root]:
                m |= 1 << i
            out.append(self.ground.set_of(m))
        return tuple(out)

    def is_connected(self):
        return len(self.components()) <= 1

    def cyclic_flats(self):
        """Flats that are unions of their circuits, smallest first."""
        if self._cyclic_flats is None:
            masks = K.cyclic_flat_masks(self.n, self._masks)
            masks.sort(key=lambda m: (K.popcount(m), _index_tuple(m)))
            self._cyclic_flats = tuple(self.ground.set_of(m) for m in masks)
        return self._cyclic_flats


def build_matroid(ground, circuits, max_n=HARD_CAP):
    """Validated construction from an iterable of circuits.

    Checks the cap, membership, the antichain condition, and circuit
    elimination exhaustively.
    """
    gs = ground if isinstance(ground, GroundSet) else GroundSet(ground)
    cap = min(max_n, HARD_CAP)
    if len(gs) > cap:
        raise TooLarge(len(gs), cap)
    masks = []
    for c in circuits:
        m = gs.mask_of(c)
        if m == 0:
            raise MatroidError("the empty set cannot be a circuit")
        masks.append(m)
    masks = _sort_masks(set(masks))
    bad = K.verify_antichain(masks)
    if bad is not None:
        i, j = bad
        raise NotAnAntichain(gs.set_of(masks[i]), gs.set_of(masks[j]))
    bad = K.verify_elimination(masks, len(gs))
    if bad is not None:
        i, j, e = bad
        raise EliminationFails(
            gs.set_of(masks[i]), gs.set_of(masks[j]), gs.elements[e]
        )
    return ExplicitMatroid._from_masks(gs, masks)


def _freshen(name, taken):
    while name in taken:
        name = name + "'"
    return name


def direct_sum(m1, m2):
    """Disjoint union; colliding identifiers from the right get primes."""
    taken = set(m1.elements)
    renamed = []
    for e in m2.elements:
        f = _freshen(e, taken)
        taken.add(f)
        renamed.append(f)
    ground = GroundSet(m1.elements + tuple(renamed))
    if len(ground) > HARD_CAP:
        raise TooLarge(len(ground), HARD_CAP)
    shift = m1.n
    masks = list(m1._masks) + [c << shift for c in m2._masks]
    out = ExplicitMatroid._from_masks(ground, masks)
    out._rank = m1.rank() + m2.rank()
    return out


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
    m1.ground.index(p1)
    m2.ground.index(p2)
    _check_basepoint(m1, p1)
    _check_basepoint(m2, p2)
    taken = set(m1.elements)
    mapping = {}
    names = []
    for e in m2.elements:
        if e == p2:
            continue
        f = _freshen(e, taken)
        taken.add(f)
        mapping[e] = f
        names.append(f)
    ground = GroundSet(m1.elements + tuple(names))
    if len(ground) > HARD_CAP:
        raise TooLarge(len(ground), HARD_CAP)
    pbit = 1 << ground.index(p1)

    def remap(circuit):
        x = 0
        for e in circuit:
            x |= pbit if e == p2 else 1 << ground.index(mapping.get(e, e))
        return x

    left = list(m1._masks)
    right = [remap(m2.ground.set_of(c)) for c in m2._masks]
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
    found is returned.
    """
    res = K.find_minor(
        m.n,
        list(m._masks),
        m.rank(),
        target.n,
        list(target._masks),
        target.rank(),
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


def apply_witness(m, witness, target):
    """True when the witness really presents the target as a minor of m."""
    got = m.minor(delete=witness.delete, contract=witness.contract)
    trans = witness.as_dict()
    if sorted(trans) != sorted(got.elements):
        return False
    if sorted(trans.values()) != sorted(target.elements):
        return False
    mapped = {frozenset(trans[e] for e in c) for c in got.circuits}
    return mapped == set(target.circuits)
