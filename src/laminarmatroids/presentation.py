"""Laminar presentations: a laminar set family with integer capacities.

A presentation (E, family, c) declares a set independent when it meets
every family member A in at most c(A) elements.  The family must be
laminar: two members either nest or are disjoint.  Presentations are
immutable values; every operation returns a fresh object.

Each presentation holds its family forest, built once beside the
laminarity check: parent and child slots, the slots by member size,
each member's free part (the member minus its children), the root slots
and the loops (the union of the capacity-0 members).  One dynamic
programme up that forest, _slot_ranks, gives the rank of a set inside
every member: min(c(A), |free hits| + the children's ranks).  The rank,
the tops that carry circuits and the size splits of circuit enumeration
are read off it; nothing here scans the subsets of the ground.

Canonical presentations are the unique minimal form: one member per
circuit closure (computed on the loopless part), capacity equal to the
member's rank, plus the set of loops as an isolated capacity-0 member.
canonicalize reads each closure off the ancestor chain of a top.

Members are masks from parse to render: only the constructor decodes
element names, and every operation builds its result with _from_masks.
"""

from __future__ import annotations

from fractions import Fraction

from ._backend import kernels as K
from .errors import (
    DuplicateElement,
    EmptyMemberSet,
    ForeignElement,
    LoopBase,
    MatroidError,
    NegativeCapacity,
    NotLaminar,
    RankZero,
    TooLarge,
)
from .matroid import (
    DESK_CAP,
    HARD_CAP,
    ExplicitMatroid,
    GroundSet,
    _fresh_names,
)


class LaminarPresentation:
    """Validated laminar family plus capacities over an ordered ground."""

    __slots__ = ("ground", "_masks", "_caps", "_slot", "_parents", "_kids", "_order",
                 "_free", "_roots", "_loops")

    def __init__(self, ground, caps):
        """`caps` is a mapping (or iterable of pairs) set -> capacity.

        Duplicate sets collapse to their minimum capacity.  Raises
        EmptyMemberSet, NegativeCapacity, ForeignElement, or NotLaminar.
        The pairwise laminarity check also builds the family forest.
        """
        gs = ground if isinstance(ground, GroundSet) else GroundSet(ground)
        items = caps.items() if hasattr(caps, "items") else caps
        pairs = []
        for member, cap in items:
            m = gs.mask_of(member)
            if m == 0:
                raise EmptyMemberSet("family members must be nonempty")
            if not isinstance(cap, int) or isinstance(cap, bool):
                raise MatroidError(f"capacity {cap!r} is not an integer")
            if cap < 0:
                raise NegativeCapacity(gs.set_of(m), cap)
            pairs.append((m, cap))
        self._build(gs, pairs)

    @classmethod
    def _from_masks(cls, ground, pairs):
        """A presentation from (nonempty mask, nonnegative int capacity)
        pairs over the GroundSet `ground`; checks the cap and laminarity."""
        out = cls.__new__(cls)
        out._build(ground, pairs)
        return out

    def _build(self, gs, pairs):
        if len(gs) > HARD_CAP:
            raise TooLarge(len(gs), HARD_CAP)
        self.ground = gs
        seen = {}
        for m, cap in pairs:
            seen[m] = min(seen.get(m, cap), cap)
        masks = sorted(seen, key=K._indices)
        # parents[i]: slot of the least member properly containing slot i
        # (the members containing one member form a chain)
        parents = [-1] * len(masks)
        for i, a in enumerate(masks):
            for j in range(i + 1, len(masks)):
                b = masks[j]
                inter = a & b
                if not inter:
                    continue
                if inter == a:
                    if parents[i] < 0 or b & masks[parents[i]] == b:
                        parents[i] = j
                elif inter == b:
                    if parents[j] < 0 or a & masks[parents[j]] == a:
                        parents[j] = i
                else:
                    raise NotLaminar(gs.set_of(a), gs.set_of(b))
        kids = [[] for _ in masks]
        free = list(masks)
        loops = 0
        for i, p in enumerate(parents):
            if p >= 0:
                kids[p].append(i)
                free[p] &= ~masks[i]
            if not seen[masks[i]]:
                loops |= masks[i]
        self._masks = tuple(masks)
        self._caps = tuple(seen[m] for m in masks)
        self._slot = {m: i for i, m in enumerate(masks)}
        self._parents = tuple(parents)
        self._kids = tuple(tuple(k) for k in kids)
        self._order = tuple(sorted(range(len(masks)), key=lambda i: masks[i].bit_count()))
        self._free = tuple(free)
        self._roots = tuple(i for i, p in enumerate(parents) if p < 0)
        self._loops = loops

    @property
    def elements(self):
        return self.ground.elements

    @property
    def members(self):
        return tuple(self.ground.set_of(m) for m in self._masks)

    def capacity(self, member):
        return self._caps[self._slot_of(member)]

    @property
    def n(self):
        return len(self.ground)

    def __eq__(self, other):
        return (
            isinstance(other, LaminarPresentation)
            and self.ground == other.ground
            and self._masks == other._masks
            and self._caps == other._caps
        )

    def __hash__(self):
        return hash((self.ground, self._masks, self._caps))

    def __repr__(self):
        parts = [
            f"{set(self.ground.set_of(m))!r}: {c}"
            for m, c in zip(self._masks, self._caps)
        ]
        return (
            f"LaminarPresentation({list(self.ground.elements)!r}, "
            f"{{{', '.join(parts)}}})"
        )

    # -- family structure --------------------------------------------------

    def _slot_of(self, member):
        m = self.ground.mask_of(member)
        try:
            return self._slot[m]
        except KeyError:
            raise MatroidError(f"{set(member)!r} is not a family member") from None

    def children_of(self, member):
        kids = self._kids[self._slot_of(member)]
        return tuple(self.ground.set_of(self._masks[k]) for k in kids)

    def free_part(self, member):
        """Elements of the member that lie in none of its children."""
        return self.ground.set_of(self._free[self._slot_of(member)])

    def b_value(self, member):
        """Free-element count plus the capacity sum over the children:
        _below with the capacities in place of the slot ranks."""
        return self._below(self._caps, self._slot_of(member))

    def _below(self, f, i, t=0):
        """Free-element count of slot i plus f over its children t, t+1, ...:
        the rank of f's set in slot i's member before its own capacity."""
        return self._free[i].bit_count() + sum(f[k] for k in self._kids[i][t:])

    def _circuit_tops(self, f):
        """Tops (slot, capacity) with at least one circuit, given the slot
        ranks f of the whole ground.

        A top is a member whose ancestors all have at least its capacity:
        exactly the members that can be the least overfilled member of a
        circuit.  It has a circuit when the subsets overfilling no member
        below it reach size c + 1.
        """
        for i, c in enumerate(self._caps):
            p = self._parents[i]
            while p >= 0 and self._caps[p] >= c:
                p = self._parents[p]
            if p < 0 and self._below(f, i) > c:
                yield i, c

    def _circuit_masks(self):
        """Every circuit once, generated lazily child by child.

        The subsets of a member's children t, t+1, ... and free part that
        overfill no member below it come in every size up to _below, the
        sum of their slot ranks, so a size split is tried only when both
        the child and the rest of the member can reach their part.
        """
        f = self._slot_ranks(self.ground.full_mask)

        def fill(i, size, t=0):
            kids = self._kids[i]
            if t == len(kids):
                yield from K.submasks_of_size(self._free[i], size)
                return
            k = kids[t]
            for j in range(max(0, size - self._below(f, i, t + 1)), min(f[k], size) + 1):
                for part in fill(k, j):
                    for tail in fill(i, size - j, t + 1):
                        yield part | tail

        for i, c in self._circuit_tops(f):
            yield from fill(i, c + 1)

    # -- matroid queries ----------------------------------------------------

    def is_independent(self, items):
        return self._independent(self.ground.mask_of(items))

    def _independent(self, x):
        return all((a & x).bit_count() <= c for a, c in zip(self._masks, self._caps))

    def rank(self, items=None):
        """Largest independent subset size, by dynamic programming up the
        family forest (see _slot_ranks)."""
        if items is None:
            return self._rank_mask(self.ground.full_mask)
        return self._rank_mask(self.ground.mask_of(items))

    def _slot_ranks(self, x):
        """f[i]: the rank of mask x inside slot i's member under the
        capacities of that member and those below it, which is
        min(capacity, free hits + the children's f)."""
        f = [0] * len(self._masks)
        free, kids, caps = self._free, self._kids, self._caps
        for i in self._order:
            f[i] = min(caps[i], (free[i] & x).bit_count() + sum(f[k] for k in kids[i]))
        return f

    def _rank_mask(self, x):
        f = self._slot_ranks(x)
        for i in self._roots:
            x &= ~self._masks[i]
        return x.bit_count() + sum(f[i] for i in self._roots)

    def to_explicit(self, max_n=DESK_CAP):
        """The circuits, read off the family forest; guarded by the size cap.

        A circuit C has a least overfilled member A, a top; C is then a
        (c(A)+1)-subset of A overfilling no member below A, and each such
        subset is a circuit.
        """
        if self.n > max_n:
            raise TooLarge(self.n, max_n)
        return ExplicitMatroid._from_masks(self.ground, list(self._circuit_masks()))

    # -- single-element minors ----------------------------------------------

    def delete(self, e):
        """Drop e from the ground and every member; colliding members keep
        the smaller capacity."""
        return self._without(e, 0)

    def contract(self, e):
        """Capacities drop by r({e}) on members through e, so loops just
        delete."""
        return self._without(e, self._rank_mask(1 << self.ground.index(e)))

    def _without(self, e, drop):
        bit = 1 << self.ground.index(e)
        keep = self.ground.full_mask & ~bit
        pairs = [
            (m, c - drop if a & bit else c)
            for a, c, m in zip(self._masks, self._caps, K.compress(self._masks, keep))
            if m
        ]
        return LaminarPresentation._from_masks(GroundSet(self.ground.tuple_of(keep)), pairs)

    # -- builders -------------------------------------------------------------

    def add_coloop(self, e):
        """Append a fresh element subject to no family constraint."""
        if e in self.ground:
            raise DuplicateElement(e)
        gs = GroundSet(self.ground.elements + (e,))
        return LaminarPresentation._from_masks(gs, zip(self._masks, self._caps))

    def truncate(self):
        """Cap the whole ground one below the current rank."""
        r = self.rank()
        if r == 0:
            raise RankZero("cannot truncate a rank-zero presentation")
        pairs = [*zip(self._masks, self._caps), (self.ground.full_mask, r - 1)]
        return LaminarPresentation._from_masks(self.ground, pairs)

    def direct_sum(self, other):
        """Side-by-side union; right-hand identifiers get primes on collision."""
        renamed = _fresh_names(self.ground.elements, other.ground.elements)
        gs = GroundSet(self.ground.elements + tuple(renamed))
        right = [(m << self.n, c) for m, c in zip(other._masks, other._caps)]
        return LaminarPresentation._from_masks(gs, [*zip(self._masks, self._caps), *right])

    # -- optimisation -----------------------------------------------------------

    def max_weight_independent(self, weights):
        """Greedy maximum-weight independent set.

        Elements are taken in order of decreasing weight (identifier order
        breaks ties) and only while the gain is strictly positive, so an
        all-nonpositive weighting yields the empty set.
        """
        for e in weights:
            self.ground.index(e)
        w = [Fraction(weights.get(e, 0)) for e in self.ground.elements]
        chosen = 0
        for i in sorted(range(self.n), key=lambda i: (-w[i], i)):
            if w[i] <= 0:
                break
            if self._independent(chosen | 1 << i):
                chosen |= 1 << i
        return self.ground.set_of(chosen)


class CanonicalPresentation(LaminarPresentation):
    """The unique minimal presentation of a laminar matroid.

    Carries the loop set (a capacity-0 member disjoint from the rest,
    absent when the matroid is loopless) and, for every member, an
    evidence circuit whose closure is that member.
    """

    __slots__ = ("loop_set", "evidence")

    def __init__(self, ground, caps, loop_set, evidence):
        super().__init__(ground, caps)
        self.loop_set = frozenset(loop_set)
        self.evidence = dict(evidence)

    def parallel_extend(self, e, f):
        """Clone e by a fresh parallel element f.

        When e already sits in a capacity-1 member (a nontrivial parallel
        class), f simply joins every member through e; otherwise the pair
        {e, f} is also added with capacity 1.
        """
        i = self.ground.index(e)
        if e in self.loop_set:
            raise LoopBase(e)
        if f in self.ground:
            raise DuplicateElement(f)
        bit = 1 << i
        gs = GroundSet(self.ground.elements + (f,))
        fbit = 1 << (len(gs) - 1)
        in_parallel_class = any(
            a & bit and c == 1 for a, c in zip(self._masks, self._caps)
        )
        pairs = [(a | fbit if a & bit else a, c) for a, c in zip(self._masks, self._caps)]
        if not in_parallel_class:
            pairs.append((bit | fbit, 1))
        return LaminarPresentation._from_masks(gs, pairs)


def canonical_from_matroid(m, max_n=DESK_CAP):
    """Canonical presentation of an explicit matroid assumed laminar.

    One member per circuit closure minus the loops, at capacity one less
    than the circuit's size.  Storage order puts the least circuit of
    each closure first, and that circuit is the member's evidence.  Only
    meaningful when m is laminar; the caller is responsible for that (or
    for verifying the result).
    """
    if m.n > max_n:
        raise TooLarge(m.n, max_n)
    loop_mask = m._loop_mask()
    family = {}
    evidence = {}
    for c, closed in zip(m._masks, m._circuit_closures()):
        a = closed & ~loop_mask
        if c.bit_count() > 1 and a not in family:
            family[a] = c.bit_count() - 1
            evidence[a] = c
    return _canonical(m.ground, family, evidence, loop_mask)


def canonicalize(p, max_n=DESK_CAP):
    """Reduce a presentation to the canonical one for the same matroid.

    Read off the family forest, with no circuit enumeration.  The loops
    are the elements of the capacity-0 members.  Every top (A, c) with
    c >= 1 and a circuit gives the member cl(A) minus the loops at
    capacity c: each of its circuits has rank c inside A, so spans A.
    The evidence of a member is the least circuit of the tops sharing
    its closure.

    cl(A) minus the loops is the highest ancestor of A with capacity c,
    or A itself when there is none.  Every ancestor of a top has
    capacity >= c.  Take a nonloop e outside A, and A_j the least
    ancestor of A holding it: r(A + e) = min(c + 1, the least capacity
    of A_j and the members above it), or c + 1 with no such A_j.  So e
    is in cl(A) exactly when it lies in the highest ancestor of capacity c.
    """
    if p.n > max_n:
        raise TooLarge(p.n, max_n)
    family = {}
    evidence = {}
    for i, c in p._circuit_tops(p._slot_ranks(p.ground.full_mask)):
        if c == 0:
            continue
        top, j = i, p._parents[i]
        while j >= 0:
            if p._caps[j] == c:
                top = j
            j = p._parents[j]
        member = p._masks[top] & ~p._loops
        least = _least_circuit(p, i)
        family[member] = c
        if member not in evidence or K._indices(least) < K._indices(evidence[member]):
            evidence[member] = least
    return _canonical(p.ground, family, evidence, p._loops)


def _canonical(ground, family, evidence, loop_mask):
    """The canonical presentation from member -> capacity and member ->
    evidence circuit masks, plus the loop set as a capacity-0 member
    whose evidence is its least loop."""
    if loop_mask:
        family[loop_mask] = 0
        evidence[loop_mask] = loop_mask & -loop_mask
    out = CanonicalPresentation._from_masks(ground, family.items())
    out.loop_set = ground.set_of(loop_mask)
    out.evidence = {ground.set_of(a): ground.set_of(c) for a, c in evidence.items()}
    return out


def _least_circuit(p, slot):
    """The least circuit, by index tuple, whose least overfilled member is
    the top at `slot`.

    Its circuits are the (c+1)-subsets of A overfilling no member below
    A, and those subsets are the independent sets of a matroid truncated
    to size c + 1; greedy in index order finds the least of them.
    """
    a = p._masks[slot]
    below = [
        (b, c) for b, c in zip(p._masks, p._caps) if b != a and b & a == b
    ]
    size = p._caps[slot] + 1
    chosen = 0
    for bit in K._bits(a):
        trial = chosen | bit
        if all((trial & b).bit_count() <= c for b, c in below):
            chosen = trial
            if chosen.bit_count() == size:
                return chosen
