"""Laminar presentations: a laminar set family with integer capacities.

A presentation (E, family, c) declares a set independent when it meets
every family member A in at most c(A) elements.  The family must be
laminar: two members either nest or are disjoint.  Presentations are
immutable values; every operation returns a fresh object.

Canonical presentations are the unique minimal form: one member per
circuit closure (computed on the loopless part), capacity equal to the
member's rank, plus the set of loops as an isolated capacity-0 member.
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
    _freshen,
    _index_tuple,
)


class LaminarPresentation:
    """Validated laminar family plus capacities over an ordered ground."""

    __slots__ = ("ground", "_masks", "_caps")

    def __init__(self, ground, caps):
        """`caps` is a mapping (or iterable of pairs) set -> capacity.

        Duplicate sets collapse to their minimum capacity.  Raises
        EmptyMemberSet, NegativeCapacity, ForeignElement, or NotLaminar.
        """
        gs = ground if isinstance(ground, GroundSet) else GroundSet(ground)
        if len(gs) > HARD_CAP:
            raise TooLarge(len(gs), HARD_CAP)
        self.ground = gs
        items = caps.items() if hasattr(caps, "items") else caps
        seen = {}
        for member, cap in items:
            m = gs.mask_of(member)
            if m == 0:
                raise EmptyMemberSet("family members must be nonempty")
            if not isinstance(cap, int) or isinstance(cap, bool):
                raise MatroidError(f"capacity {cap!r} is not an integer")
            if cap < 0:
                raise NegativeCapacity(gs.set_of(m), cap)
            if m in seen:
                seen[m] = min(seen[m], cap)
            else:
                seen[m] = cap
        masks = sorted(seen, key=_index_tuple)
        for i, a in enumerate(masks):
            for b in masks[i + 1 :]:
                inter = a & b
                if inter and inter != a and inter != b:
                    raise NotLaminar(gs.set_of(a), gs.set_of(b))
        self._masks = tuple(masks)
        self._caps = tuple(seen[m] for m in masks)

    @property
    def elements(self):
        return self.ground.elements

    @property
    def members(self):
        return tuple(self.ground.set_of(m) for m in self._masks)

    def capacity(self, member):
        m = self.ground.mask_of(member)
        for a, c in zip(self._masks, self._caps):
            if a == m:
                return c
        raise MatroidError(f"{set(member)!r} is not a family member")

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

    def _parent_slots(self):
        """parent[i] = slot of the smallest member properly containing i."""
        out = []
        for i, a in enumerate(self._masks):
            best = -1
            for j, b in enumerate(self._masks):
                if j != i and a & b == a and a != b:
                    if best < 0 or (b & self._masks[best]) == b:
                        best = j
            out.append(best)
        return out

    def _children_slots(self):
        kids = [[] for _ in self._masks]
        for i, p in enumerate(self._parent_slots()):
            if p >= 0:
                kids[p].append(i)
        return kids

    def children_of(self, member):
        m = self.ground.mask_of(member)
        slot = self._masks.index(m)
        kids = self._children_slots()[slot]
        return tuple(self.ground.set_of(self._masks[k]) for k in kids)

    def free_part(self, member):
        """Elements of the member that lie in none of its children."""
        m = self.ground.mask_of(member)
        slot = self._masks.index(m)
        for k in self._children_slots()[slot]:
            m &= ~self._masks[k]
        return self.ground.set_of(m)

    def b_value(self, member):
        """Free-element count plus the capacity sum over the children."""
        m = self.ground.mask_of(member)
        slot = self._masks.index(m)
        inner = m
        total = 0
        for k in self._children_slots()[slot]:
            inner &= ~self._masks[k]
            total += self._caps[k]
        return K.popcount(inner) + total

    # -- matroid queries ----------------------------------------------------

    def is_independent(self, items):
        x = self.ground.mask_of(items)
        for a, c in zip(self._masks, self._caps):
            if K.popcount(a & x) > c:
                return False
        return True

    def rank(self, items=None):
        """Largest independent subset size, by dynamic programming up the
        family forest: a member yields min(capacity, free hits + child sum)."""
        if items is None:
            x = self.ground.full_mask
        else:
            x = self.ground.mask_of(items)
        kids = self._children_slots()
        parents = self._parent_slots()
        order = sorted(range(len(self._masks)), key=lambda i: K.popcount(self._masks[i]))
        f = [0] * len(self._masks)
        for i in order:
            inner = self._masks[i] & x
            total = 0
            for k in kids[i]:
                inner &= ~self._masks[k]
                total += f[k]
            f[i] = min(self._caps[i], K.popcount(inner) + total)
        top = x
        total = 0
        for i, p in enumerate(parents):
            if p < 0:
                top &= ~self._masks[i]
                total += f[i]
        return K.popcount(top) + total

    def loop_elements(self):
        """Elements covered by a zero-rank singleton."""
        out = 0
        for i in range(self.n):
            b = 1 << i
            if self.rank(self.ground.set_of(b)) == 0:
                out |= b
        return self.ground.set_of(out)

    def to_explicit(self, max_n=DESK_CAP):
        """Exhaustive circuit extraction; guarded by the size cap."""
        if self.n > max_n:
            raise TooLarge(self.n, max_n)
        masks = K.laminar_circuit_masks(self.n, list(self._masks), list(self._caps))
        return ExplicitMatroid._from_masks(self.ground, masks)

    # -- single-element minors ----------------------------------------------

    def delete(self, e):
        """Drop e from the ground and every member; colliding members keep
        the smaller capacity."""
        bit = 1 << self.ground.index(e)
        caps = []
        for a, c in zip(self._masks, self._caps):
            m = a & ~bit
            if m:
                caps.append((self.ground.set_of(m), c))
        rest = [x for x in self.ground.elements if x != e]
        return LaminarPresentation(GroundSet(rest), caps)

    def contract(self, e):
        """Capacities drop by one on members through e; loops just delete."""
        bit = 1 << self.ground.index(e)
        if self.rank(self.ground.set_of(bit)) == 0:
            return self.delete(e)
        caps = []
        for a, c in zip(self._masks, self._caps):
            m = a & ~bit
            if m:
                caps.append((self.ground.set_of(m), c - 1 if a & bit else c))
        rest = [x for x in self.ground.elements if x != e]
        return LaminarPresentation(GroundSet(rest), caps)

    # -- builders -------------------------------------------------------------

    def add_coloop(self, e):
        """Append a fresh element subject to no family constraint."""
        if e in self.ground:
            raise DuplicateElement(e)
        gs = GroundSet(self.ground.elements + (e,))
        caps = [(self.ground.set_of(m), c) for m, c in zip(self._masks, self._caps)]
        return LaminarPresentation(gs, caps)

    def truncate(self):
        """Cap the whole ground one below the current rank."""
        r = self.rank()
        if r == 0:
            raise RankZero("cannot truncate a rank-zero presentation")
        caps = []
        seen_full = False
        for m, c in zip(self._masks, self._caps):
            if m == self.ground.full_mask:
                caps.append((self.ground.set_of(m), min(c, r - 1)))
                seen_full = True
            else:
                caps.append((self.ground.set_of(m), c))
        if not seen_full:
            caps.append((self.ground.set_of(self.ground.full_mask), r - 1))
        return LaminarPresentation(self.ground, caps)

    def direct_sum(self, other):
        """Side-by-side union; right-hand identifiers get primes on collision."""
        taken = set(self.ground.elements)
        renamed = []
        for e in other.ground.elements:
            f = _freshen(e, taken)
            taken.add(f)
            renamed.append(f)
        gs = GroundSet(self.ground.elements + tuple(renamed))
        if len(gs) > HARD_CAP:
            raise TooLarge(len(gs), HARD_CAP)
        caps = [(self.ground.set_of(m), c) for m, c in zip(self._masks, self._caps)]
        for m, c in zip(other._masks, other._caps):
            caps.append((frozenset(renamed[i] for i in _index_tuple(m)), c))
        return LaminarPresentation(gs, caps)

    # -- optimisation -----------------------------------------------------------

    def max_weight_independent(self, weights):
        """Greedy maximum-weight independent set.

        Elements are taken in order of decreasing weight (identifier order
        breaks ties) and only while the gain is strictly positive, so an
        all-nonpositive weighting yields the empty set.
        """
        for e in weights:
            self.ground.index(e)
        order = sorted(
            range(self.n),
            key=lambda i: (
                -Fraction(weights.get(self.ground.elements[i], 0)),
                i,
            ),
        )
        used = [0] * len(self._masks)
        chosen = 0
        for i in order:
            w = Fraction(weights.get(self.ground.elements[i], 0))
            if w <= 0:
                break
            b = 1 << i
            ok = True
            for s, a in enumerate(self._masks):
                if a & b and used[s] + 1 > self._caps[s]:
                    ok = False
                    break
            if ok:
                chosen |= b
                for s, a in enumerate(self._masks):
                    if a & b:
                        used[s] += 1
        return self.ground.set_of(chosen)


def validate_presentation(ground, caps):
    """Construct a presentation, raising on any validation failure."""
    return LaminarPresentation(ground, caps)


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
        caps = []
        for a, c in zip(self._masks, self._caps):
            m = a | fbit if a & bit else a
            caps.append((gs.set_of(m), c))
        if not in_parallel_class:
            caps.append((gs.set_of(bit | fbit), 1))
        return LaminarPresentation(gs, caps)


def _canonical_from_circuit_masks(ground, circuit_masks, max_n=DESK_CAP):
    """Closure-per-circuit canonical data computed from a circuit family.

    Only meaningful when the circuits describe a laminar matroid; the
    caller is responsible for that (or for verifying the result).
    """
    n = len(ground)
    if n > max_n:
        raise TooLarge(n, max_n)
    loop_mask = 0
    for c in circuit_masks:
        if K.popcount(c) == 1:
            loop_mask |= c
    family = {}
    evidence = {}
    for c in circuit_masks:
        if K.popcount(c) == 1:
            continue
        a = K.closure_mask(circuit_masks, c, n) & ~loop_mask
        cap = K.popcount(c) - 1
        if a not in family:
            family[a] = cap
            evidence[a] = c
        else:
            if _index_tuple(c) < _index_tuple(evidence[a]):
                evidence[a] = c
    caps = [(ground.set_of(a), c) for a, c in family.items()]
    ev = {ground.set_of(a): ground.set_of(c) for a, c in evidence.items()}
    loop_set = ground.set_of(loop_mask)
    if loop_mask:
        caps.append((loop_set, 0))
        first_loop = min(
            (c for c in circuit_masks if K.popcount(c) == 1),
            key=_index_tuple,
        )
        ev[loop_set] = ground.set_of(first_loop)
    return caps, loop_set, ev


def canonical_from_matroid(m, max_n=DESK_CAP):
    """Canonical presentation of an explicit matroid assumed laminar."""
    caps, loop_set, ev = _canonical_from_circuit_masks(
        m.ground, list(m._masks), max_n
    )
    return CanonicalPresentation(m.ground, caps, loop_set, ev)


def _pruned(p):
    """Drop provably inessential members until none remain.

    A member nested inside one of equal or smaller capacity is redundant,
    as is a member whose capacity reaches its own b-value.  Dropping one
    member can expose another, so the scan restarts after each removal.
    """
    masks = list(p._masks)
    caps = list(p._caps)
    changed = True
    while changed:
        changed = False
        drop = -1
        for i, a in enumerate(masks):
            for j, b in enumerate(masks):
                if i != j and a & b == a and caps[i] >= caps[j]:
                    drop = i
                    break
            if drop >= 0:
                break
        if drop < 0:
            for i, a in enumerate(masks):
                inner = a
                total = 0
                for j, b in enumerate(masks):
                    if j != i and b & a == b:
                        # direct children only: skip members under another child
                        nested_deeper = any(
                            k != i and k != j and masks[k] & a == masks[k]
                            and b & masks[k] == b
                            for k in range(len(masks))
                        )
                        if not nested_deeper:
                            inner &= ~b
                            total += caps[j]
                if caps[i] >= K.popcount(inner) + total:
                    drop = i
                    break
        if drop >= 0:
            del masks[drop]
            del caps[drop]
            changed = True
    out = LaminarPresentation.__new__(LaminarPresentation)
    out.ground = p.ground
    out._masks = tuple(masks)
    out._caps = tuple(caps)
    return out


def canonicalize(p, max_n=DESK_CAP):
    """Reduce a presentation to the canonical one for the same matroid.

    Inessential members are pruned first (cheap structural rules), then
    the circuits are enumerated and regrouped by closure.
    """
    if p.n > max_n:
        raise TooLarge(p.n, max_n)
    lean = _pruned(p)
    circuit_masks = K.laminar_circuit_masks(
        lean.n, list(lean._masks), list(lean._caps)
    )
    caps, loop_set, ev = _canonical_from_circuit_masks(
        p.ground, circuit_masks, max_n
    )
    return CanonicalPresentation(p.ground, caps, loop_set, ev)
