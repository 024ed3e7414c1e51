"""Recognisers for laminar, nested, and related classes, with certificates.

Every positive verdict carries something checkable: a canonical presentation
that reproduces the matroid, a chain of cyclic flats, or a structural
decomposition.  Negative verdicts carry a violating circuit pair or a
concrete minor witness.  No search takes a cap: every matroid has n <= 16.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import excluded_minor, uniform
from .errors import MatroidError, NotLaminar
from .matroid import has_minor
from .presentation import canonical_from_matroid


@dataclass(frozen=True)
class LaminarVerdict:
    """Outcome of is_laminar: a canonical presentation, or a circuit pair
    whose closures cross."""

    laminar: bool
    presentation: object = None
    violating_circuits: tuple = None

    def __bool__(self):
        return self.laminar


@dataclass(frozen=True)
class NestedVerdict:
    """Outcome of is_nested: the cyclic-flat chain, or an incomparable pair."""

    nested: bool
    chain: tuple = None
    incomparable: tuple = None

    def __bool__(self):
        return self.nested


@dataclass(frozen=True)
class ComponentShape:
    """Shape of one connectivity block for the dual-laminar structure test.

    kind is "nested" (with the cyclic-flat chain), "pair" (a truncated
    direct sum of two uniforms: sides carries ((set, rank), (set, rank)),
    depth the truncation count), or "none".
    """

    block: frozenset
    kind: str
    chain: tuple = None
    sides: tuple = None
    depth: int = None


@dataclass(frozen=True)
class DualLaminarVerdict:
    dual_laminar: bool
    components: tuple = ()
    reason: str = None

    def __bool__(self):
        return self.dual_laminar


@dataclass(frozen=True)
class MinorExclusionVerdict:
    """Outcome of a minor-exclusion classifier.

    When the flag is False, `found` holds (target label, MinorWitness)
    for the first excluded minor discovered.
    """

    flag: bool
    found: tuple = None

    def __bool__(self):
        return self.flag


@dataclass(frozen=True)
class Classification:
    nested: NestedVerdict
    laminar: LaminarVerdict
    dual_laminar: DualLaminarVerdict
    binary_laminar: MinorExclusionVerdict
    ternary_laminar: MinorExclusionVerdict


def is_laminar(m):
    """Laminarity via the canonical presentation.

    A matroid is laminar exactly when every two intersecting non-spanning
    circuits have nested closures.  Those closures, loops removed, are
    canonical members, so a crossing pair makes the presentation raise
    NotLaminar.  A "yes" carries the presentation, checked to reproduce
    m, with no pair scan; a "no" scans for the first crossing pair in
    storage order, and finding none is an internal error.
    """
    try:
        pres = canonical_from_matroid(m)
    except NotLaminar:
        pres = None
    if pres is not None and pres.to_explicit() == m:
        return LaminarVerdict(True, presentation=pres)
    r = m.rank()
    non_spanning = [
        (c, a) for c, a in zip(m._masks, m._circuit_closures()) if c.bit_count() <= r
    ]
    for i, (ci, a) in enumerate(non_spanning):
        for j in range(i + 1, len(non_spanning)):
            cj, b = non_spanning[j]
            if ci & cj and a & b != a and a & b != b:
                return LaminarVerdict(
                    False,
                    violating_circuits=(m.ground.set_of(ci), m.ground.set_of(cj)),
                )
    raise MatroidError("internal: canonical presentation mismatch")


def is_nested(m):
    """Nestedness: the cyclic flats must form a chain under inclusion."""
    flats = m.cyclic_flats()
    for i in range(len(flats)):
        for j in range(i + 1, len(flats)):
            if not flats[i] <= flats[j]:
                return NestedVerdict(False, incomparable=(flats[i], flats[j]))
    return NestedVerdict(True, chain=flats)


def _pair_shape(m):
    """Sides and depth of a non-nested block that is a truncated direct
    sum of two uniform matroids, or None.

    Cyclic flats fix the rank: r(X) = min over them of r(Z) + |X - Z|
    (Bonin and de Mier).  When the proper nonempty ones are F1, F2
    partitioning E, that is the rank of {F1: r1, F2: r2, E: r}.  In
    T^k(U(r1, F1) + U(r2, F2)) they lie among F1 and F2, as a cyclic flat
    holding an (r+1)-set spans; with one missing they form a chain.
    """
    whole = frozenset(m.elements)
    proper = [f for f in m.cyclic_flats() if f and f != whole]
    if len(proper) != 2 or proper[0] & proper[1] or proper[0] | proper[1] != whole:
        return None
    r1, r2 = (m.rank(f) for f in proper)
    return ((proper[0], r1), (proper[1], r2), r1 + r2 - m.rank())


def _component_shape(m, block):
    sub = m.restrict(block)
    nv = is_nested(sub)
    if nv.nested:
        return ComponentShape(block, "nested", chain=nv.chain)
    pair = _pair_shape(sub)
    if pair is not None:
        s1, s2, depth = pair
        return ComponentShape(block, "pair", sides=(s1, s2), depth=depth)
    return ComponentShape(block, "none")


def _dual_laminar(m, laminar):
    shapes = tuple(_component_shape(m, block) for block in m.components())
    if all(s.kind != "none" for s in shapes):
        return DualLaminarVerdict(True, shapes)
    reason = "dual is not laminar" if laminar else "not laminar"
    return DualLaminarVerdict(False, shapes, reason=reason)


def classify_dual_laminar(m):
    """Both the matroid and its dual laminar?

    Decided block by block from the connectivity blocks' shapes: M and M*
    are both laminar exactly when every block is nested or a truncated
    direct sum of two uniform matroids (Fife and Oxley, "Laminar
    matroids").  Nested and pair blocks are laminar, and so are direct
    sums of laminar blocks, so the flag is right for non-laminar hosts
    too.  The components field reports each block's shape; the laminarity
    test only picks the reason a "no" carries.
    """
    return _dual_laminar(m, is_laminar(m))


def _exclusion(m, uniforms, laminar):
    """First of U(r, n) for (r, n) in uniforms, then the rank-3 excluded
    minor, found as a minor of m.  The last is not searched for on a
    laminar host: laminarity is minor-closed, so it can only miss."""
    targets = [(f"uniform({r},{n})", uniform(r, n)) for r, n in uniforms]
    if not laminar:
        targets.append(("excluded-minor(3)", excluded_minor(3)))
    for label, t in targets:
        w = has_minor(m, t)
        if w is not None:
            return MinorExclusionVerdict(False, found=(label, w))
    return MinorExclusionVerdict(True)


_BINARY = ((2, 4),)
_TERNARY = ((2, 5), (3, 5))


def classify_binary_laminar(m):
    """Binary and laminar, by excluding U(2,4) and then the rank-3
    excluded minor; the latter is searched for only when is_laminar says
    no, since laminar matroids have no excluded_minor(r) minor (Fife and
    Oxley, "Laminar matroids")."""
    return _exclusion(m, _BINARY, is_laminar(m))


def classify_ternary_laminar(m):
    """Ternary and laminar, by excluding U(2,5), U(3,5), and then the
    rank-3 excluded minor, which is skipped on laminar hosts as in
    classify_binary_laminar."""
    return _exclusion(m, _TERNARY, is_laminar(m))


def excluded_minor_witness(m):
    """First (r, witness) with the rank-r excluded minor inside m, or None.

    The excluded_minor(r), r >= 3, are the excluded minors of the laminar
    matroids (Fife and Oxley, "Laminar matroids"), so a laminar host, as
    is_laminar decides it, returns None with no search.  Otherwise some
    rank from 3 up to (n + 1) // 2 hits: a non-laminar host has some
    excluded_minor(s) minor, and that has 2s - 1 <= n elements.
    """
    if is_laminar(m):
        return None
    for r in range(3, (m.n + 1) // 2 + 1):
        w = has_minor(m, excluded_minor(r))
        if w is not None:
            return (r, w)
    raise MatroidError("internal: a non-laminar host has no excluded minor")


def classify(m):
    """All five class verdicts in one record.  Ternary reuses binary's
    verdict unless that found U(2,4), a minor of U(2,5) and of U(3,5)
    (delete or contract a point): without it both uniform searches miss
    and the excluded-minor search repeats binary's, witness and all."""
    nested = is_nested(m)
    laminar = is_laminar(m)
    binary = ternary = _exclusion(m, _BINARY, laminar)
    if binary.found and binary.found[0] == "uniform(2,4)":
        ternary = _exclusion(m, _TERNARY, laminar)
    return Classification(
        nested=nested,
        laminar=laminar,
        dual_laminar=_dual_laminar(m, laminar),
        binary_laminar=binary,
        ternary_laminar=ternary,
    )
