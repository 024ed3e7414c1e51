"""Recognisers for laminar, nested, and related classes, with certificates.

Every positive verdict carries something checkable: a canonical
presentation that reproduces the matroid, a chain of cyclic flats, or a
structural decomposition.  Negative verdicts carry a violating circuit
pair or a concrete minor witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._backend import kernels as K
from .constructions import excluded_minor, uniform
from .errors import MatroidError, NotLaminar, TooLarge
from .matroid import DESK_CAP, has_minor
from .presentation import LaminarPresentation, canonical_from_matroid


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


def _guard(m, max_n):
    if m.n > max_n:
        raise TooLarge(m.n, max_n)


def is_laminar(m, max_n=DESK_CAP):
    """Laminarity via the canonical presentation.

    A matroid is laminar exactly when every two intersecting non-spanning
    circuits have nested closures.  Those closures, loops removed, are
    canonical members, so a crossing pair makes the presentation raise
    NotLaminar.  A "yes" carries the presentation, checked to reproduce
    m, with no pair scan; a "no" scans for the first crossing pair in
    storage order, and finding none is an internal error.
    """
    _guard(m, max_n)
    try:
        pres = canonical_from_matroid(m, max_n)
    except NotLaminar:
        pres = None
    if pres is not None and pres.to_explicit(max_n) == m:
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


def is_nested(m, max_n=DESK_CAP):
    """Nestedness: the cyclic flats must form a chain under inclusion."""
    _guard(m, max_n)
    flats = m.cyclic_flats()
    for i in range(len(flats)):
        for j in range(i + 1, len(flats)):
            if not flats[i] <= flats[j]:
                return NestedVerdict(False, incomparable=(flats[i], flats[j]))
    return NestedVerdict(True, chain=flats)


def _pair_shape(m):
    """Detect a truncated direct sum of two uniform matroids.

    The candidate split is read off the maximal proper cyclic flats (at
    most two; a missing second side means the leftover elements formed a
    free summand).  Truncating U(r1, F1) + U(r2, F2) depth times gives the
    presentation {F1: r1, F2: r2, E: r}, so the split is confirmed by
    expanding that presentation and comparing it with m exactly.
    """
    whole = frozenset(m.elements)
    proper = [f for f in m.cyclic_flats() if f and f != whole]
    maximal = [f for f in proper if not any(f < g for g in proper)]
    if not 1 <= len(maximal) <= 2:
        return None
    if len(maximal) == 2:
        f1, f2 = maximal
        if f1 & f2 or (f1 | f2) != whole:
            return None
    else:
        f1 = maximal[0]
        f2 = whole - f1
    r1, r2 = m.rank(f1), m.rank(f2)
    depth = r1 + r2 - m.rank()
    if depth < 1:
        return None
    sides = [(f1, r1), (f2, r2), (whole, m.rank())]
    if LaminarPresentation(m.ground, sides).to_explicit(m.n) != m:
        return None
    return ((f1, r1), (f2, r2), depth)


def _component_shape(m, block, max_n):
    sub = m.restrict(block)
    nv = is_nested(sub, max_n)
    if nv.nested:
        return ComponentShape(block, "nested", chain=nv.chain)
    pair = _pair_shape(sub)
    if pair is not None:
        s1, s2, depth = pair
        return ComponentShape(block, "pair", sides=(s1, s2), depth=depth)
    return ComponentShape(block, "none")


def _dual_laminar(m, laminar, max_n):
    shapes = tuple(
        _component_shape(m, block, max_n) for block in m.components()
    )
    if all(s.kind != "none" for s in shapes):
        return DualLaminarVerdict(True, shapes)
    reason = "dual is not laminar" if laminar else "not laminar"
    return DualLaminarVerdict(False, shapes, reason=reason)


def classify_dual_laminar(m, max_n=DESK_CAP):
    """Both the matroid and its dual laminar?

    Decided block by block from the connectivity blocks' shapes: M and M*
    are both laminar exactly when every block is nested or a truncated
    direct sum of two uniform matroids (Fife and Oxley, "Laminar
    matroids").  Nested and pair blocks are laminar, and so are direct
    sums of laminar blocks, so the flag is right for non-laminar hosts
    too.  The components field reports each block's shape; the laminarity
    test only picks the reason a "no" carries.
    """
    _guard(m, max_n)
    return _dual_laminar(m, is_laminar(m, max_n), max_n)


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


def classify_binary_laminar(m, max_n=DESK_CAP):
    """Binary and laminar, by excluding U(2,4) and then the rank-3
    excluded minor; the latter is searched for only when is_laminar says
    no, since laminar matroids have no excluded_minor(r) minor (Fife and
    Oxley, "Laminar matroids")."""
    return _exclusion(m, _BINARY, is_laminar(m, max_n))


def classify_ternary_laminar(m, max_n=DESK_CAP):
    """Ternary and laminar, by excluding U(2,5), U(3,5), and then the
    rank-3 excluded minor, which is skipped on laminar hosts as in
    classify_binary_laminar."""
    return _exclusion(m, _TERNARY, is_laminar(m, max_n))


def excluded_minor_witness(m, max_n=DESK_CAP):
    """First (r, witness) with the rank-r excluded minor inside m, or None.

    The excluded_minor(r), r >= 3, are the excluded minors of the laminar
    matroids (Fife and Oxley, "Laminar matroids"), so a laminar host, as
    is_laminar decides it, returns None with no search.  Otherwise ranks
    run from 3 up to the largest size that fits, (n + 1) // 2.
    """
    if is_laminar(m, max_n):
        return None
    for r in range(3, (m.n + 1) // 2 + 1):
        w = has_minor(m, excluded_minor(r))
        if w is not None:
            return (r, w)
    return None


def classify(m, max_n=DESK_CAP):
    """All five class verdicts in one record."""
    nested = is_nested(m, max_n)
    laminar = is_laminar(m, max_n)
    return Classification(
        nested=nested,
        laminar=laminar,
        dual_laminar=_dual_laminar(m, laminar, max_n),
        binary_laminar=_exclusion(m, _BINARY, laminar),
        ternary_laminar=_exclusion(m, _TERNARY, laminar),
    )
