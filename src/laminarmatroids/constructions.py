"""Builders and the construction calculus.

Scripts combine four primitives: EMPTY, COLOOP (free extension by a
coloop), TRUNCATE, and DSUM.  Together they generate exactly the laminar
matroids; DSUM-free scripts generate the nested ones (Fife and Oxley,
"Laminar matroids").  deconstruct inverts run_script up to matroid
equality on the same labels, reading the construction off the family
forest of the canonical presentation: in it each member has rank equal
to its capacity, so the member's matroid is the direct sum of its
children's, extended by its free elements as coloops and truncated down
to its capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._backend import kernels as K
from .errors import (
    BadParams,
    EmptyMemberSet,
    NotAChain,
    NotCanonical,
    UndefinedName,
)
from .matroid import (
    ExplicitMatroid,
    GroundSet,
    _check_size,
    build_matroid,
    parallel_connection,
    two_sum,
)
from .presentation import (
    CanonicalPresentation,
    LaminarPresentation,
    _coloop,
    _dsum,
    _from_value,
    _truncate,
    canonical_from_matroid,
)


def _default_names(n):
    return tuple(f"e{i}" for i in range(1, n + 1))


def uniform(r, n, names=None):
    """U(r, n): every (r+1)-subset is a circuit."""
    if not (0 <= r <= n):
        raise BadParams(f"uniform needs 0 <= r <= n, got r={r}, n={n}")
    names = _default_names(n) if names is None else tuple(names)
    if len(names) != n:
        raise BadParams(f"expected {n} names, got {len(names)}")
    _check_size(n)
    gs = GroundSet(names)
    return ExplicitMatroid._from_masks(gs, K.submasks_of_size(gs.full_mask, r + 1))


def circuit(n, names=None):
    """The n-element circuit U(n-1, n)."""
    if n < 1:
        raise BadParams(f"circuit needs n >= 1, got {n}")
    return uniform(n - 1, n, names)


def free(n, names=None):
    """n coloops: U(n, n)."""
    if n < 0:
        raise BadParams(f"free needs n >= 0, got {n}")
    return uniform(n, n, names)


def empty():
    return ExplicitMatroid._from_masks(GroundSet(()), [])


_FANO_LINES = (
    (0, 1, 2),
    (0, 3, 4),
    (0, 5, 6),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 6),
    (2, 4, 5),
)


def fano():
    """The seven-point rank-3 matroid whose lines are the Fano triples."""
    names = _default_names(7)
    circuits = [frozenset(names[i] for i in line) for line in _FANO_LINES]
    all_names = frozenset(names)
    circuits += [all_names - c for c in circuits[:7]]
    return build_matroid(names, circuits)


def fano_dual():
    return fano().dual()


def excluded_minor(r):
    """The rank-r excluded minor for laminarity.

    Truncation to rank r of the parallel connection of two r-element
    circuits; ground is p, 1, ..., 2r-2 with the two circuit sides
    {p, 1..r-1} and {p, r..2r-2}.
    """
    if r < 3:
        raise BadParams(f"excluded minors start at rank 3, got {r}")
    left = circuit(r, ("p",) + tuple(str(i) for i in range(1, r)))
    right = circuit(r, ("q",) + tuple(str(i) for i in range(r, 2 * r - 1)))
    m = parallel_connection(left, right, "p", "q")
    for _ in range(r - 3):
        m = m.truncate()
    return m


def standard_matroid(kind, *params):
    """Dispatch by name: uniform, circuit, free, empty, fano, fanoDual."""
    table = {
        "uniform": uniform,
        "circuit": circuit,
        "free": free,
        "empty": empty,
        "fano": fano,
        "fanoDual": fano_dual,
    }
    if kind not in table:
        raise BadParams(f"unknown matroid kind {kind!r}")
    try:
        return table[kind](*params)
    except TypeError as exc:
        raise BadParams(f"bad parameters for {kind}: {exc}") from None


def nested_from_chain(ground, chain):
    """Presentation from an inclusion chain B1 <= B2 <= ... <= Bn.

    Distinct chain members get capacity equal to their position in the
    deduplicated chain; the complement of the last member, when nonempty,
    joins as a capacity-0 member (its elements are loops).
    """
    gs = ground if isinstance(ground, GroundSet) else GroundSet(ground)
    chain = [frozenset(b) for b in chain]
    if not chain or not chain[0]:
        raise EmptyMemberSet("the chain must start with a nonempty set")
    masks = [gs.mask_of(b) for b in chain]
    for prev, cur in zip(masks, masks[1:]):
        if prev & cur != prev:
            raise NotAChain(gs.tuple_of(prev), gs.tuple_of(cur))
    caps = {}
    for m in masks:
        caps.setdefault(m, len(caps) + 1)
    rest = gs.full_mask & ~masks[-1]
    if rest:
        caps[rest] = 0
    return LaminarPresentation._from_masks(gs, caps.items())


# Operand count of each op: a step is (op, name, *operands).
_MBS_ARITY = {"empty": 0, "coloop": 2, "truncate": 1, "dsum": 2}


def _check_step(step, error, where=""):
    """Raise `error` unless `step` has a known op and its operand count."""
    op = step[0] if step else None
    if not (isinstance(op, str) and op in _MBS_ARITY):
        raise error(f"unknown op {op!r}{where}")
    if len(step) != _MBS_ARITY[op] + 2:
        raise error(f"bad step {step!r}{where}")


@dataclass(frozen=True)
class ConstructionScript:
    """A straight-line program over EMPTY / COLOOP / TRUNCATE / DSUM.

    Steps are tuples: ("empty", name), ("coloop", name, src, element),
    ("truncate", name, src), ("dsum", name, left, right).  Names are
    single-assignment and each is consumed at most once.
    """

    steps: tuple
    result: str


def run_script(script):
    """Interpret a script into a laminar presentation.

    Each live name holds a raw value (elements, [(mask, capacity)], rank)
    and each step applies the presentation layer's rule for its op, which
    tracks the rank: EMPTY is 0, COLOOP adds 1, TRUNCATE subtracts 1 and
    DSUM adds the two.  Only the result is built into a presentation.
    Operands are consumed; referencing a missing or spent name raises
    UndefinedName, reassignment or a malformed step raises BadParams.
    Every other refusal is raised at its step: DuplicateElement or
    MatroidError for a COLOOP element, RankZero for a TRUNCATE at rank
    zero, and TooLarge for the step that passes the size cap.
    """
    live = {}
    defined = set()

    def take(name):
        if name not in live:
            raise UndefinedName(name)
        return live.pop(name)

    for step in script.steps:
        _check_step(step, BadParams)
        op, name = step[0], step[1]
        if name in defined:
            raise BadParams(f"name {name!r} assigned twice")
        if op == "empty":
            value = (), [], 0
        elif op == "coloop":
            value = _coloop(take(step[2]), step[3])
        elif op == "truncate":
            value = _truncate(take(step[2]))
        else:
            value = _dsum(take(step[2]), take(step[3]))
        defined.add(name)
        live[name] = value
    if script.result not in live:
        raise UndefinedName(script.result)
    return _from_value(live[script.result])


def deconstruct(p):
    """Script that rebuilds the matroid of a canonical presentation.

    One walk of the family forest, after Fife and Oxley's construction:
    a member's matroid is the direct sum of its children's matroids with
    its free elements added as coloops, truncated to its capacity.  In a
    canonical presentation every member has rank equal to its capacity,
    so a member with children of total capacity s and free part F takes
    s + |F| - c truncations.  The loops come first (coloops truncated to
    rank 0), and the first leaf reached in preorder grows from them
    instead of from a fresh EMPTY, so a chain of members, which is a
    nested matroid, needs no DSUM.  The roots of positive capacity are
    summed the same way and the coloops come last.  Children, roots and
    free elements go in slot and ground order, so output is
    deterministic; a script uses DSUM exactly when the matroid is not
    nested.
    """
    if not isinstance(p, CanonicalPresentation):
        raise NotCanonical("deconstruct expects a canonical presentation")
    steps = []

    def emit(op, *args):
        name = f"m{len(steps) + 1}"
        steps.append((op, name) + args)
        return name

    def grow(name, rank, free, cap):
        for e in p.ground.tuple_of(free):
            name = emit("coloop", name, e)
        for _ in range(rank + free.bit_count() - cap):
            name = emit("truncate", name)
        return name

    start = [grow(emit("empty"), 0, p._loops, 0)]

    def dsum(slots):
        """The direct sum of the slots' matroids and its rank; with no
        slots, the loops' matroid the first time and EMPTY after."""
        if not slots:
            return start.pop() if start else emit("empty"), 0
        name = build(slots[0])
        for k in slots[1:]:
            name = emit("dsum", name, build(k))
        return name, sum(p._caps[k] for k in slots)

    def build(i):
        return grow(*dsum(p._kids[i]), p._free[i], p._caps[i])

    name, rank = dsum([i for i in p._roots if p._caps[i]])
    coloops = p.ground.full_mask & ~sum(p._masks[i] for i in p._roots)
    result = grow(name, rank, coloops, rank + coloops.bit_count())
    return ConstructionScript(steps=tuple(steps), result=result)


def binary_component(n, plan=()):
    """A circuit with parallel-extended elements.

    `plan` lists elements of the base circuit (e1..en, repeats allowed);
    each entry clones that element by a fresh parallel copy.
    """
    if n < 1:
        raise BadParams(f"binary_component needs n >= 1, got {n}")
    base = circuit(n)
    names = set(base.elements)
    for b in plan:
        if b not in names:
            raise BadParams(f"plan entry {b!r} is not a base circuit element")
    pres = canonical_from_matroid(base)
    for k, b in enumerate(plan, n + 1):
        pres = pres.parallel_extend(b, f"e{k}")
    return pres.to_explicit()


def ternary_component(n, k):
    """An n-circuit 2-summed with k copies of U(2, 4) at distinct elements."""
    if n < 3:
        raise BadParams(f"ternary_component needs n >= 3, got {n}")
    if not (0 <= k <= n):
        raise BadParams(f"need 0 <= k <= n, got k={k}")
    m = circuit(n)
    nxt = n + 1
    for i in range(1, k + 1):
        names = tuple(f"e{j}" for j in range(nxt, nxt + 4))
        nxt += 4
        gadget = uniform(2, 4, names)
        m = two_sum(m, gadget, f"e{i}", names[0])
    return m
