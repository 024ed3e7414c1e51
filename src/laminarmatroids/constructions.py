"""Builders and the construction calculus.

Scripts combine four primitives: EMPTY, COLOOP (free extension by a
coloop), TRUNCATE, and DSUM.  Together they generate exactly the laminar
matroids; DSUM-free scripts generate the nested ones.  deconstruct
inverts run_script up to matroid equality on the same labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ._backend import kernels as K
from .errors import (
    BadParams,
    EmptyMemberSet,
    NotAChain,
    NotCanonical,
    TooLarge,
    UndefinedName,
)
from .matroid import (
    DESK_CAP,
    HARD_CAP,
    ExplicitMatroid,
    GroundSet,
    build_matroid,
    parallel_connection,
    two_sum,
)
from .presentation import (
    CanonicalPresentation,
    LaminarPresentation,
    canonical_from_matroid,
    canonicalize,
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
    if n > HARD_CAP:
        raise TooLarge(n, HARD_CAP)
    gs = GroundSet(names)
    masks = []
    if r < n:
        for combo in combinations(range(n), r + 1):
            m = 0
            for i in combo:
                m |= 1 << i
            masks.append(m)
    return ExplicitMatroid._from_masks(gs, masks)


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
            raise NotAChain(gs.set_of(prev), gs.set_of(cur))
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

    Operands are consumed; referencing a missing or spent name raises
    UndefinedName, reassignment or a malformed step raises BadParams.
    TRUNCATE propagates RankZero from the presentation layer.
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
            value = LaminarPresentation(GroundSet(()), {})
        elif op == "coloop":
            value = take(step[2]).add_coloop(step[3])
        elif op == "truncate":
            value = take(step[2]).truncate()
        else:
            value = take(step[2]).direct_sum(take(step[3]))
        defined.add(name)
        live[name] = value
    if script.result not in live:
        raise UndefinedName(script.result)
    return live[script.result]


class _Emitter:
    def __init__(self):
        self.steps = []
        self.counter = 0

    def fresh(self):
        self.counter += 1
        return f"m{self.counter}"

    def emit(self, op, *args):
        name = self.fresh()
        self.steps.append((op, name) + args)
        return name


def _emit_chain(ground, out, flats):
    """Script for a matroid whose cyclic flats form a chain.

    `flats` holds (mask, rank) pairs along the chain.  Walk it outward:
    the new elements of each flat arrive as coloops, then truncations
    pull the rank down to the flat's rank.  Elements beyond the last
    flat are genuine coloops.  No dsum needed.
    """
    name = out.emit("empty")
    rank = 0
    done = 0
    for f, r in flats:
        for e in ground.tuple_of(f & ~done):
            name = out.emit("coloop", name, e)
            rank += 1
        for _ in range(rank - r):
            name = out.emit("truncate", name)
        rank = r
        done = f
    for e in ground.tuple_of(ground.full_mask & ~done):
        name = out.emit("coloop", name, e)
    return name


def _restrict(p, keep):
    """Canonical presentation p restricted to a block or a member: the
    non-loop members inside `keep`, and its loops."""
    pairs = [(a, c) for a, c in zip(p._masks, p._caps) if c and a & keep == a]
    masks, caps = zip(*pairs, (p._loops & keep, 0))
    pairs = [(m, c) for m, c in zip(K.compress(masks, keep), caps) if m]
    return LaminarPresentation._from_masks(GroundSet(p.ground.tuple_of(keep)), pairs)


def _dsum_all(out, names):
    acc = names[0]
    for nm in names[1:]:
        acc = out.emit("dsum", acc, nm)
    return acc


def _script(p, out):
    """Emit the steps for canonical presentation p; returns their name."""
    if p.n == 0:
        return out.emit("empty")
    masks, caps = p._masks, p._caps
    chain = sorted((i for i, c in enumerate(caps) if c), key=lambda i: masks[i].bit_count())
    if all(masks[i] & masks[j] == masks[i] for i, j in zip(chain, chain[1:])):
        flats = [(p._loops, 0)] + [(masks[i] | p._loops, caps[i]) for i in chain]
        return _emit_chain(p.ground, out, flats)
    roots = [masks[i] for i in p._roots if caps[i]]
    singles = p.ground.full_mask & ~sum(roots)  # disjoint; then the loops and coloops
    blocks = roots + list(K._bits(singles))
    if len(blocks) > 1:
        blocks.sort(key=lambda b: b & -b)
        return _dsum_all(out, [_script(_restrict(p, b), out) for b in blocks])
    whole = p._slot[p.ground.full_mask]
    loose = p._free[whole]
    if loose:
        e = p.ground.elements[K._indices(loose)[0]]
        name = _script(canonicalize(p.delete(e), HARD_CAP), out)
        name = out.emit("coloop", name, e)
        return out.emit("truncate", name)
    kids = p._kids[whole]
    acc = _dsum_all(out, [_script(_restrict(p, masks[k]), out) for k in kids])
    for _ in range(sum(caps[k] for k in kids) - caps[whole]):
        acc = out.emit("truncate", acc)
    return acc


def deconstruct(p, max_n=DESK_CAP):
    """Script that rebuilds the matroid of a canonical presentation.

    Recurses on canonical presentations along the family forest.  When
    the non-loop members form a chain, so do the cyclic flats (the loops,
    then each member joined with the loops), and the script walks that
    chain.  Otherwise several blocks (the top-level members, each loop
    and each coloop) combine by DSUM; a free element of the spanning
    member peels off (delete, then COLOOP + TRUNCATE); or the matroid is
    a truncated direct sum over the spanning member's children.  Blocks,
    children and free elements go in identifier order, so output is
    deterministic.
    """
    if not isinstance(p, CanonicalPresentation):
        raise NotCanonical("deconstruct expects a canonical presentation")
    if p.n > max_n:
        raise TooLarge(p.n, max_n)
    out = _Emitter()
    result = _script(p, out)
    return ConstructionScript(steps=tuple(out.steps), result=result)


def binary_component(n, plan=(), max_n=DESK_CAP):
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
    pres = canonical_from_matroid(base, max_n)
    nxt = n + 1
    for b in plan:
        pres = canonicalize(pres.parallel_extend(b, f"e{nxt}"), max_n)
        nxt += 1
    return pres.to_explicit(max_n)


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
