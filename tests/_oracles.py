"""Brute-force reference implementations used to freeze expected values.

Everything here works from first definitions on tiny inputs: powerset
scans, permutation search, no library internals, and no bitmasks except
in laminar_circuit_masks, minimal_sets and first_bijection.  Slow on
purpose; keep n small.  Eight helpers are exceptions.  forest_deconstruct
rebuilds deconstruct's script from the circuits; explicit_deconstruct,
closure_evidence, pair_by_expansion and search_excluded_minor_witness
keep computations the library no longer makes (explicit_deconstruct is
the old four-case script, kept to pin that nested matroids still get it
and no script got longer; pair_by_expansion is the old pair test, which
expanded a guessed split's circuits); and greedy_excluded_minor reduces
a host to a minimal non-laminar minor.  These six are built from the
library's public calls.  reference_find_minor is the minor search as it ran before
contractions read their circuits off the dependent sets, and
reference_parse_ckt is the .ckt line parser as it ran before parse_ckt
read each line with one match; it reuses the formats module's line
helpers and tokenizer.  reference_run_script is the interpreter that
built a presentation at every step, and reference_circuit_masks the
circuit generator that made a fresh generator for every tail.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, permutations


def subsets(items):
    items = tuple(items)
    return chain.from_iterable(
        combinations(items, k) for k in range(len(items) + 1)
    )


def independent_from_circuits(circuits):
    family = [frozenset(c) for c in circuits]

    def independent(s):
        s = frozenset(s)
        return not any(c <= s for c in family)

    return independent


def laminar_independent(caps):
    """caps: iterable of (member iterable, capacity)."""
    family = [(frozenset(a), c) for a, c in caps]

    def independent(s):
        s = frozenset(s)
        return all(len(s & a) <= c for a, c in family)

    return independent


def brute_rank(independent, items):
    best = 0
    for s in subsets(items):
        if len(s) > best and independent(s):
            best = len(s)
    return best


def brute_circuits(elements, independent):
    dep = [frozenset(s) for s in subsets(elements) if not independent(s)]
    return {
        c for c in dep if not any(d < c for d in dep)
    }


def brute_closure(elements, independent, items):
    items = frozenset(items)
    r = brute_rank(independent, items)
    return frozenset(
        e for e in elements
        if e in items or brute_rank(independent, items | {e}) == r
    )


def first_crossing_pair(m):
    """The first pair of intersecting non-spanning circuits of m, in
    m.circuits order, whose brute-force closures cross; None if none."""
    circuits = m.circuits
    indep = independent_from_circuits(circuits)
    r = brute_rank(indep, m.elements)
    scan = [
        (c, brute_closure(m.elements, indep, c)) for c in circuits if len(c) <= r
    ]
    for i, (c1, a) in enumerate(scan):
        for c2, b in scan[i + 1 :]:
            if c1 & c2 and not (a <= b or b <= a):
                return (c1, c2)
    return None


def brute_cocircuits(elements, circuits):
    independent = independent_from_circuits(circuits)
    full = brute_rank(independent, elements)
    drops = [
        frozenset(x)
        for x in subsets(elements)
        if x and brute_rank(independent, set(elements) - set(x)) < full
    ]
    return {c for c in drops if not any(d < c for d in drops)}


def brute_minor(elements, circuits, delete=(), contract=()):
    """Ground and circuits of M \\ delete / contract."""
    delete, contract = frozenset(delete), frozenset(contract)
    independent = independent_from_circuits(circuits)
    keep = tuple(e for e in elements if e not in delete | contract)
    rt = brute_rank(independent, contract)

    def minor_independent(s):
        return brute_rank(independent, frozenset(s) | contract) - rt == len(
            frozenset(s)
        )

    return keep, brute_circuits(keep, minor_independent)


def minimal_sets(masks):
    """Inclusion-minimal members, deduplicated, ascending numeric order."""
    kept = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if not any(f & m == f for f in kept):
            kept.append(m)
    return sorted(kept)


def reference_find_minor(n, circuits, rank, n_target, circuits_target, rank_target):
    """find_minor's loop with each contraction's circuits taken as the
    minimal_sets of the C - T, T and D listed by sorting
    itertools.combinations rather than by submasks_of_size, the kept
    elements renumbered bit by bit rather than by compress, and the
    bijection taken as first_bijection rather than iso_bijection: the
    same (delete_mask, contract_mask, bijection) or None, for a test to
    compare the kernel with."""
    from laminarmatroids import _kernels_py as K

    t = rank - rank_target
    d = n - n_target - t
    if t < 0 or d < 0:
        return None
    full = (1 << n) - 1
    dep = K._dependent_bitmap(circuits, n)
    spans = K._bytes(K._at_least(~dep, rank, n), n)
    dep = K._bytes(dep, n)
    target_sizes = sorted(c.bit_count() for c in circuits_target)
    for tm in sorted(map(sum, combinations([1 << i for i in range(n)], t))):
        if dep[tm]:
            continue
        contracted = minimal_sets(c & ~tm for c in circuits if c & ~tm)
        rest = [1 << i for i in range(n) if not tm >> i & 1]
        for dm in sorted(map(sum, combinations(rest, d))):
            if not spans[full & ~dm]:
                continue
            cand = [c for c in contracted if not (c & dm)]
            if len(cand) != len(circuits_target):
                continue
            kept = [i for i in range(n) if not (tm | dm) >> i & 1]
            compressed = [sum(1 << j for j, i in enumerate(kept) if c >> i & 1) for c in cand]
            if sorted(c.bit_count() for c in compressed) != target_sizes:
                continue
            perm = first_bijection(n_target, compressed, circuits_target)
            if perm is not None:
                return (dm, tm, perm)
    return None


def first_bijection(n, circuits1, circuits2):
    """The lexicographically first index permutation mapping the circuit
    masks circuits1 onto circuits2, or None; iso_bijection's ascending
    backtrack returns the same one."""
    want = set(circuits2)
    for perm in permutations(range(n)):
        if {sum(1 << perm[i] for i in range(n) if c >> i & 1) for c in circuits1} == want:
            return list(perm)
    return None


def brute_isomorphism(e1, c1, e2, c2):
    e1, e2 = tuple(e1), tuple(e2)
    if len(e1) != len(e2) or len(c1) != len(c2):
        return None
    want = {frozenset(c) for c in c2}
    for perm in permutations(e2):
        phi = dict(zip(e1, perm))
        if {frozenset(phi[x] for x in c) for c in c1} == want:
            return phi
    return None


def brute_has_minor(elements, circuits, t_elements, t_circuits):
    """Unrestricted search over all disjoint (delete, contract) pairs."""
    elements = tuple(elements)
    k = len(tuple(t_elements))
    for d in subsets(elements):
        rest = [e for e in elements if e not in d]
        if len(rest) < k:
            continue
        for t in subsets(rest):
            if len(rest) - len(t) != k:
                continue
            keep, mc = brute_minor(elements, circuits, d, t)
            if brute_isomorphism(keep, mc, t_elements, t_circuits):
                return True
    return False


def laminar_circuit_masks(n, set_masks, caps):
    """Circuit masks of the matroid on n elements in which x is dependent
    iff it overfills a set: every mask, smallest first, that overfills one
    and contains no circuit already found."""
    found = []
    for x in sorted(range(1, 1 << n), key=lambda x: (x.bit_count(), x)):
        if any(c & x == c for c in found):
            continue
        if any((a & x).bit_count() > c for a, c in zip(set_masks, caps)):
            found.append(x)
    return found


def brute_max_weight(elements, independent, weights):
    best = Fraction(0)
    for s in subsets(elements):
        if independent(s):
            w = sum((Fraction(weights.get(e, 0)) for e in s), Fraction(0))
            if w > best:
                best = w
    return best


def brute_cyclic_flats(elements, circuits):
    independent = independent_from_circuits(circuits)
    family = [frozenset(c) for c in circuits]
    out = set()
    for s in subsets(elements):
        s = frozenset(s)
        if brute_closure(elements, independent, s) != s:
            continue
        inside = [c for c in family if c <= s]
        union = frozenset().union(*inside) if inside else frozenset()
        if union == s:
            out.add(s)
    return out


def is_chain(family):
    family = list(family)
    for i, a in enumerate(family):
        for b in family[i + 1 :]:
            if not (a <= b or b <= a):
                return False
    return True


def elimination_holds(circuits):
    family = [frozenset(c) for c in circuits]
    for i, c1 in enumerate(family):
        for c2 in family:
            if c1 == c2:
                continue
            for e in c1 & c2:
                rest = (c1 | c2) - {e}
                if not any(c3 <= rest for c3 in family):
                    return False
    return True


def first_containment(circuits):
    """(i, j): the first circuit i inside another, and the first circuit j
    holding it; None for an antichain."""
    family = [frozenset(c) for c in circuits]
    for i, a in enumerate(family):
        for j, b in enumerate(family):
            if i != j and a <= b:
                return (i, j)
    return None


def first_elimination_failure(circuits):
    """(i, j, e): the first pair i < j and element e of both whose union
    minus e holds no circuit; None when elimination holds."""
    family = [frozenset(c) for c in circuits]
    for i, j in combinations(range(len(family)), 2):
        for e in sorted(family[i] & family[j]):
            rest = (family[i] | family[j]) - {e}
            if not any(c <= rest for c in family):
                return (i, j, e)
    return None


def region_elimination_failure(elements, circuits):
    """The elimination failure the axiom check names on an antichain, or
    None when elimination holds.

    With r the brute-force rank, take the least (k, e, f), e < f, such
    that some X avoiding e and f has r(X) = r(X+e) = r(X+f) = k - 1 <
    r(X+e+f); among those X the one with fewest elements, then the
    smallest when read as a number with bit i for element i.  The answer
    is first_elimination_failure on the circuits inside X+e+f, with their
    indices in `circuits`.
    """
    elements = sorted(elements)
    independent = independent_from_circuits(circuits)
    rank = {}
    for s in subsets(elements):
        s = frozenset(s)
        rank[s] = len(s) if independent(s) else max(rank[s - {x}] for x in s)
    best = None
    for x, r in rank.items():
        out = [e for e in elements if e not in x]
        for e, f in combinations(out, 2):
            if rank[x | {e}] == rank[x | {f}] == r < rank[x | {e, f}]:
                key = (r + 1, e, f, len(x), sorted(x, reverse=True))
                if best is None or key < best[0]:
                    best = (key, x | {e, f})
    if best is None:
        return None
    region = best[1]
    keep = [i for i, c in enumerate(circuits) if frozenset(c) <= region]
    i, j, e = first_elimination_failure([circuits[i] for i in keep])
    return keep[i], keep[j], e


def search_excluded_minor_witness(m):
    """First (r, witness) with excluded_minor(r) a minor of m, or None,
    by has_minor at every rank r from 3 to (n + 1) // 2.

    This is the search excluded_minor_witness makes on non-laminar hosts,
    run on laminar ones too, so a test can check "laminar exactly when no
    excluded minor" without reading is_laminar on either side.
    """
    from laminarmatroids import excluded_minor, has_minor

    for r in range(3, (m.n + 1) // 2 + 1):
        w = has_minor(m, excluded_minor(r))
        if w is not None:
            return (r, w)
    return None


def closure_evidence(m):
    """Member -> evidence circuit of the canonical presentation of a
    laminar m, read off its circuits: for each circuit closure minus the
    loops, the first circuit in storage order with at least two elements
    spanning it, and for the loop set, its first element in ground order.

    This is how canonical_from_matroid chose evidence before the
    canonical presentation derived it from its family forest.
    """
    loops = m.loops()
    out = {loops: frozenset([min(loops, key=m.elements.index)])} if loops else {}
    for c in m.circuits:
        if len(c) > 1:
            out.setdefault(m.closure(c) - loops, c)
    return out


def greedy_excluded_minor(m):
    """A minor-minimal non-laminar minor of the non-laminar m, in one pass
    over its ground: for each e, keep M'\\e if it is not laminar, else
    M'/e if it is not, else keep e.

    One pass is enough: if M'\\e and M'/e were laminar when e was
    reached, every later M'' has M''\\e and M''/e as their minors, and
    laminarity is minor-closed.
    """
    from laminarmatroids import is_laminar

    for e in m.elements:
        for side in ("delete", "contract"):
            minor = m.minor(**{side: (e,)})
            if not is_laminar(minor):
                m = minor
                break
    return m


def explicit_deconstruct(m):
    """(steps, result) of the construction script for a laminar matroid,
    by the recursion on explicit matroids that deconstruct used before it
    ran on the family forest: cyclic-flat chain, else connectivity
    blocks, else peel a free element of the spanning member, else split
    over its children and truncate.
    """
    from laminarmatroids import canonical_from_matroid

    steps = []

    def emit(op, *args):
        name = f"m{len(steps) + 1}"
        steps.append((op, name) + args)
        return name

    def dsum_all(names):
        acc = names[0]
        for nm in names[1:]:
            acc = emit("dsum", acc, nm)
        return acc

    def chain_script(m, flats):
        name = emit("empty")
        rank = 0
        done = frozenset()
        for f in flats:
            for e in sorted(f - done, key=m.ground.index):
                name = emit("coloop", name, e)
                rank += 1
            for _ in range(rank - m.rank(f)):
                name = emit("truncate", name)
            rank = m.rank(f)
            done = f
        for e in sorted(frozenset(m.elements) - done, key=m.ground.index):
            name = emit("coloop", name, e)
        return name

    def walk(m):
        if m.n == 0:
            return emit("empty")
        flats = sorted(m.cyclic_flats(), key=len)
        if is_chain(flats):
            return chain_script(m, flats)
        blocks = m.components()
        if len(blocks) > 1:
            return dsum_all([walk(m.restrict(b)) for b in blocks])
        canon = canonical_from_matroid(m)
        whole = frozenset(m.elements)
        loose = canon.free_part(whole)
        if loose:
            e = min(loose, key=m.ground.index)
            name = walk(m.minor(delete=(e,)))
            name = emit("coloop", name, e)
            return emit("truncate", name)
        kids = sorted(
            canon.children_of(whole),
            key=lambda a: min(m.ground.index(x) for x in a),
        )
        acc = dsum_all([walk(m.restrict(a)) for a in kids])
        for _ in range(sum(m.rank(a) for a in kids) - m.rank()):
            acc = emit("truncate", acc)
        return acc

    result = walk(m)
    return tuple(steps), result


def forest_deconstruct(m):
    """(steps, result) of deconstruct's script for a laminar m, read off
    its circuits: the members of its canonical presentation are the
    distinct closures of the circuits of size >= 2 minus the loops, each
    at its rank, and a member's children are the maximal members inside
    it, taken by ascending index tuple.

    A member's matroid is its children's summed left to right, its
    other elements added as coloops and truncated to its rank.  The
    loops come first; the first member without children grows from them
    and every later one from EMPTY.  The maximal members are summed the
    same way, then the elements in no member and no loop are coloops.
    """
    loops = m.loops()
    members = {m.closure(c) - loops for c in m.circuits if len(c) > 1}
    steps = []
    start = []

    def emit(op, *args):
        name = f"m{len(steps) + 1}"
        steps.append((op, name) + args)
        return name

    def grow(name, rank, free, cap):
        for e in sorted(free, key=m.ground.index):
            name = emit("coloop", name, e)
        for _ in range(rank + len(free) - cap):
            name = emit("truncate", name)
        return name

    def maximal(inside):
        tops = [a for a in inside if not any(a < b for b in inside)]
        return sorted(tops, key=lambda a: sorted(m.ground.index(x) for x in a))

    def summed(parts):
        if not parts:
            return start.pop() if start else emit("empty"), 0
        name = build(parts[0])
        for a in parts[1:]:
            name = emit("dsum", name, build(a))
        return name, sum(m.rank(a) for a in parts)

    def build(a):
        kids = maximal([b for b in members if b < a])
        covered = frozenset().union(*kids)
        return grow(*summed(kids), a - covered, m.rank(a))

    start.append(grow(emit("empty"), 0, loops, 0))
    name, rank = summed(maximal(members))
    coloops = frozenset(m.elements) - loops - frozenset().union(*members)
    result = grow(name, rank, coloops, rank + len(coloops))
    return tuple(steps), result


def pair_by_expansion(m):
    """((F1, r1), (F2, r2), depth) when m is a truncated direct sum of two
    uniform matroids, found as _pair_shape found it before it read the
    shape off the cyclic flats, else None.

    The split is guessed from the maximal proper cyclic flats (with only
    one, its complement is the other side) and confirmed by expanding
    the circuits of {F1: r1, F2: r2, E: r} and comparing them with m.
    """
    from laminarmatroids import LaminarPresentation

    whole = frozenset(m.elements)
    proper = [f for f in m.cyclic_flats() if f and f != whole]
    maximal = [f for f in proper if not any(f < g for g in proper)]
    if not 1 <= len(maximal) <= 2:
        return None
    f1 = maximal[0]
    f2 = maximal[1] if len(maximal) == 2 else whole - f1
    if f1 & f2 or f1 | f2 != whole:
        return None
    r1, r2 = m.rank(f1), m.rank(f2)
    sides = [(f1, r1), (f2, r2), (whole, m.rank())]
    if LaminarPresentation(m.ground, sides).to_explicit() != m:
        return None
    return ((f1, r1), (f2, r2), r1 + r2 - m.rank())


def reference_parse_ckt(text, max_n=16):
    """The .ckt line parser that parse_ckt replaced: each line tokenized
    and checked in turn, every circuit kept as its names and handed to
    build_matroid, so the first bad line names the error."""
    from laminarmatroids import ParseError, build_matroid
    from laminarmatroids.formats import (
        _TOKEN,
        _check_rank,
        _parse_ground,
        _parse_natural,
        _parse_set,
        _significant_lines,
    )

    lines = _significant_lines(text)
    ground = _parse_ground(*lines[0])
    circuits = []
    asserted_rank = None
    for lineno, line in lines[1:]:
        parts = _TOKEN.findall(line)
        if parts[0] == "circuit":
            if len(parts) != 2:
                raise ParseError("circuit takes one set", lineno)
            circuits.append(_parse_set(parts[1], lineno))
        elif parts[0] == "rank":
            if len(parts) != 2:
                raise ParseError("rank takes one integer", lineno)
            if asserted_rank is not None:
                raise ParseError("second rank line", lineno)
            asserted_rank = (_parse_natural(parts[1], lineno, "rank takes one integer"), lineno)
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    return _check_rank(build_matroid(ground, circuits, max_n=max_n), asserted_rank)


def reference_run_script(script):
    """run_script as a chain of builders: every step builds a full
    presentation, as the builder methods did before they shared the raw
    value rules, and TRUNCATE reads the rank off the built value."""
    from laminarmatroids import (
        BadParams,
        DuplicateElement,
        LaminarPresentation,
        RankZero,
        UndefinedName,
    )
    from laminarmatroids.constructions import _check_step
    from laminarmatroids.matroid import GroundSet, _fresh_names

    def add_coloop(p, e):
        if e in p.ground:
            raise DuplicateElement(e)
        gs = GroundSet(p.ground.elements + (e,))
        return LaminarPresentation._from_masks(gs, zip(p._masks, p._caps))

    def truncate(p):
        r = p.rank()
        if r == 0:
            raise RankZero("cannot truncate a rank-zero presentation")
        pairs = [*zip(p._masks, p._caps), (p.ground.full_mask, r - 1)]
        return LaminarPresentation._from_masks(p.ground, pairs)

    def direct_sum(p, q):
        renamed = _fresh_names(p.ground.elements, q.ground.elements)
        gs = GroundSet(p.ground.elements + tuple(renamed))
        right = [(m << p.n, c) for m, c in zip(q._masks, q._caps)]
        return LaminarPresentation._from_masks(gs, [*zip(p._masks, p._caps), *right])

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
            value = add_coloop(take(step[2]), step[3])
        elif op == "truncate":
            value = truncate(take(step[2]))
        else:
            value = direct_sum(take(step[2]), take(step[3]))
        defined.add(name)
        live[name] = value
    if script.result not in live:
        raise UndefinedName(script.result)
    return live[script.result]


def reference_circuit_masks(p):
    """The circuit masks of presentation p as _circuit_masks generated
    them before it memoised its lists: a fresh generator for every tail."""
    from laminarmatroids._backend import kernels as K

    f = p._slot_ranks(p.ground.full_mask)

    def fill(i, size, t=0):
        kids = p._kids[i]
        if t == len(kids):
            yield from K.submasks_of_size(p._free[i], size)
            return
        k = kids[t]
        for j in range(max(0, size - p._below(f, i, t + 1)), min(f[k], size) + 1):
            for part in fill(k, j):
                for tail in fill(i, size - j, t + 1):
                    yield part | tail

    for i, c, _ in p._circuit_tops(f):
        yield from fill(i, c + 1)
