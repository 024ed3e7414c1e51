"""Reference model of laminar matroids, written from the definitions.

Nothing here imports laminarmatroids.  The benchmark builds expected
answers with it and re-checks the CLI's certificates against it, so a
wrong kernel cannot confirm its own output.

A presentation is (ground, caps): an ordered tuple of element names and a
dict frozenset -> capacity over a laminar family.  A set is independent
when it meets every member A in at most caps[A] elements.
"""

from __future__ import annotations

from itertools import combinations


def collapse(caps):
    """Duplicate members keep their least capacity, as the package does."""
    out = {}
    for member, cap in caps:
        member = frozenset(member)
        out[member] = min(cap, out.get(member, cap))
    return out


def independent(caps, items):
    items = frozenset(items)
    return all(len(items & a) <= c for a, c in caps.items())


def rank(caps, items):
    """Greedy rank, which is exact because the family defines a matroid."""
    chosen = set()
    for e in items:
        chosen.add(e)
        if not independent(caps, chosen):
            chosen.discard(e)
    return len(chosen)


def same_matroid(caps1, caps2):
    """True when two presentations have the same dependent sets.

    A member (A, c) of one makes exactly the (c+1)-subsets of A minimally
    dependent, so the other presentation agrees when its rank of A is at
    most c; checking both directions proves equality.
    """
    return all(rank(caps2, a) <= c for a, c in caps1.items()) and all(
        rank(caps1, a) <= c for a, c in caps2.items()
    )


def _forest(caps):
    """parent[A] = least member strictly containing A, or None."""
    members = sorted(caps, key=len)
    parent = {}
    for i, a in enumerate(members):
        parent[a] = next((b for b in members[i + 1 :] if a < b), None)
    return parent


def _tops(caps):
    """Members that can be the least overfilled member of a circuit.

    A circuit C of size c(A)+1 has a least overfilled member A, overfills
    no member below A, and needs every member above A to have capacity at
    least c(A) (otherwise C minus one element is already dependent).
    """
    parent = _forest(caps)
    for a, c in caps.items():
        p = parent[a]
        ok = True
        while p is not None:
            if caps[p] < c:
                ok = False
                break
            p = parent[p]
        if ok:
            yield a, c


def circuits(caps):
    """Every circuit, as frozensets, from the characterisation in _tops."""
    out = []
    for a, c in _tops(caps):
        below = [(b, cb) for b, cb in caps.items() if b < a]
        for combo in combinations(sorted(a), c + 1):
            s = frozenset(combo)
            if all(len(s & b) <= cb for b, cb in below):
                out.append(s)
    return out


def circuit_count(caps):
    """Number of circuits, by a polynomial count over the family forest.

    poly(A)[k] counts k-subsets of A overfilling no member below A; a
    member's circuits are the (c(A)+1)-subsets counted by poly(A).
    """
    parent = _forest(caps)
    kids = {a: [] for a in caps}
    for a, p in parent.items():
        if p is not None:
            kids[p].append(a)
    poly = {}
    for a in sorted(caps, key=len):
        free = len(a) - sum(len(k) for k in kids[a])
        acc = [1]
        for _ in range(free):
            acc = _times(acc, [1, 1])
        for k in kids[a]:
            acc = _times(acc, poly[k][: caps[k] + 1])
        poly[a] = acc
    total = 0
    for a, c in _tops(caps):
        if c + 1 < len(poly[a]):
            total += poly[a][c + 1]
    return total


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def run_script(steps):
    """Interpret EMPTY/COLOOP/TRUNCATE/DSUM steps into (ground, caps)."""
    live = {}
    name = None
    for step in steps:
        op, name = step[0], step[1]
        if op == "empty":
            live[name] = ((), {})
        elif op == "coloop":
            ground, caps = live.pop(step[2])
            live[name] = (ground + (step[3],), caps)
        elif op == "truncate":
            ground, caps = live.pop(step[2])
            whole = frozenset(ground)
            r = rank(caps, ground)
            caps = dict(caps)
            caps[whole] = min(caps.get(whole, r - 1), r - 1)
            live[name] = (ground, caps)
        elif op == "dsum":
            g1, c1 = live.pop(step[2])
            g2, c2 = live.pop(step[3])
            live[name] = (g1 + g2, {**c1, **c2})
        else:
            raise ValueError(f"unknown step {op!r}")
    return live[name]


def canonical(caps, ground, circs):
    """The canonical family of the matroid with these circuits, given an
    equal presentation: cl(C) minus the loops, at rank |C| - 1, for each
    circuit C of two or more elements, plus the loops at capacity 0."""
    loops = frozenset().union(*(c for c in circs if len(c) == 1))
    out = {}
    for c in circs:
        if len(c) > 1:
            r = len(c) - 1
            out[frozenset(e for e in ground if rank(caps, c | {e}) == r) - loops] = r
    if loops:
        out[loops] = 0
    return out


def circuit_rank(circs, items):
    """Rank of a set in the matroid with the given circuits."""
    chosen = set()
    for e in items:
        chosen.add(e)
        if any(c <= chosen for c in circs):
            chosen.discard(e)
    return len(chosen)


def in_closure(circs, items, e):
    """e lies in cl(items) iff e is in items or some circuit through e
    lies inside items + e."""
    items = frozenset(items)
    if e in items:
        return True
    return any(e in c and c <= items | {e} for c in circs)


def closure(circs, ground, items):
    return frozenset(e for e in ground if in_closure(circs, items, e))


def minor_circuits(circs, delete, contract):
    """Minimal nonempty sets among C - T over circuits C missing D."""
    cand = {c - contract for c in circs if not c & delete}
    cand.discard(frozenset())
    return {c for c in cand if not any(d < c for d in cand)}
