"""Seeded generators shared by the property and acceptance suites."""

from __future__ import annotations

from laminarmatroids import (
    HARD_CAP,
    ConstructionScript,
    LaminarPresentation,
    direct_sum,
    excluded_minor,
    fano,
    fano_dual,
    is_laminar,
    parallel_connection,
    run_script,
    two_sum,
    uniform,
)


def random_laminar_presentation(rng, n_max=8):
    n = rng.randint(1, n_max)
    ground = tuple(f"e{i + 1}" for i in range(n))
    members = {}
    for _ in range(rng.randint(0, 6)):
        a = frozenset(rng.sample(ground, rng.randint(1, n)))
        if a in members:
            continue
        if any(a & b and not (a <= b or b <= a) for b in members):
            continue
        members[a] = rng.randint(0, len(a))
    return LaminarPresentation(ground, members)


def _direct_children_in(members, scope):
    inside = [b for b in members if b < scope]
    return [b for b in inside if not any(b < c < scope for c in inside)]


def _inflate_once(rng, members, ground):
    """Insert one set removable by a redundancy rule; True on success."""
    for kind in rng.sample(("subset", "cover"), 2):
        if kind == "subset":
            cands = [a for a in members if len(a) >= 2]
            rng.shuffle(cands)
            for a in cands:
                kids = _direct_children_in(members, a)
                free = a - frozenset().union(frozenset(), *kids)
                for _ in range(6):
                    chosen = [k for k in kids if rng.random() < 0.5]
                    fsub = frozenset(e for e in free if rng.random() < 0.5)
                    b = frozenset().union(frozenset(), *chosen) | fsub
                    if not b or b == a or b in members:
                        continue
                    # inner copy at least as loose as a: never binds
                    members[b] = members[a] + rng.randint(0, 2)
                    return True
        else:
            scopes = list(members)
            if frozenset(ground) not in members:
                scopes.append(frozenset(ground))
            rng.shuffle(scopes)
            for p in scopes:
                kids = _direct_children_in(members, p)
                free = p - frozenset().union(frozenset(), *kids)
                for _ in range(6):
                    chosen = [k for k in kids if rng.random() < 0.5]
                    fsub = frozenset(e for e in free if rng.random() < 0.5)
                    b = frozenset().union(frozenset(), *chosen) | fsub
                    if not b or b == p or b in members:
                        continue
                    # capacity covers the direct children plus free part
                    bval = len(fsub) + sum(members[k] for k in chosen)
                    members[b] = bval + rng.randint(0, 2)
                    return True
    return False


def inflate(rng, pres):
    """1-3 redundant family sets; the matroid is unchanged."""
    members = {a: pres.capacity(a) for a in pres.members}
    added = 0
    for _ in range(rng.randint(1, 3)):
        if _inflate_once(rng, members, pres.ground.elements):
            added += 1
    return LaminarPresentation(pres.ground.elements, members), added


def random_script(rng, n_max=8, dsum=True):
    steps = []
    serial = [0, 0]

    def fresh_matroid():
        serial[0] += 1
        return f"m{serial[0]}"

    def fresh_element():
        serial[1] += 1
        return f"e{serial[1]}"

    def emit(step):
        steps.append(step)
        return step[1]

    def leaf(budget):
        name = emit(("empty", fresh_matroid()))
        k = rng.randint(1, budget)
        rank = 0
        for _ in range(k):
            name = emit(("coloop", fresh_matroid(), name, fresh_element()))
            rank += 1
            if rank >= 1 and rng.random() < 0.25:
                name = emit(("truncate", fresh_matroid(), name))
                rank -= 1
        return name, k, rank

    def gen(budget):
        if dsum and budget >= 2 and rng.random() < 0.4:
            split = rng.randint(1, budget - 1)
            n1, k1, r1 = gen(split)
            n2, k2, r2 = gen(budget - split)
            name = emit(("dsum", fresh_matroid(), n1, n2))
            n, rank = k1 + k2, r1 + r2
        else:
            name, n, rank = leaf(budget)
        while rank >= 1 and rng.random() < 0.3:
            name = emit(("truncate", fresh_matroid(), name))
            rank -= 1
        return name, n, rank

    result, _, _ = gen(rng.randint(1, n_max))
    return ConstructionScript(steps=tuple(steps), result=result)


def _key(m):
    return (m.elements, frozenset(m.circuits))


def named_corpus(n_cap=8):
    """Excluded minors, uniforms, fano pair, and sums/truncations."""
    out = [excluded_minor(3), excluded_minor(4)]
    for n in range(0, 7):
        for r in range(0, n + 1):
            out.append(uniform(r, n))
    out += [uniform(2, 7), uniform(4, 7), fano(), fano_dual()]

    seeds = [
        uniform(1, 2),
        uniform(2, 3),
        uniform(2, 4),
        uniform(3, 3),
        excluded_minor(3),
    ]
    for a in seeds:
        for b in seeds:
            if a.n + b.n <= n_cap:
                out.append(direct_sum(a, b))
            if a.n >= 3 and b.n >= 3:
                pa, pb = a.elements[0], b.elements[0]
                usable = not (
                    pa in a.loops() | a.coloops() or pb in b.loops() | b.coloops()
                )
                if usable and a.n + b.n - 2 <= n_cap:
                    out.append(two_sum(a, b, pa, pb))
                if usable and a.n + b.n - 1 <= n_cap:
                    out.append(parallel_connection(a, b, pa, pb))
    for m in list(out):
        if m.rank() >= 1 and m.n <= n_cap:
            out.append(m.truncate())

    seen, dedup = set(), []
    for m in out:
        k = _key(m)
        if k not in seen:
            seen.add(k)
            dedup.append(m)
    return dedup


def _basepoint(rng, m):
    """A random element of m that is neither a loop nor a coloop, or None."""
    bad = m.loops() | m.coloops()
    usable = [e for e in m.elements if e not in bad]
    return rng.choice(usable) if usable else None


def non_laminar_hosts(rng, count, n_min=13, n_max=HARD_CAP):
    """`count` non-laminar matroids with n_min..n_max elements.

    Each joins em(r), r = 3..6, or a random laminar script to another
    random laminar script: by a direct sum, a 2-sum, a parallel
    connection truncated 0, 1 or 2 times, or the dual of a parallel
    connection.  A draw is kept when its size fits and is_laminar says
    no.
    """

    def script(budget):
        return run_script(random_script(rng, n_max=budget)).to_explicit()

    out = []
    while len(out) < count:
        left = excluded_minor(rng.randint(3, 6)) if rng.random() < 0.5 else script(n_max - 2)
        right = script(n_max + 2 - left.n)
        join = rng.choice(("dsum", "2sum", "pc", "pc", "pc", "dual"))
        size = left.n + right.n - {"dsum": 0, "2sum": 2}.get(join, 1)
        if not n_min <= size <= n_max:
            continue
        if join == "dsum":
            m = direct_sum(left, right)
        else:
            pa, pb = _basepoint(rng, left), _basepoint(rng, right)
            if pa is None or pb is None:
                continue
            if join == "2sum":
                if min(left.n, right.n) < 3:
                    continue
                m = two_sum(left, right, pa, pb)
            else:
                m = parallel_connection(left, right, pa, pb)
            if join == "dual":
                m = m.dual()
            for _ in range(rng.randint(0, 2) if join == "pc" else 0):
                if m.rank():
                    m = m.truncate()
        if not is_laminar(m):
            out.append(m)
    return out


def full_corpus(rng, n_random=300, n_cap=8):
    out = named_corpus(n_cap)
    seen = {_key(m) for m in out}
    for _ in range(n_random):
        m = run_script(random_script(rng, n_max=n_cap)).to_explicit()
        k = _key(m)
        if k not in seen:
            seen.add(k)
            out.append(m)
    return out
