"""Seeded inputs for the benchmark's workloads.

Each workload is a table of templates.  A template builds one input file
from the seed and names the CLI commands run on it; every command on
every input is one op.  The seed decides element names, ground order,
random laminar structure, redundant members, weights and minor
arguments, so no (command, input) pair repeats within a run.  Template
counts are fixed, so every seed does the same kinds of work; `scale`
multiplies the counts.

Every op carries `expect`, the answer known by construction, which the
correctness gate compares against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import model

WORKLOADS = ("recognize", "present16", "ingest")


@dataclass
class Op:
    kind: str  # template label, shared by every op the template makes
    command: str
    options: tuple
    file: str
    text: str
    expect: dict = field(default_factory=dict)

    def argv(self, path):
        return [self.command, path, *self.options]


# -- names, relabelling, rendering ------------------------------------------


def names(rng, n):
    numbers = rng.sample(range(10, 1000), n)
    return [rng.choice("abcdfghkmpqrstuvwxyz") + str(k) for k in numbers]


def relabel(rng, ground, circuits):
    """Fresh names in a shuffled ground order."""
    new = dict(zip(ground, names(rng, len(ground))))
    order = list(new.values())
    rng.shuffle(order)
    return order, [frozenset(new[e] for e in c) for c in circuits]


def render_ckt(ground, circuits, rank=None):
    pos = {e: i for i, e in enumerate(ground)}
    lines = ["ground " + " ".join(ground)]
    for c in circuits:
        lines.append("circuit {" + ",".join(sorted(c, key=pos.get)) + "}")
    if rank is not None:
        lines.append(f"rank {rank}")
    return "\n".join(lines) + "\n"


def render_lam(ground, caps, rng):
    lines = ["ground " + " ".join(ground)]
    items = list(caps.items())
    rng.shuffle(items)
    for member, cap in items:
        lines.append("cap {" + ",".join(sorted(member)) + "} " + str(cap))
    return "\n".join(lines) + "\n"


def render_mbs(steps, result):
    lines = []
    for step in steps:
        lines.append(f"{step[1]} = " + " ".join((step[0],) + step[2:]))
    lines.append(f"result {result}")
    return "\n".join(lines) + "\n"


# -- random laminar structure -----------------------------------------------


def random_script(rng, labels):
    """A construction script on exactly the given elements (in order).

    Leaves add coloops with occasional truncations; inner nodes are
    direct sums; truncations also follow each node (tests/_corpus style).
    """
    steps = []
    counter = iter(range(1, 1 << 20))
    todo = iter(labels)

    def emit(*step):
        name = f"m{next(counter)}"
        steps.append((step[0], name) + step[1:])
        return name

    def gen(budget):
        if budget >= 2 and rng.random() < 0.4:
            split = rng.randint(1, budget - 1)
            n1, r1 = gen(split)
            n2, r2 = gen(budget - split)
            name, rank = emit("dsum", n1, n2), r1 + r2
        else:
            name, rank = emit("empty"), 0
            for _ in range(budget):
                name, rank = emit("coloop", name, next(todo)), rank + 1
                if rng.random() < 0.25:
                    name, rank = emit("truncate", name), rank - 1
        while rank >= 1 and rng.random() < 0.3:
            name, rank = emit("truncate", name), rank - 1
        return name, rank

    result, _ = gen(len(labels))
    return steps, result


def laminar_in_band(rng, n, lo, hi, corank=None):
    """Random script on n fresh names whose matroid has lo..hi circuits
    (and the given corank, when set)."""
    while True:
        labels = names(rng, n)
        steps, result = random_script(rng, labels)
        ground, caps = model.run_script(steps)
        if not lo <= model.circuit_count(caps) <= hi:
            continue
        if corank is None or n - model.rank(caps, ground) == corank:
            return steps, result, ground, caps


def inflate(rng, caps, ground):
    """Add 1-3 redundant members (tests/_corpus.inflate style).

    A subset of a member with at least its capacity never binds, nor
    does a union of direct children plus free elements whose capacity
    reaches the children's capacities plus the free count.
    """
    caps = dict(caps)
    whole = frozenset(ground)
    for _ in range(rng.randint(1, 3)):
        scopes = list(caps) + ([whole] if whole not in caps else [])
        rng.shuffle(scopes)
        for scope in scopes:
            inside = [b for b in caps if b < scope]
            kids = [b for b in inside if not any(b < c for c in inside)]
            free = scope - frozenset().union(*kids)
            chosen = [k for k in kids if rng.random() < 0.5]
            part = frozenset(e for e in sorted(free) if rng.random() < 0.5)
            b = frozenset().union(*chosen) | part
            if not b or b == scope or b in caps:
                continue
            if scope in caps and rng.random() < 0.5:
                caps[b] = caps[scope] + rng.randint(0, 2)
            else:
                bound = len(part) + sum(caps[k] for k in chosen)
                caps[b] = bound + rng.randint(0, 2)
            break
    return caps


# -- recognize ----------------------------------------------------------------


def _host_ops(rng, kind, ground, circuits, rank, commands, laminar, em=None, max_n=None):
    ground, circuits = relabel(rng, ground, circuits)
    options = ("--max-n", str(max_n)) if max_n else ()
    text = render_ckt(ground, circuits)
    expect = {"laminar": laminar, "em": em, "rank": rank}
    return [Op(kind, cmd, options, "host.ckt", text, expect) for cmd in commands]


ALL3 = ("classify", "is-laminar", "witness")


def script_host(n, lo, hi, commands, max_n=None, corank=None):
    """Template: a random laminar host built by a script."""

    def build(rng):
        _, _, ground, caps = laminar_in_band(rng, n, lo, hi, corank)
        r = model.rank(caps, ground)
        kind = f"script-host n{n} c{lo}-{hi}"
        return _host_ops(rng, kind, ground, model.circuits(caps), r, commands, True, max_n=max_n)

    return build


def fixed(kind, make, commands, laminar, em=None):
    """Template: a relabelled copy of a package construction."""

    def build(rng):
        m = make()
        return _host_ops(rng, kind, m.elements, m.circuits, m.rank(), commands, laminar, em)

    return build


def recognize_templates(pkg):
    U, EM = pkg.uniform, pkg.excluded_minor
    dsum, pconn = pkg.direct_sum, pkg.parallel_connection
    return [
        (10, script_host(9, 8, 20, ALL3)),
        (4, script_host(11, 15, 30, ALL3)),
        # Corank 3 keeps the n >= 14 minor searches and duals comparable
        # from seed to seed (their cost swings tenfold with the rank).
        (1, script_host(14, 10, 20, ("classify", "is-laminar"), max_n=16, corank=3)),
        (1, script_host(16, 10, 20, ("classify", "is-laminar"), max_n=16, corank=3)),
        (2, fixed("uniform(3,8)", lambda: U(3, 8), ALL3, True)),
        (1, fixed("uniform(4,9)", lambda: U(4, 9), ALL3, True)),
        # Quick verdicts on small uniforms sit at the median op, so the
        # median is one of them on every seed.
        (3, fixed("uniform(3,9)", lambda: U(3, 9), ("is-laminar", "witness"), True)),
        (3, fixed("uniform(5,9)", lambda: U(5, 9), ("is-laminar", "witness"), True)),
        # The 90th-percentile op falls among these ~0.1 s verdicts; the
        # heavier ops above them are few and fixed.
        (5, fixed("uniform(4,10)", lambda: U(4, 10), ("is-laminar", "witness"), True)),
        (1, fixed("uniform(5,10)", lambda: U(5, 10), ("is-laminar",), True)),
        (1, fixed("uniform(5,11)", lambda: U(5, 11), ("is-laminar",), True)),
        (1, fixed("uniform(6,12)", lambda: U(6, 12), ("is-laminar",), True)),
        (1, fixed("em(3)", lambda: EM(3), ALL3, False, 3)),
        (1, fixed("em(4)", lambda: EM(4), ALL3, False, 4)),
        (1, fixed("em(5)", lambda: EM(5), ALL3, False, 5)),
        (1, fixed("em(6)", lambda: EM(6), ("classify", "is-laminar"), False, 6)),
        (1, fixed("em(3)+u(2,4)", lambda: dsum(EM(3), U(2, 4)), ALL3, False, 3)),
        (1, fixed("em(4)+u(2,3)", lambda: dsum(EM(4), U(2, 3)), ALL3, False, 4)),
        (1, fixed("em(3)|u(3,5)", lambda: pconn(EM(3), U(3, 5), "p", "e1"), ALL3, False, 3)),
        (1, fixed("em(4)|u(3,6)", lambda: pconn(EM(4), U(3, 6), "p", "e1"),
                  ("is-laminar", "witness"), False, 4)),
        (1, fixed("t(u(2,4)+u(3,5))", lambda: dsum(U(2, 4), U(3, 5)).truncate(), ALL3, True)),
        (1, fixed("t(u(3,5)+u(3,6))", lambda: dsum(U(3, 5), U(3, 6)).truncate(),
                  ("classify", "is-laminar"), True)),
    ]


# -- present16 ------------------------------------------------------------------


PRESENT = ((3, 12, 35, 45), (3, 13, 35, 45), (3, 14, 60, 70), (3, 15, 60, 70), (3, 16, 70, 80))


def present_templates(pkg, table=PRESENT):
    """(count, n, fewest, most circuits): the circuit band keeps each
    template's cost steady from seed to seed."""

    def build(n, lo, hi):
        def make(rng):
            steps, result, ground, caps = laminar_in_band(rng, n, lo, hi)
            kind = f"lam n{n} c{lo}-{hi}"
            lam = render_lam(ground, inflate(rng, caps, ground), rng)
            mbs = render_mbs(steps, result)
            opts = ("--max-n", "16")
            expect = {"ground": ground, "caps": caps}
            ops = [Op(kind, cmd, opts, "p.lam", lam, expect)
                   for cmd in ("canon", "explicit", "deconstruct", "validate")]
            weights = {e: rng.randint(-2, 9) for e in ground}
            arg = ",".join(f"{e}={w}" for e, w in weights.items())
            ops.append(Op(kind, "maxweight", opts + ("-w", arg), "p.lam", lam,
                          dict(expect, weights=weights)))
            script = dict(expect, steps=len(steps), result=result)
            ops += [Op(kind, cmd, opts, "p.mbs", mbs, script)
                    for cmd in ("construct", "validate")]
            return ops

        return make

    return [(count, build(n, lo, hi)) for count, n, lo, hi in table]


# -- ingest ---------------------------------------------------------------------


def ingest_templates(pkg):
    U, dsum, pconn = pkg.uniform, pkg.direct_sum, pkg.parallel_connection

    def dense(kind, make):
        def build(rng):
            m = make()
            ground, circs = relabel(rng, m.elements, m.circuits)
            text = render_ckt(ground, circs, m.rank())
            expect = {"ground": ground, "circuits": circs, "rank": m.rank()}
            ops = [Op(kind, "validate", (), "d.ckt", text, expect)]
            d, t = rng.sample(ground, 2)
            opts = ("--delete", d, "--contract", t)
            ops.append(Op(kind, "minor", opts, "d.ckt", text,
                          dict(expect, delete={d}, contract={t})))
            return ops

        return build

    table = [
        (count, dense(f"uniform({r},{n})", lambda r=r, n=n: U(r, n)))
        for count, r, n in (
            (6, 3, 9), (6, 4, 9), (6, 4, 10), (6, 5, 10), (4, 4, 11), (4, 5, 11),
            (4, 6, 11), (1, 5, 12), (1, 6, 12),
        )
    ]
    return table + [
        (6, dense("t(u(3,5)+u(3,6))", lambda: dsum(U(3, 5), U(3, 6)).truncate())),
        (6, dense("t(u(4,6)+u(4,6))", lambda: dsum(U(4, 6), U(4, 6)).truncate())),
        (6, dense("u(4,6)|u(4,6)", lambda: pconn(U(4, 6), U(4, 6), "e1", "e1"))),
        (6, dense("u(3,6)|u(4,7)", lambda: pconn(U(3, 6), U(4, 7), "e1", "e1"))),
    ]


# -- assembly -------------------------------------------------------------------


def smoke_templates(pkg, workload):
    """Tiny inputs for the benchmark's own tests: seconds, not minutes."""
    U, EM, dsum = pkg.uniform, pkg.excluded_minor, pkg.direct_sum
    if workload == "recognize":
        return [
            (2, script_host(6, 1, 20, ALL3)),
            (1, fixed("uniform(2,5)", lambda: U(2, 5), ALL3, True)),
            (1, fixed("em(3)+u(1,2)", lambda: dsum(EM(3), U(1, 2)), ALL3, False, 3)),
        ]
    if workload == "present16":
        return present_templates(pkg, ((1, 6, 1, 30), (1, 7, 1, 30)))
    return [(1, make) for _, make in ingest_templates(pkg)[:2]]


def build(workload, seed, scale, smoke=False):
    """The run's ops, shuffled by the seed."""
    import laminarmatroids as pkg

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if smoke:
        table = smoke_templates(pkg, workload)
    else:
        table = {
            "recognize": recognize_templates,
            "present16": present_templates,
            "ingest": ingest_templates,
        }[workload](pkg)
    ops = []
    for count, make in table:
        for _ in range(max(1, round(count * scale))):
            ops.extend(make(rng))
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        stem, _, suffix = op.file.partition(".")
        op.file = f"{i:04d}-{stem}.{suffix}"
    return ops
