"""Correctness gate: checks one op's exit code and stdout after the run.

Expected verdicts come from construction (script-built hosts are
laminar, hosts holding excluded_minor(r) are not).  Certificates are
re-checked with the reference model in model.py, or replayed through
apply_witness, never with the search that produced them.  check()
returns None when the op is correct, else a one-line reason.
"""

from __future__ import annotations

import re
from fractions import Fraction

import model

_WITNESS = re.compile(r"delete \{([^}]*)\} contract \{([^}]*)\} map (\S*)\Z")


def _set(token):
    body = token.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"not a set: {token!r}")
    return frozenset(p for p in body[1:-1].split(",") if p)


def read_ckt(text):
    lines = text.splitlines()
    ground = tuple(lines[0].split()[1:])
    circuits, rank = [], None
    for line in lines[1:]:
        word, _, rest = line.partition(" ")
        if word == "circuit":
            circuits.append(_set(rest))
        elif word == "rank":
            rank = int(rest)
    return ground, circuits, rank


def read_lam(text):
    lines = text.splitlines()
    ground = tuple(lines[0].split()[1:])
    caps = []
    for line in lines[1:]:
        _, member, cap = line.split()
        caps.append((_set(member), int(cap)))
    return ground, caps


def read_mbs(text):
    steps, result = [], None
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "result":
            result = parts[1]
        else:
            steps.append((parts[2], parts[0]) + tuple(parts[3:]))
    return steps, result


def _witness(pkg, text):
    match = _WITNESS.search(text)
    if match is None:
        raise ValueError(f"no witness in {text!r}")
    delete, contract, mapping = match.groups()
    pairs = tuple(tuple(p.split("->")) for p in mapping.split(",") if p)
    return pkg.MinorWitness(
        delete=frozenset(e for e in delete.split(",") if e),
        contract=frozenset(e for e in contract.split(",") if e),
        mapping=pairs,
    )


def _target(pkg, label):
    kind, _, args = label.partition("(")
    params = [int(x) for x in args.rstrip(")").split(",")]
    return pkg.uniform(*params) if kind == "uniform" else pkg.excluded_minor(*params)


def _crossing_pair(op, first, second):
    """Two intersecting non-spanning circuits whose closures cross."""
    ground, circs, _ = read_ckt(op.text)
    a = _set(first.split()[-1])
    b = _set(second.split()[-1])
    if a not in circs or b not in circs:
        return "violating pair is not a pair of circuits"
    rank = op.expect["rank"]
    if not a & b or len(a) > rank or len(b) > rank:
        return "violating pair is disjoint or spanning"
    ca, cb = model.closure(circs, ground, a), model.closure(circs, ground, b)
    if ca <= cb or cb <= ca:
        return "violating pair has nested closures"
    return None


def _canonical_yes(op, lines, at):
    """The presentation after "laminar: yes" is the input's canonical one."""
    ground, circs, _ = read_ckt(op.text)
    caps = model.collapse(
        read_lam("ground\n" + "\n".join(line for line in lines[at + 1:] if line.startswith("  cap ")))[1]
    )
    same = all(not model.independent(caps, c) for c in circs) and all(
        model.circuit_rank(circs, a) <= c for a, c in caps.items()
    )
    if not same:
        return "presentation does not reproduce the circuits"
    if caps != model.canonical(caps, ground, circs):
        return "presentation is not the canonical one"
    return None


def _check_host(pkg, op, rc, lines):
    e = op.expect
    verdict = "laminar: yes" if e["laminar"] else "laminar: no"
    if op.command == "witness":
        if e["laminar"]:
            return None if (rc, lines) == (1, ["witness: none"]) else "witness on a laminar host"
        head = re.match(r"witness: excluded-minor\((\d+)\) ", lines[0]) if lines else None
        if rc != 0 or head is None:
            return "no witness on a host holding an excluded minor"
        r = int(head.group(1))
        if r > e["em"]:
            return f"witness rank {r} above the planted {e['em']}"
        host = pkg.formats.parse_ckt(op.text, max_n=16)
        if not pkg.apply_witness(host, _witness(pkg, lines[0]), pkg.excluded_minor(r)):
            return "witness does not replay"
        return None
    if rc != (1 if op.command == "is-laminar" and not e["laminar"] else 0):
        return f"exit code {rc}"
    if verdict not in lines:
        return f"expected {verdict!r}"
    at = lines.index(verdict)
    if e["laminar"]:
        bad = _canonical_yes(op, lines, at)
    else:
        bad = _crossing_pair(op, lines[at + 1], lines[at + 2])
    if bad:
        return bad
    if op.command == "classify":
        host = None
        for line in lines:
            if line.startswith("  minor "):
                host = host or pkg.formats.parse_ckt(op.text, max_n=16)
                label = line.split()[1]
                if not pkg.apply_witness(host, _witness(pkg, line), _target(pkg, label)):
                    return f"{label} witness does not replay"
    return None


def _check_presentation(pkg, op, rc, out):
    e = op.expect
    ground, caps = e["ground"], e["caps"]
    if rc != 0:
        return f"exit code {rc}"
    if op.command in ("canon", "construct"):
        g, got = read_lam(out)
        got = model.collapse(got)
        if g != ground or not model.same_matroid(got, caps):
            return "presentation differs from the input matroid"
        if op.command == "canon":
            if got != model.canonical(caps, ground, model.circuits(caps)):
                return "canon output is not the canonical presentation"
            again = pkg.canonicalize(pkg.formats.parse_lam(out), max_n=16)
            if pkg.formats.render_lam(again) != out:
                return "canon output is not a fixed point of canon"
        return None
    if op.command == "explicit":
        g, circs, rank = read_ckt(out)
        if g != ground or rank != model.rank(caps, ground):
            return "wrong ground or rank"
        if len(set(circs)) != len(circs) or len(circs) != model.circuit_count(caps):
            return "wrong circuit count"
        for c in circs:
            if model.independent(caps, c) or not all(
                model.independent(caps, c - {x}) for x in c
            ):
                return "printed set is not a circuit"
        return None
    if op.command == "deconstruct":
        g, got = model.run_script(read_mbs(out)[0])
        if set(g) != set(ground) or not model.same_matroid(got, caps):
            return "script does not rebuild the matroid"
        return None
    if op.command == "maxweight":
        chosen, _, total = out.rpartition(" weight ")
        chosen, w = _set(chosen), e["weights"]
        best, picked = 0, set()
        for x in sorted(ground, key=lambda x: -w[x]):
            if w[x] > 0 and model.independent(caps, picked | {x}):
                picked.add(x)
                best += w[x]
        if not model.independent(caps, chosen) or sum(w[x] for x in chosen) != best:
            return "not a maximum-weight independent set"
        return None if Fraction(total) == best else "wrong total weight"
    if op.file.endswith(".mbs"):
        want = f"ok construction-script steps={e['steps']} result={e['result']} n={len(ground)}\n"
    else:
        members = len(model.collapse(read_lam(op.text)[1]))
        rank = model.rank(caps, ground)
        want = f"ok laminar-presentation n={len(ground)} members={members} rank={rank}\n"
    return None if out == want else f"validate printed {out!r}"


def _check_dense(op, rc, out):
    e = op.expect
    if rc != 0:
        return f"exit code {rc}"
    ground, circs, rank = e["ground"], e["circuits"], e["rank"]
    if op.command == "validate":
        want = f"ok explicit-matroid n={len(ground)} rank={rank} circuits={len(circs)}\n"
        return None if out == want else f"validate printed {out!r}"
    d, t = e["delete"], e["contract"]
    g, got, r = read_ckt(out)
    if g != tuple(x for x in ground if x not in d and x not in t):
        return "minor has the wrong ground"
    if len(got) != len(set(got)) or set(got) != model.minor_circuits(circs, d, t):
        return "minor has the wrong circuits"
    keep = [x for x in ground if x not in d]
    if r != model.circuit_rank(circs, keep) - model.circuit_rank(circs, t):
        return "minor has the wrong rank"
    return None


def check(pkg, workload, op, rc, out):
    """None when the op's exit code and output are right, else why not."""
    try:
        if workload == "recognize":
            return _check_host(pkg, op, rc, out.splitlines())
        if workload == "present16":
            return _check_presentation(pkg, op, rc, out)
        return _check_dense(op, rc, out)
    except Exception as exc:  # a check that cannot read the output fails the op
        return f"check raised {exc!r}"
