"""Text formats: .ckt (explicit matroids), .lam (presentations), .mbs
(construction scripts).

Lines may carry `#` comments; identifiers match [A-Za-z0-9_']+; element
sets print as {a,b,c} in ground order.  Rendering is deterministic:
circuit families print lexicographically, presentation members print
parent before child with siblings in lexicographic order.
"""

from __future__ import annotations

import re

from .constructions import ConstructionScript
from .errors import ParseError
from .matroid import HARD_CAP, build_matroid
from .presentation import LaminarPresentation

IDENT = re.compile(r"[A-Za-z0-9_']+\Z")
_SET = re.compile(r"\{([^{}]*)\}\Z")
_TOKEN = re.compile(r"\{[^{}]*\}|[^\s{}]+")
_NATURAL = re.compile(r"[0-9]+\Z")


def _significant_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _tokens(line):
    # keeps {a, b} together even when written with internal spaces
    return _TOKEN.findall(line)


def _parse_ident(tok, lineno):
    if not IDENT.match(tok):
        raise ParseError(f"bad identifier {tok!r}", lineno)
    return tok


def _parse_set(tok, lineno):
    m = _SET.match(tok)
    if not m:
        raise ParseError(f"expected a set like {{a,b}}, got {tok!r}", lineno)
    body = m.group(1).strip()
    if not body:
        return ()
    return tuple(_parse_ident(p.strip(), lineno) for p in body.split(","))


def _parse_ground(lineno, line):
    parts = line.split()
    if parts[0] != "ground":
        raise ParseError(f"expected a ground line, got {parts[0]!r}", lineno)
    return tuple(_parse_ident(p, lineno) for p in parts[1:])


def render_set(ground, items):
    mask = ground.mask_of(items)
    return "{" + ",".join(ground.tuple_of(mask)) + "}"


def parse_ckt(text, max_n=HARD_CAP):
    """Parse an explicit matroid; an optional rank line is checked."""
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError("empty input")
    ground = _parse_ground(*lines[0])
    circuits = []
    asserted_rank = None
    for lineno, line in lines[1:]:
        parts = _tokens(line)
        if parts[0] == "circuit":
            if len(parts) != 2:
                raise ParseError("circuit takes one set", lineno)
            circuits.append(_parse_set(parts[1], lineno))
        elif parts[0] == "rank":
            if len(parts) != 2 or not _NATURAL.match(parts[1]):
                raise ParseError("rank takes one integer", lineno)
            asserted_rank = (int(parts[1]), lineno)
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    m = build_matroid(ground, circuits, max_n=max_n)
    if asserted_rank is not None and asserted_rank[0] != m.rank():
        raise ParseError(
            f"rank line says {asserted_rank[0]}, matroid has rank {m.rank()}",
            asserted_rank[1],
        )
    return m


def render_ckt(m):
    out = ["ground " + " ".join(m.elements)]
    for c in m.circuits:
        out.append("circuit " + render_set(m.ground, c))
    out.append(f"rank {m.rank()}")
    return "\n".join(out) + "\n"


def parse_lam(text):
    """Parse a capacity family over a ground line."""
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError("empty input")
    ground = _parse_ground(*lines[0])
    caps = []
    for lineno, line in lines[1:]:
        parts = _tokens(line)
        if parts[0] != "cap":
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
        if len(parts) != 3:
            raise ParseError("cap takes a set and an integer", lineno)
        members = _parse_set(parts[1], lineno)
        if not _NATURAL.match(parts[2]):
            raise ParseError(f"bad capacity {parts[2]!r}", lineno)
        caps.append((members, int(parts[2])))
    return LaminarPresentation(ground, caps)


def _family_order(p):
    """Member slots, parents before children, siblings lexicographic.

    Slots are already in lexicographic order, so this is a preorder walk
    of the family forest.
    """
    kids = p._children_slots()
    order = []

    def expand(slots):
        for i in slots:
            order.append(i)
            expand(kids[i])

    expand([i for i, parent in enumerate(p._parent_slots()) if parent < 0])
    return order


def render_lam(p):
    out = ["ground " + " ".join(p.ground.elements)]
    for i in _family_order(p):
        member = p.ground.set_of(p._masks[i])
        out.append(f"cap {render_set(p.ground, member)} {p._caps[i]}")
    return "\n".join(out) + "\n"


def parse_mbs(text):
    """Parse a construction script; the result line must come last."""
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError("empty input")
    steps = []
    result = None
    for lineno, line in lines:
        parts = line.split()
        if parts[0] == "result":
            if len(parts) != 2:
                raise ParseError("result takes one name", lineno)
            if result is not None:
                raise ParseError("second result line", lineno)
            result = _parse_ident(parts[1], lineno)
            continue
        if result is not None:
            raise ParseError("assignments after the result line", lineno)
        if len(parts) < 3 or parts[1] != "=":
            raise ParseError("expected `name = op ...`", lineno)
        name = _parse_ident(parts[0], lineno)
        op = parts[2]
        args = parts[3:]
        if op == "empty" and not args:
            steps.append(("empty", name))
        elif op == "coloop" and len(args) == 2:
            steps.append(
                ("coloop", name, _parse_ident(args[0], lineno), _parse_ident(args[1], lineno))
            )
        elif op == "truncate" and len(args) == 1:
            steps.append(("truncate", name, _parse_ident(args[0], lineno)))
        elif op == "dsum" and len(args) == 2:
            steps.append(
                ("dsum", name, _parse_ident(args[0], lineno), _parse_ident(args[1], lineno))
            )
        else:
            raise ParseError(f"bad step {line!r}", lineno)
    if result is None:
        raise ParseError("missing result line")
    return ConstructionScript(steps=tuple(steps), result=result)


def render_mbs(script):
    out = []
    for step in script.steps:
        op, name = step[0], step[1]
        if op == "empty":
            out.append(f"{name} = empty")
        elif op == "coloop":
            out.append(f"{name} = coloop {step[2]} {step[3]}")
        elif op == "truncate":
            out.append(f"{name} = truncate {step[2]}")
        elif op == "dsum":
            out.append(f"{name} = dsum {step[2]} {step[3]}")
        else:
            raise ParseError(f"unknown op {op!r} in script")
    out.append(f"result {script.result}")
    return "\n".join(out) + "\n"
