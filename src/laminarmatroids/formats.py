"""Text formats: .ckt (explicit matroids), .lam (presentations), .mbs
(construction scripts).

Lines may carry `#` comments; identifiers match [A-Za-z0-9_']+; element
sets print as {a,b,c} in ground order.  Rendering is deterministic:
circuit families print lexicographically, presentation members print
parent before child with siblings in lexicographic order.

Valid .ckt text takes a bulk path: one regex per line and one name->bit
dict built from the ground line, with the masks handed straight to the
matroid's validation.  Anything that path cannot read (an unknown
directive, a name outside the ground, a second or over-long rank line, a
duplicate or oversized ground) falls through to the line parser, which
alone names parse errors, so every error keeps its class, message and
line number.
"""

from __future__ import annotations

import re

from .constructions import _MBS_ARITY, ConstructionScript, _check_step
from .errors import ParseError
from .matroid import HARD_CAP, GroundSet, _validated, build_matroid
from .presentation import LaminarPresentation

IDENT = re.compile(r"[A-Za-z0-9_']+\Z")
_SET = re.compile(r"\{([^{}]*)\}\Z")
_TOKEN = re.compile(r"\{[^{}]*\}|[^\s{}]+")
_NATURAL = re.compile(r"[0-9]+\Z")
# a circuit line's set body, or a rank line short enough for int()
_CKT_LINE = re.compile(r"circuit\s*\{([^{}]*)\}\Z|rank\s+([0-9]{1,4})\Z")


def _significant_lines(text):
    """(line number, text) of each line left once comments and blanks go;
    raises ParseError when none is left."""
    lines = [(i, raw.split("#", 1)[0].strip()) for i, raw in enumerate(text.splitlines(), 1)]
    lines = [(i, line) for i, line in lines if line]
    if not lines:
        raise ParseError("empty input")
    return lines


def _tokens(lineno, line):
    # keeps {a, b} together even when written with internal spaces
    parts = _TOKEN.findall(line)
    if not parts:
        raise ParseError(f"expected a directive, got {line!r}", lineno)
    return parts


def _parse_ident(tok, lineno):
    if not IDENT.match(tok):
        raise ParseError(f"bad identifier {tok!r}", lineno)
    return tok


def _parse_natural(tok, lineno, message):
    if _NATURAL.match(tok):
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(message, lineno)


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


def _check_names(names):
    """ParseError on the first name IDENT rejects, which a parser would
    read back otherwise; one match over the joined names, all nonempty."""
    if names and not (all(names) and IDENT.match("".join(names))):
        bad = next(x for x in names if not IDENT.match(x))
        raise ParseError(f"cannot render identifier {bad!r}")


def render_set(ground, items):
    return _render_mask(ground, ground.mask_of(items))


def _render_mask(ground, mask):
    return "{" + ",".join(ground.tuple_of(mask)) + "}"


def parse_ckt(text, max_n=HARD_CAP):
    """Parse an explicit matroid; an optional single rank line is checked.

    Valid text takes the bulk path; anything else falls through to the
    line parser, which names the error.
    """
    m = _parse_ckt_bulk(text, max_n)
    return _parse_ckt_lines(text, max_n) if m is None else m


def _parse_ckt_bulk(text, max_n):
    """The matroid, read with one _CKT_LINE match per line and one dict
    lookup per name, or None where the line parser must name an error.

    The ground line is read as the line parser reads it, so its names
    have passed _parse_ident, and a parse error there is the one the line
    parser would raise first.  Anything the matroid would refuse before
    validation (a duplicate or oversized ground, a name outside it, an
    empty circuit) returns None, since a later line's ParseError comes
    first.
    """
    lines = _significant_lines(text)
    ground = _parse_ground(*lines[0])
    bit = {e: 1 << i for i, e in enumerate(ground)}
    if len(bit) != len(ground) or len(ground) > min(max_n, HARD_CAP):
        return None
    masks = set()
    asserted_rank = None
    for lineno, line in lines[1:]:
        found = _CKT_LINE.match(line)
        if found is None:
            return None
        body, digits = found.groups()
        if digits is not None:
            if asserted_rank is not None:
                return None
            asserted_rank = (int(digits), lineno)
            continue
        mask = 0
        for name in body.split(","):
            b = bit.get(name.strip())
            if b is None:
                return None
            mask |= b
        masks.add(mask)
    return _check_rank(_validated(GroundSet(ground), masks), asserted_rank)


def _parse_ckt_lines(text, max_n=HARD_CAP):
    """The line parser: each line tokenized and checked in turn, so the
    first bad line names the error."""
    lines = _significant_lines(text)
    ground = _parse_ground(*lines[0])
    circuits = []
    asserted_rank = None
    for lineno, line in lines[1:]:
        parts = _tokens(lineno, line)
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


def _check_rank(m, asserted_rank):
    """m, once the (rank, line number) a rank line asserted, if any, holds."""
    if asserted_rank is not None and asserted_rank[0] != m.rank():
        raise ParseError(
            f"rank line says {asserted_rank[0]}, matroid has rank {m.rank()}",
            asserted_rank[1],
        )
    return m


def render_ckt(m):
    _check_names(m.elements)
    out = ["ground " + " ".join(m.elements)]
    for c in m._masks:
        out.append("circuit " + _render_mask(m.ground, c))
    out.append(f"rank {m.rank()}")
    return "\n".join(out) + "\n"


def parse_lam(text):
    """Parse a capacity family over a ground line."""
    lines = _significant_lines(text)
    ground = _parse_ground(*lines[0])
    caps = []
    for lineno, line in lines[1:]:
        parts = _tokens(lineno, line)
        if parts[0] != "cap":
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
        if len(parts) != 3:
            raise ParseError("cap takes a set and an integer", lineno)
        members = _parse_set(parts[1], lineno)
        caps.append((members, _parse_natural(parts[2], lineno, f"bad capacity {parts[2]!r}")))
    return LaminarPresentation(ground, caps)


def render_lam(p):
    _check_names(p.ground.elements)
    out = ["ground " + " ".join(p.ground.elements)]
    for i in p._order:
        out.append(f"cap {_render_mask(p.ground, p._masks[i])} {p._caps[i]}")
    return "\n".join(out) + "\n"


def parse_mbs(text):
    """Parse a construction script; the result line must come last."""
    lines = _significant_lines(text)
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
        op, args = parts[2], parts[3:]
        if _MBS_ARITY.get(op) != len(args):
            raise ParseError(f"bad step {line!r}", lineno)
        steps.append((op, name, *(_parse_ident(a, lineno) for a in args)))
    if result is None:
        raise ParseError("missing result line")
    return ConstructionScript(steps=tuple(steps), result=result)


def render_mbs(script):
    out, names = [], []
    for step in script.steps:
        _check_step(step, ParseError, " in script")
        names += step[1:]
        out.append(" ".join((step[1], "=", step[0], *step[2:])))
    _check_names(names + [script.result])
    out.append(f"result {script.result}")
    return "\n".join(out) + "\n"
