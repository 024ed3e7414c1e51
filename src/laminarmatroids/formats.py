"""Text formats: .ckt (explicit matroids), .lam (presentations), .mbs
(construction scripts).

Lines may carry `#` comments; identifiers match [A-Za-z0-9_']+; element
sets print as {a,b,c} in ground order.  Rendering is deterministic:
circuit families print lexicographically, presentation members print
parent before child with siblings in lexicographic order.

.ckt text is read in one pass: one regex match per line and one
name->bit dict built from the ground line, with the circuit masks handed
straight to the matroid's validation.  Every non-space character belongs
to some token, so a stray `{` or `}` is a ParseError, not skipped.
"""

from __future__ import annotations

import re

from .constructions import _MBS_ARITY, ConstructionScript, _check_step
from .errors import ParseError
from .matroid import HARD_CAP, _capped_ground, _circuit_mask, _validated
from .presentation import LaminarPresentation

IDENT = re.compile(r"[A-Za-z0-9_']+\Z")
_SET = re.compile(r"\{([^{}]*)\}\Z")
# a set (kept together even with internal spaces; unclosed, it runs to
# the next brace or the end), a lone `}`, or a word
_TOKEN = re.compile(r"\{[^{}]*\}?|\}|[^\s{}]+")
_NATURAL = re.compile(r"[0-9]+\Z")
# a circuit line's set body, or a rank line's digits
_CKT_LINE = re.compile(r"circuit\s*\{([^{}]*)\}\Z|rank\s+([0-9]+)\Z")


def _significant_lines(text):
    """(line number, text) of each line left once comments and blanks go;
    raises ParseError when none is left."""
    lines = [(i, raw.split("#", 1)[0].strip()) for i, raw in enumerate(text.splitlines(), 1)]
    lines = [(i, line) for i, line in lines if line]
    if not lines:
        raise ParseError("empty input")
    return lines


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
    return _set_names(m.group(1), lineno)


def _set_names(body, lineno):
    """The names between a set's braces, each passed by _parse_ident."""
    body = body.strip()
    return tuple(_parse_ident(p.strip(), lineno) for p in body.split(",")) if body else ()


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
    """Parse an explicit matroid in one pass; an optional single rank line
    is checked.

    Each line is one _CKT_LINE match and each circuit name one lookup in
    the ground's {name: bit} dict, so a circuit is a mask once its line is
    read.  A name the dict lacks is checked by _parse_ident, and the first
    circuit with a foreign name or none is kept for later.  The first bad
    line raises its ParseError; then come build_matroid's refusals in its
    order (a repeated ground name, the size cap, the kept circuit), the
    circuit axioms, and last the rank line's check.
    """
    lines = _significant_lines(text)
    ground = _parse_ground(*lines[0])
    bit = {e: 1 << i for i, e in enumerate(ground)}
    masks, refused, asserted_rank = set(), None, None
    for lineno, line in lines[1:]:
        found = _CKT_LINE.match(line)
        if found is None:
            _ckt_line_error(lineno, line, asserted_rank)
        body, digits = found.groups()
        if digits is not None:
            if asserted_rank is not None:
                _ckt_line_error(lineno, line, asserted_rank)
            asserted_rank = (_parse_natural(digits, lineno, "rank takes one integer"), lineno)
            continue
        mask = 0
        for name in body.split(","):
            b = bit.get(name.strip())
            if b is None:  # a foreign or malformed name, or an empty set
                names = _set_names(body, lineno)
                if refused is None:
                    refused = names
                break
            mask |= b
        else:
            masks.add(mask)
    gs = _capped_ground(ground, max_n)
    if refused is not None:
        _circuit_mask(gs, refused)
    return _check_rank(_validated(gs, masks), asserted_rank)


def _ckt_line_error(lineno, line, asserted_rank):
    """Raise the ParseError, as the line's tokens name it, of a line that
    _CKT_LINE misses (no valid line does) or of a second rank line."""
    directive, *args = _TOKEN.findall(line)
    if directive == "circuit":
        if len(args) == 1:
            _parse_set(args[0], lineno)  # raises: a whole {...} would match
        message = "circuit takes one set"
    elif directive == "rank":
        second = len(args) == 1 and asserted_rank is not None
        message = "second rank line" if second else "rank takes one integer"
    else:
        message = f"unknown directive {directive!r}"
    raise ParseError(message, lineno)


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
        parts = _TOKEN.findall(line)
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
