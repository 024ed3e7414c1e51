"""Text formats: parse/render round trips and error reporting."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import named_corpus, random_laminar_presentation, random_script
from laminarmatroids import (
    HARD_CAP,
    ConstructionScript,
    ForeignElement,
    LaminarPresentation,
    MatroidError,
    ParseError,
    TooLarge,
    canonical_from_matroid,
    canonicalize,
    deconstruct,
    excluded_minor,
    run_script,
    uniform,
)
from laminarmatroids.formats import (
    _parse_ckt_bulk,
    _parse_ckt_lines,
    parse_ckt,
    parse_lam,
    parse_mbs,
    render_ckt,
    render_lam,
    render_mbs,
    render_set,
)

EM3_TEXT = """\
# rank-3 excluded minor
ground p 1 2 3 4
circuit {p,1,2}
circuit {p,3,4}
circuit {1,2,3,4}
rank 3
"""


class TestCkt:
    def test_parse_known(self):
        m = parse_ckt(EM3_TEXT)
        assert m == excluded_minor(3)

    def test_round_trip(self):
        rng = random.Random(41)
        for _ in range(30):
            m = run_script(random_script(rng)).to_explicit()
            assert parse_ckt(render_ckt(m)) == m

    def test_render_deterministic(self):
        m = excluded_minor(3)
        assert render_ckt(m) == render_ckt(m)

    def test_render_refuses_a_name_the_parser_reads_otherwise(self):
        # `#` starts a comment, so "b#c" would parse back as "b"
        with pytest.raises(ParseError, match="identifier 'b#c'"):
            render_ckt(uniform(1, 3, ("a", "b#c", "d e")))

    def test_spaces_inside_sets(self):
        m = parse_ckt("ground a b c\ncircuit {a, b, c}\n")
        assert m.circuits == (frozenset("abc"),)

    def test_rank_mismatch(self):
        with pytest.raises(ParseError) as e:
            parse_ckt("ground a b c\ncircuit {a,b,c}\nrank 3\n")
        assert e.value.line == 3

    def test_unknown_directive(self):
        # a line holding only a brace has no tokens at all
        for line in ("basis {a}", "{", "}"):
            with pytest.raises(ParseError) as e:
                parse_ckt(f"ground a b\n{line}\n")
            assert e.value.line == 2

    def test_rank_beyond_int_conversion(self):
        with pytest.raises(ParseError) as e:
            parse_ckt("ground a b\nrank " + "9" * 5000 + "\n")
        assert e.value.line == 2

    def test_rank_takes_ascii_digits_only(self):
        with pytest.raises(ParseError) as e:
            parse_ckt("ground a b c\ncircuit {a,b,c}\nrank \u00b2\n")
        assert e.value.line == 3

    def test_second_rank_line(self):
        # the first rank line is false, the second true; both orders fail
        for ranks in ("rank 1\nrank 2", "rank 2\nrank 1", "rank 2\nrank 2"):
            with pytest.raises(ParseError, match="second rank line") as e:
                parse_ckt(f"ground a b c\ncircuit {{a,b,c}}\n{ranks}\n")
            assert e.value.line == 4

    def test_missing_ground(self):
        with pytest.raises(ParseError):
            parse_ckt("circuit {a,b}\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_ckt("# only a comment\n")

    def test_bad_identifier(self):
        with pytest.raises(ParseError):
            parse_ckt("ground a b$c\n")

    def test_size_cap_respected(self):
        text = "ground " + " ".join(f"x{i}" for i in range(13)) + "\n"
        with pytest.raises(TooLarge):
            parse_ckt(text, max_n=12)


class TestCktErrorOrder:
    """A line's ParseError comes before anything the matroid refuses, and
    the bulk path hands every refusal to the line parser."""

    def test_parse_error_before_too_large(self):
        ground = " ".join(f"x{i}" for i in range(14))
        text = f"ground {ground}\ncircuit {{x0,x1}}\nrank 1\n\ncircuit {{x2\n"
        with pytest.raises(ParseError, match="expected a set") as e:
            parse_ckt(text, max_n=12)
        assert e.value.line == 5

    def test_later_parse_error_before_foreign_element(self):
        text = "ground a b c\ncircuit {a,z}\ncircuit {b,c}\nbasis {a}\n"
        with pytest.raises(ParseError, match="unknown directive 'basis'") as e:
            parse_ckt(text)
        assert e.value.line == 4
        # alone, the foreign name is the matroid's error
        with pytest.raises(ForeignElement, match="'z'"):
            parse_ckt("ground a b c\ncircuit {a,z}\n")

    def test_empty_name(self):
        with pytest.raises(ParseError, match="bad identifier ''") as e:
            parse_ckt("ground a b c\ncircuit {a,,b}\n")
        assert e.value.line == 2

    def test_empty_circuit(self):
        for body in ("{ }", "{}"):
            with pytest.raises(MatroidError, match="empty set cannot be a circuit"):
                parse_ckt(f"ground a b c\ncircuit {body}\n")

    def test_rank_with_leading_zeros(self):
        m = parse_ckt("ground a b c\ncircuit {a,b,c}\nrank 00002\n")
        assert m == uniform(2, 3, ("a", "b", "c"))
        with pytest.raises(ParseError, match="rank line says 3") as e:
            parse_ckt("ground a b c\ncircuit {a,b,c}\nrank 00003\n")
        assert e.value.line == 3

    def test_duplicate_ground_name(self):
        with pytest.raises(MatroidError, match="duplicate element 'a'"):
            parse_ckt("ground a b a\ncircuit {a,b}\n")
        # a bad line still comes first
        with pytest.raises(ParseError) as e:
            parse_ckt("ground a b a\ncircuit {a,b}\nrank x\n")
        assert e.value.line == 3


def _outcome(parse, text, max_n):
    """The parsed matroid, or the class and text of the error raised."""
    try:
        return parse(text, max_n)
    except MatroidError as e:
        return type(e), str(e)


def _spaced(rng, names):
    pad = ("", " ", "  ", "\t")
    return ",".join(rng.choice(pad) + e + rng.choice(pad) for e in names)


def _ckt_text(rng, m):
    """m as .ckt text, written as a person might: names shuffled and padded,
    `circuit{` with or without a space, lines shuffled, comments and blank
    lines between them, and a rank line or none."""
    lines = []
    for c in m.circuits:
        names = sorted(c)
        rng.shuffle(names)
        lines.append("circuit" + rng.choice(("", " ", "  ")) + "{" + _spaced(rng, names) + "}")
    if rng.random() < 0.5:
        lines.append(f"rank {m.rank()}")
    lines += ["", "# note", "  "][: rng.randrange(4)]
    rng.shuffle(lines)
    return "\n".join(["ground " + " ".join(m.elements), *lines]) + "\n"


def _mutated(rng, text, elements):
    """text with one random slip: a character dropped or doubled, a name
    swapped for a foreign or empty one, a second rank line, or a ground
    name repeated."""
    kind = rng.randrange(5)
    if kind < 2 and text:
        i = rng.randrange(len(text))
        return text[:i] + text[i : i + 1] * kind + text[i + 1 :]
    if kind == 2 and elements and "{" in text:
        name = rng.choice(elements)
        at = text.find(name, text.index("{"))
        if at >= 0:
            return text[:at] + rng.choice(("zz", "", "a b")) + text[at + len(name) :]
    if kind == 3:
        return text + f"rank {rng.randrange(4)}\n"
    if elements:
        first, rest = text.split("\n", 1)
        return f"{first} {rng.choice(elements)}\n{rest}"
    return text + "}\n"


CKT_HOSTS = named_corpus(n_cap=8)


def test_bulk_path_matches_the_line_parser_on_valid_text():
    rng = random.Random(46)
    for m in CKT_HOSTS:
        for _ in range(3):
            text = _ckt_text(rng, m)
            # valid text never falls through to the line parser
            assert _parse_ckt_bulk(text, HARD_CAP) == m
            assert parse_ckt(text) == m == _parse_ckt_lines(text)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_bulk_path_matches_the_line_parser_on_mutated_text(seed):
    """Same matroid, or same error class and text (line number included),
    as the line parser, also at a cap just under or at the ground's size."""
    rng = random.Random(seed)
    m = rng.choice(CKT_HOSTS)
    text = _ckt_text(rng, m)
    for _ in range(rng.randint(1, 3)):
        text = _mutated(rng, text, m.elements)
    for max_n in (m.n - 1, m.n, HARD_CAP):
        assert _outcome(parse_ckt, text, max_n) == _outcome(_parse_ckt_lines, text, max_n)


class TestLam:
    def test_round_trip(self):
        rng = random.Random(42)
        for _ in range(30):
            p = random_laminar_presentation(rng)
            q = parse_lam(render_lam(p))
            assert q.ground == p.ground
            assert {a: q.capacity(a) for a in q.members} == {
                a: p.capacity(a) for a in p.members
            }

    def test_parent_printed_before_child(self):
        p = parse_lam("ground a b c d\ncap {a,b} 1\ncap {a,b,c,d} 2\n")
        lines = render_lam(p).splitlines()
        assert lines[1] == "cap {a,b,c,d} 2"
        assert lines[2] == "cap {a,b} 1"

    def test_siblings_in_ground_order(self):
        p = parse_lam("ground a b c d\ncap {c,d} 1\ncap {a,b} 1\n")
        lines = render_lam(p).splitlines()
        assert lines[1:] == ["cap {a,b} 1", "cap {c,d} 1"]

    def test_render_refuses_a_name_the_parser_reads_otherwise(self):
        # "a b" would parse back as the two elements a and b
        with pytest.raises(ParseError, match="identifier 'a b'"):
            render_lam(LaminarPresentation(["a b", "c"], {}))

    def test_bad_capacity(self):
        # superscript one and Arabic-Indic three are digits to str.isdigit
        # 5000 digits exceed what int() converts from a string
        for cap in ("-1", "\u00b9", "\u0663", "9" * 5000):
            with pytest.raises(ParseError):
                parse_lam(f"ground a b\ncap {{a}} {cap}\n")

    def test_unknown_directive(self):
        for line in ("member {a} 1", "{", "}"):
            with pytest.raises(ParseError) as e:
                parse_lam(f"ground a b\n{line}\n")
            assert e.value.line == 2


class TestMbs:
    def test_round_trip(self):
        rng = random.Random(43)
        for _ in range(30):
            s = random_script(rng)
            assert parse_mbs(render_mbs(s)) == s

    def test_parse_known(self):
        text = "m1 = empty\nm2 = coloop m1 a\nm3 = truncate m2\nresult m3\n"
        s = parse_mbs(text)
        assert s.steps == (
            ("empty", "m1"),
            ("coloop", "m2", "m1", "a"),
            ("truncate", "m3", "m2"),
        )
        assert s.result == "m3"

    def test_missing_result(self):
        with pytest.raises(ParseError):
            parse_mbs("m1 = empty\n")

    def test_steps_after_result(self):
        with pytest.raises(ParseError):
            parse_mbs("m1 = empty\nresult m1\nm2 = empty\n")

    def test_double_result(self):
        with pytest.raises(ParseError):
            parse_mbs("m1 = empty\nresult m1\nresult m1\n")

    def test_bad_step(self):
        with pytest.raises(ParseError):
            parse_mbs("m1 = dsum a\nresult m1\n")

    def test_deconstruct_output_parses(self):
        s = deconstruct(canonical_from_matroid(uniform(2, 4)))
        assert parse_mbs(render_mbs(s)) == s

    def test_render_refuses_a_name_the_parser_reads_otherwise(self):
        bad_name = (("empty", "m 1"),)
        bad_operand = (("empty", "m1"), ("coloop", "m2", "m1", "a#b"))
        for steps, result, name in (
            (bad_name, "m 1", "m 1"),
            (bad_operand, "m2", "a#b"),
            ((("empty", "m1"),), "", ""),
        ):
            with pytest.raises(ParseError, match=f"identifier '{name}'"):
                render_mbs(ConstructionScript(steps=steps, result=result))

    def test_render_rejects_malformed_steps(self):
        for step in (("coloop", "x", "a"), ("truncate", "t", "a", "b"), ("empty",)):
            with pytest.raises(ParseError, match="bad step"):
                render_mbs(ConstructionScript(steps=(("empty", "a"), step), result="x"))
        with pytest.raises(ParseError, match="unknown op 'grow' in script"):
            render_mbs(ConstructionScript(steps=(("grow", "x", "a"),), result="x"))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_render_parse_render_keeps_the_bytes(seed):
    """.lam from random presentations, .ckt from their circuits and a
    random minor, .mbs from their deconstruction scripts."""
    rng = random.Random(seed)
    p = random_laminar_presentation(rng)
    text = render_lam(p)
    assert render_lam(parse_lam(text)) == text
    m = p.to_explicit()
    split = [rng.randrange(3) for _ in m.elements]
    minor = m.minor(
        delete=[e for e, k in zip(m.elements, split) if k == 1],
        contract=[e for e, k in zip(m.elements, split) if k == 2],
    )
    for x in (m, minor):
        text = render_ckt(x)
        assert render_ckt(parse_ckt(text)) == text
        # the circuits render as their name sets do
        lines = ["circuit " + render_set(x.ground, c) for c in x.circuits]
        assert text.splitlines()[1:-1] == lines
    text = render_mbs(deconstruct(canonicalize(p)))
    assert render_mbs(parse_mbs(text)) == text


@pytest.mark.parametrize("parse", [parse_ckt, parse_lam, parse_mbs])
@pytest.mark.parametrize("text", ["", "# only a comment\n", "\n  # a\n\t# b\n"])
def test_comment_only_input_is_empty(parse, text):
    with pytest.raises(ParseError, match="empty input"):
        parse(text)


# Words of all three formats, so generated lines get past the first
# directive check, plus characters the tokenizer treats specially.
_WORDS = st.sampled_from(
    (
        "ground", "circuit", "rank", "cap", "result", "=", "empty", "coloop",
        "truncate", "dsum", "a", "b", "c", "m1", "m2", "0", "1", "2", "-1",
        "{", "}", ",", "{a,b}", "{a}", "{}", "{a, c}", "#", "\u00b2", "\u0663",
    )
)
_LINES = st.lists(_WORDS, max_size=6).map(" ".join)
_TEXTS = st.one_of(
    st.text(),
    st.lists(_LINES, max_size=6).map("\n".join),
    st.lists(_LINES, max_size=6).map(lambda lines: "\n".join(["ground a b c", *lines])),
)


@settings(max_examples=400, deadline=None)
@given(text=_TEXTS)
def test_parsers_raise_only_matroid_errors(text):
    for parse in (parse_ckt, parse_lam, parse_mbs):
        try:
            parse(text)
        except MatroidError:
            pass
