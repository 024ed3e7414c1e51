"""Text formats: parse/render round trips and error reporting."""

from __future__ import annotations

import random

import pytest

from _corpus import random_laminar_presentation, random_script
from laminarmatroids import (
    ParseError,
    TooLarge,
    canonical_from_matroid,
    deconstruct,
    excluded_minor,
    run_script,
    uniform,
)
from laminarmatroids.formats import (
    parse_ckt,
    parse_lam,
    parse_mbs,
    render_ckt,
    render_lam,
    render_mbs,
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

    def test_spaces_inside_sets(self):
        m = parse_ckt("ground a b c\ncircuit {a, b, c}\n")
        assert m.circuits == (frozenset("abc"),)

    def test_rank_mismatch(self):
        with pytest.raises(ParseError) as e:
            parse_ckt("ground a b c\ncircuit {a,b,c}\nrank 3\n")
        assert e.value.line == 3

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_ckt("ground a b\nbasis {a}\n")

    def test_rank_takes_ascii_digits_only(self):
        with pytest.raises(ParseError) as e:
            parse_ckt("ground a b c\ncircuit {a,b,c}\nrank \u00b2\n")
        assert e.value.line == 3

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

    def test_bad_capacity(self):
        # superscript one and Arabic-Indic three are digits to str.isdigit
        for cap in ("-1", "\u00b9", "\u0663"):
            with pytest.raises(ParseError):
                parse_lam(f"ground a b\ncap {{a}} {cap}\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_lam("ground a b\nmember {a} 1\n")


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
