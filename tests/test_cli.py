"""Command-line front end: verbs, exit codes, byte-stable output."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

import pytest

import laminarmatroids
from laminarmatroids import direct_sum, excluded_minor, uniform
from laminarmatroids.cli import main
from laminarmatroids.formats import render_ckt

EM3_CKT = render_ckt(excluded_minor(3))
U24_CKT = render_ckt(uniform(2, 4, ("a", "b", "c", "d")))
CHAIN_LAM = "ground a b c d\ncap {a,b} 1\ncap {a,b,c,d} 2\n"
FOREST_LAM = "ground a b c d e f g\ncap {a,b,c} 2\ncap {d,e} 1\ncap {f} 0\n"
INFLATED_LAM = "ground a b c d\ncap {a,b} 1\ncap {a,b,c} 2\ncap {a,b,c,d} 2\n"
# 13 elements: one past the default cap
BIG_CKT = render_ckt(direct_sum(excluded_minor(3), uniform(3, 8)))
BIG_LAM = (
    "ground e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13\n"
    "cap {e1,e2,e3,e4} 1\ncap {e1,e2,e3,e4,e5,e6,e7,e8,e9} 3\n"
)
BIG_MBS = (
    "m0 = empty\n"
    + "".join(f"m{i} = coloop m{i - 1} e{i}\n" for i in range(1, 14))
    + "m14 = truncate m13\nresult m14\n"
)
TRIANGLE_MBS = "m1 = empty\nm2 = coloop m1 a\nm3 = coloop m2 b\nm4 = coloop m3 c\nm5 = truncate m4\nresult m5\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_ckt(self, files, capsys):
        code, out, _ = run(capsys, "validate", files("em3.ckt", EM3_CKT))
        assert code == 0
        assert out == "ok explicit-matroid n=5 rank=3 circuits=3\n"

    def test_lam(self, files, capsys):
        code, out, _ = run(capsys, "validate", files("p.lam", CHAIN_LAM))
        assert code == 0
        assert out == "ok laminar-presentation n=4 members=2 rank=2\n"

    def test_mbs(self, files, capsys):
        code, out, _ = run(capsys, "validate", files("s.mbs", TRIANGLE_MBS))
        assert code == 0
        assert out.startswith("ok construction-script")

    def test_parse_error_exit_2(self, files, capsys):
        code, _, err = run(capsys, "validate", files("bad.ckt", "circuit {a}\n"))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("name", ["brace.ckt", "brace.lam"])
    def test_lone_brace_line_exit_2(self, files, capsys, name):
        code, out, err = run(capsys, "validate", files(name, "ground a b\n}\n"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 2:")

    @pytest.mark.parametrize(
        "data",
        [
            b"ground a b\ncap {a} 1\n\xff\n",
            "ground a b\ncap {a,b} \u00b9\n".encode(),
        ],
        ids=["undecodable", "superscript-capacity"],
    )
    def test_undecodable_or_non_ascii_input_exit_2(self, tmp_path, capsys, data):
        path = tmp_path / "bad.lam"
        path.write_bytes(data)
        code, out, err = run(capsys, "canon", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestIsLaminar:
    def test_no_with_pair(self, files, capsys):
        code, out, _ = run(capsys, "is-laminar", files("em3.ckt", EM3_CKT))
        assert code == 1
        assert out == "laminar: no\n  circuit {p,1,2}\n  circuit {p,3,4}\n"

    def test_yes_with_family(self, files, capsys):
        code, out, _ = run(capsys, "is-laminar", files("u24.ckt", U24_CKT))
        assert code == 0
        assert out == "laminar: yes\n  cap {a,b,c,d} 2\n"


class TestCanonExplicit:
    def test_canon_prunes(self, files, capsys):
        code, out, _ = run(capsys, "canon", files("p.lam", INFLATED_LAM))
        assert code == 0
        assert out == "ground a b c d\ncap {a,b,c,d} 2\ncap {a,b} 1\n"

    def test_canon_round_trips(self, files, capsys):
        code, out, _ = run(capsys, "canon", files("p.lam", INFLATED_LAM))
        code2, out2, _ = run(capsys, "canon", files("q.lam", out))
        assert code2 == 0 and out2 == out

    def test_explicit(self, files, capsys):
        code, out, _ = run(capsys, "explicit", files("p.lam", CHAIN_LAM))
        assert code == 0
        assert out == (
            "ground a b c d\n"
            "circuit {a,b}\n"
            "circuit {a,c,d}\n"
            "circuit {b,c,d}\n"
            "rank 2\n"
        )

    def test_explicit_then_is_laminar_matches_canon(self, files, capsys, tmp_path):
        _, canon_out, _ = run(capsys, "canon", files("p.lam", INFLATED_LAM))
        _, ckt_out, _ = run(capsys, "explicit", files("p2.lam", INFLATED_LAM))
        code, lam_out, _ = run(capsys, "is-laminar", files("p3.ckt", ckt_out))
        assert code == 0
        family_lines = canon_out.splitlines()[1:]
        assert lam_out.splitlines()[1:] == ["  " + x for x in family_lines]


class TestMinorClassifyWitness:
    def test_minor_delete_tip(self, files, capsys):
        code, out, _ = run(
            capsys, "minor", files("em3.ckt", EM3_CKT), "--delete", "p"
        )
        assert code == 0
        assert out == "ground 1 2 3 4\ncircuit {1,2,3,4}\nrank 3\n"

    def test_minor_contract(self, files, capsys):
        code, out, _ = run(
            capsys, "minor", files("em3.ckt", EM3_CKT), "--contract", "p"
        )
        assert code == 0
        assert out == "ground 1 2 3 4\ncircuit {1,2}\ncircuit {3,4}\nrank 2\n"

    def test_witness_found(self, files, capsys):
        code, out, _ = run(capsys, "witness", files("em3.ckt", EM3_CKT))
        assert code == 0
        assert out.startswith("witness: excluded-minor(3)")

    def test_witness_absent(self, files, capsys):
        code, out, _ = run(capsys, "witness", files("u24.ckt", U24_CKT))
        assert code == 1
        assert out == "witness: none\n"

    def test_classify_blocks(self, files, capsys):
        code, out, _ = run(capsys, "classify", files("u24.ckt", U24_CKT))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "nested: yes"
        assert any(line == "laminar: yes" for line in lines)
        assert any(line == "dual-laminar: yes" for line in lines)
        assert any(line.startswith("binary-laminar: no") for line in lines)
        assert any(line == "ternary-laminar: yes" for line in lines)

    def test_classify_prints_a_pair_component(self, files, capsys):
        dt = render_ckt(direct_sum(uniform(2, 3), uniform(2, 3)).truncate())
        code, out, _ = run(capsys, "classify", files("dt.ckt", dt))
        assert code == 0
        assert out.splitlines()[7] == (
            "  component {e1,e2,e3,e1',e2',e3'}: pair sides {e1,e2,e3}:2 {e1',e2',e3'}:2 depth 1"
        )


class TestConstructDeconstruct:
    def test_construct(self, files, capsys):
        code, out, _ = run(capsys, "construct", files("s.mbs", TRIANGLE_MBS))
        assert code == 0
        assert out.splitlines()[0] == "ground a b c"

    def test_deconstruct_round_trip(self, files, capsys):
        code, out, _ = run(capsys, "deconstruct", files("p.lam", CHAIN_LAM))
        assert code == 0
        code2, out2, _ = run(capsys, "construct", files("s.mbs", out))
        assert code2 == 0
        code3, out3, _ = run(capsys, "explicit", files("q.lam", out2))
        code4, out4, _ = run(capsys, "explicit", files("p2.lam", CHAIN_LAM))
        got = set(out3.splitlines()[1:])
        want = set(out4.splitlines()[1:])
        assert got == want

    def test_deconstruct_walks_the_forest(self, files, capsys):
        """The loops, then each top member from its children, then one
        DSUM of the tops, then the coloops."""
        lam = files("p.lam", FOREST_LAM)
        code, out, _ = run(capsys, "deconstruct", lam)
        assert code == 0
        assert out.splitlines() == [
            "m1 = empty",
            "m2 = coloop m1 f",
            "m3 = truncate m2",
            "m4 = coloop m3 a",
            "m5 = coloop m4 b",
            "m6 = coloop m5 c",
            "m7 = truncate m6",
            "m8 = empty",
            "m9 = coloop m8 d",
            "m10 = coloop m9 e",
            "m11 = truncate m10",
            "m12 = dsum m7 m11",
            "m13 = coloop m12 g",
            "result m13",
        ]
        _, built, _ = run(capsys, "construct", files("s.mbs", out))
        _, got, _ = run(capsys, "explicit", files("q.lam", built))
        _, want, _ = run(capsys, "explicit", lam)
        assert set(got.splitlines()[1:]) == set(want.splitlines()[1:])


class TestMaxWeight:
    def test_worked_example(self, files, capsys):
        code, out, _ = run(
            capsys,
            "maxweight",
            files("p.lam", CHAIN_LAM),
            "-w",
            "a=5,b=4,c=3,d=1",
        )
        assert code == 0
        assert out == "{a,c} weight 8\n"

    def test_fraction_weights(self, files, capsys):
        code, out, _ = run(
            capsys,
            "maxweight",
            files("p.lam", "ground x y\ncap {x,y} 1\n"),
            "-w",
            "x=1/3,y=1/2",
        )
        assert code == 0
        assert out == "{y} weight 1/2\n"

    def test_unknown_element_exit_2(self, files, capsys):
        code, _, err = run(
            capsys, "maxweight", files("p.lam", CHAIN_LAM), "-w", "z=1"
        )
        assert code == 2

    def test_weights_take_plain_ascii_numbers_only(self, files, capsys):
        # Fraction() would read these as 3, 10 and a 999-digit integer
        path = files("p.lam", CHAIN_LAM)
        for value in ("\u0663", "1_0", "1e999"):
            code, out, err = run(capsys, "maxweight", path, "-w", f"a={value}")
            assert (code, out) == (2, "")
            assert "bad weight value" in err

    @pytest.mark.parametrize("weights", ["a=1,b=2,a=3", "a=1, a =2"])
    def test_repeated_weight_exit_2(self, files, capsys, weights):
        code, out, err = run(capsys, "maxweight", files("t.lam", CHAIN_LAM), "-w", weights)
        assert (code, out) == (2, "")
        assert err == "error: weight for 'a' given twice\n"


class TestSizeCap:
    def test_max_n_exceeded_exit_3(self, files, capsys):
        text = "ground " + " ".join(f"x{i}" for i in range(13)) + "\n"
        code, _, err = run(capsys, "validate", files("big.ckt", text))
        assert code == 3

    def test_max_n_override(self, files, capsys):
        text = "ground " + " ".join(f"x{i}" for i in range(13)) + "\n"
        code, _, _ = run(
            capsys, "validate", files("big.ckt", text), "--max-n", "16"
        )
        assert code == 0

    @pytest.mark.parametrize(
        "command, name, text",
        [(c, "big.ckt", BIG_CKT) for c in ("is-laminar", "classify", "witness", "minor")]
        + [(c, "big.lam", BIG_LAM) for c in ("canon", "explicit", "deconstruct")],
    )
    def test_every_capped_command_refuses_past_max_n(self, files, capsys, command, name, text):
        path = files(name, text)
        assert run(capsys, command, path) == (3, "", "error: ground set has 13 elements, cap is 12\n")
        code, out, err = run(capsys, command, path, "--max-n", "13")
        assert code in (0, 1) and out and not err

    @pytest.mark.parametrize(
        "command, name, text, extra",
        [
            ("validate", "big.lam", BIG_LAM, ()),
            ("validate", "big.mbs", BIG_MBS, ()),
            ("construct", "big.mbs", BIG_MBS, ()),
            ("maxweight", "big.lam", BIG_LAM, ("-w", "e1=2,e13=1")),
        ],
        ids=["validate-lam", "validate-mbs", "construct", "maxweight"],
    )
    def test_uncapped_commands_ignore_max_n(self, files, capsys, command, name, text, extra):
        path = files(name, text)
        code, out, err = run(capsys, command, path, *extra)
        assert (code, err) == (0, "") and out
        assert run(capsys, command, path, *extra, "--max-n", "0") == (0, out, "")

    def test_dense_sixteen_element_ckt_validates(self, files, capsys):
        path = files("u8_16.ckt", render_ckt(uniform(8, 16)))
        code, out, _ = run(capsys, "validate", path, "--max-n", "16")
        assert (code, out) == (0, "ok explicit-matroid n=16 rank=8 circuits=11440\n")

    def test_witness_on_dense_laminar_host_at_the_hard_cap(self, files, capsys):
        path = files("u8_16.ckt", render_ckt(uniform(8, 16)))
        code, out, _ = run(capsys, "witness", path, "--max-n", "16")
        assert (code, out) == (1, "witness: none\n")

    def test_laminar_host_with_no_spanning_circuit_at_the_hard_cap(self, files, capsys):
        # 6 435 circuits, none spanning: is-laminar and witness scan no pairs
        path = files("u7_15c.ckt", render_ckt(direct_sum(uniform(7, 15), uniform(1, 1))))
        code, out, _ = run(capsys, "is-laminar", path, "--max-n", "16")
        whole = ",".join(f"e{i}" for i in range(1, 16))
        assert (code, out) == (0, f"laminar: yes\n  cap {{{whole}}} 7\n")
        code, out, _ = run(capsys, "witness", path, "--max-n", "16")
        assert (code, out) == (1, "witness: none\n")

    def test_classify_reads_a_pair_at_the_hard_cap(self, files, capsys):
        # T(U(4,8) + U(5,8)): 16 elements, 4 004 circuits, one pair block
        path = files("pair16.ckt", render_ckt(direct_sum(uniform(4, 8), uniform(5, 8)).truncate()))
        code, out, _ = run(capsys, "classify", path, "--max-n", "16")
        left = "{" + ",".join(f"e{i}" for i in range(1, 9)) + "}"
        right = "{" + ",".join(f"e{i}'" for i in range(1, 9)) + "}"
        whole = left[:-1] + "," + right[1:]
        assert code == 0
        assert out.splitlines() == [
            "nested: no",
            f"  incomparable {left} {right}",
            "laminar: yes",
            f"  cap {whole} 8",
            f"  cap {left} 4",
            f"  cap {right} 5",
            "dual-laminar: yes",
            f"  component {whole}: pair sides {left}:4 {right}:5 depth 1",
            "binary-laminar: no",
            "  minor uniform(2,4) delete {e3',e4',e5,e6,e7,e8} contract"
            " {e1,e1',e2,e2',e3,e4} map e5'->e1,e6'->e2,e7'->e3,e8'->e4",
            "ternary-laminar: no",
            "  minor uniform(2,5) delete {e3',e5,e6,e7,e8} contract"
            " {e1,e1',e2,e2',e3,e4} map e4'->e1,e5'->e2,e6'->e3,e7'->e4,e8'->e5",
        ]

    def test_dense_sixteen_element_ckt_failing_elimination_exits_2(self, files, capsys):
        lines = render_ckt(uniform(8, 16)).splitlines()
        ground, circuits = lines[0], lines[1:-1]  # the last line is "rank 8"
        del circuits[len(circuits) // 2]
        path = files("u8_16_less.ckt", "\n".join([ground, *circuits]) + "\n")
        code, out, err = run(capsys, "validate", path, "--max-n", "16")
        assert (code, out) == (2, "")
        assert err.startswith("error: no circuit inside")


class TestDeterminism:
    def test_identical_bytes(self, files, capsys):
        path = files("em3.ckt", EM3_CKT)
        outs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "classify", path)
            outs.add(out)
        assert len(outs) == 1


SRC = os.path.dirname(os.path.dirname(os.path.abspath(laminarmatroids.__file__)))
# Help text wraps to $COLUMNS, so both sides get the same width.
ENV = {**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80"}
# Source, so that a fresh interpreter can install it before any import.
COUNTING = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
"""


def run_caught(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # usage errors and --help
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParserBuiltOnce:
    def test_calls_in_one_process_match_fresh_processes(self, files, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        path = files("u24.ckt", U24_CKT)
        calls = [
            ["minor", path, "--delete", "a"],
            ["minor", path],
            ["minor", path, "--contract", "b"],
            ["minor", path],
            ["minor", path, "--frobnicate"],
            ["minor", path],
            ["--help"],
            ["minor", path],
            ["minor", path, "--max-n", "-1"],
            ["minor", path],
        ]
        for argv in calls:
            fresh = subprocess.run(
                [sys.executable, "-m", "laminarmatroids.cli", *argv],
                capture_output=True, text=True, env=ENV, check=False,
            )
            got = run_caught(capsys, argv)
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv

    def test_main_builds_no_parser_after_the_first_call(self, files, capsys, monkeypatch):
        path = files("u24.ckt", U24_CKT)
        run(capsys, "minor", path)
        counter = {}
        exec(COUNTING, counter)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counter["counting"])
        assert run(capsys, "minor", path, "--delete", "a")[0] == 0
        assert run(capsys, "validate", path, "--max-n", "16")[0] == 0
        assert run_caught(capsys, ["minor", path, "--frobnicate"])[0] == 2
        assert counter["built"] == []

    def test_import_builds_no_parser(self):
        code = COUNTING + (
            "argparse.ArgumentParser.__init__ = counting\n"
            "import laminarmatroids.cli\n"
            "print(len(built))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=ENV, check=True
        )
        assert out.stdout == "0\n"
