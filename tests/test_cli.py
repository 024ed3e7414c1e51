"""Command-line front end: verbs, exit codes, byte-stable output."""

from __future__ import annotations

import pytest

from laminarmatroids import excluded_minor, uniform
from laminarmatroids.cli import main
from laminarmatroids.formats import render_ckt

EM3_CKT = render_ckt(excluded_minor(3))
U24_CKT = render_ckt(uniform(2, 4, ("a", "b", "c", "d")))
CHAIN_LAM = "ground a b c d\ncap {a,b} 1\ncap {a,b,c,d} 2\n"
INFLATED_LAM = "ground a b c d\ncap {a,b} 1\ncap {a,b,c} 2\ncap {a,b,c,d} 2\n"
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


class TestDeterminism:
    def test_identical_bytes(self, files, capsys):
        path = files("em3.ckt", EM3_CKT)
        outs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "classify", path)
            outs.add(out)
        assert len(outs) == 1
