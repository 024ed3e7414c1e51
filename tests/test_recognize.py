"""Class membership verdicts and their certificates."""

from __future__ import annotations

import random

import _oracles as oracle
from _corpus import named_corpus, random_script
from laminarmatroids import (
    build_matroid,
    canonical_from_matroid,
    circuit,
    classify,
    classify_binary_laminar,
    classify_dual_laminar,
    classify_ternary_laminar,
    direct_sum,
    excluded_minor,
    excluded_minor_witness,
    fano,
    is_laminar,
    is_nested,
    run_script,
    two_sum,
    uniform,
)
from laminarmatroids.matroid import apply_witness

EM3 = excluded_minor(3)
U24 = uniform(2, 4, ("a", "b", "c", "d"))
MIXED = direct_sum(uniform(1, 2, ("a", "b")), uniform(2, 3, ("c", "d", "e")))
DOUBLE_TRIANGLE = direct_sum(uniform(2, 3), uniform(2, 3)).truncate()


def members_with_caps(p):
    return {a: p.capacity(a) for a in p.members}


class TestIsLaminar:
    def test_excluded_minor_three_fails_with_pair(self):
        v = is_laminar(EM3)
        assert not v
        assert {frozenset(c) for c in v.violating_circuits} == {
            frozenset({"p", "1", "2"}),
            frozenset({"p", "3", "4"}),
        }

    def test_u24_presentation(self):
        v = is_laminar(U24)
        assert v
        assert members_with_caps(v.presentation) == {frozenset("abcd"): 2}

    def test_mixed_sum_presentation(self):
        v = is_laminar(MIXED)
        assert v
        assert members_with_caps(v.presentation) == {
            frozenset("ab"): 1,
            frozenset("cde"): 2,
        }

    def test_no_certificate_reverifies(self):
        for m in (EM3, excluded_minor(4), fano()):
            v = is_laminar(m)
            assert not v
            c1, c2 = v.violating_circuits
            ind = oracle.independent_from_circuits(m.circuits)
            assert c1 & c2
            cl1 = oracle.brute_closure(m.elements, ind, c1)
            cl2 = oracle.brute_closure(m.elements, ind, c2)
            assert not (cl1 <= cl2 or cl2 <= cl1)
            r = oracle.brute_rank(ind, m.elements)
            assert oracle.brute_rank(ind, c1) < r and oracle.brute_rank(ind, c2) < r

    def test_yes_certificate_reproduces_matroid(self):
        rng = random.Random(31)
        for _ in range(40):
            m = run_script(random_script(rng)).to_explicit()
            v = is_laminar(m)
            assert v
            assert v.presentation.to_explicit() == m

    def test_minor_closure_on_laminar_samples(self):
        for m in (U24, MIXED, DOUBLE_TRIANGLE, uniform(3, 6)):
            assert is_laminar(m)
            for e in m.elements:
                assert is_laminar(m.minor(delete=(e,)))
                assert is_laminar(m.minor(contract=(e,)))


class TestIsNested:
    def test_u24_chain(self):
        v = is_nested(U24)
        assert v.nested
        assert v.chain == (frozenset(), frozenset("abcd"))

    def test_excluded_minor_three_incomparable(self):
        v = is_nested(EM3)
        assert not v.nested
        assert {frozenset(x) for x in v.incomparable} == {
            frozenset({"p", "1", "2"}),
            frozenset({"p", "3", "4"}),
        }

    def test_mixed_sum_not_nested(self):
        assert not is_nested(MIXED).nested

    def test_double_triangle_laminar_but_not_nested(self):
        assert is_laminar(DOUBLE_TRIANGLE)
        assert not is_nested(DOUBLE_TRIANGLE).nested

    def test_truncated_circuit_pairs_not_nested(self):
        # truncation to rank r of two disjoint r-circuits, r = 2, 3, 4
        for r in (2, 3, 4):
            m = direct_sum(circuit(r), circuit(r))
            for _ in range(m.rank() - r):
                m = m.truncate()
            assert not is_nested(m).nested
            assert is_laminar(m)

    def test_agrees_with_cyclic_flat_oracle(self):
        rng = random.Random(32)
        for _ in range(40):
            m = run_script(random_script(rng)).to_explicit()
            flats = oracle.brute_cyclic_flats(m.elements, m.circuits)
            assert is_nested(m).nested == oracle.is_chain(flats)


class TestDualLaminar:
    def test_double_triangle_pair_component(self):
        v = classify_dual_laminar(DOUBLE_TRIANGLE)
        assert v.dual_laminar
        assert len(v.components) == 1
        shape = v.components[0]
        assert shape.kind == "pair"
        sides = {(frozenset(s), r) for s, r in shape.sides}
        assert sides == {
            (frozenset({"e1", "e2", "e3"}), 2),
            (frozenset({"e1'", "e2'", "e3'"}), 2),
        }
        assert shape.depth == 1

    def test_u24_nested_component(self):
        v = classify_dual_laminar(U24)
        assert v.dual_laminar
        assert v.components[0].kind == "nested"

    def test_excluded_minor_three_not_applicable(self):
        v = classify_dual_laminar(EM3)
        assert not v.dual_laminar
        assert v.reason == "not laminar"

    def test_laminar_but_dual_not(self):
        # one coloop hanging off a pair spoils the dual, not the matroid
        m = direct_sum(DOUBLE_TRIANGLE, uniform(1, 1, ("z",)))
        t = m.truncate()
        assert is_laminar(t)
        v = classify_dual_laminar(t)
        assert v.dual_laminar == bool(is_laminar(t.dual()))

    def test_flag_matches_two_sided_check(self):
        rng = random.Random(33)
        hosts = [run_script(random_script(rng)).to_explicit() for _ in range(40)]
        # the non-laminar hosts of full_corpus: its random part is laminar
        hosts += [m for m in named_corpus() if not is_laminar(m)]
        for m in hosts:
            v = classify_dual_laminar(m)
            assert v.dual_laminar == (
                bool(is_laminar(m)) and bool(is_laminar(m.dual()))
            )
            if not v.dual_laminar:
                assert v.reason == (
                    "dual is not laminar" if is_laminar(m) else "not laminar"
                )

    def test_structure_condition_agrees_with_dual_route(self):
        rng = random.Random(34)
        for _ in range(60):
            m = run_script(random_script(rng)).to_explicit()
            if not is_laminar(m):
                continue
            v = classify_dual_laminar(m)
            structural = all(s.kind != "none" for s in v.components)
            assert structural == bool(is_laminar(m.dual()))


class TestBinaryTernary:
    def test_parallel_extended_circuit_is_binary(self):
        c = canonical_from_matroid(circuit(3))
        m = c.parallel_extend("e1", "e4").to_explicit()
        v = classify_binary_laminar(m)
        assert v.flag
        assert v.found is None

    def test_u24_not_binary(self):
        v = classify_binary_laminar(U24)
        assert not v.flag
        assert v.found[0] == "uniform(2,4)"

    def test_excluded_minor_three_not_binary(self):
        assert not classify_binary_laminar(EM3).flag

    def test_u24_two_sum_pair_is_ternary(self):
        m = two_sum(uniform(2, 4), uniform(2, 4), "e1", "e1")
        assert classify_ternary_laminar(m).flag

    def test_u25_not_ternary(self):
        v = classify_ternary_laminar(uniform(2, 5))
        assert not v.flag

    def test_excluded_minor_three_not_ternary(self):
        assert not classify_ternary_laminar(EM3).flag

    def test_witnesses_replay(self):
        for m in (U24, uniform(2, 5), EM3, fano()):
            for v in (classify_binary_laminar(m), classify_ternary_laminar(m)):
                if v.found is None:
                    continue
                name, w = v.found
                target = {
                    "uniform(2,4)": uniform(2, 4),
                    "uniform(2,5)": uniform(2, 5),
                    "uniform(3,5)": uniform(3, 5),
                    "excluded-minor(3)": EM3,
                }[name]
                assert apply_witness(m, w, target)


class TestExcludedMinorWitness:
    def test_rank_four_excluded_minor_found_in_itself(self):
        em4 = excluded_minor(4)
        hit = excluded_minor_witness(em4)
        assert hit is not None
        r, w = hit
        assert r == 4
        assert w.delete == frozenset() and w.contract == frozenset()

    def test_double_triangle_has_no_witness(self):
        assert excluded_minor_witness(DOUBLE_TRIANGLE) is None

    def test_u36_has_no_witness(self):
        assert excluded_minor_witness(uniform(3, 6)) is None

    def test_witness_replays(self):
        for m in (EM3, excluded_minor(4), fano(), fano().dual()):
            hit = excluded_minor_witness(m)
            assert hit is not None
            r, w = hit
            assert apply_witness(m, w, excluded_minor(r))

    def test_agrees_with_is_laminar_on_samples(self):
        rng = random.Random(35)
        mats = [run_script(random_script(rng)).to_explicit() for _ in range(25)]
        mats += [EM3, fano(), U24, MIXED, DOUBLE_TRIANGLE]
        for m in mats:
            assert bool(is_laminar(m)) == (excluded_minor_witness(m) is None)


class TestClassify:
    def test_aggregate_consistency(self):
        for m in named_corpus()[:40]:
            c = classify(m)
            assert c.laminar.laminar == bool(is_laminar(m))
            assert c.nested.nested == is_nested(m).nested
            if c.nested.nested:
                assert c.laminar.laminar
            if c.binary_laminar.flag or c.ternary_laminar.flag:
                assert c.laminar.laminar

    def test_rank_le_2_always_laminar(self):
        for m in named_corpus():
            if m.rank() <= 2:
                assert is_laminar(m)
