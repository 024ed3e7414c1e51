"""Class membership verdicts and their certificates."""

from __future__ import annotations

import random
from itertools import product

import pytest

import _oracles as oracle
from _corpus import full_corpus, named_corpus, non_laminar_hosts, random_script
from laminarmatroids import (
    MatroidError,
    NotLaminar,
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
    recognize,
    run_script,
    two_sum,
    uniform,
)
from laminarmatroids.matroid import apply_witness, has_minor
from laminarmatroids.recognize import _pair_shape

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

    def test_no_names_the_first_crossing_pair(self):
        hosts = full_corpus(random.Random(5), n_random=100)
        hosts += [excluded_minor(4), direct_sum(EM3, U24), fano()]
        refused = 0
        for m in hosts:
            v = is_laminar(m)
            want = oracle.first_crossing_pair(m)
            assert bool(v) == (want is None)
            if not v:
                refused += 1
                assert v.violating_circuits == want
        assert refused >= 20

    @pytest.mark.parametrize("build", ["refuse", "mismatch"])
    def test_presentation_failing_a_laminar_host_is_an_internal_error(
        self, monkeypatch, build
    ):
        def fake(m):
            if build == "refuse":
                raise NotLaminar(frozenset("ab"), frozenset("bc"))
            return canonical_from_matroid(U24)

        monkeypatch.setattr(recognize, "canonical_from_matroid", fake)
        with pytest.raises(MatroidError) as caught:
            is_laminar(MIXED)
        assert type(caught.value) is MatroidError
        assert str(caught.value) == "internal: canonical presentation mismatch"

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


class TestPairShape:
    """_pair_shape reads a block's pair shape off its cyclic flats; the
    oracle guesses the split and confirms it by expanding circuits."""

    @staticmethod
    def uniform_pair_truncations(n_max):
        """T^k(U(a, b) + U(c, d)) for b + d <= n_max, every k down to rank 1."""
        for b in range(1, n_max):
            for d in range(1, n_max + 1 - b):
                for a, c in product(range(b + 1), range(d + 1)):
                    m = direct_sum(uniform(a, b), uniform(c, d))
                    while m.rank() > 1:
                        m = m.truncate()
                        yield m

    @staticmethod
    def truncated_sums(rng, count):
        """Direct sums of two small named hosts, truncated 1-3 times."""
        small = [m for m in named_corpus() if 1 <= m.n <= 6]
        for _ in range(count):
            m = direct_sum(rng.choice(small), rng.choice(small))
            for _ in range(rng.randint(1, 3)):
                if m.rank():
                    m = m.truncate()
            yield m

    def test_matches_the_expansion_on_every_non_nested_block(self):
        sources = {
            "full_corpus": full_corpus(random.Random(7), 300, n_cap=10),
            "non_laminar_hosts": non_laminar_hosts(random.Random(7), 40),
            "uniform_pairs": self.uniform_pair_truncations(10),
            "truncated_sums": self.truncated_sums(random.Random(11), 1000),
        }
        counts = {}
        for label, hosts in sources.items():
            blocks = pairs = 0
            for m in hosts:
                for block in m.components():
                    sub = m.restrict(block)
                    if is_nested(sub):
                        continue
                    shape = _pair_shape(sub)
                    assert shape == oracle.pair_by_expansion(sub)
                    blocks += 1
                    pairs += shape is not None
            counts[label] = (blocks, pairs)
        assert counts == {
            "full_corpus": (49, 6),
            "non_laminar_hosts": (40, 0),
            "uniform_pairs": (86, 86),
            "truncated_sums": (462, 44),
        }


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
            hit = oracle.search_excluded_minor_witness(m)
            assert bool(is_laminar(m)) == (hit is None)
            assert excluded_minor_witness(m) == hit


DENSE_LAMINAR = (
    uniform(4, 16),
    uniform(8, 16),
    direct_sum(uniform(3, 8), uniform(4, 8)),
)


@pytest.fixture
def searched(monkeypatch):
    """Targets recognize passes to has_minor, in call order."""
    targets = []

    def recording(m, target):
        targets.append(target)
        return has_minor(m, target)

    monkeypatch.setattr(recognize, "has_minor", recording)
    return targets


class TestLaminarHostsSkipExcludedMinorSearch:
    def test_witness_searches_nothing_at_the_hard_cap(self, searched):
        for m in DENSE_LAMINAR:
            assert excluded_minor_witness(m) is None
        assert searched == []

    def test_classifiers_search_only_the_uniforms(self, searched):
        # the uniforms miss on MIXED and, but for U(2,4), on DOUBLE_TRIANGLE
        for m in DENSE_LAMINAR + (MIXED, DOUBLE_TRIANGLE):
            c = classify(m)
            assert c.binary_laminar == classify_binary_laminar(m)
            assert c.ternary_laminar == classify_ternary_laminar(m)
        assert searched
        assert EM3 not in searched

    def test_non_laminar_host_still_finds_the_same_witness(self, searched):
        m = direct_sum(EM3, U24)
        hit = excluded_minor_witness(m)
        assert hit == oracle.search_excluded_minor_witness(m)
        assert hit[0] == 3 and searched == [EM3]
        c = classify(m)
        assert c.binary_laminar.found == ("uniform(2,4)", has_minor(m, uniform(2, 4)))
        assert c.ternary_laminar.found == ("excluded-minor(3)", has_minor(m, EM3))
        assert classify_ternary_laminar(m) == c.ternary_laminar


class TestClassifyReusesBinaryVerdict:
    def test_no_uniform_search_after_a_missing_u24(self, searched):
        c = classify(EM3)
        assert searched == [uniform(2, 4), EM3]
        assert c.ternary_laminar is c.binary_laminar
        assert c.ternary_laminar == classify_ternary_laminar(EM3)

    def test_verdicts_match_the_classifiers_on_the_corpus(self):
        hosts = full_corpus(random.Random(7), 300, n_cap=10)
        reused = pairs = 0
        for m in hosts:
            c = classify(m)
            assert c.binary_laminar == classify_binary_laminar(m)
            assert c.ternary_laminar == classify_ternary_laminar(m)
            reused += c.ternary_laminar is c.binary_laminar
            for shape in c.dual_laminar.components:
                if shape.kind == "pair":
                    pairs += 1
                    assert shape.depth >= 1
        assert (len(hosts), reused, pairs) == (218, 128, 6)

    def test_verdicts_match_on_the_non_laminar_hosts_without_u24(self):
        hosts = non_laminar_hosts(random.Random(7), 40)
        without_u24 = [i for i, m in enumerate(hosts) if has_minor(m, U24) is None]
        assert without_u24 == [14, 27, 36]
        for i in without_u24:
            c = classify(hosts[i])
            assert c.ternary_laminar is c.binary_laminar
            assert c.binary_laminar == classify_binary_laminar(hosts[i])
            assert c.ternary_laminar == classify_ternary_laminar(hosts[i])


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
