"""Core matroid type and operations, checked against brute force."""

from __future__ import annotations

import functools
import random
from collections import Counter
from itertools import combinations

import pytest

import _oracles as oracle
from _corpus import full_corpus
from laminarmatroids import (
    BadBasepoint,
    EliminationFails,
    ExplicitMatroid,
    MatroidError,
    MinorWitness,
    NotAnAntichain,
    OverlappingSets,
    TooLarge,
    TooSmall,
    build_matroid,
    circuit,
    direct_sum,
    empty,
    excluded_minor,
    fano,
    fano_dual,
    free,
    parallel_connection,
    two_sum,
    uniform,
)
from laminarmatroids._backend import kernels as K
from laminarmatroids.matroid import _sort_masks, apply_witness, has_minor, is_isomorphic


def circuits_set(m):
    return {frozenset(c) for c in m.circuits}


def same_labeled(m1, m2):
    """Equality up to ground order: same labels, same circuit family."""
    return set(m1.elements) == set(m2.elements) and circuits_set(m1) == circuits_set(m2)


EM3 = excluded_minor(3)
U24 = uniform(2, 4, ("a", "b", "c", "d"))


class TestBuild:
    def test_uniform_from_circuits(self):
        m = build_matroid("abcd", [c for c in combinations("abcd", 3)])
        assert m == U24
        assert m.rank() == 2

    def test_loop_and_coloop(self):
        m = build_matroid("ab", [("a",)])
        assert m.loops() == frozenset("a")
        assert m.coloops() == frozenset("b")
        assert m.rank() == 1

    def test_not_an_antichain(self):
        with pytest.raises(NotAnAntichain) as e:
            build_matroid("abc", [("a", "b"), ("a", "b", "c")])
        assert e.value.small == frozenset("ab")

    def test_elimination_failure(self):
        with pytest.raises(EliminationFails):
            build_matroid("abc", [("a", "b"), ("b", "c")])

    def test_dense_sixteen_element_families_build(self):
        for r, count in ((4, 4368), (8, 11440)):
            u = uniform(r, 16)
            m = build_matroid(u.elements, u.circuits, max_n=16)
            assert m == u
            assert (m.rank(), len(m.circuits)) == (r, count)

    def test_dense_family_without_its_middle_circuit_fails_elimination(self):
        u = uniform(8, 16)
        cs = list(u.circuits)
        fewer = cs[: len(cs) // 2] + cs[len(cs) // 2 + 1 :]
        with pytest.raises(EliminationFails) as e:
            build_matroid(u.elements, fewer, max_n=16)
        first, second, element = e.value.first, e.value.second, e.value.element
        assert first in fewer and second in fewer and first != second
        assert element in first & second
        rest = (first | second) - {element}
        assert not any(c <= rest for c in fewer)

    def test_dense_family_plus_a_union_of_two_circuits_is_no_antichain(self):
        u = uniform(8, 16)
        cs = list(u.circuits)
        early = cs + [cs[0] | cs[1]]
        stored = [u.ground.set_of(m) for m in _sort_masks(u.ground.mask_of(c) for c in early)]
        i, j = oracle.first_containment(stored)
        with pytest.raises(NotAnAntichain) as e:
            build_matroid(u.elements, early, max_n=16)
        assert (e.value.small, e.value.large) == (stored[i], stored[j])
        # Late in storage order, where first_containment is quadratic: the
        # union holds nine 8-sets, and the first stored is the union less
        # its last element.
        union = cs[-2] | cs[-1]
        with pytest.raises(NotAnAntichain) as e:
            build_matroid(u.elements, cs + [union], max_n=16)
        last = max(union, key=u.elements.index)
        assert (e.value.small, e.value.large) == (union - {last}, union)

    def test_validation_keeps_its_dependent_set_bitmap(self, monkeypatch):
        m = build_matroid("abcd", combinations("abcd", 3))

        def rebuilt(*args):
            raise AssertionError("the dependent-set bitmap was built again")

        monkeypatch.setattr(K, "dependents", rebuilt)
        assert m.rank() == 2 and m.rank("abc") == 2
        assert m.is_independent("ab") and not m.is_independent("abc")

    def test_empty_circuit_rejected(self):
        with pytest.raises(MatroidError):
            build_matroid("ab", [()])

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            build_matroid([f"x{i}" for i in range(17)], [])

    def test_trusted_constructor_guard(self):
        with pytest.raises(MatroidError):
            ExplicitMatroid(U24.ground, U24._masks)

    def test_outputs_satisfy_elimination(self):
        for m in (EM3, U24, fano(), two_sum(uniform(2, 4), uniform(2, 4), "e1", "e1")):
            assert oracle.elimination_holds(m.circuits)


class TestIndependenceRank:
    def test_empty_always_independent(self):
        assert U24.is_independent(())

    def test_circuit_dependent(self):
        assert not U24.is_independent(("a", "b", "c"))

    def test_excluded_minor_sample_independence(self):
        assert EM3.is_independent(("p", "1", "3"))

    def test_excluded_minor_ranks(self):
        assert EM3.rank() == 3
        assert EM3.rank(("1", "2", "3", "4")) == 3

    def test_rank_matches_brute_force(self):
        for m in (U24, EM3, fano(), direct_sum(uniform(1, 2), uniform(2, 3))):
            ind = oracle.independent_from_circuits(m.circuits)
            for s in oracle.subsets(m.elements):
                assert m.rank(s) == oracle.brute_rank(ind, s)


class TestClosure:
    def test_singleton_flat(self):
        assert U24.closure(("a",)) == frozenset("a")

    def test_circuit_pulls_in_tip(self):
        assert EM3.closure(("1", "2")) == frozenset({"p", "1", "2"})

    def test_idempotent(self):
        for m in (U24, EM3):
            for s in oracle.subsets(m.elements):
                cl = m.closure(s)
                assert m.closure(cl) == cl

    def test_matches_brute_force(self):
        ind = oracle.independent_from_circuits(EM3.circuits)
        for s in oracle.subsets(EM3.elements):
            assert EM3.closure(s) == oracle.brute_closure(EM3.elements, ind, s)


class TestDual:
    def test_u24_self_dual(self):
        assert U24.dual() == U24

    def test_uniform_duality(self):
        assert same_labeled(uniform(1, 3).dual(), uniform(2, 3))
        assert uniform(4, 12).dual() == uniform(8, 12)

    def test_involution(self):
        for m in (EM3, fano(), direct_sum(uniform(1, 2), uniform(2, 3))):
            assert m.dual().dual() == m

    def test_matches_brute_force(self):
        for m in (EM3, uniform(2, 5), direct_sum(uniform(1, 2), uniform(2, 2))):
            assert circuits_set(m.dual()) == oracle.brute_cocircuits(
                m.elements, m.circuits
            )


class TestMinor:
    def test_delete_basepoint_gives_uniform(self):
        m = EM3.minor(delete=("p",))
        assert circuits_set(m) == {frozenset("1234")}
        assert same_labeled(m, uniform(3, 4, ("1", "2", "3", "4")))

    def test_contract_basepoint(self):
        m = EM3.minor(contract=("p",))
        assert circuits_set(m) == {frozenset("12"), frozenset("34")}

    def test_identity(self):
        assert EM3.minor() == EM3

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingSets):
            EM3.minor(delete=("p",), contract=("p",))

    def test_matches_brute_force(self):
        for m in (EM3, uniform(2, 5), fano()):
            els = m.elements
            for d in combinations(els, 1):
                for t in combinations([e for e in els if e not in d], 1):
                    keep, want = oracle.brute_minor(els, m.circuits, d, t)
                    got = m.minor(delete=d, contract=t)
                    assert got.elements == keep
                    assert circuits_set(got) == want

    def test_parallel_connection_minors_match_brute_force(self):
        # a parallel connection stores no dependent sets, so its minors build them
        for a, b in ((circuit(4), uniform(2, 4)), (fano(), circuit(3))):
            els = parallel_connection(a, b, "e1", "e1").elements
            for d, t in (((), ("e1",)), (("e2",), ("e3", "e4")), (els[-2:], els[:2])):
                m = parallel_connection(a, b, "e1", "e1")
                assert m._dep is None
                keep, want = oracle.brute_minor(els, m.circuits, d, t)
                got = m.minor(delete=d, contract=t)
                assert got.elements == keep
                assert circuits_set(got) == want
            m = parallel_connection(a, b, "e1", "e1")
            rest = els[1:-1]
            assert circuits_set(m.restrict(rest)) == oracle.brute_minor(
                els, m.circuits, delete=(els[0], els[-1])
            )[1]


class TestTruncateAndSums:
    def test_uniform_truncation(self):
        assert same_labeled(uniform(3, 3).truncate(), uniform(2, 3))
        assert uniform(8, 16).truncate() == uniform(7, 16)

    def test_double_truncation_to_loops(self):
        m = uniform(2, 2).truncate().truncate()
        assert m.rank() == 0
        assert m.loops() == frozenset(m.elements)

    def test_truncated_double_triangle(self):
        m = direct_sum(uniform(2, 3), uniform(2, 3)).truncate()
        assert m.rank() == 3
        non_spanning = {c for c in circuits_set(m) if len(c) <= m.rank()}
        assert non_spanning == {
            frozenset({"e1", "e2", "e3"}),
            frozenset({"e1'", "e2'", "e3'"}),
        }
        ind = oracle.independent_from_circuits(
            list(circuits_set(direct_sum(uniform(2, 3), uniform(2, 3))))
        )
        want = {
            frozenset(s)
            for s in oracle.subsets(m.elements)
            if len(s) == 4 and oracle.brute_rank(ind, s) == 4
        }
        assert circuits_set(m) == non_spanning | want

    def test_direct_sum_circuits_and_rank(self):
        m = direct_sum(uniform(1, 2, ("a", "b")), uniform(2, 3, ("c", "d", "e")))
        assert circuits_set(m) == {frozenset("ab"), frozenset("cde")}
        assert m.rank() == 3

    def test_direct_sum_identity(self):
        from laminarmatroids import empty

        assert direct_sum(EM3, empty()) == EM3

    def test_direct_sum_renames_collisions(self):
        m = direct_sum(uniform(1, 2), uniform(1, 2))
        assert m.elements == ("e1", "e2", "e1'", "e2'")

    def test_parallel_connection_is_rank3_excluded_minor(self):
        p = parallel_connection(
            circuit(3, ("p", "a", "b")), circuit(3, ("p", "x", "y")), "p", "p"
        )
        assert circuits_set(p) == {
            frozenset({"p", "a", "b"}),
            frozenset({"p", "x", "y"}),
            frozenset({"a", "b", "x", "y"}),
        }
        assert is_isomorphic(p, EM3)

    @pytest.mark.parametrize(
        "why, circuits", [("loop", [{"a"}, {"b", "c"}]), ("coloop", [{"b", "c"}])]
    )
    def test_parallel_connection_rejects_a_bad_basepoint(self, why, circuits):
        m = build_matroid(("a", "b", "c"), circuits)
        for left, right, p1, p2 in ((m, uniform(2, 3), "a", "e1"), (uniform(2, 3), m, "e1", "a")):
            with pytest.raises(BadBasepoint) as err:
                parallel_connection(left, right, p1, p2)
            assert (err.value.element, err.value.why) == ("a", why)

    def test_parallel_connection_of_four_circuits(self):
        p = parallel_connection(circuit(4), circuit(4), "e1", "e1")
        assert p.n == 7
        assert p.rank() == 5

    def test_two_sum_of_triangles_is_four_circuit(self):
        t = two_sum(uniform(2, 3), uniform(2, 3), "e1", "e1")
        assert t.n == 4
        assert t.rank() == 3
        assert circuits_set(t) == {frozenset(t.elements)}

    def test_two_sum_u24_pair(self):
        t = two_sum(
            uniform(2, 4, ("p", "a", "b", "c")), uniform(2, 4, ("p", "x", "y", "z")), "p", "p"
        )
        assert t.n == 6
        assert t.rank() == 3
        abc, xyz = frozenset("abc"), frozenset("xyz")
        want = {abc, xyz}
        for u in combinations("abc", 2):
            for v in combinations("xyz", 2):
                want.add(frozenset(u) | frozenset(v))
        assert circuits_set(t) == want

    def test_two_sum_needs_three_elements(self):
        with pytest.raises(TooSmall):
            two_sum(uniform(1, 2), uniform(2, 3), "e1", "e1")


class TestSimplifyComponents:
    def test_simplify_simple_fixed_point(self):
        assert U24.simplify() == U24

    def test_simplify_merges_parallel_pair(self):
        m = build_matroid("abcd", [("a", "b"), ("a", "c", "d"), ("b", "c", "d")])
        s = m.simplify()
        assert s.elements == ("a", "c", "d")
        assert circuits_set(s) == {frozenset("acd")}

    def test_simplify_drops_loops(self):
        m = build_matroid("a", [("a",)])
        assert m.simplify().n == 0

    def test_components_of_direct_sum(self):
        m = direct_sum(uniform(1, 2, ("a", "b")), uniform(2, 3, ("c", "d", "e")))
        assert m.components() == (frozenset("ab"), frozenset("cde"))
        assert not m.is_connected()

    def test_excluded_minor_connected(self):
        assert EM3.components() == (frozenset(EM3.elements),)
        assert EM3.is_connected()

    def test_free_matroid_components(self):
        m = uniform(3, 3)
        assert m.components() == tuple(frozenset({e}) for e in m.elements)


class TestCyclicFlats:
    def test_u24(self):
        assert set(U24.cyclic_flats()) == {frozenset(), frozenset("abcd")}

    def test_excluded_minor_cyclic_flats(self):
        assert set(EM3.cyclic_flats()) == {
            frozenset(),
            frozenset({"p", "1", "2"}),
            frozenset({"p", "3", "4"}),
            frozenset(EM3.elements),
        }

    def test_free(self):
        assert set(uniform(3, 3).cyclic_flats()) == {frozenset()}

    def test_matches_brute_force(self):
        for m in (EM3, fano(), direct_sum(uniform(1, 2), uniform(2, 3))):
            assert set(m.cyclic_flats()) == oracle.brute_cyclic_flats(
                m.elements, m.circuits
            )


class TestIsomorphism:
    def test_relabelled_triangle(self):
        assert is_isomorphic(circuit(3), uniform(2, 3, ("x", "y", "z")))

    def test_rank3_excluded_minor_is_deleted_k4(self):
        k4e = build_matroid(
            ("12", "13", "14", "23", "24"),
            [("12", "13", "23"), ("12", "14", "24"), ("13", "14", "23", "24")],
        )
        phi = is_isomorphic(EM3, k4e)
        assert phi is not None
        assert phi["p"] == "12"
        assert {frozenset(phi[x] for x in c) for c in EM3.circuits} == circuits_set(k4e)

    def test_rank_mismatch(self):
        assert is_isomorphic(uniform(2, 4), uniform(3, 4)) is None

    def test_agrees_with_brute_force(self):
        pairs = [
            (uniform(2, 4), uniform(2, 4, ("w", "x", "y", "z"))),
            (EM3, EM3.dual()),
            (uniform(2, 5), uniform(3, 5)),
            (direct_sum(uniform(1, 2), uniform(1, 2)), uniform(1, 2).truncate()),
        ]
        for m1, m2 in pairs:
            got = is_isomorphic(m1, m2)
            want = oracle.brute_isomorphism(
                m1.elements, m1.circuits, m2.elements, m2.circuits
            )
            assert (got is None) == (want is None)
            if got is not None:
                assert {
                    frozenset(got[x] for x in c) for c in m1.circuits
                } == circuits_set(m2)


def _sums(*ms):
    return functools.reduce(direct_sum, ms)


def _doubled(m, *elements):
    """m with one new element parallel to each of `elements`."""
    for e in elements:
        m = parallel_connection(m, uniform(1, 2, ("p", "q")), e, "p")
    return m


class TestHasMinor:
    def test_u36_has_u24(self):
        w = has_minor(uniform(3, 6), uniform(2, 4))
        assert w is not None
        assert apply_witness(uniform(3, 6), w, uniform(2, 4))

    def test_rank4_excluded_minor_has_u24(self):
        w = has_minor(excluded_minor(4), uniform(2, 4))
        assert w is not None
        assert apply_witness(excluded_minor(4), w, uniform(2, 4))

    def test_too_small(self):
        assert has_minor(uniform(2, 4), EM3) is None

    def test_self_minor_identity(self):
        w = has_minor(EM3, EM3)
        assert w is not None
        assert w.delete == frozenset() and w.contract == frozenset()

    def test_agrees_with_brute_force(self):
        cases = [
            (uniform(2, 5), uniform(2, 4), True),
            (uniform(3, 5), uniform(2, 4), True),
            (EM3, uniform(2, 4), False),
            (fano(), EM3, True),
            (uniform(3, 6), EM3, False),
            (direct_sum(uniform(2, 3), uniform(2, 3)).truncate(), EM3, False),
        ]
        for m, target, expect in cases:
            w = has_minor(m, target)
            assert (w is not None) == expect
            assert expect == oracle.brute_has_minor(
                m.elements, m.circuits, target.elements, target.circuits
            )
            if w is not None:
                assert apply_witness(m, w, target)

    def test_malformed_witness_does_not_replay(self):
        w = has_minor(uniform(3, 6), uniform(2, 4))
        foreign = MinorWitness(w.delete | {"x"}, w.contract, w.mapping)
        overlap = MinorWitness(w.delete | w.contract, w.contract, w.mapping)
        assert w.contract
        for bad in (foreign, overlap):
            assert apply_witness(uniform(3, 6), bad, uniform(2, 4)) is False

    def test_truncated_mapping_does_not_replay(self):
        w = has_minor(uniform(3, 6), uniform(2, 4))
        truncated = MinorWitness(w.delete, w.contract, w.mapping[:-1])
        assert apply_witness(uniform(3, 6), truncated, uniform(2, 4)) is False

    def test_witness_against_the_wrong_target_does_not_replay(self):
        w = has_minor(EM3, EM3)
        assert apply_witness(EM3, w, EM3)
        assert apply_witness(EM3, w, uniform(2, 5)) is False

    def test_same_witness_as_the_reference_loop(self):
        """The witness is the reference loop's, whose contractions take
        minimal sets of the C - T instead of reading the dependent sets."""
        hosts = full_corpus(random.Random(7), 300, n_cap=10)
        hosts += [excluded_minor(r) for r in range(3, 7)]
        hosts += [
            direct_sum(EM3, uniform(2, 4)),
            direct_sum(excluded_minor(4), uniform(2, 3)),
            fano(),
            fano_dual(),
        ]
        targets = [uniform(2, 4), uniform(2, 5), uniform(3, 5), EM3, excluded_minor(4)]
        hits = 0
        for m in hosts:
            for target in targets:
                want = oracle.reference_find_minor(
                    m.n, list(m._masks), m.rank(),
                    target.n, list(target._masks), target.rank(),
                )
                w = has_minor(m, target)
                assert (w is None) == (want is None)
                if w is None:
                    continue
                hits += 1
                dm, tm, perm = want
                kept = m.ground.tuple_of(m.ground.full_mask & ~dm & ~tm)
                assert w.delete == m.ground.set_of(dm)
                assert w.contract == m.ground.set_of(tm)
                assert w.mapping == tuple(
                    (kept[i], target.elements[j]) for i, j in enumerate(perm)
                )
        assert hits == 237

    def test_pruned_search_matches_the_reference_loop_at_the_hard_cap(self):
        """At n = 13-16 the pruned search and the block test answer with the
        reference loop's witness, or both miss: on hosts with coloops, with
        loops, with parallel classes, with several blocks, and on connected
        simple hosts, against simple connected targets, against targets with
        a coloop, and against U(1,2) and U(2,4) + U(2,4), which are not
        simple and not connected and so switch the block test off."""
        loops = uniform(0, 2, ("l1", "l2"))
        em6 = excluded_minor(6)
        u24, u12, em3 = uniform(2, 4), uniform(1, 2), EM3
        classes = _sums(*[uniform(1, 4)] * 3, free(2), loops)
        cases = [
            (_sums(em6, free(2)), [u24, uniform(3, 5), em3, _sums(u24, u24), _sums(u24, free(1))]),
            (_sums(em6, loops), [u24, uniform(2, 5), em3, u12, _sums(u24, u24)]),
            (_sums(uniform(4, 8), u24, loops, free(2)), [u24, em3, u12, _sums(u24, u24)]),
            (_doubled(uniform(4, 12), "e1"), [u24, uniform(2, 5), em3, u12, _sums(u24, u24)]),
            (classes, [u24, u12, _sums(u12, free(1))]),
            (_sums(*[uniform(2, 3)] * 5, free(1)), [u24, uniform(3, 5), em3, u12, _sums(u24, u24)]),
            (_sums(excluded_minor(4), excluded_minor(4)), [uniform(2, 5), em3, _sums(u24, u24)]),
            (uniform(3, 13), [u24, uniform(3, 5), em3, u12, _sums(u24, u24)]),
            (excluded_minor(7), [u24, uniform(2, 5), uniform(3, 5), u12]),
            (empty(), [empty()]),
        ]
        verdicts = Counter()
        for m, targets in cases:
            assert m.n in (0, 13, 14, 15, 16)
            for target in targets:
                want = oracle.reference_find_minor(
                    m.n, list(m._masks), m.rank(),
                    target.n, list(target._masks), target.rank(),
                )
                if want is not None:
                    dm, tm, perm = want
                    kept = m.ground.tuple_of(m.ground.full_mask & ~dm & ~tm)
                    want = MinorWitness(
                        m.ground.set_of(dm), m.ground.set_of(tm),
                        tuple((kept[i], target.elements[j]) for i, j in enumerate(perm)),
                    )
                assert has_minor(m, target) == want
                verdicts[want is not None] += 1
        assert verdicts == {True: 25, False: 15}

    @pytest.mark.parametrize(
        "host, target, kernel, bound, hit",
        [
            (direct_sum(uniform(7, 15), free(1)), uniform(2, 4), "minor_circuits", 1, True),
            (direct_sum(uniform(7, 15), free(1)), uniform(2, 5), "minor_circuits", 1, True),
            (direct_sum(uniform(7, 15), free(1)), uniform(3, 5), "minor_circuits", 1, True),
            (direct_sum(excluded_minor(4), uniform(4, 9)), EM3, "compress", 0, False),
            (direct_sum(uniform(2, 3), uniform(2, 3)), uniform(2, 4), "find_minor", 0, False),
            (_doubled(uniform(2, 3), "e1", "e2", "e3"), uniform(2, 4), "find_minor", 0, False),
            (direct_sum(uniform(2, 6), uniform(2, 6)), uniform(3, 5), "find_minor", 0, False),
            (direct_sum(circuit(5), circuit(5)), EM3, "find_minor", 0, False),
        ],
        ids=[
            "u715+coloop-u24", "u715+coloop-u25", "u715+coloop-u35", "em4+u49-em3",
            "u23+u23-u24", "doubled-u23-u24", "u26+u26-u35", "u45+u45-em3",
        ],
    )
    def test_search_effort(self, monkeypatch, host, target, kernel, bound, hit):
        """Kernel calls per search, pinned because time cannot be: with the
        host's coloop forced into T the first T hits, and every T of em(4) +
        U(4,9) leaves fewer circuits of some size than em(3) has.  The
        block test answers the rest, where each block's simplification is
        too small, of too low a rank or of too low a corank for the
        target.  The unpruned loop made 5 006, 5 006 and 3 004
        minor_circuits calls, 438 480 compress calls and one find_minor
        call per search."""
        calls = Counter()
        for name in ("minor_circuits", "compress", "find_minor"):
            real = getattr(K, name)
            counted = lambda *a, _real=real, _name=name: calls.update([_name]) or _real(*a)
            monkeypatch.setattr(K, name, counted)
        assert (has_minor(host, target) is not None) == hit
        assert calls[kernel] <= bound
