"""Capacity presentations: oracle, canonical form, native operations."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from _corpus import inflate, random_laminar_presentation
from laminarmatroids import (
    CanonicalPresentation,
    DuplicateElement,
    EmptyMemberSet,
    ForeignElement,
    GroundSet,
    LaminarPresentation,
    LoopBase,
    MatroidError,
    NegativeCapacity,
    NotCanonical,
    NotLaminar,
    RankZero,
    TooLarge,
    binary_component,
    canonical_from_matroid,
    canonicalize,
    circuit,
    direct_sum,
    excluded_minor,
    uniform,
)

GROUND4 = ("a", "b", "c", "d")
CHAIN = LaminarPresentation(GROUND4, {frozenset("ab"): 1, frozenset("abcd"): 2})


def members_with_caps(p):
    return {a: p.capacity(a) for a in p.members}


class TestValidation:
    def test_chain_ok(self):
        assert members_with_caps(CHAIN) == {frozenset("ab"): 1, frozenset("abcd"): 2}

    def test_crossing_pair_rejected(self):
        with pytest.raises(NotLaminar) as e:
            LaminarPresentation("abc", {frozenset("ab"): 1, frozenset("bc"): 1})
        assert {e.value.first, e.value.second} == {frozenset("ab"), frozenset("bc")}

    def test_empty_family_is_free(self):
        p = LaminarPresentation("ab", {})
        assert p.rank() == 2
        assert p.to_explicit().circuits == ()

    def test_negative_capacity(self):
        with pytest.raises(NegativeCapacity):
            LaminarPresentation("ab", {frozenset("a"): -1})

    def test_empty_member(self):
        with pytest.raises(EmptyMemberSet):
            LaminarPresentation("ab", {frozenset(): 1})

    def test_duplicates_collapse_to_min(self):
        p = LaminarPresentation("abc", [(("a", "b"), 2), (("b", "a"), 1)])
        assert members_with_caps(p) == {frozenset("ab"): 1}


class TestFamilyForest:
    NESTED = LaminarPresentation(
        "abcdef", {frozenset("ab"): 1, frozenset("cd"): 1, frozenset("abcde"): 2}
    )

    def test_children_free_part_b_value(self):
        whole = frozenset("abcde")
        assert self.NESTED.children_of(whole) == (frozenset("ab"), frozenset("cd"))
        assert self.NESTED.free_part(whole) == frozenset("e")
        assert self.NESTED.b_value(whole) == 3
        assert self.NESTED.children_of(frozenset("ab")) == ()
        assert self.NESTED.b_value(frozenset("ab")) == 2

    def test_non_member_raises_matroid_error(self):
        p = self.NESTED
        for query in (p.capacity, p.children_of, p.free_part, p.b_value):
            with pytest.raises(MatroidError):
                query(frozenset("abc"))


def forest_sample(seed):
    """Random presentations, each followed by an inflated copy."""
    rng = random.Random(seed)
    out = []
    for _ in range(80):
        p = random_laminar_presentation(rng, n_max=7)
        out += [p, inflate(rng, p)[0]]
    return out


class TestRankDP:
    """The slot ranks and the circuit tops read off them, against brute
    force on random presentations, inflated ones included."""

    def test_slot_ranks_are_member_ranks(self):
        """f[i] is the rank of x inside member i under the capacities of
        member i and the members below it."""
        rng = random.Random(12)
        for p in forest_sample(10):
            caps = members_with_caps(p)
            x = p.ground.set_of(rng.getrandbits(p.n))
            for within in (p.elements, x):
                want = [
                    oracle.brute_rank(
                        oracle.laminar_independent((b, c) for b, c in caps.items() if b <= a),
                        a & frozenset(within),
                    )
                    for a in p.members
                ]
                assert p._slot_ranks(p.ground.mask_of(within)) == want

    def test_circuit_tops_are_least_overfilled_members(self):
        for p in forest_sample(11):
            caps = members_with_caps(p)
            ind = oracle.laminar_independent(caps.items())
            least = set()
            for c in oracle.brute_circuits(p.elements, ind):
                over = [a for a, k in caps.items() if len(c & a) > k]
                a = min(over, key=len)
                least.add((a, caps[a]))
            tops = list(p._circuit_tops(p._slot_ranks(p.ground.full_mask)))
            assert {(p.members[i], c) for i, c, _ in tops} == least
            # the closure slot: the highest ancestor of capacity c, or i
            for i, c, closure in tops:
                want, j = i, p._parents[i]
                while j >= 0:
                    if p._caps[j] == c:
                        want = j
                    j = p._parents[j]
                assert closure == want

    def test_forest_record_matches_its_definitions(self):
        """Each free part is the member minus its children, the roots are
        the members inside no other, and the loops are the union of the
        capacity-0 members."""
        for p in forest_sample(13):
            masks = p._masks
            free = []
            for a, kids in zip(masks, p._kids):
                for k in kids:
                    a &= ~masks[k]
                free.append(a)
            assert p._free == tuple(free)
            roots = [i for i, a in enumerate(masks) if not any(b != a and a & b == a for b in masks)]
            assert p._roots == tuple(roots)
            loops = 0
            for a, c in zip(masks, p._caps):
                if c == 0:
                    loops |= a
            assert p._loops == loops

    def test_order_is_the_preorder_of_the_forest(self):
        """Parents before children, siblings in slot order: sorting the
        slots by their root-to-slot paths gives the same order."""
        for p in forest_sample(14):
            paths = []
            for i in range(len(p._masks)):
                path = [i]
                while p._parents[path[-1]] >= 0:
                    path.append(p._parents[path[-1]])
                paths.append(path[::-1])
            assert p._order == tuple(path[-1] for path in sorted(paths))


class TestIndependenceAndRank:
    def test_examples(self):
        assert CHAIN.is_independent(("a", "c"))
        assert not CHAIN.is_independent(("a", "b"))
        assert not CHAIN.is_independent(("a", "c", "d"))

    def test_rank_examples(self):
        assert CHAIN.rank() == 2
        assert CHAIN.rank(("a", "b")) == 1
        assert CHAIN.rank(()) == 0

    def test_rank_matches_brute_force(self):
        rng = random.Random(1)
        for _ in range(60):
            p = random_laminar_presentation(rng, n_max=7)
            ind = oracle.laminar_independent(members_with_caps(p).items())
            for s in oracle.subsets(p.elements):
                assert p.rank(s) == oracle.brute_rank(ind, s)

    def test_independence_agrees_with_explicit(self):
        rng = random.Random(2)
        for _ in range(40):
            p = random_laminar_presentation(rng, n_max=8)
            m = p.to_explicit()
            for s in oracle.subsets(p.elements):
                assert p.is_independent(s) == m.is_independent(s)


class TestToExplicit:
    def test_chain_circuits(self):
        assert {frozenset(c) for c in CHAIN.to_explicit().circuits} == {
            frozenset("ab"),
            frozenset("acd"),
            frozenset("bcd"),
        }

    def test_single_cap_is_uniform(self):
        p = LaminarPresentation(GROUND4, {frozenset(GROUND4): 2})
        assert p.to_explicit() == uniform(2, 4, GROUND4)

    def test_circuits_match_brute_force(self):
        rng = random.Random(3)
        for _ in range(40):
            p = random_laminar_presentation(rng, n_max=7)
            ind = oracle.laminar_independent(members_with_caps(p).items())
            want = oracle.brute_circuits(p.elements, ind)
            assert {frozenset(c) for c in p.to_explicit().circuits} == want


class TestCanonicalize:
    def test_prunes_inner_copy(self):
        p = LaminarPresentation(
            GROUND4,
            {frozenset("ab"): 1, frozenset("abc"): 2, frozenset("abcd"): 2},
        )
        c = canonicalize(p)
        assert members_with_caps(c) == {frozenset("ab"): 1, frozenset("abcd"): 2}

    def test_uniform_unchanged(self):
        c = canonicalize(LaminarPresentation(GROUND4, {frozenset(GROUND4): 2}))
        assert members_with_caps(c) == {frozenset(GROUND4): 2}

    def test_loops_go_to_their_own_member(self):
        c = canonicalize(
            LaminarPresentation("abc", {frozenset("a"): 0, frozenset("bc"): 1})
        )
        assert c.loop_set == frozenset("a")
        assert members_with_caps(c) == {frozenset("a"): 0, frozenset("bc"): 1}

    @pytest.mark.parametrize(
        "chain, want",
        [
            ({"ab": 1, "abc": 1, "abcde": 2}, {"abc": 1, "abcde": 2}),
            ({"ab": 1, "abc": 1, "abcd": 1, "abcdef": 2}, {"abcd": 1, "abcdef": 2}),
            ({"ab": 1, "abc": 1, "abcd": 2, "abcdef": 2}, {"abc": 1, "abcdef": 2}),
            ({"ab": 1, "abc": 2, "abcd": 1, "abcde": 3}, {"abcd": 1}),
        ],
    )
    def test_closure_is_the_highest_ancestor_of_equal_capacity(self, chain, want):
        """A top's closure climbs to the highest ancestor with its
        capacity, past nearer ones and past larger capacities between."""
        p = LaminarPresentation(max(chain, key=len), {frozenset(a): c for a, c in chain.items()})
        c = canonicalize(p)
        assert members_with_caps(c) == {frozenset(a): k for a, k in want.items()}
        from_circuits = canonical_from_matroid(p.to_explicit())
        assert c == from_circuits
        assert c.evidence == from_circuits.evidence
        assert c.evidence == oracle.closure_evidence(p.to_explicit())

    def test_idempotent(self):
        rng = random.Random(4)
        for _ in range(60):
            c1 = canonicalize(random_laminar_presentation(rng))
            c2 = canonicalize(c1)
            assert members_with_caps(c1) == members_with_caps(c2)

    def test_unique_across_presentations_of_same_matroid(self):
        rng = random.Random(5)
        for _ in range(60):
            p = random_laminar_presentation(rng)
            q, _ = inflate(rng, p)
            assert members_with_caps(canonicalize(p)) == members_with_caps(
                canonicalize(q)
            )

    def test_evidence_circuits_generate_members(self):
        c = canonical_from_matroid(direct_sum(uniform(1, 2), uniform(2, 3)))
        m = direct_sum(uniform(1, 2), uniform(2, 3))
        for member in c.members:
            ev = c.evidence[member]
            assert frozenset(ev) in {frozenset(x) for x in m.circuits}
            assert m.closure(ev) | c.loop_set >= member


class TestCanonicalConstructor:
    """CanonicalPresentation(ground, caps) accepts only canonical
    families; the loop set and evidence are read off the family."""

    @pytest.mark.parametrize(
        "ground, family",
        [
            ("ab", {"a": 1, "ab": 0}),
            ("abc", {"abc": 5}),
            ("abc", {"ab": 1, "abc": 1}),
        ],
    )
    def test_rejects_non_canonical_families(self, ground, family):
        with pytest.raises(NotCanonical):
            CanonicalPresentation(ground, {frozenset(a): c for a, c in family.items()})

    def test_loop_set_and_evidence_are_derived(self):
        family = {frozenset("af"): 0, frozenset("bc"): 1, frozenset("bcde"): 2}
        c = CanonicalPresentation("abcdef", family)
        assert CanonicalPresentation.__slots__ == ()
        assert c == canonicalize(LaminarPresentation("abcdef", family))
        assert c.loop_set == frozenset("af")
        assert c.evidence == {
            frozenset("af"): frozenset("a"),
            frozenset("bc"): frozenset("bc"),
            frozenset("bcde"): frozenset("bde"),
        }
        assert c.evidence == oracle.closure_evidence(c.to_explicit())
        for name in ("loop_set", "evidence"):
            with pytest.raises(AttributeError):
                setattr(c, name, None)

    def test_random_families_build_exactly_when_canonical(self):
        """A family builds exactly when it is the canonical form read off
        its circuits, and a built one has the oracle's evidence."""
        rng = random.Random(15)
        for _ in range(200):
            p = random_laminar_presentation(rng, n_max=7)
            want = canonical_from_matroid(p.to_explicit())
            for q in (p, want):
                if q != want:
                    with pytest.raises(NotCanonical):
                        CanonicalPresentation(q.elements, members_with_caps(q))
                    continue
                c = CanonicalPresentation(q.elements, members_with_caps(q))
                assert c == want
                assert c.evidence == oracle.closure_evidence(c.to_explicit())


class TestDeleteContract:
    def test_delete_examples(self):
        d = CHAIN.delete("a")
        assert members_with_caps(d) == {frozenset("b"): 1, frozenset("bcd"): 2}
        assert d.to_explicit() == CHAIN.to_explicit().minor(delete=("a",))

    def test_delete_collapses_to_min_capacity(self):
        p = LaminarPresentation("abc", {frozenset("ab"): 1, frozenset("abc"): 2})
        d = p.delete("c")
        assert members_with_caps(d) == {frozenset("ab"): 1}

    def test_delete_untouched_family(self):
        p = LaminarPresentation("abc", {frozenset("ab"): 1})
        assert members_with_caps(p.delete("c")) == {frozenset("ab"): 1}

    def test_contract_examples(self):
        c = CHAIN.contract("a")
        assert members_with_caps(c) == {frozenset("b"): 0, frozenset("bcd"): 1}
        assert c.to_explicit() == CHAIN.to_explicit().minor(contract=("a",))

    def test_contract_free_element(self):
        p = LaminarPresentation("abc", {})
        assert p.contract("a").to_explicit() == uniform(2, 2, ("b", "c"))

    def test_contract_loop_is_delete(self):
        p = LaminarPresentation("abc", {frozenset("a"): 0, frozenset("bc"): 1})
        assert members_with_caps(p.contract("a")) == members_with_caps(p.delete("a"))

    def test_all_minors_match_explicit(self):
        rng = random.Random(6)
        for _ in range(40):
            p = random_laminar_presentation(rng, n_max=7)
            m = p.to_explicit()
            for e in p.elements:
                assert p.delete(e).to_explicit() == m.minor(delete=(e,))
                assert p.contract(e).to_explicit() == m.minor(contract=(e,))


class TestSumsTruncateColoop:
    def test_direct_sum_family(self):
        a = LaminarPresentation("ab", {frozenset("ab"): 1})
        b = LaminarPresentation("cd", {frozenset("cd"): 1})
        s = a.direct_sum(b)
        assert members_with_caps(s) == {frozenset("ab"): 1, frozenset("cd"): 1}

    def test_direct_sum_commutes_with_to_explicit(self):
        rng = random.Random(7)
        for _ in range(25):
            a = random_laminar_presentation(rng, n_max=4)
            b = random_laminar_presentation(rng, n_max=4)
            lhs = a.direct_sum(b).to_explicit()
            rhs = direct_sum(a.to_explicit(), b.to_explicit())
            assert lhs == rhs

    def test_truncate_uniform(self):
        p = LaminarPresentation("abc", {frozenset("abc"): 3})
        assert p.truncate().to_explicit() == uniform(2, 3, tuple("abc"))

    def test_truncate_double_triangle_adds_root(self):
        p = LaminarPresentation(
            "abcxyz", {frozenset("abc"): 2, frozenset("xyz"): 2}
        )
        t = p.truncate()
        assert members_with_caps(t)[frozenset("abcxyz")] == 3
        assert t.to_explicit() == p.to_explicit().truncate()

    def test_truncate_u24_canonicalizes_to_rank_one(self):
        t = LaminarPresentation(GROUND4, {frozenset(GROUND4): 2}).truncate()
        assert members_with_caps(canonicalize(t)) == {frozenset(GROUND4): 1}

    def test_truncate_rank_zero_raises(self):
        with pytest.raises(RankZero):
            LaminarPresentation("a", {frozenset("a"): 0}).truncate()

    def test_truncations_match_explicit(self):
        rng = random.Random(8)
        for _ in range(40):
            p = random_laminar_presentation(rng, n_max=7)
            if p.rank() == 0:
                continue
            assert p.truncate().to_explicit() == p.to_explicit().truncate()

    def test_coloops_from_empty(self):
        p = LaminarPresentation((), {})
        for e in ("a", "b", "c"):
            r = p.rank()
            p = p.add_coloop(e)
            assert p.rank() == r + 1
        assert p.to_explicit() == uniform(3, 3, ("a", "b", "c"))

    def test_coloop_duplicate_rejected(self):
        with pytest.raises(DuplicateElement):
            CHAIN.add_coloop("a")


class TestParallelExtend:
    def test_extend_triangle(self):
        c = canonical_from_matroid(circuit(3, ("a", "b", "c")))
        p = c.parallel_extend("a", "d")
        assert members_with_caps(p) == {
            frozenset("ad"): 1,
            frozenset("abcd"): 2,
        }
        assert {frozenset(x) for x in p.to_explicit().circuits} == {
            frozenset("ad"),
            frozenset("abc"),
            frozenset("dbc"),
        }

    def test_extend_twice_grows_parallel_class(self):
        c = canonical_from_matroid(circuit(3, ("a", "b", "c")))
        p = canonicalize(c.parallel_extend("a", "d"))
        q = p.parallel_extend("a", "g")
        caps = members_with_caps(q)
        assert caps[frozenset("adg")] == 1
        assert sum(1 for v in caps.values() if v == 1) == 1

    def test_restriction_recovers_original(self):
        c = canonical_from_matroid(circuit(3, ("a", "b", "c")))
        p = c.parallel_extend("a", "d")
        assert p.delete("d").to_explicit() == circuit(3, ("a", "b", "c"))

    def test_foreign_and_loop_bases(self):
        c = canonical_from_matroid(circuit(3, ("a", "b", "c")))
        with pytest.raises(ForeignElement):
            c.parallel_extend("z", "d")
        with pytest.raises(DuplicateElement):
            c.parallel_extend("a", "b")
        loopy = canonical_from_matroid(
            LaminarPresentation("ab", {frozenset("a"): 0}).to_explicit()
        )
        with pytest.raises(LoopBase):
            loopy.parallel_extend("a", "c")


    def test_the_clone_is_its_own_canonical_form(self):
        # each clone is cloned again, so both branches run: a new
        # parallel pair, and a capacity-1 member that grows
        rng = random.Random(1)
        clones = grown = 0
        for _ in range(500):
            c = canonicalize(random_laminar_presentation(rng, n_max=9))
            for e in sorted(set(c.elements) - c.loop_set):
                q = c.parallel_extend(e, "f")
                r = q.parallel_extend("f", "g")
                for before, after in ((c, q), (q, r)):
                    assert isinstance(after, CanonicalPresentation)
                    assert canonicalize(after) == after
                    grown += len(after.members) == len(before.members)
                clones += 2
        assert (clones, grown) == (3826, 2294)

    def test_binary_component_matches_the_recanonicalizing_loop(self):
        def rebuilt(n, plan):
            pres = canonical_from_matroid(circuit(n))
            for k, b in enumerate(plan, n + 1):
                pres = canonicalize(pres.parallel_extend(b, f"e{k}"))
            return pres.to_explicit()

        for n in range(1, 6):
            base = [f"e{i}" for i in range(1, n + 1)]
            for size in range(4):
                for plan in product(base, repeat=size):
                    if n == 1 and plan:
                        # circuit(1) is a loop, which has no parallel clone
                        with pytest.raises(LoopBase):
                            binary_component(n, plan)
                        with pytest.raises(LoopBase):
                            rebuilt(n, plan)
                        continue
                    assert binary_component(n, plan) == rebuilt(n, plan)


class TestMaxWeight:
    def test_worked_example(self):
        sol = CHAIN.max_weight_independent({"a": 5, "b": 4, "c": 3, "d": 1})
        assert sol == frozenset("ac")

    def test_zero_weights_take_nothing(self):
        assert CHAIN.max_weight_independent({e: 0 for e in GROUND4}) == frozenset()

    def test_single_cap(self):
        p = LaminarPresentation("xy", {frozenset("xy"): 1})
        assert p.max_weight_independent({"x": 2, "y": 1}) == frozenset("x")

    def test_fractions(self):
        p = LaminarPresentation("xy", {frozenset("xy"): 1})
        w = {"x": Fraction(1, 3), "y": Fraction(1, 2)}
        assert p.max_weight_independent(w) == frozenset("y")

    def test_ties_give_the_greedy_set(self):
        assert CHAIN.max_weight_independent({e: 1 for e in GROUND4}) == frozenset("ac")
        rng = random.Random(13)
        for p in forest_sample(14):
            kept = rng.sample(p.elements, rng.randint(0, p.n))
            weights = {e: rng.choice((-1, 0, 1, 2, 2, 3)) for e in kept}
            ind = oracle.laminar_independent(members_with_caps(p).items())
            # decreasing weight, identifier order on ties, positive weights only
            want = set()
            for e in sorted(p.elements, key=lambda e: (-weights.get(e, 0), p.elements.index(e))):
                if weights.get(e, 0) <= 0:
                    break
                if ind(want | {e}):
                    want.add(e)
            assert p.max_weight_independent(weights) == want

    def test_matches_brute_force(self):
        rng = random.Random(9)
        for _ in range(60):
            p = random_laminar_presentation(rng, n_max=7)
            weights = {e: rng.randint(-2, 6) for e in p.elements}
            sol = p.max_weight_independent(weights)
            assert p.is_independent(sol)
            got = sum(Fraction(weights[e]) for e in sol) if sol else Fraction(0)
            ind = oracle.laminar_independent(members_with_caps(p).items())
            assert got == oracle.brute_max_weight(p.elements, ind, weights)


class TestMaskBuilders:
    """The builders work on member masks; each result equals the
    presentation the public constructor builds from the same member name
    sets, written out here from the operation's definition."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_minors_coloop_truncate_and_sum(self, seed):
        rng = random.Random(seed)
        p = random_laminar_presentation(rng, n_max=8)
        items = list(members_with_caps(p).items())
        for e in p.elements:
            rest = [x for x in p.elements if x != e]
            cut = [(a - {e}, c) for a, c in items if a - {e}]
            assert p.delete(e) == LaminarPresentation(rest, cut)
            drop = p.rank({e})
            cut = [(a - {e}, c - drop if e in a else c) for a, c in items if a - {e}]
            assert p.contract(e) == LaminarPresentation(rest, cut)
        assert p.add_coloop("z") == LaminarPresentation(p.elements + ("z",), items)
        r, full = p.rank(), frozenset(p.elements)
        if r:
            want = {a: min(c, r - 1) if a == full else c for a, c in items}
            want.setdefault(full, r - 1)
            assert p.truncate() == LaminarPresentation(p.elements, want)
        q = random_laminar_presentation(rng, n_max=6)
        s = p.direct_sum(q)
        assert s.elements[: p.n] == p.elements
        rename = dict(zip(q.elements, s.elements[p.n :]))
        right = [(frozenset(rename[x] for x in a), c) for a, c in members_with_caps(q).items()]
        assert s == LaminarPresentation(s.elements, items + right)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_canonical_parallel_extend(self, seed):
        rng = random.Random(seed)
        c = canonicalize(random_laminar_presentation(rng, n_max=8))
        items = list(members_with_caps(c).items())
        assert c == CanonicalPresentation(c.elements, items)
        for e in sorted(set(c.elements) - c.loop_set):
            want = [(a | {"f"} if e in a else a, cap) for a, cap in items]
            if not any(e in a and cap == 1 for a, cap in items):
                want.append((frozenset((e, "f")), 1))
            assert c.parallel_extend(e, "f") == LaminarPresentation(c.elements + ("f",), want)

    def test_crossing_masks_raise_not_laminar(self):
        with pytest.raises(NotLaminar):
            LaminarPresentation._from_masks(GroundSet("abc"), [(0b011, 1), (0b110, 1)])
        with pytest.raises(NotLaminar):
            canonical_from_matroid(excluded_minor(3))

    def test_builders_past_the_hard_cap_raise_too_large(self):
        p = LaminarPresentation([f"e{i}" for i in range(16)], {})
        with pytest.raises(TooLarge):
            p.add_coloop("x")
        with pytest.raises(TooLarge):
            p.direct_sum(LaminarPresentation("a", {}))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_presentation_properties(seed):
    rng = random.Random(seed)
    p = random_laminar_presentation(rng, n_max=6)
    m = p.to_explicit()
    assert oracle.elimination_holds(m.circuits)
    for s in oracle.subsets(p.elements):
        assert p.is_independent(s) == m.is_independent(s)
    c1 = canonicalize(p)
    assert members_with_caps(canonicalize(c1)) == members_with_caps(c1)
    assert c1.to_explicit() == m
    assert isinstance(c1, CanonicalPresentation)
