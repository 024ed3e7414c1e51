"""Named builders and the construction calculus."""

from __future__ import annotations

import random

import pytest

import _oracles as oracle
from _corpus import random_script
from laminarmatroids import (
    BadParams,
    ConstructionScript,
    EmptyMemberSet,
    NotAChain,
    NotCanonical,
    UndefinedName,
    binary_component,
    canonical_from_matroid,
    circuit,
    deconstruct,
    direct_sum,
    empty,
    excluded_minor,
    fano,
    fano_dual,
    free,
    is_isomorphic,
    is_laminar,
    is_nested,
    nested_from_chain,
    run_script,
    standard_matroid,
    ternary_component,
    two_sum,
    uniform,
)
from laminarmatroids.matroid import has_minor


def circuits_set(m):
    return {frozenset(c) for c in m.circuits}


def same_labeled(m1, m2):
    return set(m1.elements) == set(m2.elements) and circuits_set(m1) == circuits_set(m2)


class TestNamedBuilders:
    def test_uniform(self):
        m = uniform(2, 4)
        assert len(m.circuits) == 4
        assert all(len(c) == 3 for c in m.circuits)

    def test_circuit_is_uniform(self):
        assert is_isomorphic(circuit(3), uniform(2, 3))

    def test_free_and_empty(self):
        assert free(3).circuits == ()
        assert empty().n == 0

    def test_fano_shape(self):
        f = fano()
        assert f.n == 7 and f.rank() == 3
        assert len(f.circuits) == 14
        assert oracle.elimination_holds(f.circuits)

    def test_fano_dual_is_dual(self):
        assert is_isomorphic(fano().dual(), fano_dual())

    def test_bad_uniform_params(self):
        with pytest.raises(BadParams):
            uniform(3, 2)
        with pytest.raises(BadParams):
            uniform(-1, 2)

    def test_standard_dispatcher(self):
        assert standard_matroid("uniform", 2, 4) == uniform(2, 4)
        assert standard_matroid("fano") == fano()
        with pytest.raises(BadParams):
            standard_matroid("petersen")


class TestExcludedMinorFamily:
    def test_rank3_circuits(self):
        em3 = excluded_minor(3)
        assert em3.elements == ("p", "1", "2", "3", "4")
        assert circuits_set(em3) == {
            frozenset({"p", "1", "2"}),
            frozenset({"p", "3", "4"}),
            frozenset({"1", "2", "3", "4"}),
        }

    def test_rank3_is_deleted_k4(self):
        from laminarmatroids import build_matroid

        k4e = build_matroid(
            ("12", "13", "14", "23", "24"),
            [("12", "13", "23"), ("12", "14", "24"), ("13", "14", "23", "24")],
        )
        assert is_isomorphic(excluded_minor(3), k4e)

    def test_two_nonspanning_circuits(self):
        for r in (3, 4, 5):
            y = excluded_minor(r)
            non_spanning = [c for c in y.circuits if len(c) <= y.rank()]
            assert len(non_spanning) == 2
            assert y.rank() == r

    def test_deletion_of_tip_is_uniform(self):
        for r in (3, 4, 5):
            y = excluded_minor(r)
            assert is_isomorphic(y.minor(delete=("p",)), uniform(r, 2 * r - 2))

    def test_too_small(self):
        with pytest.raises(BadParams):
            excluded_minor(2)


class TestNestedFromChain:
    def test_single_link_makes_outside_loops(self):
        p = nested_from_chain("abc", [("a", "b")])
        assert {a: p.capacity(a) for a in p.members} == {
            frozenset("ab"): 1,
            frozenset("c"): 0,
        }
        m = p.to_explicit()
        assert m.loops() == frozenset("c")
        assert m.rank() == 1

    def test_two_link_chain(self):
        p = nested_from_chain("abcd", [("a",), ("a", "b", "c", "d")])
        assert p.rank() == 2
        assert p.to_explicit().rank() == 2

    def test_outputs_are_nested(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(1, 7)
            ground = tuple(f"e{i + 1}" for i in range(n))
            chain, pool = [], []
            for e in ground:
                pool.append(e)
                if rng.random() < 0.4:
                    chain.append(tuple(pool))
            if not chain or not chain[0]:
                continue
            m = nested_from_chain(ground, chain).to_explicit()
            assert is_nested(m).nested
            assert is_laminar(m)

    def test_not_a_chain(self):
        with pytest.raises(NotAChain):
            nested_from_chain("abc", [("a", "b"), ("b", "c")])
        with pytest.raises(EmptyMemberSet):
            nested_from_chain("abc", [()])


class TestRunScript:
    def test_triangle_script(self):
        s = ConstructionScript(
            steps=(
                ("empty", "m0"),
                ("coloop", "m1", "m0", "a"),
                ("coloop", "m2", "m1", "b"),
                ("coloop", "m3", "m2", "c"),
                ("truncate", "m4", "m3"),
            ),
            result="m4",
        )
        assert run_script(s).to_explicit() == uniform(2, 3, ("a", "b", "c"))

    def test_dsum_then_truncate(self):
        def pair(prefix):
            return (
                ("empty", f"{prefix}0"),
                ("coloop", f"{prefix}1", f"{prefix}0", f"{prefix}a"),
                ("coloop", f"{prefix}2", f"{prefix}1", f"{prefix}b"),
                ("truncate", f"{prefix}3", f"{prefix}2"),
            )

        s = ConstructionScript(
            steps=pair("x") + pair("y") + (("dsum", "z", "x3", "y3"),),
            result="z",
        )
        m = run_script(s).to_explicit()
        assert same_labeled(
            m,
            direct_sum(uniform(1, 2, ("xa", "xb")), uniform(1, 2, ("ya", "yb"))),
        )
        t = ConstructionScript(
            steps=s.steps + (("truncate", "w", "z"),), result="w"
        )
        assert run_script(t).to_explicit().rank() == 1
        assert same_labeled(
            run_script(t).to_explicit(),
            uniform(1, 4, ("xa", "xb", "ya", "yb")),
        )

    def test_undefined_name(self):
        s = ConstructionScript(steps=(("truncate", "b", "a"),), result="b")
        with pytest.raises(UndefinedName):
            run_script(s)

    def test_names_are_consumed(self):
        s = ConstructionScript(
            steps=(
                ("empty", "a"),
                ("coloop", "b", "a", "x"),
                ("truncate", "c", "a"),
            ),
            result="c",
        )
        with pytest.raises(UndefinedName):
            run_script(s)

    def test_malformed_steps_raise_bad_params(self):
        for step in (("coloop", "x", "a"), ("truncate", "t", "a", "b"), ("empty",)):
            s = ConstructionScript(steps=(("empty", "a"), step), result="a")
            with pytest.raises(BadParams, match="bad step"):
                run_script(s)
        s = ConstructionScript(steps=(("grow", "x", "a"),), result="x")
        with pytest.raises(BadParams, match="unknown op 'grow'"):
            run_script(s)
        with pytest.raises(BadParams, match="unknown op"):
            run_script(ConstructionScript(steps=((["empty"], "x"),), result="x"))

    def test_reassignment_rejected(self):
        s = ConstructionScript(
            steps=(("empty", "a"), ("empty", "a")), result="a"
        )
        with pytest.raises(BadParams):
            run_script(s)


class TestDeconstruct:
    def test_triangle_script_is_minimal_shape(self):
        s = deconstruct(canonical_from_matroid(uniform(2, 3)))
        assert tuple(st[0] for st in s.steps) == (
            "empty",
            "coloop",
            "coloop",
            "coloop",
            "truncate",
        )

    def test_single_loop_script(self):
        from laminarmatroids import build_matroid

        m = build_matroid("a", [("a",)])
        s = deconstruct(canonical_from_matroid(m))
        assert tuple(st[0] for st in s.steps) == ("empty", "coloop", "truncate")

    def test_disconnected_uses_dsum(self):
        m = direct_sum(
            uniform(1, 2, ("a", "b")), uniform(2, 3, ("c", "d", "e"))
        )
        s = deconstruct(canonical_from_matroid(m))
        assert sum(1 for st in s.steps if st[0] == "dsum") == 1
        assert same_labeled(run_script(s).to_explicit(), m)

    def test_requires_canonical(self):
        from laminarmatroids import LaminarPresentation

        with pytest.raises(NotCanonical):
            deconstruct(LaminarPresentation("ab", {frozenset("ab"): 1}))

    def test_roundtrip_samples(self):
        rng = random.Random(13)
        for _ in range(60):
            m = run_script(random_script(rng)).to_explicit()
            s = deconstruct(canonical_from_matroid(m))
            assert same_labeled(run_script(s).to_explicit(), m)

    def test_nested_inputs_avoid_dsum(self):
        rng = random.Random(14)
        for _ in range(60):
            m = run_script(random_script(rng, dsum=False)).to_explicit()
            assert is_nested(m).nested
            s = deconstruct(canonical_from_matroid(m))
            assert not any(st[0] == "dsum" for st in s.steps)
            assert same_labeled(run_script(s).to_explicit(), m)


class TestComponentBuilders:
    def test_binary_component_plain_circuit(self):
        assert same_labeled(binary_component(4), circuit(4))

    def test_binary_component_with_clone(self):
        m = binary_component(3, plan=("e1",))
        assert m.n == 4
        assert has_minor(m, uniform(2, 4)) is None
        assert has_minor(m, excluded_minor(3)) is None
        assert is_laminar(m)

    def test_binary_component_bad_plan(self):
        with pytest.raises(BadParams):
            binary_component(3, plan=("e9",))

    def test_ternary_component_base(self):
        assert same_labeled(ternary_component(3, 0), circuit(3))

    def test_ternary_component_one_gadget(self):
        # one 2-sum nets +2 elements: the basepoint pair disappears
        m = ternary_component(3, 1)
        assert m.n == 5
        assert m.rank() == 3
        for bad in (uniform(2, 5), uniform(3, 5), excluded_minor(3)):
            assert has_minor(m, bad) is None

    def test_ternary_component_element_count(self):
        for n in (3, 4):
            for k in range(0, n + 1):
                if n + 2 * k <= 8:
                    assert ternary_component(n, k).n == n + 2 * k

    def test_u24_two_sum_pair_is_ternary(self):
        m = two_sum(uniform(2, 4), uniform(2, 4), "e1", "e1")
        for bad in (uniform(2, 5), uniform(3, 5), excluded_minor(3)):
            assert has_minor(m, bad) is None

    def test_ternary_component_bad_params(self):
        with pytest.raises(BadParams):
            ternary_component(2, 0)
        with pytest.raises(BadParams):
            ternary_component(3, 5)
