"""Presentation commands on the family forest against the enumeration
oracles: the 2^n circuit scan, the closure-per-circuit canonical
form of the explicit matroid, the forest script rebuilt from the
circuits, and the old explicit-matroid deconstruct recursion."""

from __future__ import annotations

import random

import pytest

import _oracles as oracle
from _corpus import full_corpus, inflate, random_laminar_presentation, random_script
from laminarmatroids import (
    LaminarPresentation,
    canonical_from_matroid,
    canonicalize,
    deconstruct,
    is_laminar,
    is_nested,
    nested_from_chain,
    run_script,
)
from laminarmatroids.matroid import ExplicitMatroid

ACCEPTANCE_SEED = 20260814


def _criterion_07_presentations():
    """The inputs of acceptance criterion 07, as presentations."""
    rng = random.Random(ACCEPTANCE_SEED + 7)
    out = [run_script(random_script(rng, n_max=8, dsum=False)) for _ in range(200)]
    for _ in range(100):
        n = rng.randint(1, 8)
        ground = tuple(f"e{i + 1}" for i in range(n))
        chain, pool = [], []
        for e in ground:
            pool.append(e)
            if rng.random() < 0.4:
                chain.append(tuple(pool))
        out.append(nested_from_chain(ground, chain or [tuple(pool)]))
    for m in full_corpus(random.Random(ACCEPTANCE_SEED), n_random=300, n_cap=8):
        verdict = is_laminar(m)
        if verdict:
            out.append(verdict.presentation)
    return out


@pytest.fixture(scope="module")
def presentations():
    rng = random.Random(70)
    out = []
    for _ in range(1500):
        p = random_laminar_presentation(rng, n_max=9)
        out += [p, inflate(rng, p)[0]]
    return out + _criterion_07_presentations()


def scanned_circuits(p):
    return oracle.laminar_circuit_masks(p.n, list(p._masks), list(p._caps))


def members_with_caps(p):
    return {a: p.capacity(a) for a in p.members}


def test_to_explicit_matches_kernel_scan(presentations):
    for p in presentations:
        assert sorted(p.to_explicit()._masks) == sorted(scanned_circuits(p))


def test_canonicalize_matches_closure_per_circuit(presentations):
    for p in presentations:
        m = ExplicitMatroid._from_masks(p.ground, scanned_circuits(p))
        want = canonical_from_matroid(m)
        c = canonicalize(p)
        assert c.members == want.members
        assert members_with_caps(c) == members_with_caps(want)
        assert c.evidence == want.evidence == oracle.closure_evidence(m)
        assert c.loop_set == want.loop_set


def test_deconstruct_matches_explicit_recursion(presentations):
    for p in presentations:
        script = deconstruct(canonicalize(p))
        want = oracle.forest_deconstruct(p.to_explicit())
        assert (script.steps, script.result) == want


def test_deconstruct_keeps_the_old_script_on_nested_inputs(presentations):
    """The old recursion walked the chain of cyclic flats when there was
    one; the forest walk emits the same steps there, and never more steps
    elsewhere."""
    nested = 0
    for p in presentations:
        m = p.to_explicit()
        script = deconstruct(canonicalize(p))
        old_steps, old_result = oracle.explicit_deconstruct(m)
        assert len(script.steps) <= len(old_steps)
        if is_nested(m):
            nested += 1
            assert (script.steps, script.result) == (old_steps, old_result)
    assert nested == 3429


def test_dsum_exactly_when_not_nested(presentations):
    """DSUM-free scripts build exactly the nested matroids (Fife and
    Oxley), checked from deconstruct's side."""
    corpus = full_corpus(random.Random(7), 300, n_cap=10)
    hosts = [v.presentation for v in map(is_laminar, corpus) if v]
    hosts += [canonicalize(p) for p in presentations]
    for c in hosts:
        script = deconstruct(c)
        has_dsum = any(step[0] == "dsum" for step in script.steps)
        assert has_dsum != is_nested(c.to_explicit()).nested


def test_dense_sixteen():
    ground = tuple(f"e{i}" for i in range(1, 17))
    p = LaminarPresentation(ground, {frozenset(ground[:10]): 5, frozenset(ground): 8})
    m = p.to_explicit()
    # 6-subsets of the ten, plus 9-sets with 3 to 5 of them
    assert len(m.circuits) == 210 + 120 + 1260 + 3780
    assert sorted(m._masks) == sorted(scanned_circuits(p))
    c = canonicalize(p)
    assert members_with_caps(c) == members_with_caps(p)
    assert run_script(deconstruct(c)).to_explicit() == m
