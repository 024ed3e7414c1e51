"""Acceptance gate: twelve exact criteria over a fixed seeded corpus.

Each test appends a single PASS/FAIL line to the terminal summary and
then asserts.  No tolerances anywhere; every check is equality or a
logical equivalence evaluated on both sides.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

import _oracles as oracle
from _corpus import (
    full_corpus,
    inflate,
    random_laminar_presentation,
    random_script,
)
from conftest import ACCEPTANCE_LINES
from laminarmatroids import (
    binary_component,
    canonical_from_matroid,
    canonicalize,
    classify_binary_laminar,
    classify_dual_laminar,
    classify_ternary_laminar,
    deconstruct,
    excluded_minor,
    excluded_minor_witness,
    fano,
    fano_dual,
    is_isomorphic,
    is_laminar,
    is_nested,
    nested_from_chain,
    run_script,
    ternary_component,
    uniform,
)
from laminarmatroids.matroid import apply_witness, has_minor

SEED = 20260814


def report(number, label, ok):
    verdict = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {number:02d} ({label}): {verdict}")
    assert ok, f"criterion {number:02d} ({label}) failed"


@pytest.fixture(scope="module")
def corpus():
    return full_corpus(random.Random(SEED), n_random=300, n_cap=8)


def members_with_caps(p):
    return {a: p.capacity(a) for a in p.members}


def same_labeled(m1, m2):
    return set(m1.elements) == set(m2.elements) and set(m1.circuits) == set(
        m2.circuits
    )


def test_criterion_01_excluded_minor_family():
    ok = True
    for r in (3, 4):
        y = excluded_minor(r)
        ok &= not is_laminar(y)
        for e in y.elements:
            ok &= bool(is_laminar(y.minor(delete=(e,))))
            ok &= bool(is_laminar(y.minor(contract=(e,))))
        hit = excluded_minor_witness(y)
        ok &= hit is not None and hit[0] == r
        ok &= hit is not None and apply_witness(y, hit[1], excluded_minor(r))
    report(1, "excluded-minor family", ok)


def test_criterion_02_tip_deletion_is_uniform():
    ok = True
    for r in (3, 4, 5):
        y = excluded_minor(r)
        phi = is_isomorphic(y.minor(delete=("p",)), uniform(r, 2 * r - 2))
        ok &= phi is not None
    report(2, "tip deletion gives uniform", ok)


def test_criterion_03_canonical_uniqueness():
    rng = random.Random(SEED + 3)
    ok = True
    for _ in range(500):
        added = 0
        while not added:  # some tiny families admit no redundant insertion
            p = random_laminar_presentation(rng, n_max=8)
            q, added = inflate(rng, p)
        ok &= p.to_explicit() == q.to_explicit()
        ok &= members_with_caps(canonicalize(p)) == members_with_caps(
            canonicalize(q)
        )
    report(3, "canonical form unique", ok)


def test_criterion_04_presentation_minors_match():
    rng = random.Random(SEED + 4)
    ok = True
    for _ in range(200):
        c = canonicalize(random_laminar_presentation(rng, n_max=8))
        m = c.to_explicit()
        for e in c.elements:
            ok &= c.delete(e).to_explicit() == m.minor(delete=(e,))
            ok &= c.contract(e).to_explicit() == m.minor(contract=(e,))
    report(4, "presentation minors match explicit", ok)


def test_criterion_05_recognition_equivalence(corpus):
    ok = True
    for m in corpus:
        verdict = bool(is_laminar(m))
        hit = oracle.search_excluded_minor_witness(m)
        ok &= verdict == (hit is None)
        ok &= excluded_minor_witness(m) == hit
        if hit is not None:
            r, w = hit
            ok &= apply_witness(m, w, excluded_minor(r))
    report(5, "laminar iff no excluded minor", ok)


def test_criterion_06_construction_calculus(corpus):
    rng = random.Random(SEED + 6)
    ok = True
    for _ in range(300):
        pres = run_script(random_script(rng, n_max=8))
        ok &= bool(is_laminar(pres.to_explicit()))
    for m in corpus:
        if not is_laminar(m):
            continue
        script = deconstruct(canonical_from_matroid(m))
        ok &= same_labeled(run_script(script).to_explicit(), m)
    report(6, "construction calculus round trip", ok)


def test_criterion_07_nested_suite(corpus):
    rng = random.Random(SEED + 7)
    ok = True
    for _ in range(200):
        m = run_script(random_script(rng, n_max=8, dsum=False)).to_explicit()
        ok &= is_nested(m).nested
    for _ in range(100):
        n = rng.randint(1, 8)
        ground = tuple(f"e{i + 1}" for i in range(n))
        chain, pool = [], []
        for e in ground:
            pool.append(e)
            if rng.random() < 0.4:
                chain.append(tuple(pool))
        if not chain:
            chain = [tuple(pool)]
        m = nested_from_chain(ground, chain).to_explicit()
        ok &= bool(is_laminar(m))
    for m in corpus:
        if m.loops() or not is_laminar(m):
            continue
        family = canonical_from_matroid(m).members
        family_chain = all(
            a <= b or b <= a for a, b in combinations(family, 2)
        )
        ok &= is_nested(m).nested == family_chain
    report(7, "nested suite", ok)


def test_criterion_08_dual_laminar_structure(corpus):
    ok = True
    for m in corpus:
        if not is_laminar(m):
            continue
        v = classify_dual_laminar(m)
        structural = all(s.kind != "none" for s in v.components)
        ok &= bool(is_laminar(m.dual())) == structural
        ok &= v.dual_laminar == structural
    report(8, "dual-laminar structure", ok)


def test_criterion_09_binary(corpus):
    u24, em3 = uniform(2, 4), excluded_minor(3)
    ok = True
    for m in corpus:
        lhs = has_minor(m, u24) is None and bool(is_laminar(m))
        rhs = has_minor(m, em3) is None and has_minor(m, u24) is None
        ok &= lhs == rhs
        ok &= classify_binary_laminar(m).flag == rhs
    rng = random.Random(SEED + 9)
    for n in (3, 4, 5):
        for trial in range(4):
            plan = tuple(
                rng.choice([f"e{i + 1}" for i in range(n)])
                for _ in range(rng.randint(0, 8 - n))
            )
            ok &= classify_binary_laminar(binary_component(n, plan)).flag
    report(9, "binary laminar", ok)


def test_criterion_10_ternary(corpus):
    bad_direct = [uniform(2, 5), uniform(3, 5), fano(), fano_dual()]
    bad_short = [uniform(2, 5), uniform(3, 5), excluded_minor(3)]
    ok = True
    for m in corpus:
        lhs = all(has_minor(m, b) is None for b in bad_direct) and bool(
            is_laminar(m)
        )
        rhs = all(has_minor(m, b) is None for b in bad_short)
        ok &= lhs == rhs
        ok &= classify_ternary_laminar(m).flag == rhs
    for n in (3, 4):
        for k in range(0, n + 1):
            if n + 2 * k <= 8:
                ok &= classify_ternary_laminar(ternary_component(n, k)).flag
    report(10, "ternary laminar", ok)


def test_criterion_11_rank_two_blanket(corpus):
    ok = True
    for m in corpus:
        if m.rank() <= 2:
            ok &= bool(is_laminar(m))
    report(11, "rank at most two is laminar", ok)


def test_criterion_12_oracle_agreement():
    rng = random.Random(SEED + 12)
    ok = True
    for _ in range(100):
        p = random_laminar_presentation(rng, n_max=7)
        m = p.to_explicit()
        ind = oracle.laminar_independent(members_with_caps(p).items())
        for s in oracle.subsets(p.elements):
            want = oracle.brute_rank(ind, s)
            ok &= p.rank(s) == want
            ok &= m.rank(s) == want
    for _ in range(100):
        p = random_laminar_presentation(rng, n_max=7)
        weights = {e: rng.randint(-3, 9) for e in p.elements}
        sol = p.max_weight_independent(weights)
        ok &= p.is_independent(sol)
        got = sum((Fraction(weights[e]) for e in sol), Fraction(0))
        ind = oracle.laminar_independent(members_with_caps(p).items())
        ok &= got == oracle.brute_max_weight(p.elements, ind, weights)
    report(12, "oracle agreement", ok)
