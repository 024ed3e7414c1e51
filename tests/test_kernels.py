"""The kernels against brute force from first definitions.

Every kernel the package calls through its `K` alias is driven on seeded
pools (named and random matroids, random mask families, random laminar
presentations, relabelled copies, find-minor hosts and targets) and
compared with `_oracles`, which works on frozensets of indices.
Enumeration order reaches the CLI's stdout, so the order contracts are
asserted exactly: submasks, minor circuits and truncation circuits come out
in ascending order, cocircuits smallest first, verify_elimination names
the first failing pair in loop order, find_minor returns the first
(T, D) pair in its loop order that presents the target, and compress
keeps each mask's bits in order of their position within the kept set.
The bit decoders _bits and _indices are checked on every 16-bit mask, and
_indices on wider ones.  check_circuits is checked against the axioms on
the same pools and on Hypothesis-drawn families: its verdict, its
dependent-set bitmap, the first containment for a non-antichain, and for
an elimination failure the pair its failing region names, recomputed from
brute-force ranks.
"""

from __future__ import annotations

import os
import random
import runpy
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from _corpus import named_corpus, random_laminar_presentation, random_script
from laminarmatroids import (
    EliminationFails,
    GroundSet,
    LaminarPresentation,
    MinorWitness,
    NegativeCapacity,
    NotAChain,
    NotAnAntichain,
    apply_witness,
    build_matroid,
    direct_sum,
    nested_from_chain,
    run_script,
    uniform,
)
from laminarmatroids._backend import kernels as K
from laminarmatroids.matroid import _sort_masks

SEED = 424242


def mask_pool(rng, count=40, n=10):
    return [rng.randrange(1, 1 << n) for _ in range(count)]


def matroid_pool():
    pool = [m for m in named_corpus(n_cap=8) if 0 < m.n <= 8]
    rng = random.Random(SEED)
    for _ in range(30):
        pool.append(run_script(random_script(rng, n_max=7)).to_explicit())
    return pool


MATROIDS = matroid_pool()


def bits(x):
    return frozenset(i for i in range(x.bit_length()) if x >> i & 1)


def mask(items):
    return sum(1 << i for i in items)


def masks(family):
    return sorted(mask(s) for s in family)


def index_form(m):
    """Ground indices and circuits as index sets."""
    return tuple(range(m.n)), [bits(c) for c in m._masks]


def relabel(cs, perm):
    return sorted(mask(perm[i] for i in bits(c)) for c in cs)


def test_bit_decoders_list_every_bit_in_order():
    for x in range(1 << 16):
        want = sorted(bits(x))
        assert K._indices(x) == tuple(want)
        assert K._bits(x) == tuple(1 << i for i in want)


def test_storage_key_orders_as_index_tuples():
    # descending, so a key that ties two masks cannot pass on sort stability
    masks = range((1 << 16) - 1, 0, -1)
    assert sorted(masks, key=K._storage_key) == sorted(masks, key=K._indices)


def test_indices_decode_masks_past_the_cap():
    rng = random.Random(SEED)
    for width in (17, 20, 24, 33, 64):
        for _ in range(50):
            x = rng.getrandbits(width)
            assert K._indices(x) == tuple(sorted(bits(x)))
    assert K._indices(1 << 18) == (18,)


# Three public paths decode a mask of a ground past the cap before any
# cap check; each names the elements past bit 16.
GROUND_20 = GroundSet(f"e{i}" for i in range(20))


def test_set_of_decodes_past_the_cap():
    assert GROUND_20.set_of(1 << 18) == {"e18"}


def test_negative_capacity_names_a_member_past_the_cap():
    with pytest.raises(NegativeCapacity) as err:
        LaminarPresentation(GROUND_20, {("e18",): -1})
    assert err.value.member == {"e18"}


def test_not_a_chain_names_members_past_the_cap():
    with pytest.raises(NotAChain) as err:
        nested_from_chain(GROUND_20, [("e17", "e19"), ("e18",)])
    assert (err.value.first, err.value.second) == ({"e17", "e19"}, {"e18"})


def test_submask_order():
    rng = random.Random(SEED)
    for u in [0xFFFF] + [rng.randrange(0, 1 << 16) for _ in range(60)]:
        items = sorted(bits(u))
        assert list(K.submasks_of_size(u, -1)) == []
        for k in range(len(items) + 2):
            want = masks(combinations(items, k))
            assert list(K.submasks_of_size(u, k)) == want


SUBSETS_10 = [bits(x) for x in range(1 << 10)]


def test_family_helpers_and_first_violations():
    rng = random.Random(SEED + 1)
    for _ in range(60):
        fam = mask_pool(rng)
        sets = [bits(f) for f in fam]
        assert list(K.dependents(fam, 10)) == [
            any(s <= x for s in sets) for x in SUBSETS_10
        ]
        minimal = {s for s in sets if not any(t < s for t in sets)}
        assert oracle.minimal_sets(fam) == masks(minimal)
        distinct = list(dict.fromkeys(fam))
        pair = oracle.first_containment(map(bits, distinct))
        if pair is not None:
            assert K.check_circuits(distinct, 10) == (None, pair)
        anti = sorted(minimal, key=mask)
        assert K.verify_elimination(fam, 10) == oracle.first_elimination_failure(sets)
        assert K.check_circuits([mask(s) for s in anti], 10)[1] == (
            oracle.region_elimination_failure(range(10), anti)
        )


def check_verdict(fam, n):
    """check_circuits on distinct masks against the axioms themselves:
    the verdict, D on success, and a real violation on failure.  Returns
    what check_circuits returned."""
    dep, bad = K.check_circuits(fam, n)
    sets = [bits(c) for c in fam]
    holds = oracle.first_containment(sets) is None and oracle.elimination_holds(sets)
    assert (bad is None) == holds
    if bad is None:
        assert dep == K.dependents(fam, n)
        return dep, bad
    assert dep is None
    i, j = bad[:2]
    assert i != j
    if len(bad) == 2:
        assert sets[i] < sets[j]
    else:
        e = bad[2]
        assert e in sets[i] & sets[j]
        rest = (sets[i] | sets[j]) - {e}
        assert not any(c <= rest for c in sets)
    return dep, bad


def test_check_circuits_names_what_build_matroid_raises():
    rng = random.Random(SEED + 5)
    names = [f"e{i}" for i in range(10)]
    seen = set()
    for _ in range(60):
        fam = mask_pool(rng)
        for family in (fam, oracle.minimal_sets(fam)):
            # build_matroid names the violation on its own deduplicated
            # storage order
            stored = _sort_masks(set(family))
            sets = [bits(c) for c in stored]
            bad = check_verdict(stored, 10)[1]
            named = [frozenset(names[x] for x in sets[k]) for k in bad[:2]]
            pair = oracle.first_containment(sets)
            kind = NotAnAntichain if pair is not None else EliminationFails
            seen.add(kind)
            with pytest.raises(kind) as err:
                build_matroid(names, [[names[i] for i in bits(c)] for c in family])
            if kind is NotAnAntichain:
                assert bad == pair
                assert (err.value.small, err.value.large) == tuple(named)
            else:
                assert bad == oracle.region_elimination_failure(range(10), sets)
                got = (err.value.first, err.value.second, err.value.element)
                assert got == (*named, names[bad[2]])
    assert seen == {NotAnAntichain, EliminationFails}


def test_check_circuits_on_matroids_and_dropped_circuits():
    for m in MATROIDS:
        cs, n = list(m._masks), m.n
        elements, circuits = index_form(m)
        indep = oracle.independent_from_circuits(circuits)
        dep, bad = K.check_circuits(cs, n)
        assert bad is None
        assert K.greedy_rank(dep, (1 << n) - 1) == oracle.brute_rank(indep, elements)
        for drop in range(len(cs)):
            fewer = cs[:drop] + cs[drop + 1 :]
            dep, bad = check_verdict(fewer, n)
            want = oracle.region_elimination_failure(elements, [bits(c) for c in fewer])
            assert bad == want
            if want is None:
                fewer_indep = oracle.independent_from_circuits(map(bits, fewer))
                assert K.greedy_rank(dep, (1 << n) - 1) == oracle.brute_rank(
                    fewer_indep, elements
                )


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 9),
    raw=st.lists(st.integers(1, (1 << 9) - 1), max_size=24),
    minimal=st.booleans(),
)
def test_check_circuits_fuzzed_against_the_oracle(n, raw, minimal):
    fam = [x & ((1 << n) - 1) for x in raw]
    fam = list(dict.fromkeys(x for x in fam if x))
    if minimal:
        fam = oracle.minimal_sets(fam)
    check_verdict(fam, n)


def test_check_circuits_on_dense_sixteen_element_hosts():
    for r in (4, 8):
        cs = list(uniform(r, 16)._masks)
        dep, bad = K.check_circuits(cs, 16)
        assert bad is None and K.greedy_rank(dep, (1 << 16) - 1) == r
        assert dep == K.dependents(cs, 16)
        mid = len(cs) // 2
        fewer = cs[:mid] + cs[mid + 1 :]
        dep, bad = K.check_circuits(fewer, 16)
        i, j, e = bad
        assert dep is None and i != j and (fewer[i] & fewer[j]) >> e & 1
        assert not K.dependents(fewer, 16)[(fewer[i] | fewer[j]) & ~(1 << e)]
        more = cs + [cs[0] | cs[1]]
        assert K.check_circuits(more, 16) == (None, oracle.first_containment(map(bits, more)))


def test_matroid_kernels_agree_with_brute_force():
    rng = random.Random(SEED + 2)
    for m in MATROIDS:
        cs, n, r = list(m._masks), m.n, m.rank()
        elements, circuits = index_form(m)
        indep = oracle.independent_from_circuits(circuits)
        dep = K.dependents(cs, n)
        spans = K.spanning(dep, n)
        for x in range(1 << n):
            assert dep[x] == (not indep(bits(x)))
            assert K.greedy_rank(dep, x) == oracle.brute_rank(indep, bits(x))
            assert spans[x] == (oracle.brute_rank(indep, bits(x)) == r)
            assert bits(K.closure_mask(dep, x, n)) == oracle.brute_closure(
                elements, indep, bits(x)
            )
        # the matroid's stored closure table, one entry per circuit
        assert [bits(a) for a in m._circuit_closures()] == [
            oracle.brute_closure(elements, indep, c) for c in circuits
        ]
        assert K.verify_elimination(cs, n) is None
        if len(cs) > 2:
            # Dropping a circuit leaves an antichain whose first elimination
            # failure, if any, lies deep in the pair loop.
            fewer = cs[: len(cs) // 2] + cs[len(cs) // 2 + 1 :]
            assert K.verify_elimination(fewer, n) == oracle.first_elimination_failure(
                [bits(c) for c in fewer]
            )
        assert K.cocircuit_masks(n, spans) == sorted(
            masks(oracle.brute_cocircuits(elements, circuits)),
            key=lambda c: (c.bit_count(), c),
        )
        assert K.cyclic_flat_masks(n, dep, m._circuit_closures()) == masks(
            oracle.brute_cyclic_flats(elements, circuits)
        )
        # blocks: the classes of "e = f or some circuit holds both"
        share = {
            frozenset({e}).union(*(c for c in circuits if e in c)) for e in elements
        }
        assert [bits(m.ground.mask_of(b)) for b in m.components()] == sorted(
            share, key=min
        )
        if r >= 1:
            want = oracle.brute_circuits(
                elements, lambda s: indep(s) and len(s) < r
            )
            assert K.truncation_circuits(n, cs, dep, r) == masks(want)
        dm = rng.randrange(0, 1 << n)
        tm = rng.randrange(0, 1 << n) & ~dm
        _, want = oracle.brute_minor(elements, circuits, bits(dm), bits(tm))
        assert K.minor_circuits(dep, cs, dm, tm) == masks(want)


def test_minor_circuits_are_the_minimal_differences():
    """Read off D, the circuits of (M delete D) contract T are the minimal
    nonempty C - T over the circuits C avoiding D, dependent T included."""
    rng = random.Random(SEED + 6)
    dependent_t = 0
    for m in MATROIDS:
        cs, n, dep = list(m._masks), m.n, m._dependents()
        for _ in range(20):
            dm = rng.randrange(0, 1 << n) & rng.randrange(0, 1 << n)
            tm = rng.randrange(0, 1 << n) & ~dm
            dependent_t += dep[tm]
            want = oracle.minimal_sets(c & ~tm for c in cs if not c & dm and c & ~tm)
            assert K.minor_circuits(dep, cs, dm, tm) == want
    assert dependent_t


def test_cyclic_flats_of_a_direct_sum_are_the_unions_of_blocks():
    # a pair, a triangle and two more pairs: 2**4 cyclic flats
    m = direct_sum(uniform(1, 2), uniform(2, 3))
    for _ in range(2):
        m = direct_sum(m, uniform(1, 2))
    elements, circuits = index_form(m)
    want = oracle.brute_cyclic_flats(elements, circuits)
    assert len(want) == 16
    got = K.cyclic_flat_masks(m.n, m._dependents(), m._circuit_closures())
    assert got == masks(want)
    assert [bits(m.ground.mask_of(f)) for f in m.cyclic_flats()] == sorted(
        want, key=lambda f: (len(f), sorted(f))
    )


def test_laminar_circuit_masks_agree_with_brute_force():
    rng = random.Random(SEED + 3)
    for _ in range(40):
        p = random_laminar_presentation(rng, n_max=8)
        n = len(p.elements)
        sets = [p.ground.mask_of(a) for a in p.members]
        caps = [p.capacity(a) for a in p.members]
        indep = oracle.laminar_independent(
            (bits(a), c) for a, c in zip(sets, caps)
        )
        want = oracle.brute_circuits(range(n), indep)
        assert sorted(oracle.laminar_circuit_masks(n, sets, caps)) == masks(want)


@settings(max_examples=300, deadline=None)
@given(
    keep=st.integers(0, (1 << 16) - 1),
    fam=st.lists(st.integers(0, (1 << 16) - 1), max_size=8),
)
def test_compress_agrees_with_brute_force(keep, fam):
    # bit i of the j-th kept position becomes bit j; the rest is dropped
    kept = sorted(bits(keep))
    want = [mask(j for j, i in enumerate(kept) if i in bits(f)) for f in fam]
    assert K.compress(fam, keep) == want


def check_iso(n, cs1, cs2):
    got = K.iso_bijection(n, cs1, n, cs2)
    want = oracle.brute_isomorphism(
        range(n), [bits(c) for c in cs1], range(n), [bits(c) for c in cs2]
    )
    assert (got is None) == (want is None)
    if got is not None:
        assert sorted(got) == list(range(n))
        assert relabel(cs1, got) == sorted(cs2)
    return got


def test_iso_bijection_agrees_with_brute_force():
    rng = random.Random(SEED + 4)
    for m in MATROIDS[:40]:
        cs, n = list(m._masks), m.n
        perm = list(range(n))
        rng.shuffle(perm)
        assert check_iso(n, cs, relabel(cs, perm)) is not None
        if len(cs) > 1:
            check_iso(n, cs, sorted(cs[:-1] + [cs[-1] ^ 1 ^ (1 << (n - 1))]))
    small = [m for m in MATROIDS if m.n <= 7]
    for a, b in zip(small, small[1:]):
        if a.n == b.n and len(a.circuits) == len(b.circuits):
            check_iso(a.n, list(a._masks), list(b._masks))


def test_iso_bijection_returns_the_first_bijection(monkeypatch):
    """check_iso only checks that a returned map is valid; on every pair
    with n <= 7 that the brute-force test builds, the map is also the
    lexicographically first one, which find_minor's witnesses rely on."""
    seen = []
    real = K.iso_bijection

    def recording(n1, cs1, n2, cs2):
        got = real(n1, cs1, n2, cs2)
        seen.append((n1, cs1, cs2, got))
        return got

    monkeypatch.setattr(K, "iso_bijection", recording)
    test_iso_bijection_agrees_with_brute_force()
    small = [(n, cs1, cs2, got) for n, cs1, cs2, got in seen if n <= 7]
    assert sum(got is not None for *_, got in small) >= 20
    for n, cs1, cs2, got in small:
        assert got == oracle.first_bijection(n, cs1, cs2)


def test_find_minor_agrees_with_brute_force():
    """find_minor hits exactly when some minor presents the target, and its
    witness is the first pair in loop order: T ascends over independent
    bit patterns, then D over the bit patterns disjoint from T whose
    complement spans, and no earlier pair presents the target."""
    targets = [m for m in MATROIDS if 3 <= m.n <= 5 and m._masks][:6]
    hosts = [m for m in MATROIDS if m.n >= 5][:25]
    for host in hosts:
        cs, n, r = list(host._masks), host.n, host.rank()
        elements, circuits = index_form(host)
        indep = oracle.independent_from_circuits(circuits)
        for tgt in targets:
            got = K.find_minor(
                host._dependents(), host._spanning(), n, cs, r,
                tgt.n, list(tgt._masks), tgt.rank(),
            )
            want = oracle.brute_has_minor(
                host.elements, host.circuits, tgt.elements, tgt.circuits
            )
            assert (got is not None) == want
            if got is None:
                continue
            dm, tm, perm = got
            assert oracle.brute_rank(indep, bits(tm)) == len(bits(tm))
            assert oracle.brute_rank(indep, set(elements) - bits(dm)) == r
            kept = host.ground.tuple_of(host.ground.full_mask & ~dm & ~tm)
            witness = MinorWitness(
                delete=host.ground.set_of(dm),
                contract=host.ground.set_of(tm),
                mapping=tuple(
                    (kept[i], tgt.elements[j]) for i, j in enumerate(perm)
                ),
            )
            assert apply_witness(host, witness, tgt)
            t_elements, t_circuits = index_form(tgt)
            t = r - tgt.rank()
            for tx in masks(combinations(elements, t)):
                if tx > tm or not indep(bits(tx)):
                    continue
                rest = [i for i in elements if not tx >> i & 1]
                for dx in masks(combinations(rest, n - tgt.n - t)):
                    if (tx, dx) == (tm, dm):
                        break
                    if oracle.brute_rank(indep, set(elements) - bits(dx)) < r:
                        continue
                    keep, minor = oracle.brute_minor(
                        elements, circuits, bits(dx), bits(tx)
                    )
                    assert not oracle.brute_isomorphism(
                        keep, minor, t_elements, t_circuits
                    )


def test_every_bench_kernels_entry_runs():
    """benchmarks/bench_kernels.py calls the kernels directly, so a changed
    signature shows here; contracting 3 elements of U(8,16) leaves U(5,13),
    the least circuit of U(8,16) in storage order is its first 9
    elements, and the 16-element chain keeps every other member."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench = runpy.run_path(os.path.join(root, "benchmarks", "bench_kernels.py"))
    outputs = [fn(K) for _, fn in bench["workloads"]()]
    assert len(outputs) == 14
    assert outputs[10] == masks(combinations(range(3, 16), 6))
    assert outputs[11] == 12870  # C(16, 8)
    assert outputs[12][0] == uniform(8, 16).elements[:9]
    chain = outputs[13]
    assert {a: chain.capacity(a) for a in chain.members} == {
        frozenset(chain.elements[: 4 * k]): k for k in range(1, 5)
    }
