"""Presentations and non-laminar hosts at the hard cap, n = 13-16, above
the 12-element default where the other presentation tests stop.

Each presentation's canonical form, read off its family forest, must
match the one read off its circuits, and the script deconstruct emits
must rebuild the same circuits on the same elements.  Each non-laminar
host must reduce to an excluded minor em(r), and the witness command
must find one with --max-n 16.

The four readers of input (build_matroid, parse_ckt, canonicalize and
to_explicit) take max_n and refuse a ground past it, as does every path
from a reader to an analysis; every builder refuses a ground past 16, all
with the same TooLarge text.  The analyses take no cap and answer
13-element inputs.
"""

from __future__ import annotations

import random
import re

import pytest

import _oracles as oracle
from _corpus import inflate, non_laminar_hosts, random_laminar_presentation
from laminarmatroids import (
    HARD_CAP,
    LaminarPresentation,
    TooLarge,
    binary_component,
    build_matroid,
    canonical_from_matroid,
    canonicalize,
    circuit,
    classify,
    classify_binary_laminar,
    classify_dual_laminar,
    classify_ternary_laminar,
    deconstruct,
    direct_sum,
    excluded_minor,
    excluded_minor_witness,
    free,
    is_isomorphic,
    is_laminar,
    is_nested,
    parallel_connection,
    run_script,
    two_sum,
    uniform,
)
from laminarmatroids.cli import main
from laminarmatroids.formats import parse_ckt, render_ckt
from laminarmatroids.matroid import MinorWitness, apply_witness

WITNESS_LINE = re.compile(r"witness: excluded-minor\((\d+)\) delete \{(.*)\} contract \{(.*)\} map (.*)")


def chain16():
    """{e1..e2k}: ceil(k/2) for k = 1..8: every other member is redundant,
    so each top's closure climbs one step up the chain."""
    ground = [f"e{i}" for i in range(1, 17)]
    return LaminarPresentation(ground, {frozenset(ground[: 2 * k]): (k + 1) // 2 for k in range(1, 9)})


def hardcap_sample(seed=16, count=19):
    """The chain, then `count` random presentations with n = 13-16 and at
    least three members, each inflated by redundant members."""
    rng = random.Random(seed)
    out = [chain16()]
    while len(out) <= count:
        p = random_laminar_presentation(rng, n_max=HARD_CAP)
        if p.n >= 13 and len(p.members) >= 3:
            out.append(inflate(rng, p)[0])
    return out


@pytest.mark.parametrize("p", hardcap_sample(), ids=lambda p: f"n{p.n}-m{len(p.members)}")
def test_canonical_form_and_script_at_the_hard_cap(p):
    m = p.to_explicit()
    c = canonicalize(p)
    want = canonical_from_matroid(m)
    assert c == want
    assert c.evidence == want.evidence == oracle.closure_evidence(m)
    assert c.loop_set == want.loop_set
    # the script lists the ground in its own order, so compare name sets
    rebuilt = run_script(deconstruct(c)).to_explicit()
    assert sorted(rebuilt.elements) == sorted(m.elements)
    assert set(rebuilt.circuits) == set(m.circuits)


def test_non_laminar_hosts_reduce_to_excluded_minors():
    """Fife and Oxley: the em(r), r >= 3, are the only excluded minors for
    laminarity, so a minor-minimal non-laminar minor of any host is one.
    The 40 seeded hosts reach em(3) through em(6)."""
    ranks = set()
    for m in non_laminar_hosts(random.Random(7), 40):
        assert 13 <= m.n <= HARD_CAP
        em = oracle.greedy_excluded_minor(m)
        r = em.rank()
        assert em.n == 2 * r - 1
        assert is_isomorphic(em, excluded_minor(r)) is not None
        ranks.add(r)
    assert ranks == {3, 4, 5, 6}


def parse_witness(line):
    """(r, MinorWitness) from the `witness` command's output line."""
    r, delete, contract, pairs = WITNESS_LINE.fullmatch(line).groups()
    mapping = tuple(tuple(pair.split("->")) for pair in pairs.split(","))
    names = lambda text: frozenset(text.split(",")) if text else frozenset()
    return int(r), MinorWitness(names(delete), names(contract), mapping)


def test_witness_at_the_hard_cap(tmp_path, capsys):
    """The `witness` command with --max-n 16 on all 40 hosts of 13-16
    elements: each printed witness replays against em(r), and r is at
    most the rank of the em(r) the greedy reduction reaches (less on
    hosts 8, 19 and 37).  The command reads back exactly the host, so its
    search is excluded_minor_witness on the host itself."""
    hosts = non_laminar_hosts(random.Random(7), 40)
    ranks, below_greedy = set(), set()
    for i, m in enumerate(hosts):
        path = tmp_path / f"h{i}.ckt"
        path.write_text(render_ckt(m))
        assert parse_ckt(path.read_text()) == m
        assert main(["witness", str(path), "--max-n", "16"]) == 0
        r, w = parse_witness(capsys.readouterr().out.rstrip("\n"))
        assert apply_witness(m, w, excluded_minor(r))
        greedy = oracle.greedy_excluded_minor(m).rank()
        assert r <= greedy
        if r < greedy:
            below_greedy.add(i)
        ranks.add(r)
    assert ranks == {3, 4, 5, 6}
    assert below_greedy == {8, 19, 37}


# -- size caps ----------------------------------------------------------------
#
# Only the four readers of input take max_n: each refuses a ground of n
# elements exactly when n > min(max_n, HARD_CAP), with TooLarge(n, that cap).
# The analyses take no cap, so the refusal table reaches each of them as the
# CLI does, through the reader that caps its input (a built component is read
# back as .ckt text); on their own they answer past the CLI's 12-element
# default.  Every builder refuses a result past HARD_CAP itself.

HOST13 = direct_sum(excluded_minor(3), uniform(3, 8))
PRES13 = LaminarPresentation(
    [f"e{i}" for i in range(1, 14)],
    {frozenset(f"e{i}" for i in range(1, 5)): 1, frozenset(f"e{i}" for i in range(1, 10)): 3},
)
CKT13 = render_ckt(HOST13)

CAPPED_ENTRIES = {
    "is_laminar": lambda cap: is_laminar(parse_ckt(CKT13, cap)),
    "is_nested": lambda cap: is_nested(parse_ckt(CKT13, cap)),
    "classify": lambda cap: classify(parse_ckt(CKT13, cap)),
    "classify_dual_laminar": lambda cap: classify_dual_laminar(parse_ckt(CKT13, cap)),
    "classify_binary_laminar": lambda cap: classify_binary_laminar(parse_ckt(CKT13, cap)),
    "classify_ternary_laminar": lambda cap: classify_ternary_laminar(parse_ckt(CKT13, cap)),
    "excluded_minor_witness": lambda cap: excluded_minor_witness(parse_ckt(CKT13, cap)),
    "canonical_from_matroid": lambda cap: canonical_from_matroid(PRES13.to_explicit(cap)),
    "canonicalize": lambda cap: canonicalize(PRES13, cap),
    "to_explicit": lambda cap: PRES13.to_explicit(cap),
    "deconstruct": lambda cap: deconstruct(canonicalize(PRES13, cap)),
    "binary_component": lambda cap: parse_ckt(render_ckt(binary_component(13)), cap),
    "build_matroid": lambda cap: build_matroid(HOST13.elements, HOST13.circuits, cap),
    "parse_ckt": lambda cap: parse_ckt(CKT13, cap),
}


def refusal(call):
    """The TooLarge text `call()` raises, or None when it returns."""
    try:
        call()
    except TooLarge as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("cap", [-1, 0, 12, 13, 16, 20])
@pytest.mark.parametrize("entry", sorted(CAPPED_ENTRIES))
def test_each_capped_entry_refuses_past_its_cap(entry, cap):
    n = 13
    want = f"ground set has {n} elements, cap is {cap}" if cap < n else None
    assert refusal(lambda: CAPPED_ENTRIES[entry](cap)) == want


def _verdict_labels(c):
    return c.dual_laminar.reason, c.binary_laminar.found[0], c.ternary_laminar.found[0]


def _witness_rank(m):
    r, w = excluded_minor_witness(m)
    assert apply_witness(m, w, excluded_minor(r))
    return r


def _rebuilds(c):
    return run_script(deconstruct(c)).to_explicit() == c.to_explicit()


# Each analysis on the 13-element inputs, with no cap argument, and the
# verdict it must give; so do the two presentation readers at their default.
ANSWERS_PAST_DESK_CAP = {
    "is_laminar": (lambda: bool(is_laminar(HOST13)), False),
    "is_nested": (lambda: bool(is_nested(HOST13)), False),
    "classify": (lambda: _verdict_labels(classify(HOST13)), ("not laminar", "uniform(2,4)", "uniform(2,5)")),
    "classify_dual_laminar": (lambda: classify_dual_laminar(HOST13).reason, "not laminar"),
    "classify_binary_laminar": (lambda: classify_binary_laminar(HOST13).found[0], "uniform(2,4)"),
    "classify_ternary_laminar": (lambda: classify_ternary_laminar(HOST13).found[0], "uniform(2,5)"),
    "excluded_minor_witness": (lambda: _witness_rank(HOST13), 3),
    "canonical_from_matroid": (lambda: canonical_from_matroid(PRES13.to_explicit()) == PRES13, True),
    "deconstruct": (lambda: _rebuilds(canonicalize(PRES13)), True),
    "binary_component": (lambda: binary_component(13).n, 13),
    "to_explicit": (lambda: len(PRES13.to_explicit().circuits), 51),
    "canonicalize": (lambda: canonicalize(PRES13) == PRES13, True),
}


@pytest.mark.parametrize("entry", sorted(ANSWERS_PAST_DESK_CAP))
def test_each_analysis_answers_past_the_desk_cap(entry):
    call, want = ANSWERS_PAST_DESK_CAP[entry]
    assert call() == want


def _pres(n):
    ground = [f"e{i}" for i in range(1, n + 1)]
    return LaminarPresentation(ground, {frozenset(ground[:2]): 1})


OVERSIZE_BUILDERS = {
    "direct_sum": (18, lambda: direct_sum(uniform(2, 9), uniform(2, 9))),
    "parallel_connection": (17, lambda: parallel_connection(circuit(9), circuit(9), "e1", "e1")),
    "two_sum": (17, lambda: two_sum(circuit(9), circuit(9), "e1", "e1")),
    "uniform": (17, lambda: uniform(2, 17)),
    "circuit": (17, lambda: circuit(17)),
    "free": (18, lambda: free(18)),
    "add_coloop": (17, lambda: _pres(16).add_coloop("x")),
    "LaminarPresentation.direct_sum": (18, lambda: _pres(9).direct_sum(_pres(9))),
    "LaminarPresentation": (17, lambda: _pres(17)),
    "parallel_extend": (17, lambda: canonicalize(_pres(16)).parallel_extend("e1", "x")),
    "binary_component": (17, lambda: binary_component(16, ("e1",))),
    "build_matroid": (17, lambda: build_matroid([f"x{i}" for i in range(17)], [], 20)),
    "parse_ckt": (17, lambda: parse_ckt("ground " + " ".join(f"x{i}" for i in range(17)) + "\n", 20)),
}


@pytest.mark.parametrize("builder", sorted(OVERSIZE_BUILDERS))
def test_builders_refuse_past_the_hard_cap(builder):
    n, call = OVERSIZE_BUILDERS[builder]
    assert refusal(call) == f"ground set has {n} elements, cap is 16"
