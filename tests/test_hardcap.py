"""Presentations at the hard cap, n = 13-16, above the 12-element
default where the other presentation tests stop.

Each presentation's canonical form, read off its family forest, must
match the one read off its circuits, and the script deconstruct emits
must rebuild the same circuits on the same elements.
"""

from __future__ import annotations

import random

import pytest

from _corpus import inflate, random_laminar_presentation
from laminarmatroids import (
    HARD_CAP,
    LaminarPresentation,
    canonical_from_matroid,
    canonicalize,
    deconstruct,
    run_script,
)


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
    m = p.to_explicit(HARD_CAP)
    c = canonicalize(p, HARD_CAP)
    want = canonical_from_matroid(m, HARD_CAP)
    assert c == want
    assert c.evidence == want.evidence
    assert c.loop_set == want.loop_set
    # the script lists the ground in its own order, so compare name sets
    rebuilt = run_script(deconstruct(c, HARD_CAP)).to_explicit(HARD_CAP)
    assert sorted(rebuilt.elements) == sorted(m.elements)
    assert set(rebuilt.circuits) == set(m.circuits)

