"""Time the kernels on thirteen fixed bitmask inputs, and canonicalize
on one presentation.

Each workload is one call, timed with perf_counter; the best of
--repeat runs is printed.  Run from the repository root:

    python3 benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# Import the package from this checkout's src/, as perfbench/ does.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import laminarmatroids._kernels_py as pure
from laminarmatroids import (
    LaminarPresentation,
    canonicalize,
    direct_sum,
    excluded_minor,
    fano,
    parallel_connection,
    uniform,
)
from laminarmatroids.matroid import _sort_masks


def masks_of(m):
    return list(m._masks), m.n, m.rank()


def workloads():
    host1 = parallel_connection(uniform(3, 6), uniform(3, 6), "e5", "e5")
    host2 = direct_sum(fano(), uniform(2, 4)).truncate()
    em3, em4 = excluded_minor(3), excluded_minor(4)
    u511 = uniform(5, 11)
    u410 = uniform(4, 10)
    u816 = uniform(8, 16)
    # 6435 circuits, none spanning: each needs its closure computed
    u715c = direct_sum(uniform(7, 15), uniform(1, 1))
    # six parallel pairs and a triangle: 2**7 cyclic flats
    blocks = uniform(2, 3)
    for _ in range(6):
        blocks = direct_sum(blocks, uniform(1, 2))

    c1, n1, r1 = masks_of(host1)
    dep1, spans1 = host1._dependents(), host1._spanning()
    nb = blocks.n
    dep_b, closures_b = blocks._dependents(), blocks._circuit_closures()
    c2, n2, r2 = masks_of(host2)
    dep2, spans2 = host2._dependents(), host2._spanning()
    cem3, nem3, rem3 = masks_of(em3)
    cem4, nem4, rem4 = masks_of(em4)
    c511, n511, r511 = masks_of(u511)
    n410, spans410 = u410.n, u410._spanning()
    c816, n816, r816 = masks_of(u816)
    dep816 = u816._dependents()
    c715c, n715c, _ = masks_of(u715c)
    dep715c = u715c._dependents()
    # u(8,16) without its middle circuit fails elimination
    less816 = c816[: len(c816) // 2] + c816[len(c816) // 2 + 1 :]

    # {e1..e2k}: ceil(k/2) for k = 1..8, 1291 circuits; every top's
    # closure climbs one member up the chain
    e16 = [f"e{i}" for i in range(1, 17)]
    chain16 = LaminarPresentation(e16, {frozenset(e16[: 2 * k]): (k + 1) // 2 for k in range(1, 9)})

    relabel = [(i * 7 + 3) % n511 for i in range(n511)]
    shuffled = sorted(
        sum(1 << relabel[i] for i in range(n511) if c >> i & 1) for c in c511
    )

    return [
        (
            "find_minor hit  (n=11 host, rank-3 excluded minor)",
            lambda k: k.find_minor(dep1, spans1, n1, c1, r1, nem3, cem3, rem3),
        ),
        (
            "find_minor miss (n=11 host, rank-4 excluded minor)",
            lambda k: k.find_minor(dep2, spans2, n2, c2, r2, nem4, cem4, rem4),
        ),
        (
            "verify_elimination (462 circuits, n=11)",
            lambda k: k.verify_elimination(c511, n511),
        ),
        (
            "cocircuit_masks (uniform rank 4 on 10)",
            lambda k: k.cocircuit_masks(n410, spans410),
        ),
        (
            "truncation_circuits (11440 circuits, n=16)",
            lambda k: k.truncation_circuits(n816, c816, dep816, r816),
        ),
        (
            "cyclic_flat_masks (n=15 direct sum, 128 flats)",
            lambda k: k.cyclic_flat_masks(nb, dep_b, closures_b),
        ),
        (
            "iso_bijection (relabeled uniform(5,11))",
            lambda k: k.iso_bijection(n511, c511, n511, shuffled),
        ),
        (
            "check_circuits (11440 circuits, n=16)",
            lambda k: k.check_circuits(c816, n816),
        ),
        (
            "check_circuits failing (11439 circuits, n=16)",
            lambda k: k.check_circuits(less816, n816),
        ),
        (
            "closure_mask per circuit (6435 circuits, n=16)",
            lambda k: [k.closure_mask(dep715c, c, n715c) for c in c715c],
        ),
        (
            "minor_circuits contracting 3 (11440 circuits, n=16)",
            lambda k: k.minor_circuits(dep816, c816, 0, 0b111),
        ),
        (
            "submasks_of_size drained (8 of 16)",
            lambda k: sum(1 for _ in k.submasks_of_size(0xFFFF, 8)),
        ),
        (
            "_sort_masks + tuple_of (11440 circuits, n=16)",
            lambda k: [u816.ground.tuple_of(c) for c in _sort_masks(c816)],
        ),
        (
            "canonicalize (16-element chain of 8 members)",
            lambda k: canonicalize(chain16, 16),
        ),
    ]


def timed(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(pure)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=3, help="timing repeats")
    args = ap.parse_args()

    header = f"{'workload':<52} {'seconds':>9}"
    print(header)
    print("-" * len(header))
    for name, fn in workloads():
        print(f"{name:<52} {timed(fn, args.repeat):>9.4f}")


if __name__ == "__main__":
    main()
