"""Compare benchmark records of a parent and a change.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of records written by run.py (copies of
.perfbench_work/results/ taken on each commit).  Records pair up by
workload, trace mode and seed.  A pair whose input digests differ is not
compared; records taken on different backends are refused outright.
For each workload and end-to-end metric this prints both medians, the
parent's quartile spread as a share of its median, and whether the
change is worse than the parent by more than the bound in
BENCHMARK.json.  It also says whether the CLI's stdout stayed byte for
byte the same on every compared seed.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    out = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path, encoding="utf-8") as handle:
            rec = json.load(handle)
        if not rec.get("smoke") and rec.get("trace") == 0:
            out[(rec["workload"], rec["seed"])] = rec
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    backends = {r["backend"] for r in parent.values()} | {r["backend"] for r in change.values()}
    if len(backends) > 1:
        print(f"refusing to compare results from different backends: {sorted(backends)}")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        same = {s: parent[workload, s]["input_digest"] == change[workload, s]["input_digest"] for s in seeds}
        skipped = [s for s in seeds if not same[s]]
        seeds = [s for s in seeds if same[s]]
        if not seeds:
            continue
        same_out = all(
            parent[workload, s]["stdout_digest"] == change[workload, s]["stdout_digest"] for s in seeds
        )
        print(f"{workload}: {len(seeds)} seeds, stdout identical: {same_out}"
              + (f", skipped seeds with other inputs: {skipped}" if skipped else ""))
        for name, m in bounds.items():
            a = [parent[workload, s]["metrics"][name] for s in seeds]
            b = [change[workload, s]["metrics"][name] for s in seeds]
            ma, mb = statistics.median(a), statistics.median(b)
            spread = ""
            if len(a) >= 2:
                q = statistics.quantiles(a, n=4)
                spread = f"parent spread {(q[2] - q[0]) / ma:.3f}"
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "WORSE" if worse > m["bound"] else "ok"
            regressed |= verdict == "WORSE"
            print(f"  {name:12} {ma:12.5g} -> {mb:12.5g} {m['unit']:6} {-worse:+8.2%} "
                  f"bound {m['bound']:.3f} {spread:22} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
