"""End-to-end benchmark of the laminar CLI, run in-process.

    python3 perfbench/run.py --workload recognize --seed 1 --seconds 30 --trace 0

Workloads: recognize, present16, ingest (see README.md).  Each op is one
`laminarmatroids.cli.main([...])` call on its own input file, sent by a
single closed-loop client; each pass over the ops runs in a fresh
interpreter.  --seconds sizes the run: the op list is scaled so that the
pure backend takes about that long, over three passes, on a 2-core
x86-64 container; the same seed always gives the same ops.  The first
pass is gated; the others must print the same bytes, op by op.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced pass plus its overhead against a plain pass of the same ops.
--smoke runs tiny inputs for the benchmark's tests.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  A fuller record (environment, digests, per-op commands and
latencies, failures) goes to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from tracing import unit_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")
PACKAGE = os.path.join(ROOT, "src", "laminarmatroids")

WORKLOADS = ("recognize", "present16", "ingest")
BASE_SECONDS = 8  # one pass at scale 1 takes about this long on the reference machine
PASSES = 3  # timed passes per run, each in a fresh interpreter, over the same ops
SETUP_SAMPLES = 7  # set-ups per run, the passes' own included; setup_s is their median
TIME_LIMIT_S = 170  # every child process must end by then

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}


def spawn(mode, args, deadline, gate=False):
    """One worker in a fresh interpreter; returns its JSON result."""
    indir = os.path.join(WORKDIR, f"in-{os.getpid()}")
    shutil.rmtree(indir, ignore_errors=True)
    launched = time.monotonic()
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", repr(args.scale), "--launched", repr(launched),
        "--workdir", WORKDIR, "--indir", indir,
    ] + (["--smoke"] if args.smoke else []) + (["--gate"] if gate else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    finally:
        shutil.rmtree(indir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(values):
    """Nearest-rank 90th percentile; with >= 100 values, >= 10 lie above."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def pass_failures(passes):
    """Give every pass its failures.  The first pass was gated; an op of a
    later pass fails with it, or when its exit code and stdout differ."""
    first = passes[0]
    failed = {f["op"] for f in first["failures"]}
    for p in passes[1:]:
        if len(p["op_digests"]) != len(first["op_digests"]):
            raise RuntimeError("passes ran different op lists")
        p["failures"] = [dict(f) for f in first["failures"]]
        for i, (a, b) in enumerate(zip(first["op_digests"], p["op_digests"])):
            if a != b and i not in failed:
                p["failures"].append({
                    "op": i, "kind": first["kinds"][i], "command": first["commands"][i],
                    "why": "exit code or stdout differs from the gated pass",
                })


def end_to_end(passes, setups):
    """Every op of every pass pooled: ops over summed wall time, and the
    percentiles of all the op latencies.

    The machine's speed drifts by 5-20% over seconds to minutes, so the
    figures average over the whole timed time of the run; on 10-seed
    sets that spreads less than the median pass or per-op medians do.
    """
    latencies = [lat for p in passes for lat in p["latency_s"]]
    attempted = len(latencies)
    return {
        "ops_per_s": attempted / sum(p["wall_s"] for p in passes),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": p90(latencies) * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_ratio": 1 - sum(len(p["failures"]) for p in passes) / attempted,
    }


def commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as handle:
                head = handle.read().strip()
        return head
    except OSError:
        return None


def source_digest():
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(PACKAGE, name), "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no laminarmatroids package under {PACKAGE}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    args.scale = 1.0 if args.smoke else args.seconds / (PASSES * BASE_SECONDS)
    os.makedirs(os.path.join(WORKDIR, "results"), exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S

    record = {}
    if args.trace == 0:
        setups = [spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - PASSES)]
        timed = [spawn("run", args, deadline, gate=i == 0) for i in range(PASSES)]
        pass_failures(timed)
        setups += [p["setup_s"] for p in timed]
        metrics = end_to_end(timed, setups)
        run = timed[0]
        record["setup_samples_s"] = setups
    else:
        run = spawn("run", args, deadline, gate=True)
        traced = spawn("trace", args, deadline)
        metrics = traced["layers"]
        metrics["trace.overhead_ratio"] = traced["wall_s"] / run["wall_s"]
        timed = [run, traced]
        pass_failures(timed)
        record.update(
            spans=traced["spans"], spans_file=traced["spans_file"],
            self_time_error_s=traced["self_time_error_s"],
            untraced_wall_s=run["wall_s"], traced_wall_s=traced["wall_s"],
        )

    attempted = sum(len(r["latency_s"]) for r in timed)
    failures = [f for r in timed for f in r["failures"]]
    # Passes print the same bytes, and tracing must not change them.
    same = all(
        (r["input_digest"], r["stdout_digest"], r["backend"])
        == (run["input_digest"], run["stdout_digest"], run["backend"])
        for r in timed
    )
    correct = not failures and same
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        smoke=args.smoke, commit=commit(), source_digest=source_digest(),
        backend=run["backend"], python=platform.python_version(), nproc=os.cpu_count(),
        input_digest=run["input_digest"], stdout_digest=run["stdout_digest"],
        digests_agree=same, commands=run["commands"], kinds=run["kinds"],
        passes=len(timed), latency_s=[r["latency_s"] for r in timed],
        wall_s=[r["wall_s"] for r in timed], attempted=attempted,
        error_rate=len(failures) / attempted, failures=failures, metrics=metrics,
    )
    name = f"{args.workload}-s{args.seed}-t{args.trace}{'-smoke' if args.smoke else ''}.json"
    path = os.path.join(WORKDIR, "results", name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for key, value in metrics.items():
        unit = END_TO_END.get(key) or unit_of(key)
        print(f"{key:42} {value:14.6g} {unit}", file=sys.stderr)
    print(
        f"ops {attempted}  error_rate {record['error_rate']:.4g}  backend {run['backend']}"
        f"  inputs {run['input_digest'][:12]}  stdout {run['stdout_digest'][:12]}  record {path}",
        file=sys.stderr,
    )
    for f in failures[:10]:
        print(f"FAILED op {f['op']} {f['command']} ({f['kind']}): {f['why']}", file=sys.stderr)

    units = END_TO_END if args.trace == 0 else {k: unit_of(k) for k in metrics}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
