"""One benchmark process: set up, run every op once, check the outputs.

run.py starts this file in a fresh interpreter, so import-time work and
module-level caches are paid as a CLI user pays them.  Modes:

  setup  build and write the inputs, report the set-up time, exit
  run    also time every op through laminarmatroids.cli.main in order
  trace  like run, with the layer wrappers from tracing.py installed

With --gate the correctness gate checks every op's output after the timed
loop.  Every pass also reports a digest of each op's exit code and stdout,
so run.py gates one pass and holds the others to the same bytes.

The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_package():
    """Import laminarmatroids from this checkout's src/, never elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "laminarmatroids", "__init__.py")):
        raise SystemExit(f"no laminarmatroids package under {src}")
    sys.path.insert(0, src)
    import laminarmatroids
    import laminarmatroids.cli

    if not os.path.abspath(laminarmatroids.__file__).startswith(src + os.sep):
        raise SystemExit(f"laminarmatroids imported from {laminarmatroids.__file__}")
    return laminarmatroids


def digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode("utf-8"))
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, required=True)
    ap.add_argument("--launched", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--indir", required=True, help="new directory for the input files")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--gate", action="store_true", help="check every op's output")
    args = ap.parse_args(argv)

    pkg = import_package()
    import gate
    import tracing
    import workloads

    ops = workloads.build(args.workload, args.seed, args.scale, smoke=args.smoke)
    os.makedirs(args.indir)
    paths = []
    for op in ops:
        path = os.path.join(args.indir, op.file)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(op.text)
        paths.append(path)
    result = {"setup_s": time.monotonic() - args.launched, "ops": len(ops)}
    if args.mode != "setup":
        result.update(run_ops(pkg, gate, tracing, args, ops, paths))
    print(json.dumps(result))


def run_ops(pkg, gate, tracing, args, ops, paths):
    main = pkg.cli.main
    rec = None
    if args.mode == "trace":
        rec = tracing.Recorder()
        main = tracing.install(rec)
        rec.on = True
    outputs, codes, latency = [], [], []
    start = time.perf_counter()
    for i, (op, path) in enumerate(zip(ops, paths)):
        out, err = io.StringIO(), io.StringIO()
        if rec is not None:
            rec.begin_op(i)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(op.argv(path))
        except Exception as exc:  # the op failed; the gate counts it
            rc = f"raised {exc!r}"
        latency.append(time.perf_counter() - t0)
        outputs.append(out.getvalue())
        codes.append(rc)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rec is not None:
        rec.on = False

    failures = []
    for i, (op, rc, out) in enumerate(zip(ops, codes, outputs) if args.gate else ()):
        reason = gate.check(pkg, args.workload, op, rc, out)
        if reason is not None:
            failures.append({"op": i, "kind": op.kind, "command": op.command, "why": reason})

    result = {
        "wall_s": wall,
        "latency_s": latency,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "op_digests": [digest([f"{rc}\0", out])[:16] for rc, out in zip(codes, outputs)],
        "input_digest": digest(op.file + "\0" + op.text for op in ops),
        "stdout_digest": digest(outputs),
        "commands": [" ".join(op.argv(op.file)) for op in ops],
        "kinds": [op.kind for op in ops],
        "backend": pkg.backend_name(),
    }
    if rec is not None:
        result["self_time_error_s"] = rec.self_time_error()
        result["layers"] = rec.metrics(overhead_ratio=None)
        trace_path = os.path.join(args.workdir, f"spans-{args.workload}-s{args.seed}.jsonl")
        rec.dump(trace_path)
        result["spans"] = len(rec.spans)
        result["spans_file"] = os.path.relpath(trace_path, ROOT)
    return result


if __name__ == "__main__":
    main()
