"""Tests of the benchmark itself: python3 -m pytest perfbench -q

Smoke runs use tiny seeded inputs, so the whole file takes well under a
minute on the pure backend.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import laminarmatroids as pkg  # noqa: E402
import laminarmatroids.cli  # noqa: E402
from laminarmatroids import _kernels_py as pure  # noqa: E402

import gate  # noqa: E402
import model  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload, seed=1, trace=0):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    name = f"{workload}-s{seed}-t{trace}-smoke.json"
    with open(os.path.join(run.WORKDIR, "results", name), encoding="utf-8") as handle:
        return result, json.load(handle)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    assert all(m["unit"] == tracing.unit_of(m["name"]) for m in SPEC["per_layer"])


def test_model_agrees_with_the_package():
    rng = random.Random(7)
    for _ in range(80):
        labels = workloads.names(rng, rng.randint(1, 8))
        steps, result = workloads.random_script(rng, labels)
        ground, caps = model.run_script(steps)
        p = pkg.run_script(pkg.ConstructionScript(steps=tuple(steps), result=result))
        m = p.to_explicit()
        assert p.elements == ground
        circuits = model.circuits(caps)
        assert len(circuits) == len(set(circuits)) == model.circuit_count(caps)
        assert set(circuits) == set(m.circuits)
        assert model.rank(caps, ground) == m.rank()
        assert model.same_matroid(caps, {a: p.capacity(a) for a in p.members})
        fat = workloads.inflate(rng, caps, ground)
        assert pkg.LaminarPresentation(ground, fat).to_explicit() == m
        if m.rank() > 0:
            smaller = dict(caps)
            smaller[frozenset(ground)] = m.rank() - 1
            assert not model.same_matroid(caps, smaller)


def _outputs(workload, seed=3):
    ops = workloads.build(workload, seed, 1.0, smoke=True)
    got = []
    for op in ops:
        path = os.path.join(run.WORKDIR, "test-" + op.file)
        os.makedirs(run.WORKDIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(op.text)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                rc = pkg.cli.main(op.argv(path))
        finally:
            os.remove(path)
        got.append((op, rc, out.getvalue()))
    return got


def _corrupt(op, out):
    """A wrong answer in the shape of a right one."""
    if op.command in ("classify", "is-laminar"):
        flip = {"laminar: yes": "laminar: no", "laminar: no": "laminar: yes"}
        return "".join(flip.get(line, line) + "\n" for line in out.splitlines())
    first = op.text.split()[1] if op.file.endswith((".ckt", ".lam")) else None
    bad = re.sub(rf"(?<![\w']){re.escape(first)}(?![\w'])", "zz999", out) if first else out
    if bad == out:
        bad = re.sub(r"\d+(?=\D*$)", lambda m: str(int(m.group()) + 1), out)
    return bad if bad != out else out + "extra\n"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_gate_passes_right_outputs_and_counts_corrupted_ones(workload):
    got = _outputs(workload)
    assert got
    for op, rc, out in got:
        assert gate.check(pkg, workload, op, rc, out) is None, (op.command, op.kind, out)
    for op, rc, out in got:
        bad = _corrupt(op, out)
        assert bad != out
        assert gate.check(pkg, workload, op, rc, bad) is not None, (op.command, op.kind, bad)
        assert gate.check(pkg, workload, op, 99, out) is not None


def test_end_to_end_pools_the_passes_and_counts_failures():
    one = {"latency_s": [0.1, 0.5, 0.2, 0.1], "wall_s": 0.9, "peak_rss_mb": 20.0, "failures": [{"op": 2}]}
    two = {"latency_s": [0.3, 0.4, 0.2, 0.1], "wall_s": 1.0, "peak_rss_mb": 21.0, "failures": []}
    three = {"latency_s": [0.2, 0.7, 0.2, 0.1], "wall_s": 1.3, "peak_rss_mb": 22.0, "failures": []}
    metrics = run.end_to_end([one, two, three], [0.2, 0.3, 0.4])
    assert metrics["ok_ratio"] == 11 / 12
    # The twelve latencies sorted: 0.1 x4, 0.2 x4, 0.3, 0.4, 0.5, 0.7.
    assert metrics["op_p50_ms"] == pytest.approx(200)
    assert metrics["op_p90_ms"] == pytest.approx(500)
    assert metrics["ops_per_s"] == pytest.approx(12 / 3.2)
    assert metrics["setup_s"] == 0.3
    assert metrics["peak_rss_mb"] == 21.0


def test_later_passes_fail_with_the_gated_one_or_on_other_bytes():
    first = {"failures": [{"op": 0, "why": "wrong"}], "op_digests": ["a", "b", "c"],
             "kinds": ["k"] * 3, "commands": ["classify", "witness", "canon"]}
    same = {"failures": [], "op_digests": ["a", "b", "c"]}
    moved = {"failures": [], "op_digests": ["x", "b", "y"]}
    run.pass_failures([first, same, moved])
    assert [f["op"] for f in same["failures"]] == [0]
    assert [f["op"] for f in moved["failures"]] == [0, 2]
    assert moved["failures"][1]["command"] == "canon"
    with pytest.raises(RuntimeError):
        run.pass_failures([first, {"failures": [], "op_digests": ["a"]}])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload):
    result, record = smoke(workload)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert record["error_rate"] == 0
    for key in ("commit", "backend", "python", "nproc", "seed", "commands",
                "input_digest", "stdout_digest", "source_digest"):
        assert key in record
    assert record["backend"] == pkg.backend_name()
    assert len(record["commands"]) * record["passes"] == result["attempted"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run_reports_every_layer(workload):
    result, record = smoke(workload, trace=1)
    assert result["correct"] is True
    assert list(result["metrics"]) == list(tracing.PER_LAYER)
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert result["metrics"]["cli.self_s"]["value"] > 0
    assert record["self_time_error_s"] < 1e-6
    assert record["spans"] > result["attempted"] // 2


def test_digests_repeat_for_a_seed_and_move_with_it():
    _, first = smoke("present16", seed=5)
    _, again = smoke("present16", seed=5)
    _, other = smoke("present16", seed=6)
    assert first["input_digest"] == again["input_digest"]
    assert first["stdout_digest"] == again["stdout_digest"]
    assert first["input_digest"] != other["input_digest"]


def test_self_times_add_up_to_the_op():
    rec = tracing.Recorder()
    rec.on = True
    inner = rec.wrap("kernels.inner", lambda: sum(range(1000)))
    outer = rec.wrap("matroid.outer", lambda: inner() + inner())
    rec.begin_op(0)
    rec.wrap("cli.main", outer)()
    own = rec.self_times()
    root = rec.spans[0]
    assert sum(own) == pytest.approx(root[5] - root[4], abs=1e-9)
    assert [s[3] for s in rec.spans] == ["cli.main", "matroid.outer", "kernels.inner", "kernels.inner"]
    assert rec.self_time_error() < 1e-9
    assert rec.metrics(1.0)["kernels.self_s"] == pytest.approx(own[2] + own[3])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "ingest", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_kernel_view_inputs_have_their_known_outcomes():
    """benchmarks/bench_kernels.py times seven kernel calls; on the pure
    kernels each must give the answer known for its input."""
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    import bench_kernels

    calls = [fn for _, fn in bench_kernels.workloads()]
    host = pkg.parallel_connection(pkg.uniform(3, 6), pkg.uniform(3, 6), "e5", "e5")
    target = pkg.excluded_minor(3)
    dm, tm, perm = calls[0](pure)
    kept = host.ground.tuple_of(host.ground.full_mask & ~dm & ~tm)
    witness = pkg.MinorWitness(
        delete=host.ground.set_of(dm), contract=host.ground.set_of(tm),
        mapping=tuple((kept[i], target.elements[j]) for i, j in enumerate(perm)),
    )
    assert pkg.apply_witness(host, witness, target)
    assert calls[1](pure) is None
    assert calls[2](pure) is None
    assert len(calls[3](pure)) == 120
    assert calls[6](pure) is not None


def test_compare_refuses_mixed_backends_and_skips_other_inputs(tmp_path, capsys):
    import compare

    def record(directory, seed, backend, inputs, ops_per_s):
        directory.mkdir(exist_ok=True)
        metrics = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
        metrics["ops_per_s"] = ops_per_s
        rec = {"workload": "ingest", "seed": seed, "trace": 0, "smoke": False, "backend": backend,
               "input_digest": inputs, "stdout_digest": "out", "metrics": metrics}
        (directory / f"ingest-s{seed}-t0.json").write_text(json.dumps(rec))

    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3):
        record(parent, seed, "python", f"in{seed}", 10.0)
        record(change, seed, "python", f"in{seed}" if seed < 3 else "other", 9.9)
    assert compare.main([str(parent), str(change)]) == 0
    assert "2 seeds" in capsys.readouterr().out
    record(change, 1, "compiled", "in1", 10.0)
    assert compare.main([str(parent), str(change)]) == 2
