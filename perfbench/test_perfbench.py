"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probes  # noqa: E402
from run import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_manifest_depends_only_on_seed():
    for workload in WORKLOADS.values():
        assert workload.manifest(7) == workload.manifest(7)
        assert workload.manifest(7) != workload.manifest(8)


def test_self_times_add_up_to_the_command():
    recorder = probes.Recorder()

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    wrapped_inner = recorder.wrap("lattice:inner", inner)
    start = time.perf_counter_ns()
    main = time.perf_counter_ns()
    recorder.wrap("green:outer", outer)()
    end = time.perf_counter_ns()
    (_, s0, e0, child0, parent0, _), (_, s1, e1, child1, parent1, _) = recorder.spans
    assert (parent0, parent1) == (-1, 0)
    assert child0 == e1 - s1 and child1 == 0
    record = {
        "start_ns": start,
        "wall_s": (end - start) / 1e9,
        "output_bytes": 0,
        "probe": {"main_ns": main, "end_ns": end, "spans": recorder.spans},
    }
    metrics = layer_metrics(record)
    assert abs(metrics["trace.unattributed_s"]) < 1e-9


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert {(r["workload"], r["trace"]) for r in rows} == {
        (name, trace) for name in WORKLOADS for trace in (0, 1)
    }
    assert all(r["correct"] and r["failed"] == 0 for r in rows)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "box_setup_48", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
