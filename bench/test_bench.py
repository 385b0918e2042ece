"""Tests of the benchmark itself: span arithmetic, rebinding, checks, seeding.

    python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import interferlab  # noqa: E402
import interferlab.control  # noqa: E402
import interferlab.core  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_aggregate_splits_self_time_and_counts_recursion_once():
    spans = [
        (0, "a", 0.0, 10.0, None, 0),
        (1, "b", 1.0, 4.0, 0, 0),
        (2, "a", 5.0, 9.0, 0, 0),  # a inside a: busy counts the outer one only
        (3, "b", 6.0, 7.0, 2, 0),
    ]
    stats = tracing.aggregate(spans)
    assert stats["a"] == {"calls": 2, "busy_s": 10.0, "self_s": (10 - 3 - 4) + (4 - 1)}
    assert stats["b"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0}


def test_tracer_rebinds_every_importer_and_restores_them():
    original, eigvalsh = interferlab.core.unitary_channel, np.linalg.eigvalsh
    assert interferlab.control.unitary_channel is original
    with tracing.Tracer().install() as tracer:
        assert interferlab.control.unitary_channel is not original
        assert interferlab.unitary_channel is interferlab.control.unitary_channel
        interferlab.build_controlled([np.eye(2), np.diag([1.0, -1.0])], interferlab.quantum_system(2))
    assert interferlab.control.unitary_channel is original
    assert np.linalg.eigvalsh is eigvalsh
    stats = tracing.aggregate(tracer.spans)
    assert stats["core.unitary_channel"]["calls"] == 3  # composite and two branches
    assert stats["control.build_controlled"]["busy_s"] >= stats["core.unitary_channel"]["busy_s"]
    assert stats["core.eigvalsh"]["calls"] > 0


@pytest.fixture()
def ctx(tmp_path):
    return workloads.Context(ROOT, str(tmp_path))


@pytest.mark.parametrize("name", ["scan-small-d", "kickback-large-d"])
def test_same_seed_gives_the_same_cycle_and_every_op_passes(name, ctx):
    make = workloads.WORKLOADS[name].make_cycle
    first = make(np.random.default_rng(3), ctx)
    again = make(np.random.default_rng(3), ctx)
    assert [op.kind for op in first] == [op.kind for op in again]
    cheap = [i for i, op in enumerate(first) if op.digest is not None][:6]
    for i in cheap:
        _, result, failure = workloads.run_op(first[i])
        assert failure is None
        _, rerun, _ = workloads.run_op(again[i])
        assert first[i].digest(result) == again[i].digest(rerun)


def _op(cycle, kind):
    return next(op for op in cycle if op.kind == kind)


def test_checks_reject_wrong_outputs(ctx):
    scan = workloads.WORKLOADS["scan-small-d"].make_cycle(np.random.default_rng(1), ctx)
    sweep = _op(scan, "sweep")
    table = sweep.call().copy()
    table[7, 2] += 1e-8
    assert "cos^2" in sweep.check(table)
    search = _op(scan, "search_order2")
    assert search.check(True) is not None
    oracle = _op(scan, "oracle")
    built, results = oracle.call()
    flipped = [type(r)(1 - r.parity, r.probability, r.queries) for r in results]
    assert oracle.check((built, flipped)) is not None

    large = workloads.WORKLOADS["kickback-large-d"].make_cycle(np.random.default_rng(1), ctx)
    kick = _op(large, "kickback_2x3")
    result = kick.call()
    shifted = type(result)(result.fixed_state, result.angles + 1e-7, result.transform,
                           result.kickback_residual, result.phase_residual)
    assert "kicked angles" in kick.check(shifted)
    exchange = _op(large, "exchange_d2")
    assert exchange.check(exchange.call() + 0.5) is not None


def test_cli_ops_validate_schema_and_values(ctx):
    cycle = workloads.WORKLOADS["cli-cold"].make_cycle(np.random.default_rng(2), ctx)
    deutsch = _op(cycle, "deutsch")
    _, result, failure = workloads.run_op(deutsch)
    assert failure is None
    doc = json.loads(result.stdout)
    doc["parity"] ^= 1
    bad = workloads.CliResult(0, json.dumps(doc).encode(), b"", None)
    assert "deutsch parity" in deutsch.check(bad)
    del doc["queries"]
    bad = workloads.CliResult(0, json.dumps(doc).encode(), b"", None)
    assert deutsch.check(bad).startswith("schema")
    assert deutsch.check(workloads.CliResult(2, b"", b"boom", None)).startswith("exit 2")


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-small-d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
