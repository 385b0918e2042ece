"""Traced layer report: per-module spans, kernel scaling and scaled CLI runs.

Every ``--trace 1`` run traces a fixed-size pass of each workload, so each
per-layer metric is measured on the workload it is predicted to move on and
its totals compare across commits.  The ``--workload`` pass also runs
untraced first; the difference is the tracing overhead.  Then it times the
numerical kernels at d in {2, 3, 4, 8, 16, 32} where feasible and the scaled
CLI configs in-process, both untraced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import io
import json
import os
import statistics
import sys
import time

import run
import tracing

# Span fields reported per function.  Pure delegators report no self time and
# the CLI helpers no call count (fixed by the pass), to stay within the cap of
# 128 per-layer metrics.
ALL = ("calls", "busy_s", "self_s")
DELEGATE = ("calls", "busy_s")
TIMES = ("busy_s", "self_s")
BUSY = ("busy_s",)
# workload whose traced pass gives the metric -> {span name: fields}
FUNCTION_METRICS = {
    "kickback-large-d": {
        "core.unitary_channel": ALL,
        "core.tensor_states": ALL,
        "control.build_controlled": DELEGATE,
        "control.verify_control_contract": ALL,
        "control.extract_kickback": ALL,
        "control.common_fixed_state": ALL,
    },
    "scan-small-d": {
        "core.apply": ALL,
        "core.ket_state": ALL,
        "core.projector_effect": ALL,
        "core.effect_from_matrix": ALL,
        "core.random_state": ALL,
        "core.partial_pair": ALL,
        "paths._subset_effects": ALL,
        "paths.search_detecting_effect": DELEGATE,
        "paths._path_kets": ALL,
        "interference.interference_pattern_sweep": ALL,
        "interference.third_order_scan_quantum": ALL,
        "interference.sorkin_residual": ALL,
        "oracle.build_oracle": DELEGATE,
        "oracle.run_pairwise": DELEGATE,
    },
    "cli-cold": {
        "cli._resolve_config": TIMES,
        "cli._emit": TIMES,
        "serialize.complex_matrix_from_dict": TIMES,
        "serialize.state_from_dict": BUSY,
        "cli._run_mz_sweep": BUSY,
        "cli._run_sorkin": BUSY,
        "cli._run_kickback": BUSY,
        "cli._run_deutsch": BUSY,
        "cli._run_exchange": BUSY,
        "cli._run_phase_order": BUSY,
    },
}
KERNEL_DIMS = (2, 3, 4, 8, 16, 32)
SCALED_CLI = {
    "mz_sweep_20000": ["mz-sweep", "--grid-points", "20000"],
    "sorkin3_1000": ["sorkin", "--order", "3", "--trials", "1000", "--seed", "7"],
    "exchange_d3": ["exchange", "--state", "antisym", "--dim", "3", "--seed", "0"],
    "exchange_d4": ["exchange", "--state", "antisym", "--dim", "4", "--seed", "0"],
}


def _hooks(oracles: list) -> dict:
    def sampled(counters, args, kwargs, result):
        counters["paths.effects_sampled"] += kwargs.get("trials", args[2] if len(args) > 2 else 0)

    def searched(counters, args, kwargs, result):
        counters["paths.detections"] += result is not None

    def parity(counters, args, kwargs, result):
        counters["oracle.parities"] += 1

    return {
        "paths._subset_effects": sampled,
        "paths.search_detecting_effect": searched,
        "oracle.run_pairwise": parity,
        "oracle.build_oracle": lambda c, a, k, result: oracles.append(result),
    }


def _time_ops(workloads, ops, tracer=None) -> tuple[float, int]:
    """Op time and failures over a list of ops, each op a span when traced."""
    total, failed = 0.0, 0
    for index, op in enumerate(ops):
        if tracer is None:
            elapsed, _, failure = workloads.run_op(op)
        else:
            tracer.op_id = index
            with tracer.span(f"op.{op.kind}"):
                elapsed, _, failure = workloads.run_op(op)
        total += elapsed
        failed += failure is not None
    return total, failed


def _traced_pass(workload, workloads, ctx, make_ops) -> tuple[float, int, dict, dict]:
    """Traced op time, failures, span stats and counters of one pass."""
    if workload.in_process:
        oracles: list = []
        with tracing.Tracer().install(_hooks(oracles)) as tracer:
            seconds, failed = _time_ops(workloads, make_ops(ctx), tracer)
        counters = dict(tracer.counters)
        counters["oracle.queries"] = sum(o.query_count for o in oracles)
        return seconds, failed, tracing.aggregate(tracer.spans), counters
    # each command runs in a traced child that writes its own report file
    report_dir = os.path.join(ctx.work_dir, "spans")
    os.makedirs(report_dir, exist_ok=True)
    child = [sys.executable, os.path.join(run.BENCH_DIR, "cli_child.py"), report_dir]
    seconds, failed = _time_ops(workloads, make_ops(dataclasses.replace(ctx, cli_prefix=child)))
    stats: dict = {}
    imports, misses = [], 0
    for path in sorted(glob.glob(os.path.join(report_dir, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        for name, entry in report["stats"].items():
            merged = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in merged:
                merged[key] += entry[key]
        imports.append(report["import_s"])
        misses += report["hermitian_misses"]
    counters = {
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "core.hermitian_basis.misses": misses,
    }
    return seconds, failed, stats, counters


def _cache_misses(attr: str) -> int:
    import interferlab.core as core

    cached = getattr(core, attr, None)
    return cached.cache_info().misses if hasattr(cached, "cache_info") else 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _derived(name: str, stats: dict, counters: dict, ranking: list[str]) -> dict:
    """Counts and ratios derived from one workload's pass."""
    def stat(span: str, key: str) -> float:
        return stats.get(span, {}).get(key, 0)

    if name == "kickback-large-d":
        uc = "core.unitary_channel"
        all_self = sum(stat(k, "self_s") for k in ranking)
        return {
            f"{uc}.self_rank": (ranking.index(uc) + 1 if uc in ranking else len(ranking) + 1,
                                "count"),
            f"{uc}.self_share": (_ratio(stat(uc, "self_s"), all_self), "ratio"),
            "control.build_controlled.verify_share": (_ratio(
                stat("control.verify_control_contract", "busy_s"),
                stat("control.build_controlled", "busy_s")), "ratio"),
            "core.product_basis.misses": (_cache_misses("_product_basis_change"), "count"),
        }
    if name == "scan-small-d":
        return {
            "core.eigvalsh.calls": (stat("core.eigvalsh", "calls"), "count"),
            "core.eigvalsh_per_apply": (_ratio(
                stat("core.eigvalsh", "calls"), stat("core.apply", "calls")), "ratio"),
            "paths.search.detect_ratio": (_ratio(
                counters.get("paths.detections", 0),
                counters.get("paths.effects_sampled", 0)), "ratio"),
            "oracle.queries_per_parity": (_ratio(
                counters.get("oracle.queries", 0), counters.get("oracle.parities", 0)),
                "ratio"),
        }
    return {
        "cli.import_s": (counters["cli.import_s"], "s"),
        "core.hermitian_basis.misses": (counters["core.hermitian_basis.misses"], "count"),
    }


def _passes(workload_name: str, seed: int, workloads, ctx) -> tuple[dict, int, int, dict]:
    import numpy as np

    metrics: dict = {}
    attempted = failed = 0
    detail: dict = {}
    for name, workload in workloads.WORKLOADS.items():
        if workload.in_process:
            workload.warm_up(ctx)

        def make_ops(op_ctx):
            rng = np.random.default_rng(seed)
            return [op for _ in range(workload.trace_cycles)
                    for op in workload.make_cycle(rng, op_ctx)]

        pass_ops = len(make_ops(ctx))
        if name == workload_name:
            untraced_s, bad = _time_ops(workloads, make_ops(ctx))
            attempted, failed = attempted + pass_ops, failed + bad
        traced_s, bad, stats, counters = _traced_pass(workload, workloads, ctx, make_ops)
        attempted, failed = attempted + pass_ops, failed + bad
        if name == workload_name:
            metrics["trace.overhead_ratio"] = (_ratio(traced_s - untraced_s, untraced_s), "ratio")
            detail["trace_overhead_s"] = traced_s - untraced_s
        for span, fields in FUNCTION_METRICS[name].items():
            for key in fields:
                value = stats.get(span, {}).get(key, 0)
                metrics[f"{span}.{key}"] = (value, "count" if key == "calls" else "s")
        ranking = sorted((k for k in stats if not k.startswith("op.")),
                         key=lambda k: -stats[k]["self_s"])
        metrics.update(_derived(name, stats, counters, ranking))
        detail[name] = {
            "ops": pass_ops,
            "traced_s": traced_s,
            "top_self_s": [(k, round(stats[k]["self_s"], 6)) for k in ranking[:8]],
        }
    return metrics, attempted, failed, detail


def _best_time(fn, budget: float = 0.2, max_reps: int = 25) -> float:
    """Median of repeated calls, as many as fit the budget (at least one)."""
    times = []
    while len(times) < max_reps and (not times or sum(times) < budget):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_table() -> tuple[dict, list[str]]:
    """kernel.<name>.d<d>_s for the numerical kernels ROADMAP item 1 names."""
    import numpy as np
    import interferlab as il
    import interferlab.core as core

    rng = np.random.default_rng(0)
    encode = getattr(core, "_encode", None)
    decode = getattr(core, "_decode", None)
    change = getattr(getattr(core, "_product_basis_change", None), "__wrapped__", None)
    metrics, missing = {}, []

    def record(name: str, d: int, fn) -> None:
        key = f"kernel.{name}.d{d}_s"
        metrics[key] = (_best_time(fn) if fn is not None else 0.0, "s")
        if fn is None:
            missing.append(key)

    for d in KERNEL_DIMS:
        system = il.quantum_system(d)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        herm = (g + g.conj().T) / 2.0
        coeffs = rng.standard_normal(d * d)
        u = il.haar_unitary(d, rng)
        channel = il.unitary_channel(system, u)
        state = il.random_state(system, rng, kind="mixed")
        record("encode", d, encode and (lambda: encode(herm, d)))
        record("decode", d, decode and (lambda: decode(coeffs, d)))
        record("unitary_channel", d, lambda: il.unitary_channel(system, u))
        record("apply", d, lambda: il.apply(channel, state))
        record("haar_unitary", d, lambda: il.haar_unitary(d, rng))
        if d >= 4:
            a, b = il.random_state(il.quantum_system(2), rng), il.random_state(
                il.quantum_system(d // 2), rng)
            record("product_basis_change", d, change and (lambda: change(2, d // 2)))
            record("tensor_states", d, lambda: il.tensor_states(a, b))
        if d <= 16:
            phases = rng.uniform(0.0, 2.0 * np.pi, d)
            controlled = il.build_controlled([np.eye(d), np.diag(np.exp(1j * phases))], system)
            fixed = il.basis_state(system, 0)
            record("extract_kickback", d, lambda: il.extract_kickback(controlled, fixed))
    return metrics, missing


def scaled_cli() -> tuple[dict, int]:
    """cli.scaled.<case>_s: the ROADMAP's scaled configs through cli.main."""
    import interferlab.cli as cli

    metrics, failed = {}, 0
    for case, argv in SCALED_CLI.items():
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        metrics[f"cli.scaled.{case}_s"] = (time.perf_counter() - start, "s")
        failed += code != 0
    return metrics, failed


def layer_report(workload_name: str, seed: int) -> dict:
    start = time.perf_counter()
    run.import_package()
    import workloads

    ctx = workloads.Context(run.ROOT, run.make_work_dir())
    try:
        metrics, attempted, failed, detail = _passes(workload_name, seed, workloads, ctx)
    finally:
        run.remove_work_dir(ctx.work_dir)
    kernels, missing = kernel_table()
    scaled, scaled_failed = scaled_cli()
    metrics.update(kernels)
    metrics.update(scaled)
    attempted += len(SCALED_CLI)
    failed += scaled_failed
    print(f"layer report  seed {seed}  overhead measured on {workload_name}  "
          f"{time.perf_counter() - start:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>12.6g} {unit}")
    detail["missing_kernels"] = missing
    detail["environment"] = run.environment()
    print("detail " + json.dumps(detail, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
