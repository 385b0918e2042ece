"""interferlab benchmark: seeded closed-loop workloads with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  ``--trace 0`` measures the workload end to end and ends
with one JSON line of end-to-end metrics; ``--trace 1`` runs the traced layer
report (see layers.py) and ends with one JSON line of per-layer metrics.
``--workload all`` runs every workload untraced, one process each, and prints
a table.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("scan-small-d", "kickback-large-d", "cli-cold")

# One load generator, single-threaded BLAS: no more threads than cores on any
# machine, and no thread pool contending with the caller on a busy host.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_OPS = 100  # so latency_p90_s has at least ten samples beyond it
# Fresh-process set-up samples per run, besides the measuring process itself;
# half run before the timed loop and half after, so the median spans the run
# rather than one moment of a host whose speed drifts.
SETUP_PROBES = {"scan-small-d": 4, "kickback-large-d": 6, "cli-cold": 6}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _prepare_environment() -> None:
    if not os.path.isfile(os.path.join(SRC, "interferlab", "__init__.py")):
        raise BenchError(f"no interferlab sources under {SRC}")
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    sys.path.insert(0, SRC)


def import_package() -> float:
    """Import interferlab from this checkout; return the import time."""
    start = time.perf_counter()
    import interferlab

    elapsed = time.perf_counter() - start
    where = os.path.dirname(os.path.abspath(interferlab.__file__))
    if where != os.path.join(SRC, "interferlab"):
        raise BenchError(f"interferlab imported from {where}, not from {SRC}")
    return elapsed


def set_up(workload_name: str) -> tuple[float, object, object]:
    """Import plus one warm-up pass: (seconds, workloads module, context)."""
    import_s = import_package()
    import workloads

    ctx = workloads.Context(ROOT, make_work_dir())
    start = time.perf_counter()
    workloads.WORKLOADS[workload_name].warm_up(ctx)
    return import_s + time.perf_counter() - start, workloads, ctx


def make_work_dir() -> str:
    path = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path


def remove_work_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass  # another run still uses it


def setup_probe(workload_name: str) -> float:
    """Set-up time of one fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", workload_name],
        capture_output=True,
        text=True,
        cwd=ROOT,
        check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=ROOT, env=env, check=False,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def measure(workload_name: str, seed: int, seconds: float) -> dict:
    """One untraced run: set-up samples, whole cycles of timed ops, checks."""
    setup_own, workloads, ctx = set_up(workload_name)
    probes = SETUP_PROBES[workload_name]
    try:
        setups = [setup_own] + [setup_probe(workload_name) for _ in range(probes // 2)]
        run = _timed_loop(workloads, ctx, workload_name, seed, seconds)
    finally:
        remove_work_dir(ctx.work_dir)
    setups += [setup_probe(workload_name) for _ in range(probes - probes // 2)]
    run["setup_samples"] = setups
    run["metrics"]["setup_s"] = (statistics.median(setups), "s")
    return run


def _timed_loop(workloads, ctx, workload_name, seed, seconds) -> dict:
    import numpy as np

    workload = workloads.WORKLOADS[workload_name]
    rng = np.random.default_rng(seed)
    latencies: list[float] = []
    cycle_rates: list[float] = []
    failures: dict[str, str] = {}
    first_digests: list[tuple[int, bytes]] = []
    hashes: dict[str, str] = {}
    cycles = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) < MIN_OPS:
        cycle_start = len(latencies)
        for index, op in enumerate(workload.make_cycle(rng, ctx)):
            elapsed, result, failure = workloads.run_op(op)
            if failure is not None:
                failures.setdefault(f"{cycles}:{index}:{op.kind}", failure)
            elif cycles == 0 and op.digest is not None:
                first_digests.append((index, op.digest(result)))
                if not workload.in_process:
                    output = result.out_file if result.out_file is not None else result.stdout
                    hashes[op.kind] = hashlib.sha256(output).hexdigest()
            latencies.append(elapsed)
        cycle_rates.append((len(latencies) - cycle_start) / sum(latencies[cycle_start:]))
        cycles += 1
    wall = time.perf_counter() - start
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    # Same-seed rerun of the first cycle, untimed: identical bytes expected.
    rerun = workload.make_cycle(np.random.default_rng(seed), ctx)
    for index, want in first_digests:
        _, result, failure = workloads.run_op(rerun[index])
        if failure is None and rerun[index].digest(result) != want:
            failure = "same-seed rerun gave different bytes"
        if failure is not None:
            failures.setdefault(f"0:{index}:{rerun[index].kind}", f"rerun: {failure}")

    attempted = len(latencies)
    return {
        "workload": workload_name,
        "seed": seed,
        "cycles": cycles,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "wall_s": wall,
        "metrics": {
            "ops_per_s": (statistics.median(cycle_rates), "1/s"),
            "latency_p50_s": (quantile(latencies, 50), "s"),
            "latency_p90_s": (quantile(latencies, 90), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
        "cli_stdout_sha256": hashes,
        "description": workload.description,
        "reruns_checked": len(first_digests),
    }


def report(run: dict) -> dict:
    """Print the human-readable summary; return the JSON result line."""
    n = run["attempted"]
    print(f"workload {run['workload']}  seed {run['seed']}  closed loop, 1 caller  "
          f"{run['cycles']} cycles, {n} ops in {run['wall_s']:.2f} s")
    counts = {
        "setup_s": f"median of {len(run['setup_samples'])} fresh-process set-ups",
        "ops_per_s": f"median over {run['cycles']} cycles, {n} ops",
        "latency_p50_s": f"{n} samples",
        "latency_p90_s": f"{n} samples, {n - round(0.9 * n)} beyond",
        "peak_rss_mb": "largest process running ops",
    }
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name:<15} {value:>12.6g} {unit:<4} ({counts[name]})")
    print(f"  {'failed_ratio':<15} {run['failed'] / n:>12.6g}      "
          f"({run['failed']} of {n} attempted; {run['reruns_checked']} same-seed reruns)")
    for key, why in sorted(run["failures"].items())[:10]:
        print(f"  FAILED {key}: {why}")
    detail = {k: run[k] for k in ("description", "cli_stdout_sha256", "setup_samples")}
    detail["environment"] = environment()
    print("detail " + json.dumps(detail, sort_keys=True))
    return {
        "correct": run["failed"] == 0,
        "attempted": n,
        "failed": run["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in run["metrics"].items()
        },
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, each in its own process, as one table."""
    rows = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print(f"\n{'workload':<18}" + "".join(f"{m:>15}" for m in names)
          + f"{'failed_ratio':>14}{'ops':>6}")
    for name, row in rows.items():
        cells = "".join(f"{row['metrics'][m]['value']:>15.6g}" for m in names)
        ratio = row["failed"] / row["attempted"]
        print(f"{name:<18}{cells}{ratio:>14.3g}{row['attempted']:>6}")
    print("units: " + ", ".join(
        f"{m} {next(iter(rows.values()))['metrics'][m]['unit']}" for m in names))
    return 0 if all(row["correct"] for row in rows.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        _prepare_environment()
        if args.setup_probe:
            seconds, _, ctx = set_up(args.setup_probe)
            remove_work_dir(ctx.work_dir)
            print(repr(seconds))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        if args.trace:
            import layers

            result = layers.layer_report(args.workload, args.seed)
        else:
            result = report(measure(args.workload, args.seed, args.seconds))
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
