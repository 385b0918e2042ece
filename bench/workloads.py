"""The benchmark's three seeded workloads: op schedules, inputs and checks.

A workload is a cycle of ops.  Every cycle draws fresh inputs from one
generator seeded by ``--seed`` and has the same op mix, so a run of whole
cycles has the same cost profile for every seed.  Each op is timed alone; its
output check runs outside the timed call, at the acceptance tolerances.

The in-process ops call only the package's public API, so refactors inside
the package do not break the end-to-end benchmark.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import interferlab as il

TWO_PI = 2.0 * math.pi
PATTERN_TOL = 1e-10
RESIDUAL_TOL = 1e-9
ANGLE_TOL = 1e-9


@dataclass
class Op:
    """One timed call and the check of its result.

    ``check`` returns None when the result is right, else the reason.
    ``digest`` maps the result to bytes for the same-seed rerun comparison;
    ops without one are not rerun.  ``prepare`` writes input files, untimed.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], bytes] | None = None
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    in_process: bool
    make_cycle: Callable[[np.random.Generator, "Context"], list[Op]]
    warm_up: Callable[["Context"], None]
    trace_cycles: int  # cycles in the fixed-size traced pass
    description: dict  # op mix and reason, echoed in every result


@dataclass
class Context:
    """Where the workload may write files and how it starts CLI processes.

    ``cli_prefix`` is the command line that runs the CLI; the traced pass
    swaps in a child that records spans around the same ``cli.main``.
    """

    root: str
    work_dir: str
    cli_prefix: list[str] = field(
        default_factory=lambda: [sys.executable, "-m", "interferlab.cli"]
    )

    def cli_env(self) -> dict:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env


def gap(a, b) -> float:
    """Largest distance between two angle arrays on the circle."""
    diff = (np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % TWO_PI
    return float(np.max(np.minimum(diff, TWO_PI - diff))) if diff.size else 0.0


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _floats(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays)


# ---------------------------------------------------------------------------
# scan-small-d: per-call overhead at d <= 4


def _sweep_op(rng: np.random.Generator) -> Op:
    q2 = il.quantum_system(2)
    experiment = il.basis_experiment(q2)
    uniform = np.array([1.0, 1.0]) / math.sqrt(2.0)
    state, effect = il.ket_state(q2, uniform), il.projector_effect(q2, uniform)
    grid = rng.uniform(0.0, TWO_PI, (200, 2))

    def check(table) -> str | None:
        want = np.cos((grid[:, 1] - grid[:, 0]) / 2.0) ** 2
        if table.shape != (200, 3) or not np.array_equal(table[:, :2], grid):
            return "sweep table does not echo its angle grid"
        dev = float(np.max(np.abs(table[:, 2] - want)))
        return None if dev <= PATTERN_TOL else f"pattern off cos^2 by {dev!r}"

    return Op(
        "sweep",
        lambda: il.interference_pattern_sweep(state, effect, experiment, grid),
        check,
        _floats,
    )


def _third_order_op(rng: np.random.Generator) -> Op:
    experiment = il.basis_experiment(il.quantum_system(3))
    seed = _seed(rng)

    def check(report) -> str | None:
        if report.trials != 50 or report.verdict != il.VERDICT_ABSENT:
            return f"order-3 scan verdict {report.verdict!r} over {report.trials} trials"
        if not report.max_abs_residual < RESIDUAL_TOL:
            return f"order-3 residual {report.max_abs_residual!r}"
        return None

    return Op(
        "third_order",
        lambda: il.third_order_scan_quantum(experiment, trials=50, seed=seed),
        check,
        lambda r: _floats([s.residual for s in r.samples]),
    )


def _search_op(rng: np.random.Generator, order: int) -> Op:
    system = il.quantum_system(3)
    experiment = il.basis_experiment(system)
    # relative angles kept away from 0 so the order-2 search cannot miss
    angles = np.concatenate([[0.0], rng.uniform(0.3, TWO_PI - 0.3, 2)])
    phase = il.phase_unitary(system, angles)
    seed = _seed(rng)

    def check(found) -> str | None:
        want = order < 2  # a nonzero relative phase is caught at order 2
        return None if found is want else f"search said {found}, closed form {want}"

    return Op(
        f"search_order{order}",
        lambda: il.is_n_undetectable(phase, experiment, order, method="search", seed=seed),
        check,
        lambda found: bytes([found]),
    )


def _oracle_op(rng: np.random.Generator) -> Op:
    table = tuple(int(b) for b in rng.integers(0, 2, 4))
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def call():
        oracle = il.build_oracle(table)
        return oracle, [il.run_pairwise(oracle, i, j) for i, j in pairs]

    def check(out) -> str | None:
        oracle, results = out
        for (i, j), res in zip(pairs, results):
            if res.parity != table[i] ^ table[j] or res.queries != 1:
                return f"pair ({i},{j}): parity {res.parity} in {res.queries} queries"
        if oracle.query_count != len(pairs):
            return f"{oracle.query_count} queries for {len(pairs)} parities"
        return None

    return Op(
        "oracle",
        call,
        check,
        lambda out: _floats([r.probability for r in out[1]]),
    )


def _scan_cycle(rng: np.random.Generator, ctx: Context) -> list[Op]:
    # Five ops of four kinds: the search runs at order 1 and at order 2, which
    # puts the median latency inside one kind rather than between two.
    return [
        _sweep_op(rng),
        _third_order_op(rng),
        _search_op(rng, 1),
        _oracle_op(rng),
        _search_op(rng, 2),
    ]


def _scan_warm_up(ctx: Context) -> None:
    for op in _scan_cycle(np.random.default_rng(0), ctx):
        op.call()


# ---------------------------------------------------------------------------
# kickback-large-d: channel construction cost at composite dimension 6..24

# (branches n, target d) of the controlled ops in one cycle; composite n*d.
# With the exchange ops below, a cycle has 71 ops: 30 at composite 6-9, 26 at
# 12, 6 at 16, 6 at 18 and three at 24.  The small ops put the median inside
# the composite-12 group and p90 a third of the way into the composite-18
# group, so neither percentile sits on the edge between two op sizes.
# Composite 32 is left to the layer report: its einsum streams arrays larger
# than the cache, and on a shared host that made set-up time swing by 20-40 %
# between runs, against 10 % without it.
KICKBACK_MIX = (
    [(2, 3)] * 9 + [(2, 4)] * 8 + [(3, 3)] * 9
    + [(2, 6)] * 9 + [(3, 4)] * 9 + [(4, 3)] * 8
    + [(2, 8)] * 3 + [(4, 4)] * 3
    + [(2, 9)] * 2 + [(3, 6)] * 2
    + [(2, 12), (3, 8), (4, 6)]
)
# factor dimension d of the exchange ops; composite 2*d*d (8 and 18)
EXCHANGE_MIX = [2] * 4 + [3] * 2
# the same-seed rerun repeats only ops up to this composite dimension, which
# keeps it to about two seconds
RERUN_MAX_DIM = 18


def _rerun_digest(composite_dim: int, digest):
    return digest if composite_dim <= RERUN_MAX_DIM else None


def _kickback_op(rng: np.random.Generator, n: int, d: int, named: bool) -> Op:
    phases = rng.uniform(0.0, TWO_PI, (n, d))
    branches = [np.diag(np.exp(1j * row)) for row in phases]
    target = il.quantum_system(d)
    j = int(rng.integers(d))
    fixed = il.basis_state(target, j) if named else None
    seed = _seed(rng)

    def call():
        controlled = il.build_controlled(branches, target, seed=seed)
        return il.extract_kickback(controlled, fixed, seed=seed)

    def check(result) -> str | None:
        rho = il.density_matrix(result.fixed_state)
        k = int(np.argmax(np.diag(rho).real))
        if named and k != j:
            return f"fixed state moved from basis state {j} to {k}"
        if abs(rho[k, k].real - 1.0) > ANGLE_TOL:
            return "fixed state is not a computational basis state"
        dev = gap(result.angles, phases[:, k] - phases[0, k])
        return None if dev <= ANGLE_TOL else f"kicked angles off by {dev!r}"

    return Op(
        f"kickback_{n}x{d}",
        call,
        check,
        _rerun_digest(n * d, lambda r: _floats(r.angles, r.fixed_state.coeffs)),
    )


def _exchange_op(rng: np.random.Generator, d: int) -> Op:
    factor = il.quantum_system(d)
    system = il.composite_system(factor, factor)
    kind = ("sym", "antisym", "anyon")[int(rng.integers(3))]
    amplitudes = np.zeros(d * d, dtype=complex)
    amplitudes[1] = 1.0 / math.sqrt(2.0)
    amplitudes[d] = (-1.0 if kind == "antisym" else 1.0) / math.sqrt(2.0)
    state = il.ket_state(system, amplitudes)
    if kind == "anyon":
        # kept clear of the boson and fermion angles
        injected = float(rng.uniform(0.5, math.pi - 0.5) + math.pi * rng.integers(2))
        exchange = il.anyonic_exchange_unitary(state, injected)
        want = injected
    else:
        exchange = il.swap_exchange_unitary(d)
        want = 0.0 if kind == "sym" else math.pi
    seed = _seed(rng)

    def check(theta) -> str | None:
        dev = gap([theta], [want])
        return None if dev <= ANGLE_TOL else f"{kind} exchange angle off by {dev!r}"

    return Op(
        f"exchange_d{d}",
        lambda: il.exchange_experiment(state, exchange, seed=seed),
        check,
        _rerun_digest(2 * d * d, lambda theta: _floats([theta])),
    )


def _kickback_cycle(rng: np.random.Generator, ctx: Context) -> list[Op]:
    ops = [
        _kickback_op(rng, n, d, named=bool(i % 2))
        for i, (n, d) in enumerate(KICKBACK_MIX)
    ]
    ops += [_exchange_op(rng, d) for d in EXCHANGE_MIX]
    return [ops[i] for i in rng.permutation(len(ops))]


def _kickback_warm_up(ctx: Context) -> None:
    # Fill the basis caches through the public API for every (control,
    # target) pair the cycle builds, then run one small op of each kind.
    rng = np.random.default_rng(0)
    pairs = set(KICKBACK_MIX) | {(2, d * d) for d in EXCHANGE_MIX}
    for n, d in sorted(pairs):
        il.tensor_states(
            il.random_state(il.quantum_system(n), rng),
            il.random_state(il.quantum_system(d), rng),
        )
    _kickback_op(rng, 2, 3, named=False).call()
    _exchange_op(rng, 2).call()


# ---------------------------------------------------------------------------
# cli-cold: one fresh interpreter per command


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    out_file: bytes | None


def _matrix_dict(mat: np.ndarray) -> dict:
    return {
        "shape": list(mat.shape),
        "entries": [[float(z.real), float(z.imag)] for z in mat.reshape(-1)],
    }


def _cli_op(ctx: Context, label: str, argv: list[str], check_doc, out_file=None) -> Op:
    """One command in its own process; its document is checked after."""
    command = argv[0]

    def call() -> CliResult:
        proc = subprocess.run(
            [*ctx.cli_prefix, *argv],
            capture_output=True,
            env=ctx.cli_env(),
            cwd=ctx.root,
            check=False,
        )
        data = None
        if out_file is not None and proc.returncode == 0:
            with open(out_file, "rb") as fh:
                data = fh.read()
        return CliResult(proc.returncode, proc.stdout, proc.stderr, data)

    def check(res: CliResult) -> str | None:
        if res.code != 0:
            return f"exit {res.code}: {res.stderr.decode(errors='replace').strip()[-200:]}"
        raw = res.out_file if out_file is not None else res.stdout
        text = raw.decode("utf-8")
        if text.startswith("{"):
            doc = json.loads(text)
            problem = _schema_problem(command, doc)
            if problem:
                return problem
        else:
            doc = _parse_csv(text)
        return check_doc(doc)

    def digest(res: CliResult) -> bytes:
        return res.stdout + b"\0" + (res.out_file or b"")

    return Op(label, call, check, digest)


@functools.lru_cache(maxsize=None)
def _validator(command: str):
    import jsonschema

    return jsonschema.Draft202012Validator(il.load_schema(command))


def _schema_problem(command: str, doc: dict) -> str | None:
    errors = sorted(_validator(command).iter_errors(doc), key=str)
    return f"schema: {errors[0].message}" if errors else None


def _parse_csv(text: str) -> dict:
    lines = text.rstrip("\n").split("\n")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return {"header": lines[0].split(","), "rows": rows}


def _pattern_problem(deltas, probs) -> str | None:
    want = np.cos(np.asarray(deltas) / 2.0) ** 2
    dev = float(np.max(np.abs(np.asarray(probs) - want)))
    return None if dev <= PATTERN_TOL else f"pattern off cos^2 by {dev!r}"


def _write_branches(path: str, phases: np.ndarray, fixed_index: int | None) -> None:
    doc = {"unitaries": [_matrix_dict(np.diag(np.exp(1j * row))) for row in phases]}
    if fixed_index is not None:
        d = phases.shape[1]
        amps = [[1.0 if k == fixed_index else 0.0, 0.0] for k in range(d)]
        doc["fixed_state"] = {
            "system": {"theory": "quantum", "dim": d},
            "form": "amplitude",
            "amplitudes": amps,
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _kicked_problem(angles, phases: np.ndarray, fixed_index: int | None) -> str | None:
    columns = range(phases.shape[1]) if fixed_index is None else [fixed_index]
    best = min(gap(angles, phases[:, k] - phases[0, k]) for k in columns)
    return None if best <= ANGLE_TOL else f"kicked angles off by {best!r}"


def _cli_cycle(rng: np.random.Generator, ctx: Context) -> list[Op]:
    ops: list[Op] = []
    s = _seed(rng)
    lo, hi = sorted(rng.uniform(0.0, TWO_PI, 2))

    def mz_csv(doc):
        if doc["header"] != ["delta_phi", "probability"] or len(doc["rows"]) != 200:
            return "mz-sweep CSV has the wrong shape"
        rows = np.asarray(doc["rows"])
        if float(np.max(np.abs(rows[:, 0] - np.linspace(lo, hi, 200)))) > 1e-12:
            return "mz-sweep grid does not match the requested range"
        return _pattern_problem(rows[:, 0], rows[:, 1])

    ops.append(_cli_op(ctx, "mz-sweep-csv", [
        "mz-sweep", "--grid-points", "200",
        "--angle-min", repr(float(lo)), "--angle-max", repr(float(hi)),
    ], mz_csv))

    out_path = os.path.join(ctx.work_dir, "sweep.json")
    points = int(rng.integers(150, 251))

    def mz_json(doc):
        rows = doc["rows"]
        if len(rows) != points:
            return f"mz-sweep wrote {len(rows)} rows for {points} points"
        return _pattern_problem(
            [r["delta_phi"] for r in rows], [r["probability"] for r in rows]
        )

    ops.append(_cli_op(ctx, "mz-sweep-json", [
        "mz-sweep", "--format", "json", "--out", out_path, "--grid-points", str(points),
    ], mz_json, out_file=out_path))

    def sorkin_check(verdict, order):
        def check(doc):
            if doc["order"] != order or doc["verdict"] != verdict:
                return f"sorkin order {doc['order']} verdict {doc['verdict']!r}"
            if verdict == "absent" and not doc["max_abs_residual"] < RESIDUAL_TOL:
                return f"order-{order} residual {doc['max_abs_residual']!r}"
            return None
        return check

    ops.append(_cli_op(ctx, "sorkin-2", [
        "sorkin", "--order", "2", "--seed", str(s),
    ], sorkin_check("present", 2)))
    ops.append(_cli_op(ctx, "sorkin-3", [
        "sorkin", "--order", "3", "--seed", str(s + 1), "--trials", "1000",
    ], sorkin_check("absent", 3)))

    def sorkin_csv(doc):
        if doc["header"][-1] != "residual" or len(doc["rows"]) != 1000:
            return "sorkin CSV has the wrong shape"
        worst = max(abs(row[-1]) for row in doc["rows"])
        return None if worst < RESIDUAL_TOL else f"order-3 residual {worst!r}"

    # a second order-3 scan, so the two slowest commands of a cycle form the
    # group that p90 falls in, rather than p90 sitting on a group's edge
    ops.append(_cli_op(ctx, "sorkin-3-csv", [
        "sorkin", "--order", "3", "--seed", str(s + 7), "--trials", "1000", "--format", "csv",
    ], sorkin_csv))
    ops.append(_cli_op(ctx, "sorkin-2-classical", [
        "sorkin", "--order", "2", "--theory", "classical", "--seed", str(s + 2),
    ], sorkin_check("absent", 2)))

    for label, n, d, fixed in (("kickback-common", 2, 2, None), ("kickback-named", 3, 3, 1)):
        phases = rng.uniform(0.0, TWO_PI, (n, d))
        path = os.path.join(ctx.work_dir, f"{label}.json")
        op = _cli_op(
            ctx, label, ["kickback", "--unitaries", path, "--seed", str(s + 3)],
            lambda doc, p=phases, f=fixed: _kicked_problem(doc["angles"], p, f),
        )
        op.prepare = lambda a=(path, phases, fixed): _write_branches(*a)
        ops.append(op)

    bits = [int(b) for b in rng.integers(0, 2, 2)]

    def deutsch_check(doc):
        if doc["parity"] != bits[0] ^ bits[1] or doc["queries"] != 1:
            return f"deutsch parity {doc['parity']} in {doc['queries']} queries"
        return None

    ops.append(_cli_op(ctx, "deutsch", [
        "deutsch", "--function", f"{bits[0]}{bits[1]}",
    ], deutsch_check))

    injected = float(rng.uniform(0.5, math.pi - 0.5) + math.pi * rng.integers(2))

    def exchange_check(kind, theta):
        def check(doc):
            if doc["class"] != kind or gap([doc["theta"]], [theta]) > ANGLE_TOL:
                return f"exchange gave {doc['class']} at {doc['theta']!r}"
            return None
        return check

    ops.append(_cli_op(ctx, "exchange-antisym", [
        "exchange", "--state", "antisym", "--seed", str(s + 4),
    ], exchange_check("Fermion", math.pi)))
    ops.append(_cli_op(ctx, "exchange-anyon", [
        "exchange", "--state", f"anyon:{injected!r}", "--seed", str(s + 5),
    ], exchange_check("Anyon", injected)))
    ops.append(_cli_op(ctx, "exchange-sym-d3", [
        "exchange", "--state", "sym", "--dim", "3", "--seed", str(s + 6),
    ], exchange_check("Boson", 0.0)))

    angles = [0.0, *(float(a) for a in rng.uniform(0.3, TWO_PI - 0.3, 2))]

    def order_check(doc):
        return None if doc["order"] == 2 else f"phase order {doc['order']}, want 2"

    ops.append(_cli_op(ctx, "phase-order", [
        "phase-order", "--angles", ",".join(repr(a) for a in angles),
    ], order_check))
    return ops


def _cli_warm_up(ctx: Context) -> None:
    """A CLI user starts cold: nothing to fill beyond the import."""


WORKLOADS = {
    "scan-small-d": Workload(
        in_process=True,
        make_cycle=_scan_cycle,
        warm_up=_scan_warm_up,
        trace_cycles=20,
        description={
            "ops": "interference_pattern_sweep over 200 two-path angles; qutrit "
                   "third_order_scan_quantum, 50 trials; is_n_undetectable search "
                   "at d=3, once at order 1 and once at order 2; n=4 build_oracle "
                   "with its 6 run_pairwise readouts",
            "why": "per-call overhead (one eigvalsh validation per apply or effect, "
                   "tensordot decodes, object construction) dominates; the einsum "
                   "kernels are negligible at this size",
        },
    ),
    "kickback-large-d": Workload(
        in_process=True,
        make_cycle=_kickback_cycle,
        warm_up=_kickback_warm_up,
        trace_cycles=1,
        description={
            "ops": "build_controlled + extract_kickback on seeded random diagonal "
                   "branches (half with a named fixed state, half with the common "
                   "one), and exchange_experiment; composite dimensions "
                   "6-18 for 68 ops and 24 for three per cycle",
            "why": "the multi-operand einsum in unitary_channel and the product "
                   "basis change grows like d^6 and dominates",
        },
    ),
    "cli-cold": Workload(
        in_process=False,
        make_cycle=_cli_cycle,
        warm_up=_cli_warm_up,
        trace_cycles=3,
        description={
            "ops": "one fresh `python -m interferlab.cli` process per README command: "
                   "mz-sweep csv and json, sorkin order 2, order 3 (json and csv, "
                   "1000 trials) and classical, kickback "
                   "with common and named fixed state, deutsch, exchange antisym, "
                   "anyon and sym --dim 3, phase-order",
            "why": "what a CLI user pays per command: interpreter start and imports "
                   "plus cold caches",
        },
    ),
}


def run_op(op: Op) -> tuple[float, object, str | None]:
    """Prepare, time and check one op: (seconds, result, failure or None)."""
    if op.prepare is not None:
        op.prepare()
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as err:  # a raising op is a failed op, not a crash
        return time.perf_counter() - start, None, f"{type(err).__name__}: {err}"
    elapsed = time.perf_counter() - start
    try:
        failure = op.check(result)
    except Exception as err:  # a malformed output fails its check
        failure = f"check raised {type(err).__name__}: {err}"
    return elapsed, result, failure
