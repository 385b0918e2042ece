"""Golden CLI outputs: each command's output and exit code, pinned across changes.

Every case runs through ``cli.main`` in-process and is compared with the
files under ``tests/golden/``.  A change that moves output bytes shows them in
its diff.  To rewrite the files after an intended change, run

    PYTHONPATH=src python tests/test_golden.py

Platform rule.  The files were recorded with the numpy version, BLAS build
and machine named in ``tests/golden/manifest.json``.  Where all three match,
the output must be the same bytes.  Elsewhere the last digits of a float may
legitimately differ, so the comparison is exact on every non-float token and
within 1e-12 on every float.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import pathlib
import platform
import re
import tempfile

import numpy as np
import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
FLOAT_TOL = 1e-12

# name -> argv, run in a scratch directory that holds the README's branches.json;
# where a case names --out, that file's contents stand for its output
CASES = {
    "mz-sweep": ["mz-sweep"],
    "mz-sweep-grid3": ["mz-sweep", "--grid-points", "3"],
    "mz-sweep-grid2001": ["mz-sweep", "--grid-points", "2001"],
    "mz-sweep-json-out": ["mz-sweep", "--format", "json", "--out", "sweep.json"],
    "sorkin-order2-seed7": ["sorkin", "--order", "2", "--seed", "7"],
    "sorkin-order2-seed7-csv": ["sorkin", "--order", "2", "--seed", "7", "--format", "csv"],
    "sorkin-order2-seed20260817": ["sorkin", "--order", "2", "--seed", "20260817"],
    "sorkin-order2-seed20260817-csv": [
        "sorkin", "--order", "2", "--seed", "20260817", "--format", "csv"],
    "sorkin-order3-seed7": ["sorkin", "--order", "3", "--seed", "7", "--trials", "1000"],
    "sorkin-order3-seed7-csv": [
        "sorkin", "--order", "3", "--seed", "7", "--trials", "1000", "--format", "csv"],
    "sorkin-order3-seed20260817": ["sorkin", "--order", "3", "--seed", "20260817"],
    "sorkin-order3-seed20260817-csv": [
        "sorkin", "--order", "3", "--seed", "20260817", "--format", "csv"],
    "sorkin-order2-classical": ["sorkin", "--order", "2", "--theory", "classical"],
    "sorkin-order2-classical-csv": [
        "sorkin", "--order", "2", "--theory", "classical", "--format", "csv"],
    "sorkin-no-seed": ["sorkin", "--order", "2"],
    "kickback-readme": ["kickback", "--unitaries", "branches.json", "--seed", "1"],
    "deutsch-00": ["deutsch", "--function", "00"],
    "deutsch-01": ["deutsch", "--function", "01"],
    "deutsch-10": ["deutsch", "--function", "10"],
    "deutsch-11": ["deutsch", "--function", "11"],
    "exchange-sym": ["exchange", "--state", "sym", "--seed", "0"],
    "exchange-antisym": ["exchange", "--state", "antisym", "--seed", "0"],
    "exchange-anyon": ["exchange", "--state", "anyon:2.2", "--seed", "0"],
    "exchange-antisym-dim3": ["exchange", "--state", "antisym", "--dim", "3", "--seed", "0"],
    "phase-order-readme": ["phase-order", "--angles", "0,3.1,1.0"],
    "phase-order-zero": ["phase-order", "--angles", "0,0,0"],
    "phase-order-tiny": ["phase-order", "--angles", "0,1e-10,0"],
}

_FLOAT = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan)")


def _readme_branches() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("```json\n", 1)[1].split("```", 1)[0]


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and output of one CLI run, with no seed in the environment."""
    from interferlab.cli import SEED_ENV_VAR, main

    with tempfile.TemporaryDirectory() as work:
        with open(os.path.join(work, "branches.json"), "w", encoding="utf-8") as fh:
            fh.write(_readme_branches())
        sink = io.StringIO()
        saved_seed, saved_cwd = os.environ.pop(SEED_ENV_VAR, None), os.getcwd()
        try:
            os.chdir(work)
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv))
        finally:
            os.chdir(saved_cwd)
            if saved_seed is not None:
                os.environ[SEED_ENV_VAR] = saved_seed
        if "--out" not in argv:
            return code, sink.getvalue()
        assert sink.getvalue() == ""
        with open(os.path.join(work, argv[argv.index("--out") + 1]),
                  encoding="utf-8", newline="") as fh:
            return code, fh.read()


def platform_id() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 cannot report its BLAS
        blas_id = None
    return {"numpy": np.__version__, "blas": blas_id, "machine": platform.machine()}


def _manifest() -> dict:
    return json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


def _same_up_to_float_digits(got: str, want: str) -> bool:
    got_parts, want_parts = _FLOAT.split(got), _FLOAT.split(want)
    if len(got_parts) != len(want_parts):
        return False
    # re.split with one group alternates text (even) and float tokens (odd)
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2 == 0 and g != w:
            return False
        if i % 2 == 1 and g != w:
            a, b = float(g), float(w)
            if not (a == b or (math.isfinite(a) and abs(a - b) <= FLOAT_TOL)):
                return False
    return True


def test_golden_files_cover_exactly_the_cases():
    assert set(_manifest()["commands"]) == set(CASES)
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_its_golden_file(name):
    manifest = _manifest()
    recorded = manifest["commands"][name]
    assert recorded["argv"] == CASES[name]
    code, text = run_case(CASES[name])
    assert code == recorded["exit"]
    want = (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")
    exact = platform_id() == manifest["platform"]
    if not (text == want if exact else _same_up_to_float_digits(text, want)):
        line = next((i for i, (a, b) in enumerate(zip(text.splitlines(), want.splitlines()))
                     if a != b), min(len(text.splitlines()), len(want.splitlines())))
        pytest.fail(f"{name}: output differs from tests/golden/{name}.out at line {line + 1} "
                    f"({'bytes' if exact else 'beyond 1e-12'})", pytrace=False)


def test_float_comparison_is_exact_on_everything_but_float_digits():
    assert _same_up_to_float_digits('{"a": 0.1, "b": [1e-17]}',
                                    '{"a": 0.1000000000000001, "b": [0]}')
    assert not _same_up_to_float_digits('{"a": 0.1}', '{"b": 0.1}')
    assert not _same_up_to_float_digits("x,1.5\n", "x,1.50001\n")
    assert not _same_up_to_float_digits("1,2\n", "1,2,3\n")


def regenerate() -> None:
    """Rewrite every golden file and the manifest from the current code."""
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    commands = {}
    for name, argv in CASES.items():
        code, text = run_case(argv)
        with open(GOLDEN / f"{name}.out", "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        commands[name] = {"argv": argv, "exit": code}
    manifest = {"platform": platform_id(), "commands": commands}
    (GOLDEN / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
