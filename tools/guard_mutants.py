"""Fail when a guard call in src/interferlab can go missing with every Tier-1 test passing.

A guard site is an expression statement that calls one of the nine `core`
guards.  For each site this writes a copy of the tree with that statement
replaced by `pass`, keeping the line count, and runs the suite against the
copy, stopping at the first failure.  A mutant that passes every test
survives.  Tests that already fail on the unmutated tree, found by one
baseline run, are deselected; tests/test_imports.py is ignored, since it
would kill a mutant only because the deletion left an import unused.  A
mutant still running after ten baseline run times counts as killed.

Exits 1 when a survivor is not on the allow-list below, when an allow-list
entry matches no guard site, or when the baseline run cannot be judged.
Entries are keyed by (file, the statement's source with each line stripped),
not by line number, so an edit elsewhere in the file leaves them valid.  Run
from the repository root:

    PYTHONPATH=src python tools/guard_mutants.py
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time

GUARDS = {
    "_require_within", "_check_states", "_check_effects", "_require_count", "_require_same",
    "_require_shape", "_require_theory", "_require_index", "_require_finite",
}
# what the suite reads besides the package: its config and the README it tests
COPIED = ("src", "tests", "README.md", "pyproject.toml")
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
          "--ignore", "tests/test_imports.py"]

# (file, stripped statement source) -> why no test can notice the guard missing
ALLOWED = {}


def guard_sites(path):
    """(first line, last line, first column, last column, key) of each guard
    statement in a file, in source order."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    sites = []
    for node in ast.walk(ast.parse(source)):
        call = node.value if isinstance(node, ast.Expr) else None
        func = call.func if isinstance(call, ast.Call) else None
        if getattr(func, "id", getattr(func, "attr", None)) in GUARDS:
            segment = ast.get_source_segment(source, node)
            text = " ".join(line.strip() for line in segment.splitlines())
            sites.append((node.lineno, node.end_lineno, node.col_offset, node.end_col_offset,
                          (os.path.basename(path), text)))
    return sorted(sites)


def mutated(lines, first, last, start, end):
    """The source lines with one statement replaced by `pass` and blank lines;
    the columns are ast's, UTF-8 byte offsets."""
    head, tail = lines[first - 1].encode()[:start].decode(), lines[last - 1].encode()[end:].decode()
    return [*lines[: first - 1], head + "pass" + tail, *[""] * (last - first), *lines[last:]]


def run(copy, args, timeout=None):
    # no bytecode cache: two mutants of one file can share its size and mtime
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(PYTEST + args, cwd=copy, env=env, capture_output=True, text=True,
                          timeout=timeout)


def main() -> int:
    package = os.path.join("src", "interferlab")
    names = sorted(f for f in os.listdir(package) if f.endswith(".py"))
    sites = [(name, *site) for name in names for site in guard_sites(os.path.join(package, name))]
    begun = time.perf_counter()
    with tempfile.TemporaryDirectory() as copy:
        for item in COPIED:
            if os.path.isdir(item):
                shutil.copytree(item, os.path.join(copy, item),
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(item, copy)
        start = time.perf_counter()
        baseline = run(copy, ["-rfE"])
        budget = 10 * (time.perf_counter() - start)
        summary = [line for line in baseline.stdout.splitlines()
                   if line.startswith(("FAILED ", "ERROR "))]
        if baseline.returncode not in (0, 1) or any(s.startswith("ERROR ") for s in summary):
            print(f"baseline run is not judgeable (pytest exit status {baseline.returncode}):")
            print(baseline.stdout[-2000:] + baseline.stderr[-2000:])
            return 1
        failing = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in summary]
        print(f"{len(sites)} guard sites; baseline {budget / 10:.1f} s, "
              f"{len(failing)} failing tests deselected: {', '.join(failing) or '-'}")
        deselect = [arg for nodeid in failing for arg in ("--deselect", nodeid)]
        survivors, matched = [], set()
        for name, first, last, col, end_col, key in sites:
            path = os.path.join(copy, package, name)
            with open(path, encoding="utf-8") as fh:
                original = fh.read()
            lines = original.split("\n")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(mutated(lines, first, last, col, end_col)))
            try:
                status = run(copy, ["-x", *deselect], timeout=budget).returncode
            except subprocess.TimeoutExpired:
                status = "timeout"
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original)
            if status not in (0, 1, 2, "timeout"):
                print(f"  {name}:{first}: pytest exit status {status}, not a test verdict")
                return 1
            verdict = "survived" if status == 0 else f"killed ({status})"
            print(f"  {name}:{first}: {verdict}: {key[1]}", flush=True)
            if status == 0:
                if key in ALLOWED:
                    matched.add(key)
                else:
                    survivors.append(f"{name}:{first}: {key[1]}")
    stale = [f"{name}: {text}" for name, text in ALLOWED if (name, text) not in matched]
    print(f"{len(sites)} sites, {len(sites) - len(survivors) - len(matched)} killed, "
          f"{len(matched)} allowed survivors, in {time.perf_counter() - begun:.0f} s")
    for title, found in (("survivors not on the allow-list", survivors),
                         ("allow-list entries matching no surviving site", stale)):
        print(f"{len(found)} {title}")
        for entry in found:
            print(f"  {entry}")
    return 1 if survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main())
