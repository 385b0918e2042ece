"""Fail when a Tier-1 test fails or leaves a line of src/interferlab unexecuted.

Runs the suite in process under a stdlib line tracer, then prints, per module,
the executable lines that no test reached.  Exits 1 when a test fails, when
such a line is not on the allow-list below, or when an allow-list entry matches
no unexecuted line, so one traced run can stand in for the plain Tier-1 run.
Entries are keyed by (file, stripped source text), not by line number, so an
edit elsewhere in the file leaves them valid.  Run from the repository root:

    PYTHONPATH=src python tools/unrun_lines.py
"""

import os
import sys

import pytest

# (file, stripped source line) -> why no test runs it
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "the __main__ guard; the tests call cli.main in process",
    ("control.py", 'raise InfeasibleError("empty candidate subspace survived refinement")'):
        "verification check: a nonempty subspace gives some basis vector a projection of norm "
        ">= 1/sqrt(d), far above EPS_DECISION",
}


def code_lines(code):
    """Every line number a code object, or one nested in it, can execute."""
    found = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            found |= code_lines(const)
    return found


def main() -> int:
    root = os.path.abspath(os.path.join("src", "interferlab")) + os.sep
    ran = {}

    def lines(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(root):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return lines

    sys.settrace(calls)
    status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    sys.settrace(None)
    print(f"pytest exit status {status}; lines never executed in src/interferlab:")
    unlisted, matched = [], set()
    for name in sorted(f for f in os.listdir(root) if f.endswith(".py")):
        path = root + name
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        text = source.splitlines()
        executable = sorted(code_lines(compile(source, path, "exec")))
        missed = [n for n in executable if n not in ran.get(path, ())]
        # runs of missed lines with no executed line between them
        runs = []
        for i, n in enumerate(executable):
            if n in missed:
                if i and executable[i - 1] in missed:
                    runs[-1][1] = n
                else:
                    runs.append([n, n])
        listed = ", ".join(f"{a}-{b}" if a != b else f"{a}" for a, b in runs) or "-"
        print(f"  {name}: {len(missed)} of {len(executable)} lines: {listed}")
        for n in missed:
            key = (name, text[n - 1].strip())
            if key in ALLOWED:
                matched.add(key)
            else:
                unlisted.append(f"{name}:{n}: {key[1]}")
    stale = [f"{name}: {line}" for name, line in ALLOWED if (name, line) not in matched]
    for title, found in (("not on the allow-list", unlisted), ("allowed but executed", stale)):
        print(f"{len(found)} lines {title}")
        for entry in found:
            print(f"  {entry}")
    return 1 if status or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
