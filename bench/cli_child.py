"""One interferlab CLI command with span tracing, for the traced cli-cold pass.

    python3 bench/cli_child.py REPORT_DIR COMMAND [ARGS...]

Runs ``interferlab.cli.main`` on the arguments exactly as ``python -m
interferlab.cli`` would, so stdout and the exit code are the command's own.
At exit it writes the span statistics, the package import time and the
Hermitian-basis cache misses as JSON to REPORT_DIR/<pid>.json.
"""

import json
import os
import sys
import time

import tracing


def main() -> int:
    report_dir, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import interferlab

    import_s = time.perf_counter() - start
    import interferlab.cli as cli

    tracer = tracing.Tracer().install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        basis = getattr(interferlab.core, "hermitian_basis", None)
        report = {
            "import_s": import_s,
            "stats": tracing.aggregate(tracer.spans),
            "hermitian_misses": basis.cache_info().misses
            if hasattr(basis, "cache_info") else 0,
        }
        with open(os.path.join(report_dir, f"{os.getpid()}.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
