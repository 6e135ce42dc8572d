#!/usr/bin/env python3
"""Builds and runs the end-to-end layer ledger (see NOTES.md).

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Configures and builds e2ebench/ (the dpgen
libraries from src/ plus the ledger driver) under $CARGO_TARGET_DIR, or
.bench_build when it is unset, then runs the ledger with these arguments.
Build output goes to stderr; the ledger's last stdout line is the JSON
result.  Exits nonzero without a result when the build fails or the
arguments are invalid.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2ebench"))
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build, "-j", jobs, "--target",
                 "e2e_ledger"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("e2ebench: build failed: " + " ".join(cmd))

    ledger = [os.path.join(build, "e2e_ledger"), *sys.argv[1:],
              "--workdir", os.path.join(build, "work")]
    sys.exit(subprocess.run(ledger).returncode)


if __name__ == "__main__":
    main()
