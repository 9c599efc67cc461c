"""Benchmark command: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1`` from the repository root.

Prints every metric by name with its unit as the last stdout line and
runs the correctness gate after each session.  Exits 2 without a result
when the engine sources (``src/repro``) are not beside this directory.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: engine sources not found under {ROOT / 'src' / 'repro'}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    # replace the script directory so the package's modules import as perfbench.*
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import main as harness_main

    return harness_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
