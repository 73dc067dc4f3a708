"""Contract entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1`` from the root of a checkout (see ``BENCHMARK.json``).

The program under test is imported from ``src/`` of the same checkout; in a
directory that holds only the benchmark this exits non-zero before
printing anything.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program to measure under {ROOT / 'src'}")
    from perfbench.cli import contract_main

    sys.exit(contract_main())
