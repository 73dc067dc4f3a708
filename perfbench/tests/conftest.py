"""Self-tests of the benchmark (outside the repo's tier-1 ``testpaths``).

Run from the repo root:  ``python -m pytest perfbench/tests -q``
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
