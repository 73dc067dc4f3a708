"""``python -m perfbench run|compare`` — see :mod:`perfbench.cli`."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.cli import main  # noqa: E402 - needs the paths above

sys.exit(main())
