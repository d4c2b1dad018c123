"""Test set-up for the benchmark's own tests: import the program from this
checkout's ``src/`` and the benchmark package from the checkout root.

Run with ``python -m pytest e2e_bench -q`` from the root of the checkout.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
