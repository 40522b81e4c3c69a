"""Put the program and the benchmark's modules on the import path."""

import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
