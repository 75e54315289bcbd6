#!/usr/bin/env python3
"""Times one set-up of a workload in a fresh interpreter:

    python3 perfbench/setup_time.py <workload>

prints the seconds from ``import janaka`` through generating every input.
Only the standard library and the benchmark's own modules are loaded before
the clock starts, so the time includes every module janaka imports, third
party ones too. run.py starts this every two seconds or so for ``setup_s``.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path[:0] = [str(HERE), str(ROOT / "src")]
# janaka loads from the bytecode that run.py's own set-up cached
sys.dont_write_bytecode = False
sys.pycache_prefix = str(HERE / "out" / "pycache")

from workloads import WORKLOADS, load_janaka  # noqa: E402


def main(name: str) -> None:
    workload = WORKLOADS[name]
    t0 = time.perf_counter()
    J = load_janaka()
    workload.build(J, ROOT)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1])
