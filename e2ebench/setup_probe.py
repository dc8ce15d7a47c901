"""Set-up probe: run in a fresh interpreter by ``run.py``.

Times ``import repro.cli`` and building one workload's programs, and
prints both as one JSON line.  The caller times the whole process.

    python3 e2ebench/setup_probe.py WORKLOAD [--tiny]
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from corpus import WORKLOADS, build_pool  # noqa: E402


def main() -> None:
    begin = time.perf_counter()
    import repro.cli  # noqa: F401

    imported = time.perf_counter()
    build_pool(WORKLOADS[sys.argv[1]], seed=0, tiny="--tiny" in sys.argv)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - begin,
                      "build_s": built - imported}))


if __name__ == "__main__":
    main()
