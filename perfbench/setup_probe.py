"""Build one simulation workload in a fresh process and report "ready".

``perfbench/run.py`` times this from spawn to the "ready" line: the
set-up a user pays before the first interval (interpreter, imports,
environment and agent construction).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import import_repro  # noqa: E402

if __name__ == "__main__":
    import_repro()
    from sim import BUILDERS

    BUILDERS[sys.argv[1]](int(sys.argv[2]))
    print("ready", flush=True)
