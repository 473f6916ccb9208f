"""Set-up probe: import kcert and parse the workload's input files, then say so.

Run as ``python -m perfbench.probe DIR`` with ``src`` on PYTHONPATH. The
harness times a fresh process from spawn until the "ready" line arrives, which
is what a CLI user waits for before any real work starts.
"""

import json
import sys
from pathlib import Path


def main() -> int:
    work_dir = Path(sys.argv[1])
    from kcert.io import load_hypergraph, load_xor
    plan = json.loads((work_dir / "plan.json").read_text())
    for name in plan["instances"] + plan["oracle_instances"]:
        (load_xor if name.endswith(".xor") else load_hypergraph)(work_dir / name)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
