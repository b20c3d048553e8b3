"""One fresh-interpreter set-up, as a user's run pays it.

Imports the program (the CLI module and the library modules the
workloads drive), builds the TPC-H database and the default rule
registry, and prints the phase times as one JSON line.  ``run.py`` starts this
script several times per run and times each process from outside, so
``setup_s`` includes interpreter start-up.

    python3 perfbench/setup_probe.py --data-seed 0 --scale 10
"""

import argparse
import json
import os
import sys
import time

START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--data-seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    started = time.perf_counter()
    import repro.cli  # noqa: F401  (the entry point every subcommand loads)
    import repro.testing.differential  # noqa: F401
    import repro.testing.mutation  # noqa: F401
    import repro.testing.report  # noqa: F401
    from repro.rules.registry import default_registry
    from repro.workloads import tpch_database

    imported = time.perf_counter()
    tpch_database(seed=args.data_seed, scale=args.scale)
    generated = time.perf_counter()
    default_registry()
    done = time.perf_counter()
    print(json.dumps({
        "interpreter_s": started - START,
        "import_s": imported - started,
        "datagen_s": generated - imported,
        "registry_s": done - generated,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
