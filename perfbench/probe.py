"""One set-up of an in-process workload, in a fresh interpreter.

``python3 perfbench/probe.py --workload NAME --seed N`` imports the
package, builds the workload's inputs, compiles and binds the program
and runs one unit call, then prints ``ready``.  ``run.py`` times it from
process start to that line: the user-visible cost of getting to a first
answer.
"""

from __future__ import annotations

import argparse
import sys

from common import use_source_tree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    use_source_tree()
    import inproc
    workload = inproc.make(args.workload, args.seed)
    session = workload.setup()
    workload.unit(session, 0, inproc.Tally())
    print("ready", flush=True)
    getattr(workload, "close", lambda: None)()
    return 0


if __name__ == "__main__":
    sys.exit(main())
