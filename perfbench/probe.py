"""Set-up probe: import mfsmp, parse each config and build its tree, then print
`time.perf_counter()`.  The parent reads the clock before starting this
process, so the difference is set-up time from process start.

Usage: python3 perfbench/probe.py SRC_DIR CONFIG.json [CONFIG.json ...]
"""

import sys
import time


def main(argv):
    sys.path.insert(0, argv[0])
    import mfsmp

    for path in argv[1:]:
        with open(path) as fh:
            mfsmp.parse_problem(fh.read()).build_tree()
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main(sys.argv[1:])
