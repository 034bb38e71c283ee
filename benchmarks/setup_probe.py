"""Set-up probe: one fresh interpreter running one request's first point.

Usage: ``python setup_probe.py <src dir> <mssvs argv...>``. Imports mssvs
from the given source tree, runs ``cli.main`` on the argv with stdout
captured, and prints the exit code and the CLOCK_MONOTONIC reading taken
when the call returned. The caller subtracts its own reading from just
before it started this interpreter; the clock is shared between processes.
"""

import sys
import time


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    import contextlib
    import io

    from mssvs import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[2:])
    done = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(code, repr(done))


if __name__ == "__main__":
    main()
