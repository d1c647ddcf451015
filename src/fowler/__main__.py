"""The one launch path of the command line, for `python -m fowler` and the
`fowler` script alike.

run() runs cli.main, freezes the garbage collector's heap and exits with
main's status.  Without the freeze, the interpreter's shutdown runs full
collections over every object left from import (numpy's and this
package's), most of the time the exit takes, and they free nothing the OS
does not reclaim anyway; frozen objects are skipped.
The freeze is safe at this point: every output file is closed by its `with`
block before main returns, shutdown still flushes the standard streams, and
the OS reclaims the frozen heap.  main itself never freezes: an in-process
caller would keep its garbage alive for good.

The launch asks OpenBLAS for one thread, before anything imports numpy,
unless the caller set OPENBLAS_NUM_THREADS.  The package's only BLAS and
LAPACK calls are the integral route's few vector-matrix products and one
small eigh; a helper thread only spins idle, about 120 ms of CPU per launch,
and its share of those products made operator-check's last bits depend on
the machine's core count.
"""

import gc
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (after the thread count, which numpy reads at import)


def run() -> None:
    """Run the command line on sys.argv and exit with its status."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
