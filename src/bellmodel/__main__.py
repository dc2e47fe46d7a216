"""The process entry: ``python -m bellmodel`` and the installed ``bellmodel`` command."""

import os
import sys

from .cli import main


def run() -> None:
    """Run the command line and end the process with its code, without teardown.

    `main` flushes stdout itself and reports a failed write as exit 2, and
    stderr is line-buffered, so `os._exit` loses nothing.  It skips teardown,
    which would only collect and free what the exit returns anyway, and
    whose one ``atexit`` callback, ``logging.shutdown``, has no handler of
    bellmodel's to flush.  `main` does none of this: it also runs inside
    other programs, whose exit is not its own.
    """
    if sys.stderr is None:  # started with fd 2 closed: argparse would write to stdout
        sys.stderr = open(os.devnull, "w")
    os._exit(main())


if __name__ == "__main__":
    run()
