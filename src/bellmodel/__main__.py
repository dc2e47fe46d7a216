"""The process entry: ``python -m bellmodel`` and the installed ``bellmodel`` command."""

import gc
import os
import sys

from .cli import main


def run() -> None:
    """Run the command line and exit with its code, without interpreter teardown.

    The modules imported by now live until the process exits, so they are
    frozen out of the cyclic collector first.  Once `main` returns, stdout
    and stderr are flushed and `os._exit` ends the process: teardown would
    only collect and free what the exit returns anyway, and its one
    ``atexit`` callback, ``logging.shutdown``, has no handler of bellmodel's
    to flush.  If a flush fails, `sys.exit` takes over and reports it as it
    always has.  `main` does none of this: it also runs inside other
    programs, whose objects it must not pin and whose exit is not its own.
    """
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # the interpreter's exit handles a broken or missing stream
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
