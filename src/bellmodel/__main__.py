"""The process entry: ``python -m bellmodel`` and the installed ``bellmodel`` command."""

import gc
import sys

from .cli import main


def run() -> None:
    """Run the command line and exit with its code.

    The modules imported by now live until the process exits, so they are
    frozen out of the cyclic collector first: the full collections at
    interpreter shutdown then skip them.  Only a process entry does this;
    `main` also runs inside other programs, whose objects it must not pin.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
