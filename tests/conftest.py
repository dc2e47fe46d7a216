"""Run the suite against this checkout's `src/`, also in child processes.

`pythonpath = ["src"]` in pyproject.toml only reaches this process; the
`python -m bellmodel` children of criterion 12 read PYTHONPATH instead.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
