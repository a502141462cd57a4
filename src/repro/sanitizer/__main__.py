"""``python -m repro.sanitizer``: the same command as ``python -m repro.faults``."""

import sys

from ..faults.cli import main

if __name__ == "__main__":
    sys.exit(main())
