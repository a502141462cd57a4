"""``python -m repro.faults``: the fuzz CLI, :mod:`repro.faults.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
