"""``python -m repro.sanitize``: the spelling of :mod:`repro.faults.cli`
that the sanitizer docs use."""

from .faults.cli import main

if __name__ == "__main__":
    import sys

    sys.exit(main())
