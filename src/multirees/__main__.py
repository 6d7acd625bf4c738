"""``python -m multirees``: the ``multirees`` command."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
