"""`python -m snicheck ARGS` runs the command-line driver, as `snicheck ARGS` does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
