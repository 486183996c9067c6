"""python -m sqlab <command>: the sqlab command line, run from a checkout
(PYTHONPATH=src) or an install alike; exits with the code of cli.main."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
