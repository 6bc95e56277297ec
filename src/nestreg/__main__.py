"""``python -m nestreg``: the command-line interface (see ``nestreg.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
