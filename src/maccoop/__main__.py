"""``python -m maccoop``: the command line interface without the installed entry point."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
