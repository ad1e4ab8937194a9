"""Run the command-line front end: ``python -m bbma <command> ...``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
