"""`python -m qident`: the command line of qident.cli."""

import sys

from .cli import main

sys.exit(main())
