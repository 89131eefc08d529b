"""``python -m voltmark``: the same command line as the ``voltmark`` script."""

import sys

from .cli import main

sys.exit(main())
