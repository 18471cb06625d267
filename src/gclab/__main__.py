"""`python -m gclab ...` runs the gclab command line."""

import sys

from .cli import main

sys.exit(main())
