"""``python -m fermivar``: the command-line interface of :mod:`fermivar.cli`."""

import sys

from .cli import main

sys.exit(main())
