"""``python -m kdense``: the ``kdense`` command without an installed script."""

import sys

from .cli import main

sys.exit(main())
