"""``python -m weakkam``: the ``weakkam`` command without the console script."""

from .cli import main

raise SystemExit(main())
