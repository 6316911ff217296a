"""``python -m persistinfo``: the same command line as ``persistinfo``."""

from .cli import main

raise SystemExit(main())
