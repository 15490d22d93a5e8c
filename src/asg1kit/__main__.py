"""``python -m asg1kit``: the command-line interface of `asg1kit.harness`."""

from .harness import main

raise SystemExit(main())
