"""Run ``geowidth.cli.main`` with every layer traced, then save the spans.

Usage: python -m gwbench.cli_shim SPANS_DIR ARGV...

Stdout and the exit code are those of the plain CLI, so the benchmark's
checks apply unchanged in traced runs.
"""

import os
import sys
from pathlib import Path

from gwbench.tracing import Tracer, instrument


def main() -> int:
    spans_dir = Path(sys.argv[1])
    tracer = Tracer()
    instrument(tracer)
    import geowidth.cli

    with tracer.span("cli.main"):
        code = geowidth.cli.main(sys.argv[2:])
    tracer.save(spans_dir / f"{os.getpid()}.npz")
    return code


if __name__ == "__main__":
    sys.exit(main())
