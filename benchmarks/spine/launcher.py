"""Run the ``repro`` CLI with the layer tracer installed.

    python benchmarks/spine/launcher.py TRACE_DIR serve --socket S --workers N

The wrappers go in before ``repro.cli`` starts the service, so the pool
workers it forks inherit them and append their spans to
``TRACE_DIR/spans-<pid>.jsonl`` as each call completes.  The server's own
spans are written when the CLI returns.
"""

from __future__ import annotations

import sys

from tracer import Tracer


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    import repro.cli

    tracer = Tracer(flush_dir=trace_dir).install()
    try:
        return repro.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
