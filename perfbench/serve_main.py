"""Start ``repro serve`` in this interpreter, optionally traced.

Usage: ``python3 perfbench/serve_main.py [--trace-out FILE] -- <repro
serve arguments>`` with ``PYTHONPATH`` naming the repo's ``src``.  With
``--trace-out`` the daemon's layers are wrapped (see ``tracer.py``) and
their totals are written to FILE once the daemon has drained and
returned.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    # The daemon answers health checks before it imports the profiling
    # stack; import it first so readiness means ready to profile, and
    # traced and untraced daemons start from the same state.
    from repro import cli
    import repro.serve.daemon  # noqa: F401
    from tracer import Tracer, load_targets
    load_targets()
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    try:
        return cli.main(["serve", *serve_args])
    finally:
        if tracer is not None:
            tmp = args.trace_out + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(tracer.totals(), fh)
            os.replace(tmp, args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
