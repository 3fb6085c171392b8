"""Run one sitelasso command with per-layer tracing.

Usage: python traced_cli.py SPANS_JSON <sitelasso arguments...>

Installs the hooks of tracing.HOOKS, runs ``sitelasso.cli.main`` inside a
root span, writes the spans to SPANS_JSON and exits with the command's code.
sitelasso must be importable (its ``src`` directory on PYTHONPATH).
"""

import importlib
import sys

from tracing import ROOT, Tracer


def main(argv):
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install(importlib.import_module)
    cli = importlib.import_module("sitelasso.cli")
    try:
        code = tracer.wrap(cli.main, ROOT)(args)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
