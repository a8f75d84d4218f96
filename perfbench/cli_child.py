"""One traced ``snvsim`` CLI call in a fresh interpreter.

Usage: ``python3 cli_child.py <trace.json> <snvsim arguments ...>``

Times ``import snvsim``, wraps the layers (see ``benchtrace``), calls the
``snvsim.cli:main`` entry point, writes the spans and counts to
``<trace.json>`` and exits with the CLI's exit status.
"""

from __future__ import annotations

import json
import sys

from benchtrace import CLI_PREFIX, IMPORT, Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span(IMPORT):
        import snvsim.cli
    scipy_modules = sum(1 for name in sys.modules if name == "scipy" or name.startswith("scipy."))
    with tracer.installed(), tracer.span(CLI_PREFIX + argv[0]):
        code = snvsim.cli.main(argv)
    sys.stdout.flush()
    with open(trace_path, "w") as handle:
        json.dump({"spans": tracer.spans, "counts": tracer.counts, "scipy_modules": scipy_modules}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
