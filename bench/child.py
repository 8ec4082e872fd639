"""One traced ``tmsvphase`` command in a fresh interpreter.

    python bench/child.py SPANS_FILE ARG...

Imports the package, wraps every function of its ``su11``, ``phases``,
``fock`` and ``cli`` modules, runs ``tmsvphase.cli.main(ARG...)`` (the code
path of ``python -m tmsvphase.cli ARG...``) and writes the spans to
SPANS_FILE when it ends.  The exit code is the command's.
"""

from __future__ import annotations

import json
import sys

from tracing import Tracer, install


def main(spans_path: str, args: list[str]) -> int:
    tracer = Tracer()
    setup = tracer.begin("setup.import")
    import tmsvphase.cli as cli
    from tmsvphase import fock, phases, su11
    tracer.finish(setup)
    install(tracer, {"su11": su11, "phases": phases, "fock": fock, "cli": cli})
    try:
        return cli.main(args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
