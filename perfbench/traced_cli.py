"""Run one soupkit command with the tracer installed.

    python perfbench/traced_cli.py SPANS_JSON COMMAND [OPTIONS...]

Writes ``{"code", "main_s", "spans"}`` to SPANS_JSON and exits with the
command's exit code.  ``main_s`` times ``cli.main(argv)`` alone, so the
caller's wall time for the whole subprocess minus it is the start-up
cost (interpreter, imports, exit).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from soupkit import cli

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        code = cli.main(argv)
        main_s = time.perf_counter() - t0
    Path(spans_path).write_text(json.dumps({"code": code, "main_s": main_s, "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main())
