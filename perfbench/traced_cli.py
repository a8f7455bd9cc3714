"""Run one ``iwqm`` command in a fresh process with tracing on.

    python3 perfbench/traced_cli.py SPANS_JSON iwqm-arguments...

Behaves like the ``iwqm`` console script (same arguments, output and
exit code), and in addition records the import of the package as the
span ``import`` and every traced call of the command, then writes the
spans to SPANS_JSON.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter_ns()
    import iwqm.cli

    tracer.add_span("import", start, time.perf_counter_ns())
    tracer.install()
    try:
        return iwqm.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    sys.exit(main())
