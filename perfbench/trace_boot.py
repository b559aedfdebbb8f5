"""Run one ivopt CLI command under the span tracer.

Usage: python3 perfbench/trace_boot.py SNAPSHOT_PATH CLI_ARGS...

Times ``import ivopt.cli``, runs ``ivopt.cli.main(CLI_ARGS)`` inside a
``cli.main`` span with every wrapper installed, writes the aggregates to
SNAPSHOT_PATH and the spans next to it, and exits with the CLI's code.
"""

import json
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import ivopt.cli as cli

    import_s = time.perf_counter() - start

    from tracer import Tracer

    snapshot_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = tracer.span("cli.main", cli.main)(argv)
    tracer.uninstall()
    snapshot = tracer.snapshot()
    snapshot["import_s"] = import_s
    with open(snapshot_path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh)
    tracer.write_spans(snapshot_path + ".spans.jsonl.gz")
    sys.exit(code)
