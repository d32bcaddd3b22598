"""Traced stand-in for the `nlgc` command.

Usage: python cli_shim.py SPANS_JSON <nlgc arguments...>

Imports nlgc.cli, installs the same layer wrappers as the in-process
traced run, calls nlgc.cli.main with the remaining arguments, and writes
the recorded spans plus the import time to SPANS_JSON before exiting with
main's return code. Untraced runs call the real entry point instead.
"""
import json
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import nlgc.cli
    import_s = time.perf_counter() - t0
    import tracing          # found next to this script
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return nlgc.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
