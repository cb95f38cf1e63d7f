"""Run ``gsvkit.cli.main`` under the span recorder and write the spans out.

Usage: python3 perfbench/traced_cli.py SPANS_JSON SUBCOMMAND [ARGS...]

Behaves like ``python -m gsvkit.cli SUBCOMMAND [ARGS...]`` (same stdout,
stderr and exit code) and, when main returns, writes every recorded span to
SPANS_JSON as ``{"wrapped": [names], "spans": [[id, parent, name, start_ns,
end_ns, work], ...]}``.  Exits 70 if the tracer leaves a binding unwrapped.
"""

import json
import sys

import tracer


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    try:
        rec = tracer.install(tracer.Tracer())
    except tracer.MissedBinding as exc:
        print(f"traced_cli: {exc}", file=sys.stderr)
        return 70
    import gsvkit.cli

    try:
        code = gsvkit.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"wrapped": rec.wrapped, "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
