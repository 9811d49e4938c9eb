"""Run ``localp2 reproduce`` in this process with a span on every public call.

The traced counterpart of ``python -m localp2 reproduce``: stdout carries the
same report, and the span summary goes to the last line of stderr as JSON.

    PYTHONPATH=src python3 perfbench/trace_child.py
"""

import json
import sys

import spans


def main():
    from localp2 import cli  # import is set-up, not traced

    tracer = spans.Tracer().install()
    try:
        code = cli.dispatch(["reproduce"])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(json.dumps(tracer.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
