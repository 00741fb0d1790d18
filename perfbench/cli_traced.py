"""Run one ``pqsp`` CLI call under the outside-in tracer.

Usage: ``python cli_traced.py SPANS_JSON <pqsp arguments...>``.  Behaves like
``python -m pqsp.cli`` (same exit code and output) and writes the call's
spans to SPANS_JSON.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pqsp.cli  # noqa: E402  (PYTHONPATH points at src)

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, args = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    code = 0
    with tracer:
        try:
            pqsp.cli.main.main(args=args, prog_name="pqsp", standalone_mode=True)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
