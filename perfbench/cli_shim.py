"""Run the CLI in-process with span recording.

    python3 perfbench/cli_shim.py SPANS_OUT ARGV...

Behaves as `python -m cordial.cli ARGV...` (same stdout, stderr and exit
code) and writes the spans of the call to SPANS_OUT. The traced cli passes
use it in place of the plain CLI.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cordial.cli  # noqa: E402
from spans import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = cordial.cli.main(sys.argv[2:])
    finally:
        tracer.restore()
        tracer.dump(sys.argv[1])
    raise SystemExit(code)
