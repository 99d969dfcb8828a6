"""Run `ranklab.cli.main` with tracing installed, then write the spans.

Usage: python3 perfbench/traced_child.py SPANS_JSON ranklab-arguments...
"""

import json
import sys
from pathlib import Path

import ranklab.cli

from tracer import Tracer, install


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer()
    install(tracer)
    code = ranklab.cli.main(sys.argv[2:])
    out.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
