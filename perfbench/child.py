"""Fresh-interpreter helpers the benchmark spawns; not run by hand.

    child.py import                        print seconds spent in `import qprobe.cli`
    child.py setup WORKLOAD SEED WORKDIR   set a workload up, then exit
    child.py trace SPANS_JSON ARGV...      run one CLI command with spans on,
                                           write the span summary, exit with its code
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "import":
        start = time.perf_counter()
        import qprobe.cli  # noqa: F401
        print(repr(time.perf_counter() - start))
        return 0
    if mode == "setup":
        import workloads
        workloads.WORKLOADS[rest[0]](int(rest[1]), Path(rest[2])).setup()
        return 0
    if mode == "trace":
        import json

        import qprobe.cli
        import spans
        tracer = spans.Tracer()
        with spans.install(tracer):
            code = qprobe.cli.main(rest[1:])
        Path(rest[0]).write_text(json.dumps({"spans": spans.summarize(tracer.spans),
                                             "counts": dict(tracer.counts)}))
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
