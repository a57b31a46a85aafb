"""One fresh process of the benchmark: a set-up or one timed operation.

    python3 child.py {setup,operation} SPEC_JSON [TRACE_JSON]

SPEC_JSON holds the workload and seed.  With TRACE_JSON the process wraps
the program's public functions (spans.py) and writes its spans there.  The
harness sets the working directory and puts the program's ``src`` on
PYTHONPATH.
"""

from __future__ import annotations

import json
import sys

import spans
import workloads


def main(argv: list[str]) -> int:
    phase, spec_path = argv[0], argv[1]
    trace_path = argv[2] if len(argv) > 2 else None
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    w = workloads.Workload(**spec["workload"])
    tracer = None
    if trace_path is not None:
        tracer = spans.Tracer()
        tracer.install(spans.SETUP_SPANS if phase == "setup" else spans.OPERATION_SPANS)
    try:
        if phase == "setup":
            workloads.setup(w, spec["seed"], tracer)
            return 0
        return workloads.operation(w, tracer)
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
