"""One measured pass: a fresh process that runs CLI invocations in turn.

Usage: python3 child.py PLAN.json RESULT.json

``hardedge`` is imported from PYTHONPATH, which the parent points at the
checkout's ``src/``.  The plan names the config files to validate during
set-up and the argument lists handed to ``hardedge.cli.main``.  The result records
monotonic timestamps (comparable with the parent's, CLOCK_MONOTONIC is
system-wide), each invocation's exit code and captured output, the peak RSS
of this process and, when tracing, the per-layer metrics derived from spans.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = {}
    t_import0 = time.monotonic()
    import hardedge.cli as cli

    t_import1 = time.monotonic()
    for path in plan["configs"]:
        cli.load_config(path)
    t_setup = time.monotonic()
    result.update(
        t_import0=t_import0, t_import1=t_import1, t_setup=t_setup, module=cli.__file__
    )

    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    records = []
    for inv in plan["invocations"]:
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(inv["argv"])
        except Exception:  # recorded as a failed invocation, the pass goes on
            error = traceback.format_exc()
        records.append(
            {"label": inv["label"], "code": code, "stdout": out.getvalue(),
             "stderr": err.getvalue(), "error": error}
        )
    t_end = time.monotonic()

    result.update(
        t_end=t_end,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        invocations=records,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
        tracer.write_spans(plan["spans"])
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
