"""Traced `supercoinv` CLI process: install the tracer, call cli.main(argv).

Environment: BENCH_T0 (the parent's clock reading before it started this
process), BENCH_JOB (job id) and BENCH_TRACE_FILE (where the spans go).
The exit code is the one ``cli.main`` returns; an uncaught exception exits 1
as with the installed entry point.
"""

import os
import sys

import tracer as tracing

t0 = float(os.environ["BENCH_T0"])
tracer = tracing.Tracer()
tracer.begin_job(os.environ["BENCH_JOB"], t0)
startup = tracer.open("cli.startup", start=t0)
from supercoinv import cli  # noqa: E402

tracer.close(startup)
tracer.install()
try:
    code = cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
    tracing.write_jsonl(os.environ["BENCH_TRACE_FILE"], tracer.dump())
sys.exit(code)
