"""Start the certification service with the layers wrapped (traced runs).

Usage::

    python3 perfbench/serve.py SPAN_DIR serve [serve options]

Installs the benchmark's span wrappers, then hands the remaining
arguments to the ``main`` of ``python -m repro.experiments`` — the CLI
the untraced runs start — so the supervised pool forks with the wrappers
already in place. Pool workers flush their spans into SPAN_DIR after each
query; this process writes its own when it exits.
"""

from __future__ import annotations

import atexit
import os
import sys

from child import refuse_training
from tracing import SpanRecorder, install, wrap


def main():
    span_dir, argv = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    atexit.register(recorder.flush,
                    os.path.join(span_dir, f"spans-{os.getpid()}.jsonl"))
    span = recorder.open("setup.import")
    from repro.experiments import __main__ as cli
    from repro.experiments import harness
    from repro.scheduler import pool
    recorder.close(span)
    harness.train_transformer = refuse_training
    wrap(recorder, harness, "get_transformer", "setup.model_load")
    wrap(recorder, pool.WorkerSupervisor, "start", "setup.pool_ready")
    install(recorder, worker_span_dir=span_dir)
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
